"""The README's library tour runs as written and gives the results its comments state."""

import shutil
from pathlib import Path

import oddspec

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"


def test_library_tour_runs_and_gives_its_commented_results(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour (library)")[1].split("```python\n")[1].split("```")[0]
    shutil.copy(DATA / "taxonomy_motorway.json", tmp_path / "taxonomy.json")
    shutil.copy(DATA / "flip.trace", tmp_path / "drive.trace")
    shutil.copy(DATA / "taxonomy_finite.json", tmp_path / "taxonomy_finite.json")
    monkeypatch.chdir(tmp_path)

    namespace: dict = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    results = {}
    for line in tour.splitlines():
        code, _, comment = line.partition("  # ")
        if code.strip() and comment:
            results[comment.strip()] = eval(code, namespace)

    assert results["Verdict.TRUE"] is oddspec.Verdict.TRUE
    assert results["True"] is True
    assert results["[('motorway', True), ('motorway', False)]"] == [
        ("motorway", True),
        ("motorway", False),
    ]
    assert results["2"] == 2
