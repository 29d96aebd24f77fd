"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import generate
import reference
import repo
from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, Result, Setup

repo.add_to_path()

from oddspec import (  # noqa: E402
    check_spec,
    enumerate_odd,
    parse_spec,
    parse_taxonomy,
    parse_trace,
    report_json,
    run_monitor,
)

DRIVE_TAXONOMY = generate.taxonomy_text(generate.DRIVE_ATTRIBUTES, "drive-1")
FINITE_TAXONOMY = generate.taxonomy_text(generate.FINITE_ATTRIBUTES, "finite-1")


def all_inputs(seed: int) -> list[str]:
    params = generate.drive_params(seed)
    return [
        DRIVE_TAXONOMY,
        generate.drive_spec_text(params),
        generate.trace_text(generate.drive_rows(params, seed, count=2000)),
        generate.online_spec_text(seed),
        json.dumps(generate.online_rows(seed, 3, count=500)),
        FINITE_TAXONOMY,
        generate.enumerate_spec_text(seed),
    ]


def test_generator_is_deterministic_per_seed():
    assert all_inputs(7) == all_inputs(7)
    assert all_inputs(7) != all_inputs(8)


def small_drive(seed: int = 5):
    taxonomy = parse_taxonomy(DRIVE_TAXONOMY)
    spec_text = generate.online_spec_text(seed)
    rows = generate.online_rows(seed, 0, count=600)
    times = [generate.sample_time(i) for i in range(len(rows))]
    expected = reference.expected_drive(taxonomy, spec_text, rows, times)
    return taxonomy, spec_text, rows, times, expected


def test_reference_agrees_with_the_monitor():
    taxonomy, spec_text, rows, _, expected = small_drive()
    spec = check_spec(parse_spec(spec_text), taxonomy)
    report = json.loads(report_json(run_monitor(
        spec, taxonomy, parse_trace(generate.trace_text(rows), taxonomy)
    )))
    events = [(e["kind"], e["t"], e["index"]) for e in report["events"]]
    assert expected.counts["unknown"] > 0
    assert reference.drive_mismatches(
        expected, expected.verdicts, events, report["samples"], report["atom_violations"]
    ) == []


def test_flipped_verdict_is_a_failed_operation():
    *_, expected = small_drive()
    flipped = list(expected.verdicts)
    flipped[17] = "false" if flipped[17] == "true" else "true"
    result = Result()
    result.check(reference.drive_mismatches(
        expected, flipped, expected.events, expected.counts, expected.atom_violations
    ))
    assert (result.attempted, result.failed) == (1, 1)

    lines = expected.lines()
    lines[17] = lines[17].rsplit("=", 1)[0] + "=" + flipped[17]
    report = {
        "samples": expected.counts,
        "events": [{"kind": k, "t": t, "index": i} for k, t, i in expected.events],
        "atom_violations": expected.atom_violations,
    }
    assert reference.cli_drive_mismatches(expected, "\n".join(lines) + "\n", report)
    assert not reference.cli_drive_mismatches(expected, "\n".join(expected.lines()) + "\n", report)


def test_dropped_tuple_is_a_failed_operation():
    taxonomy = parse_taxonomy(FINITE_TAXONOMY)
    spec_text = generate.enumerate_spec_text(3)
    admitted = reference.expected_odd(taxonomy, spec_text)
    seen = list(enumerate_odd(taxonomy, check_spec(parse_spec(spec_text), taxonomy)))
    assert len(admitted) == 3456
    result = Result()
    result.check(reference.odd_mismatches(admitted, seen))
    result.check(reference.odd_mismatches(admitted, seen[:100] + seen[101:]))
    assert (result.attempted, result.failed) == (2, 1)


def test_yardstick_scales_each_operation_by_its_neighbours(monkeypatch):
    assert calibrate.routine() == calibrate.CHECKSUM
    timings = iter([0.1, 0.3, 0.25])
    monkeypatch.setattr(calibrate, "seconds", lambda: next(timings))
    yardstick = calibrate.Yardstick()
    first, second = yardstick.mark(), yardstick.mark()
    assert (first, second) == (calibrate.REFERENCE_S / 0.2, calibrate.REFERENCE_S / 0.275)
    setup = Setup(DRIVE_TAXONOMY, generate.online_spec_text(1), True)
    setup.batches = [[0.002, 0.004, 0.006], [0.001]]
    assert setup.summary(yardstick.scales) == pytest.approx((0.002 + 0.004) / 2 * first)


def test_fails_without_the_package(tmp_path: Path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(repo.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drive-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_units_match_benchmark_json():
    declared = json.loads((repo.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER_UNITS
