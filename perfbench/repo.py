"""Where the package and its test oracles live, relative to this directory.

The benchmark runs from a plain checkout in which the package is not
installed, so it imports `oddspec` from `src` and the reference oracles
from `tests`.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def missing() -> list[str]:
    """Repository files the benchmark needs and cannot find."""
    needed = [SRC / "oddspec" / "__init__.py", TESTS / "oracles.py"]
    return [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]


def add_to_path() -> None:
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
