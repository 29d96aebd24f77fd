"""oddspec benchmark.

    python3 perfbench/run.py --workload drive-cli --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, measures for the given
number of seconds, checks every output against an independent reference,
and prints the run's properties and metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import repo


def machine_and_run(args) -> dict:
    """Metadata that makes results comparable across commits: the machine,
    the interpreter, the code measured and the run's settings."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((repo.SRC / "oddspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; checkouts
    that are not repositories have none (src_sha256 still names the code)."""
    git = repo.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["drive-cli", "online-step", "enumerate-odd"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = repo.missing()
    if missing:
        print(f"error: not an oddspec checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    import workloads

    work = Path(tempfile.mkdtemp(prefix="run-", dir=_scratch_root()))
    try:
        result = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, work, bool(args.trace)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = workloads.PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS
    print("meta " + json.dumps(machine_and_run(args)))
    print("properties " + json.dumps(result.properties))
    for line in result.notes:
        print(line)
    if result.operation_seconds:
        print("operation_seconds " + json.dumps(result.operation_seconds))
    for name, unit in units.items():
        print(f"{name:<40} {result.metrics[name]:>16.6f} {unit}")
    print(f"{'failed_ratio':<40} {result.failed / result.attempted:>16.6f} "
          f"({result.failed} of {result.attempted} operations)")
    for problem in result.problems[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


def _scratch_root() -> Path:
    """Generated inputs and CLI outputs live in the checkout, under a
    directory the repository ignores."""
    root = repo.ROOT / ".perfbench_tmp"
    root.mkdir(exist_ok=True)
    return root


if __name__ == "__main__":
    sys.exit(main())
