"""The three workloads: an untraced run gives the end-to-end metrics, a
traced run gives the per-layer ones.

The package is driven only through its public functions and through its
CLI, run as `python -m oddspec` with `src` on the path. Inputs come from
`generate`, expected outputs from `reference`; both are computed outside
every timed region. Every time an untraced run reports is scaled to a
reference host speed by `calibrate.Yardstick`.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import generate
import reference
import repo
from spans import Span, Tracer, percentile

repo.add_to_path()

from oddspec import (  # noqa: E402
    Lod,
    atoms,
    check_spec,
    diagnose,
    domain_cardinality,
    enumerate_od,
    enumerate_odd,
    eval_spec,
    make_lod,
    monitor_init,
    monitor_step,
    parse_spec,
    parse_taxonomy,
    parse_trace,
    report_from_state,
    report_json,
    run_monitor,
    serialize_spec,
)

SETUP_REPEATS = 10
TRACED_SETUP_REPEATS = 50
CLI_TIMEOUT_S = 120
TRACED_ROUNDS = 3
REPLAYS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "domain_tuples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "taxonomy.parse_taxonomy.ms": "ms",
    "specdsl.parse_spec.ms": "ms",
    "specdsl.check_spec.ms": "ms",
    "domain.parse_trace.samples_per_s": "1/s",
    "domain.make_lod.us_p50": "us",
    "domain.enumerate_od.tuples_per_s": "1/s",
    "evaluator.eval_spec.samples_per_s": "1/s",
    "evaluator.diagnose.samples_per_s": "1/s",
    "evaluator.enumerate_odd.tuples_per_s": "1/s",
    "evaluator.enumerate_odd.admitted": "count",
    "monitor.monitor_step.us_p50": "us",
    "monitor.monitor_step.us_p99": "us",
    "monitor.run_monitor.samples_per_s": "1/s",
    "monitor.report_json.ms": "ms",
    "monitor.events": "count",
    "monitor.events_per_ksample": "1/ksample",
    "cli.wall_s": "s",
    "cli.peak_rss_mb": "MB",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


@dataclass
class Result:
    """What one run measured and checked. An operation is one drive (a CLI
    process or an in-process episode) or one enumeration."""

    metrics: dict[str, float] = field(default_factory=dict)
    properties: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    operation_seconds: list[float] = field(default_factory=list)

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# ---------------------------------------------------------------------------
# Shared measurements
# ---------------------------------------------------------------------------


class Setup:
    """Raw taxonomy and spec text to a state ready for its first sample:
    parse_taxonomy + parse_spec + check_spec (+ monitor_init), in-process.
    The first batch warms up and is not counted; after that, a batch of
    repeats follows every operation and shares that operation's scale, and
    `setup_s` is the median of all counted repeats, scaled."""

    def __init__(self, taxonomy_text: str, spec_text: str, with_monitor: bool):
        self.texts = (taxonomy_text, spec_text)
        self.with_monitor = with_monitor
        self.batches: list[list[float]] = []
        self.repeat()
        self.batches.clear()

    def repeat(self, times: int = SETUP_REPEATS) -> None:
        taxonomy_text, spec_text = self.texts
        batch = []
        for _ in range(times):
            start = time.perf_counter()
            taxonomy = parse_taxonomy(taxonomy_text)
            spec = check_spec(parse_spec(spec_text), taxonomy)
            if self.with_monitor:
                monitor_init(spec, taxonomy)
            batch.append(time.perf_counter() - start)
        self.batches.append(batch)
        self.taxonomy, self.spec = taxonomy, spec

    def summary(self, scales: list[float]) -> float:
        return statistics.median(
            seconds * scale for batch, scale in zip(self.batches, scales, strict=True)
            for seconds in batch
        )


def traced_setup(taxonomy_text: str, spec_text: str, with_monitor: bool, tracer: Tracer):
    """Setup with a span per stage; returns the median total seconds, the
    (taxonomy, spec) it built, and the per-stage medians in ms."""
    totals = []
    for _ in range(TRACED_SETUP_REPEATS):
        with tracer.span("setup") as root:
            with tracer.span("taxonomy.parse_taxonomy", root):
                taxonomy = parse_taxonomy(taxonomy_text)
            with tracer.span("specdsl.parse_spec", root):
                ast = parse_spec(spec_text)
            with tracer.span("specdsl.check_spec", root):
                spec = check_spec(ast, taxonomy)
            if with_monitor:
                with tracer.span("monitor.monitor_init", root):
                    monitor_init(spec, taxonomy)
        totals.append(tracer.spans[root].busy_ns / 1e9)
    stages = {
        f"{name}.ms": statistics.median(s.busy_ns for s in tracer.find(name)) / 1e6
        for name in ("taxonomy.parse_taxonomy", "specdsl.parse_spec", "specdsl.check_spec")
    }
    return statistics.median(totals), taxonomy, spec, stages


@dataclass
class CliRun:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: str


def run_cli(args: list[str], work: Path) -> CliRun:
    """One `python -m oddspec` child. Its wall time spans spawn to reap; its
    peak RSS comes from wait4, so it belongs to this child alone."""
    out_path, err_path = work / "cli.out", work / "cli.err"
    env = dict(os.environ, PYTHONPATH=str(repo.SRC), PYTHONHASHSEED="0")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "oddspec", *args],
            stdout=out, stderr=err, cwd=work, env=env,
        )
        timer = threading.Timer(CLI_TIMEOUT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024,
        returncode=child.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def exit_problems(run: CliRun) -> list[str]:
    if run.returncode == 0:
        return []
    return [f"exit code {run.returncode}: {run.stderr.strip()[-500:]}"]


def cli_metrics(runs: list[CliRun], scales: list[float], judged: int,
                emitted: int) -> dict[str, float]:
    """End-to-end metrics of a batch CLI workload: each process judges
    `judged` samples or tuples and emits `emitted` records. Each process's
    wall time is scaled by its yardstick scale, and every metric is the
    median over the processes. A process does not expose single steps, so
    both step percentiles read its mean time per judged item."""
    walls = [run.wall_s * scale for run, scale in zip(runs, scales, strict=True)]
    per_item_us = statistics.median(wall / judged * 1e6 for wall in walls)
    return {
        "samples_per_s": statistics.median(emitted / wall for wall in walls),
        "step_p50_us": per_item_us,
        "step_p99_us": per_item_us,
        "domain_tuples_per_s": statistics.median(judged / wall for wall in walls),
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in runs),
    }


def repeat_cli(args: list[str], work: Path, seconds: float, check,
               setup: Setup) -> tuple[list[CliRun], calibrate.Yardstick, Result]:
    """Warm up once (`--help` byte-compiles the package), then run the CLI
    until `seconds` have passed, checking every process's output and
    repeating the set-up and the yardstick after each."""
    result = Result()
    run_cli(["--help"], work)
    yardstick = calibrate.Yardstick()
    runs = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(run_cli(args, work))
        setup.repeat()
        yardstick.mark()
        result.check(exit_problems(runs[-1]) or check(runs[-1]))
    return runs, yardstick, result


def scale_notes(yardstick_seconds: list[float], raw: list[float],
                scales: list[float]) -> list[str]:
    """The unscaled figures behind a run's scaled metrics; `scales` holds
    each operation's scale."""
    return [
        "yardstick_seconds " + json.dumps([round(s, 6) for s in yardstick_seconds]),
        f"operation_seconds_median_unscaled {statistics.median(raw):.6f}",
        f"operation_seconds_median_scaled "
        f"{statistics.median(r * s for r, s in zip(raw, scales, strict=True)):.6f}",
    ]


def idle(names: list[str]) -> dict[str, float]:
    """Layers the workload never calls did no work: 0."""
    return {name: 0.0 for name in names}


def overhead(untraced: list[float], traced: list[float]) -> dict[str, float]:
    plain = statistics.median(untraced)
    extra = statistics.median(traced) - plain
    return {"trace.overhead_s": extra, "trace.overhead_pct": 100 * extra / plain}


# ---------------------------------------------------------------------------
# drive-cli: `oddspec monitor --report` over a long drive
# ---------------------------------------------------------------------------


def drive_cli(seed: int, seconds: float, work: Path, traced: bool) -> Result:
    params = generate.drive_params(seed)
    taxonomy_text = generate.taxonomy_text(generate.DRIVE_ATTRIBUTES, "drive-1")
    spec_text = generate.drive_spec_text(params)
    rows = generate.drive_rows(params, seed)
    trace_text = generate.trace_text(rows)
    times = [generate.sample_time(i) for i in range(len(rows))]
    for name, text in (("taxonomy.json", taxonomy_text), ("drive.spec", spec_text),
                       ("drive.jsonl", trace_text)):
        (work / name).write_text(text, encoding="utf-8")
    expected = reference.expected_drive(parse_taxonomy(taxonomy_text), spec_text, rows, times)
    args = ["monitor", "--taxonomy", "taxonomy.json", "--spec", "drive.spec",
            "--trace", "drive.jsonl", "--report", "report.json"]

    def check(run: CliRun) -> list[str]:
        report_path = work / "report.json"
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"no readable report: {exc}"]
        report_path.unlink()  # a later process that writes none must not pass
        return reference.cli_drive_mismatches(expected, run.stdout.decode(), report)

    if not traced:
        setup = Setup(taxonomy_text, spec_text, True)
        runs, yardstick, result = repeat_cli(args, work, seconds, check, setup)
        result.metrics = dict(cli_metrics(runs, yardstick.scales, len(rows), len(rows)),
                              setup_s=setup.summary(yardstick.scales))
        result.operation_seconds = [run.wall_s for run in runs]
        result.notes = scale_notes(yardstick.seconds, result.operation_seconds,
                                   yardstick.scales)
        result.properties = dict(expected.properties(), **_spec_properties(setup.spec.ast),
                                 dropout_share=_dropout_share(rows), cli_processes=len(runs))
        return result

    tracer = Tracer()
    setup_s, taxonomy, spec, stages = traced_setup(taxonomy_text, spec_text, True, tracer)
    result = Result()

    def replay(trace: bool) -> float:
        """The CLI's library work in-process: parse, fold, report."""
        def span(name, parent=None):
            return tracer.span(name, parent) if trace else nullcontext()

        start = time.perf_counter()
        with span("drive.replay") as root:
            with span("domain.parse_trace", root):
                parsed = parse_trace(trace_text, taxonomy)
            state = monitor_init(spec, taxonomy)
            step_span = tracer.aggregate("monitor.monitor_step", root) if trace else None
            verdicts, events = _fold(state, parsed.samples, step_span)
            with span("monitor.report_json", root):
                text = report_json(report_from_state(state, events))
        elapsed = time.perf_counter() - start
        report = json.loads(text)
        result.check(reference.drive_mismatches(
            expected, [v.value for v in verdicts],
            [(e["kind"], e["t"], e["index"]) for e in report["events"]],
            report["samples"], report["atom_violations"],
        ))
        return elapsed

    # CLI and in-process replays alternate, so that both see the same
    # phases of a noisy host and cli.self_s compares like with like.
    run_cli(["--help"], work)
    runs, untraced_s, traced_s = [], [], []
    for _ in range(TRACED_ROUNDS):
        runs.append(run_cli(args, work))
        result.check(exit_problems(runs[-1]) or check(runs[-1]))
        untraced_s.append(replay(False))
        traced_s.append(replay(True))

    records = [json.loads(line) for line in trace_text.splitlines()]
    lods = parse_trace(trace_text, taxonomy).samples
    make_lod_span = _per_sample(
        tracer, "domain.make_lod",
        lambda r: make_lod(taxonomy, r["values"], t=r["t"], x=r["x"], y=r["y"]), records,
    )
    eval_span = _per_sample(tracer, "evaluator.eval_spec", lambda lod: eval_spec(spec, lod), lods)
    diagnose_span = _per_sample(tracer, "evaluator.diagnose", lambda lod: diagnose(spec, lod), lods)
    with tracer.span("monitor.run_monitor") as run_index:
        report = run_monitor(spec, taxonomy, parse_trace(trace_text, taxonomy))
    result.check(reference.drive_mismatches(
        expected, expected.verdicts,
        [(e.kind.value, e.t, e.sample_index) for e in report.events],
        _counts(report), {serialize_spec(a): c for a, c in report.atom_violations.items()},
    ))

    parse_spans = tracer.find("domain.parse_trace")
    step_spans = tracer.find("monitor.monitor_step")
    cli_wall = statistics.median(run.wall_s for run in runs)
    result.metrics = {
        **stages,
        "domain.parse_trace.samples_per_s": len(rows) * len(parse_spans)
        / sum(s.busy_ns / 1e9 for s in parse_spans),
        "domain.make_lod.us_p50": _pooled_percentile([make_lod_span], 0.50),
        "evaluator.eval_spec.samples_per_s": _rate(eval_span),
        "evaluator.diagnose.samples_per_s": _rate(diagnose_span),
        "monitor.monitor_step.us_p50": _pooled_percentile(step_spans, 0.50),
        "monitor.monitor_step.us_p99": _pooled_percentile(step_spans, 0.99),
        "monitor.run_monitor.samples_per_s": len(rows) / (tracer.spans[run_index].busy_ns / 1e9),
        "monitor.report_json.ms": statistics.median(
            s.busy_ns for s in tracer.find("monitor.report_json")) / 1e6,
        "monitor.events": len(expected.events),
        "monitor.events_per_ksample": 1000 * len(expected.events) / len(rows),
        "cli.wall_s": cli_wall,
        "cli.peak_rss_mb": statistics.median(run.peak_rss_mb for run in runs),
        "cli.self_s": cli_wall - setup_s - statistics.median(untraced_s),
        **idle(["domain.enumerate_od.tuples_per_s", "evaluator.enumerate_odd.tuples_per_s",
                "evaluator.enumerate_odd.admitted"]),
        **overhead(untraced_s, traced_s),
    }
    result.properties = dict(expected.properties(), **_spec_properties(spec.ast),
                             dropout_share=_dropout_share(rows))
    result.notes = tracer.summary()
    return result


# ---------------------------------------------------------------------------
# online-step: closed-loop make_lod + monitor_step, one caller
# ---------------------------------------------------------------------------


def online_step(seed: int, seconds: float, work: Path, traced: bool) -> Result:
    taxonomy_text = generate.taxonomy_text(generate.DRIVE_ATTRIBUTES, "drive-1")
    spec_text = generate.online_spec_text(seed)
    tracer = Tracer() if traced else None
    if traced:
        setup_s, taxonomy, spec, stages = traced_setup(taxonomy_text, spec_text, True, tracer)
    else:
        setup = Setup(taxonomy_text, spec_text, True)
        taxonomy, spec = setup.taxonomy, setup.spec
    result = Result()

    def episode(number: int):
        """A new drive under a new spec of the same shape: a run's cost then
        spreads over many specs, and depends less on which seed it has."""
        text = generate.online_spec_text(seed, number)
        rows = generate.online_rows(seed, number)
        times = [generate.sample_time(i) for i in range(len(rows))]
        return (check_spec(parse_spec(text), taxonomy), rows, times,
                reference.expected_drive(taxonomy, text, rows, times))

    def run_episode(spec, rows, times, expected, lod_span: Span | None,
                    step_span: Span | None):
        """One episode; returns the loop's seconds, per-step ns and the Lods.
        It starts from a full collection, so that every replay of an episode
        meets the garbage collector in the same state."""
        gc.collect()
        state = monitor_init(spec, taxonomy)
        verdicts, events, durations, lods = [], [], [], []
        clock = time.perf_counter_ns
        start = clock()
        if lod_span is None:
            for t, row in zip(times, rows):
                begin = clock()
                lod = make_lod(taxonomy, row, t=t)
                _, verdict, step_events = monitor_step(state, lod)
                durations.append(clock() - begin)
                verdicts.append(verdict)
                events.extend(step_events)
                lods.append(lod)
        else:
            for t, row in zip(times, rows):
                begin = clock()
                lod = make_lod(taxonomy, row, t=t)
                middle = clock()
                _, verdict, step_events = monitor_step(state, lod)
                end = clock()
                lod_span.add(middle - begin)
                step_span.add(end - middle)
                verdicts.append(verdict)
                events.extend(step_events)
                lods.append(lod)
        loop_s = (clock() - start) / 1e9
        report = report_from_state(state, events)
        result.check(reference.drive_mismatches(
            expected, [v.value for v in verdicts],
            [(e.kind.value, e.t, e.sample_index) for e in events],
            _counts(report), {serialize_spec(a): c for a, c in report.atom_violations.items()},
        ))
        return loop_s, durations, lods

    spec, rows, times, expected = episode(0)
    properties = dict(expected.properties(), **_spec_properties(spec.ast),
                      dropout_share=_dropout_share(rows))
    if not traced:
        # Every episode is replayed, and a step's latency is the least of its
        # replays: the same work on the same state, a second or more apart.
        # A preemption or a slow moment of the host rarely hits the same
        # step twice; the program's own cost, collections included, does.
        rates, steps_us, scales = [], [], []
        yardstick = calibrate.Yardstick()
        deadline = time.perf_counter() + seconds
        number = 0
        while True:
            replays = [run_episode(spec, rows, times, expected, None, None)
                       for _ in range(REPLAYS)]
            setup.repeat()
            scale = yardstick.mark()
            for loop_s, _, _ in replays:
                rates.append(len(rows) / (loop_s * scale))
                result.operation_seconds.append(loop_s)
                scales.append(scale)
            steps_us.extend(min(per_replay) / 1000 * scale
                            for per_replay in zip(*(r[1] for r in replays)))
            number += 1
            if time.perf_counter() >= deadline:
                break
            spec, rows, times, expected = episode(number)
        samples_per_s = statistics.median(rates)
        result.metrics = {
            "setup_s": setup.summary(yardstick.scales),
            "samples_per_s": samples_per_s,
            "step_p50_us": percentile(steps_us, 0.50),
            "step_p99_us": percentile(steps_us, 0.99),
            "domain_tuples_per_s": samples_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result.properties = dict(properties, episodes=number, replays=REPLAYS,
                                 steps=len(steps_us))
        result.notes = scale_notes(yardstick.seconds, result.operation_seconds, scales)
        return result

    untraced_s, traced_s = [], []
    for _ in range(TRACED_ROUNDS):
        untraced_s.append(run_episode(spec, rows, times, expected, None, None)[0])
        with tracer.span("online.episode") as root:
            lod_span = tracer.aggregate("domain.make_lod", root)
            step_span = tracer.aggregate("monitor.monitor_step", root)
            loop_s, _, lods = run_episode(spec, rows, times, expected, lod_span, step_span)
            tracer.close(lod_span)
            tracer.close(step_span)
        traced_s.append(loop_s)
    eval_span = _per_sample(tracer, "evaluator.eval_spec", lambda lod: eval_spec(spec, lod), lods)
    diagnose_span = _per_sample(tracer, "evaluator.diagnose", lambda lod: diagnose(spec, lod), lods)
    step_spans = tracer.find("monitor.monitor_step")
    result.metrics = {
        **stages,
        "domain.make_lod.us_p50": _pooled_percentile(tracer.find("domain.make_lod"), 0.50),
        "evaluator.eval_spec.samples_per_s": _rate(eval_span),
        "evaluator.diagnose.samples_per_s": _rate(diagnose_span),
        "monitor.monitor_step.us_p50": _pooled_percentile(step_spans, 0.50),
        "monitor.monitor_step.us_p99": _pooled_percentile(step_spans, 0.99),
        "monitor.events": len(expected.events),
        "monitor.events_per_ksample": 1000 * len(expected.events) / len(rows),
        **idle(["domain.parse_trace.samples_per_s", "domain.enumerate_od.tuples_per_s",
                "evaluator.enumerate_odd.tuples_per_s", "evaluator.enumerate_odd.admitted",
                "monitor.run_monitor.samples_per_s", "monitor.report_json.ms",
                "cli.wall_s", "cli.peak_rss_mb", "cli.self_s"]),
        **overhead(untraced_s, traced_s),
    }
    result.properties = properties
    result.notes = tracer.summary()
    return result


# ---------------------------------------------------------------------------
# enumerate-odd: `oddspec enumerate --spec` over a finite domain
# ---------------------------------------------------------------------------


def enumerate_odd_workload(seed: int, seconds: float, work: Path, traced: bool) -> Result:
    taxonomy_text = generate.taxonomy_text(generate.FINITE_ATTRIBUTES, "finite-1")
    spec_text = generate.enumerate_spec_text(seed)
    for name, text in (("taxonomy.json", taxonomy_text), ("odd.spec", spec_text)):
        (work / name).write_text(text, encoding="utf-8")
    admitted = reference.expected_odd(parse_taxonomy(taxonomy_text), spec_text)
    expected_lines = reference.odd_lines(admitted)
    args = ["enumerate", "--taxonomy", "taxonomy.json", "--spec", "odd.spec"]

    def check(run: CliRun) -> list[str]:
        return reference.odd_mismatches(expected_lines, run.stdout.decode().splitlines())

    cardinality = domain_cardinality(parse_taxonomy(taxonomy_text))
    properties = dict(_spec_properties(parse_spec(spec_text)), cardinality=cardinality,
                      admitted=len(admitted), admitted_share=len(admitted) / cardinality)
    if not traced:
        setup = Setup(taxonomy_text, spec_text, False)
        runs, yardstick, result = repeat_cli(args, work, seconds, check, setup)
        result.metrics = dict(cli_metrics(runs, yardstick.scales, cardinality, len(admitted)),
                              setup_s=setup.summary(yardstick.scales))
        result.operation_seconds = [run.wall_s for run in runs]
        result.notes = scale_notes(yardstick.seconds, result.operation_seconds,
                                   yardstick.scales)
        result.properties = dict(properties, cli_processes=len(runs))
        return result

    tracer = Tracer()
    setup_s, taxonomy, spec, stages = traced_setup(taxonomy_text, spec_text, False, tracer)
    result = Result()
    run_cli(["--help"], work)
    runs, untraced_s, traced_s = [], [], []
    for _ in range(TRACED_ROUNDS):
        runs.append(run_cli(args, work))
        result.check(exit_problems(runs[-1]) or check(runs[-1]))
        start = time.perf_counter()
        seen = list(enumerate_odd(taxonomy, spec))
        untraced_s.append(time.perf_counter() - start)
        result.check(reference.odd_mismatches(admitted, seen))
        with tracer.span("evaluator.enumerate_odd") as index:
            seen = list(enumerate_odd(taxonomy, spec))
        traced_s.append(tracer.spans[index].busy_ns / 1e9)
        result.check(reference.odd_mismatches(admitted, seen))
    with tracer.span("domain.enumerate_od") as od_index:
        domain = list(enumerate_od(taxonomy))
    samples = [Lod(t=0.0, x=0.0, y=0.0, values=values) for values in domain]
    eval_span = _per_sample(
        tracer, "evaluator.eval_spec", lambda lod: eval_spec(spec, lod), samples
    )
    cli_wall = statistics.median(run.wall_s for run in runs)
    result.metrics = {
        **stages,
        "domain.enumerate_od.tuples_per_s": cardinality / (tracer.spans[od_index].busy_ns / 1e9),
        "evaluator.eval_spec.samples_per_s": _rate(eval_span),
        "evaluator.enumerate_odd.tuples_per_s": cardinality / statistics.median(traced_s),
        "evaluator.enumerate_odd.admitted": len(admitted),
        "cli.wall_s": cli_wall,
        "cli.peak_rss_mb": statistics.median(run.peak_rss_mb for run in runs),
        "cli.self_s": cli_wall - setup_s - statistics.median(untraced_s),
        **idle(["domain.parse_trace.samples_per_s", "domain.make_lod.us_p50",
                "evaluator.diagnose.samples_per_s", "monitor.monitor_step.us_p50",
                "monitor.monitor_step.us_p99", "monitor.run_monitor.samples_per_s",
                "monitor.report_json.ms", "monitor.events", "monitor.events_per_ksample"]),
        **overhead(untraced_s, traced_s),
    }
    result.properties = properties
    result.notes = tracer.summary()
    return result


WORKLOADS = {
    "drive-cli": drive_cli,
    "online-step": online_step,
    "enumerate-odd": enumerate_odd_workload,
}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _fold(state, samples, step_span: Span | None):
    """monitor_step over the samples; per-step spans only when traced."""
    verdicts, events = [], []
    if step_span is None:
        for lod in samples:
            _, verdict, step_events = monitor_step(state, lod)
            verdicts.append(verdict)
            events.extend(step_events)
        return verdicts, events
    clock = time.perf_counter_ns
    for lod in samples:
        begin = clock()
        _, verdict, step_events = monitor_step(state, lod)
        step_span.add(clock() - begin)
        verdicts.append(verdict)
        events.extend(step_events)
    Tracer.close(step_span)
    return verdicts, events


def _per_sample(tracer: Tracer, name: str, call, inputs) -> Span:
    record = tracer.aggregate(name)
    clock = time.perf_counter_ns
    for item in inputs:
        begin = clock()
        call(item)
        record.add(clock() - begin)
    tracer.close(record)
    return record


def _rate(record: Span) -> float:
    return record.count / (record.busy_ns / 1e9)


def _pooled_percentile(records: list[Span], share: float) -> float:
    return percentile([d for r in records for d in r.durations_ns], share) / 1000


def _counts(report) -> dict[str, int]:
    return {
        "total": report.samples_total,
        "in": report.samples_in,
        "out": report.samples_out,
        "unknown": report.samples_unknown,
    }


def _spec_properties(ast) -> dict:
    return {
        "distinct_atoms": len(atoms(ast)),
        "ast_depth": reference.depth(ast),
    }


def _dropout_share(rows: list[dict]) -> float:
    width = len(generate.DRIVE_ATTRIBUTES)
    unmeasured = sum(
        1 for row in rows if len(row) < width or any(v is None for v in row.values())
    )
    return unmeasured / len(rows)
