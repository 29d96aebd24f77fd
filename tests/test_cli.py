import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspec import (
    And,
    Atom,
    Attribute,
    BoolType,
    EnumType,
    IntType,
    OddspecError,
    Predicate,
    Taxonomy,
    TraceError,
    check_spec,
    enumerate_od,
    enumerate_odd,
    eval_spec,
    parse_spec,
    parse_taxonomy,
    parse_trace,
    render_value,
    report_json,
    run_monitor,
    serialize_spec,
    serialize_taxonomy,
)
from oddspec import cli
from oddspec.cli import cmd_enumerate, main
from oracles import SPEC_FAMILY, TAXONOMY_FAMILY, random_spec

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

TAXONOMY = str(DATA / "taxonomy_motorway.json")
FINITE = str(DATA / "taxonomy_finite.json")
SPEC = str(DATA / "motorway.spec")
FINITE_SPEC = str(DATA / "finite.spec")
TRACE = str(DATA / "flip.trace")
NEGATED_SPEC = str(DATA / "negated.spec")
DROPOUT_TRACE = str(DATA / "dropout.trace")
BAND_SPEC = str(DATA / "band.spec")
BAND_TRACE = str(DATA / "band.trace")
INT_SPEED_TRACE = str(DATA / "int_speed.trace")
LOD = str(DATA / "lod_out.json")
RURAL_LOD = str(DATA / "lod_rural.json")
REAL_EQUALITY = "operational_speed == 50 kmh"


def run_cli(*argv):
    """Run the installed CLI in a real subprocess for byte-faithful output."""
    return subprocess.run(
        [sys.executable, "-m", "oddspec", *argv],
        capture_output=True,
        text=True,
    )


def _wide_taxonomy(directory, maximum):
    """A taxonomy file declaring {a: int 0..maximum, b: bool}."""
    path = directory / "wide.json"
    path.write_text(
        '{"version": "1", "attributes": [{"name": "a", "type": "int", "min": 0, '
        '"max": %d}, {"name": "b", "type": "bool"}]}' % maximum
    )
    return path


GOLDEN_CASES = [
    (["validate", "--taxonomy", TAXONOMY], "validate.txt"),
    (["validate", "--taxonomy", FINITE, "--spec", FINITE_SPEC], "validate_odd.txt"),
    (["check", "--taxonomy", TAXONOMY, "--spec", SPEC], "check.txt"),
    (["eval", "--taxonomy", TAXONOMY, "--spec", SPEC, "--lod", LOD], "eval.txt"),
    # diagnose, not the monitor's flags, on an unmeasured atom and an unblamed negated one
    (
        ["eval", "--taxonomy", TAXONOMY, "--spec", NEGATED_SPEC, "--lod", RURAL_LOD],
        "eval_negated.txt",
    ),
    (["enumerate", "--taxonomy", FINITE], "enumerate_od.txt"),
    (["enumerate", "--taxonomy", FINITE, "--spec", FINITE_SPEC], "enumerate_odd.txt"),
    (["monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", TRACE], "monitor.txt"),
    # a speed on each literal of a band, one float step to either side of
    # it, between and past them, and unmeasured
    (
        ["monitor", "--taxonomy", TAXONOMY, "--spec", BAND_SPEC, "--trace", BAND_TRACE],
        "band_monitor.txt",
    ),
    # a speed given as a JSON int, as a float, as null and absent: an int is
    # no float, so it takes the real type's general rule
    (
        ["monitor", "--taxonomy", TAXONOMY, "--spec", BAND_SPEC, "--trace", INT_SPEED_TRACE],
        "int_speed_monitor.txt",
    ),
]
# the report document each monitor case writes with --report
GOLDEN_REPORTS = {
    "monitor.txt": "report.json",
    "band_monitor.txt": "band_report.json",
    "int_speed_monitor.txt": "int_speed_report.json",
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("argv, golden", GOLDEN_CASES, ids=lambda v: v if isinstance(v, str) else v[0])
    def test_stdout_is_byte_stable(self, tmp_path, argv, golden):
        report = tmp_path / "report.json"
        if golden in GOLDEN_REPORTS:
            argv = [*argv, "--report", str(report)]
        result = run_cli(*argv)
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / golden).read_text()
        assert result.stderr == ""
        if golden in GOLDEN_REPORTS:
            assert report.read_text() == (GOLDEN / GOLDEN_REPORTS[golden]).read_text()

    def test_report_document_is_byte_stable(self, tmp_path):
        report = tmp_path / "report.json"
        result = run_cli(
            "monitor", "--taxonomy", TAXONOMY, "--spec", SPEC,
            "--trace", TRACE, "--report", str(report),
        )
        assert result.returncode == 0
        assert report.read_text() == (GOLDEN / "report.json").read_text()

    def test_diagnoses_with_unknown_and_unblamed_atoms_are_byte_stable(self, tmp_path):
        report = tmp_path / "report.json"
        result = run_cli(
            "monitor", "--taxonomy", TAXONOMY, "--spec", NEGATED_SPEC,
            "--trace", DROPOUT_TRACE, "--report", str(report),
        )
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / "dropout_monitor.txt").read_text()
        assert result.stderr == ""
        assert report.read_text() == (GOLDEN / "dropout_report.json").read_text()
        # content check on top of stability: the golden names unmeasured
        # atoms, and never the atom under the negation, which is False on
        # every sample but the rural one
        events = json.loads(report.read_text())["events"]
        assert {e["kind"] for e in events if e["unknown"]} >= {"exit", "unknown_start"}
        assert all("road_type == rural" not in e["falsified"] for e in events)

    def test_enumerate_golden_matches_worked_example(self):
        # content check on top of stability: exactly the six-tuple domain
        lines = (GOLDEN / "enumerate_od.txt").read_text().splitlines()
        assert set(lines) == {
            "motorway,true", "motorway,false",
            "regional,true", "regional,false",
            "rural,true", "rural,false",
        }
        assert len(lines) == 6

    def test_validate_writes_every_type_form(self, tmp_path):
        taxonomy = tmp_path / "forms.json"
        taxonomy.write_text(json.dumps({"version": "forms-1", "attributes": [
            {"name": "road_type", "type": "enum", "labels": ["motorway", "rural"]},
            {"name": "visibility", "type": "enum", "labels": ["poor", "good"], "ordered": True},
            {"name": "wet", "type": "bool"},
            {"name": "speed_limit", "type": "int", "unit": "kmh", "min": 30, "max": 130},
            {"name": "count", "type": "int"},
            {"name": "floor", "type": "int", "max": -2},
            {"name": "speed", "type": "real", "unit": "kmh", "min": 0},
            {"name": "gradient", "type": "real", "unit": "pct", "min": -15.0, "max": 15.5},
            {"name": "ceiling", "type": "real", "unit": "m", "max": 2.5},
        ]}))
        result = run_cli("validate", "--taxonomy", str(taxonomy))
        assert result.returncode == 0
        assert result.stdout == (
            "version: forms-1\n"
            "attributes: 9\n"
            "  road_type: enum{motorway, rural}\n"
            "  visibility: ordered enum{poor, good}\n"
            "  wet: bool\n"
            "  speed_limit: int kmh min=30 max=130\n"
            "  count: int\n"
            "  floor: int max=-2\n"
            "  speed: real kmh min=0.0\n"
            "  gradient: real pct min=-15.0 max=15.5\n"
            "  ceiling: real m max=2.5\n"
            "cardinality: infinite\n"
        )
        assert result.stderr == ""


def _listed(taxonomy, spec=None):
    """The lines the library's enumeration gives, written as values."""
    tuples = enumerate_od(taxonomy) if spec is None else enumerate_odd(taxonomy, spec)
    return "".join(",".join(map(render_value, values)) + "\n" for values in tuples)


_FAMILY = {taxonomy.version: taxonomy for taxonomy in TAXONOMY_FAMILY}
# without a spec the empty taxonomy f0 lists one empty line
_LISTING_CASES = [(taxonomy, None) for taxonomy in TAXONOMY_FAMILY] + [
    (taxonomy, serialize_spec(random_spec(random.Random(f"{taxonomy.version}:{k}"), taxonomy, 4)))
    for taxonomy in SPEC_FAMILY
    for k in range(4)
] + [
    # an admitted prefix that assigns every attribute: its line ends without a comma
    (_FAMILY["f5"], "road == motorway and busy == false"),
    (_FAMILY["f11"], "b1 == true and b2 == false and b3 == true and b4 == true"),
    # one attribute: each admitted value is a whole line, or no line is admitted
    (_FAMILY["f4"], "count <= 1"),
    (_FAMILY["f1"], "kind == a and not kind == a"),
    # the last attribute is an int range, which completes a prefix, and a
    # middle position between them
    (_FAMILY["f6"], "grade >= g3"),
    (_FAMILY["f7"], "side == right"),
]


@pytest.mark.parametrize(
    "taxonomy, spec", _LISTING_CASES, ids=[f"{t.version}:{s}" for t, s in _LISTING_CASES]
)
def test_enumerate_prints_exactly_the_library_tuples(tmp_path, capsys, taxonomy, spec):
    taxonomy_path = tmp_path / "taxonomy.json"
    taxonomy_path.write_text(serialize_taxonomy(taxonomy))
    argv = ["enumerate", "--taxonomy", str(taxonomy_path)]
    checked = None
    if spec is not None:
        (tmp_path / "odd.spec").write_text(spec)
        argv += ["--spec", str(tmp_path / "odd.spec")]
        checked = check_spec(parse_spec(spec), taxonomy)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == _listed(taxonomy, checked)
    assert captured.err == ""


def test_enumerate_writes_ints_past_the_str_digit_limit(capsys):
    # a taxonomy refuses a bound that str() cannot write, so the bounds are
    # set with the limit lifted and listed with it back: render_value then
    # writes them through Decimal, in an admitted prefix and in a completion
    low = 10**4400
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        taxonomy = Taxonomy((
            Attribute("a", IntType(minimum=low, maximum=low + 2)),
            Attribute("b", BoolType()),
            Attribute("c", IntType(minimum=low, maximum=low + 1)),
        ))
        atoms = Atom("a", Predicate.GE, low + 1), Atom("b", Predicate.EQ, True)
        spec = check_spec(And(*atoms), taxonomy)
    finally:
        sys.set_int_max_str_digits(limit)
    for checked, count in ((None, 12), (spec, 4)):
        assert cmd_enumerate(None, taxonomy, checked) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == _listed(taxonomy, checked).splitlines()
        assert len(lines) == count
        assert lines[0].endswith(",true,1" + "0" * 4400)


@pytest.mark.parametrize("spec", [None, "a == x"])
def test_enumerate_renders_each_value_of_a_narrow_range_once(monkeypatch, capsys, spec):
    # a narrow int range in a middle position and in the last one; neither
    # range holds 0 or 1, which would count as the bool's values
    taxonomy = Taxonomy((
        Attribute("a", EnumType(("x", "y"))),
        Attribute("b", IntType(minimum=2, maximum=5)),
        Attribute("c", BoolType()),
        Attribute("d", IntType(minimum=7, maximum=9)),
    ))
    checked = None if spec is None else check_spec(parse_spec(spec), taxonomy)
    calls = Counter()

    def counted(value):
        calls[value] += 1
        return render_value(value)

    monkeypatch.setattr(cli, "render_value", counted)
    assert cmd_enumerate(None, taxonomy, checked) == 0
    assert capsys.readouterr().out == _listed(taxonomy, checked)
    ints = [*range(2, 6), *range(7, 10)]
    assert [calls[value] for value in ints] == [1] * len(ints)


class TestExitCodes:
    def test_missing_file_is_io_error(self):
        result = run_cli("validate", "--taxonomy", "no/such/file.json")
        assert result.returncode == 1
        assert result.stdout == ""
        assert "error" in result.stderr

    def test_usage_error(self):
        assert run_cli().returncode == 1
        assert run_cli("validate").returncode == 1
        assert run_cli("frobnicate", "--taxonomy", TAXONOMY).returncode == 1

    def test_invalid_taxonomy_is_validation_error(self, tmp_path):
        bad = tmp_path / "dup.json"
        bad.write_text(
            '{"version": "1", "attributes": ['
            '{"name": "road_type", "type": "bool"},'
            '{"name": "road_type", "type": "bool"}]}'
        )
        result = run_cli("validate", "--taxonomy", str(bad))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "duplicate" in result.stderr

    def test_meaningless_predicate_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("road_type > motorway\n")
        result = run_cli("check", "--taxonomy", TAXONOMY, "--spec", str(bad))
        assert result.returncode == 2
        assert "not defined" in result.stderr

    def test_undeclared_attribute_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("fog_density == high\n")
        result = run_cli("check", "--taxonomy", TAXONOMY, "--spec", str(bad))
        assert result.returncode == 2

    def test_enumerate_infinite_domain(self):
        result = run_cli("enumerate", "--taxonomy", TAXONOMY)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "infinite" in result.stderr

    def test_eval_succeeds_regardless_of_verdict(self):
        inline = '{"t": 0, "x": 0, "y": 0, "values": {"road_type": "motorway", "pedestrian_present": false, "operational_speed": null}}'
        result = run_cli("eval", "--taxonomy", TAXONOMY, "--spec", SPEC, "--lod", inline)
        assert result.returncode == 0
        assert result.stdout == (
            "verdict: unknown\nunknown: operational_speed < 60 kmh\n"
        )

    def test_monitor_fail_on_exit(self):
        without_flag = run_cli("monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", TRACE)
        assert without_flag.returncode == 0
        with_flag = run_cli(
            "monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", TRACE, "--fail-on-exit"
        )
        assert with_flag.returncode == 3

    def test_all_inside_trace_is_success_either_way(self, tmp_path):
        trace = tmp_path / "ok.trace"
        trace.write_text(
            '{"t": 0.0, "x": 0, "y": 0, "values": {"road_type": "motorway", "pedestrian_present": false, "operational_speed": 30.0}}\n'
            '{"t": 1.0, "x": 0, "y": 0, "values": {"road_type": "motorway", "pedestrian_present": false, "operational_speed": 31.0}}\n'
        )
        for extra in ([], ["--fail-on-exit"]):
            result = run_cli(
                "monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", str(trace), *extra
            )
            assert result.returncode == 0

    def test_monitor_decreasing_timestamps(self, tmp_path):
        trace = tmp_path / "bad.trace"
        trace.write_text(
            '{"t": 1.0, "x": 0, "y": 0, "values": {}}\n'
            '{"t": 0.5, "x": 0, "y": 0, "values": {}}\n'
        )
        result = run_cli("monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", str(trace))
        assert result.returncode == 2
        assert "line 2" in result.stderr

    def test_monitor_empty_trace(self, tmp_path):
        trace = tmp_path / "empty.trace"
        trace.write_text("")
        report = tmp_path / "report.json"
        result = run_cli(
            "monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", str(trace),
            "--report", str(report), "--fail-on-exit",
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: trace has no samples\n"
        assert not report.exists()

    def test_monitor_streams_until_a_malformed_line(self, tmp_path):
        records = [
            '{"t": %d, "x": 0, "y": 0, "values": {"road_type": "rural"}}' % t for t in range(5)
        ]
        records[2] = "{oops"
        trace = tmp_path / "broken.trace"
        trace.write_text("\n".join(records) + "\n")
        report = tmp_path / "report.json"
        result = run_cli(
            "monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", str(trace),
            "--report", str(report),
        )
        assert result.returncode == 2
        assert result.stdout == "t=0.0 verdict=false\nt=1.0 verdict=false\n"
        assert result.stderr.startswith("error: line 3: ")
        assert result.stderr.count("\n") == 1
        assert not report.exists()

    @staticmethod
    def _read_three_lines_and_close(argv):
        """Run the CLI, read three lines of its output and close the pipe;
        the lines, the exit status and standard error. A child that has not
        written them within 60 s is killed, so that the reads end and the
        test fails instead of hanging."""
        with subprocess.Popen(
            [sys.executable, "-m", "oddspec", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as child:
            timer = threading.Timer(60, child.kill)
            timer.start()
            try:
                lines = [child.stdout.readline() for _ in range(3)]
            finally:
                timer.cancel()
            child.stdout.close()
            try:
                returncode = child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                raise
            return lines, returncode, child.stderr.read()

    def test_enumerate_into_a_closed_pipe_ends_cleanly(self, tmp_path):
        # a reader of a listing may stop at any line, as `| head -3` does
        taxonomy = _wide_taxonomy(tmp_path, 10**12)
        assert self._read_three_lines_and_close(["enumerate", "--taxonomy", str(taxonomy)]) == (
            ["0,true\n", "0,false\n", "1,true\n"], 0, ""
        )

    def test_enumerate_odd_into_a_closed_pipe_ends_cleanly(self, tmp_path):
        # the listing of a spec streams too: the prefix walk never ends here
        taxonomy = _wide_taxonomy(tmp_path, 10**12)
        spec = tmp_path / "wide.spec"
        spec.write_text("b == true\n")
        argv = ["enumerate", "--taxonomy", str(taxonomy), "--spec", str(spec)]
        assert self._read_three_lines_and_close(argv) == (
            ["0,true\n", "1,true\n", "2,true\n"], 0, ""
        )

    def test_a_wide_range_after_the_first_position_streams(self, tmp_path):
        # the range completes each line, so it is iterated once per line of
        # the product before it and is never held
        taxonomy = tmp_path / "wide_last.json"
        taxonomy.write_text(
            '{"version": "1", "attributes": [{"name": "b", "type": "bool"}, '
            '{"name": "a", "type": "int", "min": 0, "max": %d}]}' % 10**12
        )
        assert self._read_three_lines_and_close(["enumerate", "--taxonomy", str(taxonomy)]) == (
            ["true,0\n", "true,1\n", "true,2\n"], 0, ""
        )

    def test_monitor_into_a_closed_pipe_folds_the_whole_trace(self, tmp_path):
        # the exit status and the report depend on the whole trace, so a
        # monitor whose reader has gone goes on folding to the end
        records = [
            '{"t": %d, "x": 0, "y": 0, "values": {"road_type": "rural"}}' % t for t in range(20_000)
        ]
        report = tmp_path / "report.json"
        argv = [sys.executable, "-m", "oddspec", "monitor", "--taxonomy", TAXONOMY,
                "--spec", SPEC, "--trace", "-", "--report", str(report), "--fail-on-exit"]
        with subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        ) as child:
            child.stdout.close()
            try:
                _, stderr = child.communicate("\n".join(records) + "\n", timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                raise
        assert child.returncode == 3
        assert stderr == ""
        taxonomy = parse_taxonomy(Path(TAXONOMY).read_text())
        spec = check_spec(parse_spec(Path(SPEC).read_text()), taxonomy)
        trace = parse_trace("\n".join(records), taxonomy)
        assert report.read_text() == report_json(run_monitor(spec, taxonomy, trace))

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, status, golden",
        [(argv, 0, golden) for argv, golden in GOLDEN_CASES]
        + [(["monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", TRACE,
             "--fail-on-exit"], 3, "monitor.txt")],
        ids=[golden.removesuffix(".txt") for _, golden in GOLDEN_CASES] + ["monitor-fail-on-exit"],
    )
    def test_a_closed_stdout_is_not_an_error(self, tmp_path, argv, status, golden, unbuffered):
        # the reader closes the pipe before the child writes its first byte
        report = tmp_path / "report.json"
        if argv[0] == "monitor":
            argv = [*argv, "--report", str(report)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "oddspec", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == status
        assert result.stderr == b""
        if argv[0] == "monitor":
            assert report.read_bytes() == (GOLDEN / GOLDEN_REPORTS[golden]).read_bytes()

    def test_monitor_reads_the_trace_from_stdin(self, tmp_path):
        argv = [sys.executable, "-m", "oddspec", "monitor", "--taxonomy", TAXONOMY,
                "--spec", SPEC, "--trace", "-"]
        report = tmp_path / "report.json"
        piped = subprocess.run(
            [*argv, "--report", str(report)], input=Path(TRACE).read_bytes(), capture_output=True
        )
        assert piped.returncode == 0
        assert piped.stdout == run_cli(
            "monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", TRACE
        ).stdout.encode()
        assert piped.stderr == b""
        assert report.read_bytes() == (GOLDEN / "report.json").read_bytes()
        # a pipe has no byte position, so the error names none
        record = b'{"t": 0, "x": 0, "y": 0, "values": {"road_type": "ru\xffral"}}\n'
        bad = subprocess.run(argv, input=record, capture_output=True)
        assert bad.returncode == 2
        assert bad.stdout == b""
        assert bad.stderr == b"error: <stdin>: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("filters", [None, "error"], ids=["default", "error"])
    def test_a_real_equality_warning_is_one_line(self, tmp_path, filters):
        spec = tmp_path / "equal.spec"
        spec.write_text(REAL_EQUALITY)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        if filters is not None:
            env["PYTHONWARNINGS"] = filters
        result = subprocess.run(
            [sys.executable, "-m", "oddspec", "check", "--taxonomy", TAXONOMY, "--spec", str(spec)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert result.stdout == f"{REAL_EQUALITY}\nmentioned attributes: operational_speed\n"
        assert result.stderr == (
            "warning: operational_speed: exact equality on a real-valued attribute is fragile\n"
        )


class TestInProcessEntryPoint:
    # the same paths drive main() directly, keeping coverage fast and
    # letting us assert on the return value instead of a process exit
    def test_main_returns_exit_code(self, capsys):
        assert main(["validate", "--taxonomy", TAXONOMY]) == 0
        assert main(["validate", "--taxonomy", "missing.json"]) == 1
        captured = capsys.readouterr()
        assert "cardinality: infinite" in captured.out

    def test_validate_counts_the_odd(self, capsys):
        assert main(["validate", "--taxonomy", FINITE, "--spec", FINITE_SPEC]) == 0
        assert capsys.readouterr().out.endswith("cardinality: 6\nodd cardinality: 1\n")
        # an infinite domain cannot be counted: one error line, nothing else
        assert main(["validate", "--taxonomy", TAXONOMY, "--spec", SPEC]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the domain is infinite and cannot be enumerated; it can only be described\n"
        )

    def test_inline_lod_detection(self, capsys):
        inline = '{"t": 0, "x": 0, "y": 0, "values": {"road_type": "rural"}}'
        assert main(["eval", "--taxonomy", TAXONOMY, "--spec", SPEC, "--lod", inline]) == 0
        assert "verdict: false" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_a_report_is_strict_json_when_the_dwell_sums_past_the_largest_float(
        self, tmp_path, capsys
    ):
        # every t is finite, yet the float sum of the intervals rounds to infinity
        times = (0, 3.985335865152227e307, 7.871875209470127e307, 8.913182625128503e307)
        trace = tmp_path / "far.trace"
        trace.write_text(
            "".join(
                json.dumps({"t": t, "x": 0, "y": 0, "values": {}}) + "\n"
                for t in (*times, sys.float_info.max)
            )
        )
        report = tmp_path / "report.json"
        argv = ["monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", str(trace)]
        assert main([*argv, "--report", str(report)]) == 0
        document = json.loads(report.read_text(), parse_constant=_refuse_constant)
        assert document["dwell_s"] == {"in": 0.0, "out": 0.0, "unknown": sys.float_info.max}

    def test_memory_stays_bounded_on_a_long_trace(self, tmp_path):
        def peak(count):
            trace = tmp_path / f"{count}.trace"
            trace.write_text(
                "".join(
                    f'{{"t": {i}.0, "x": 0.0, "y": 0.0, "values": {{"road_type": "motorway", '
                    f'"pedestrian_present": false, "operational_speed": {30 + i % 20}.0}}}}\n'
                    for i in range(count)
                )
            )
            argv = ["monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", str(trace)]
            # stdout goes to devnull, since a capture would hold every line
            with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
                tracemalloc.start()
                try:
                    assert main([*argv, "--report", str(tmp_path / "report.json")]) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(1_000)  # the first run also fills the interpreter's caches
        assert peak(10_000) < peak(1_000) + 64 * 1024

    def test_without_a_report_no_event_is_held(self, tmp_path):
        _flipping_peak(tmp_path, 1_000)  # the first run also fills the interpreter's caches
        # a held event is about 200 bytes, so 19,000 more would be about 4 MB
        assert _flipping_peak(tmp_path, 20_000) < _flipping_peak(tmp_path, 1_000) + 256 * 1024

    def test_a_report_is_written_as_it_is_rendered(self, tmp_path):
        report = str(tmp_path / "report.json")
        _flipping_peak(tmp_path, 1_000, "--report", report)
        # each event is held, with its rendered dict, in about 540 bytes; the
        # report's text, built whole before it is written, would cost about
        # 1 KB more per event
        assert _flipping_peak(tmp_path, 20_000, "--report", report) < (
            _flipping_peak(tmp_path, 1_000, "--report", report) + 19_000 * 1024
        )


def _flipping_peak(directory, count, *options):
    """The traced peak of ``monitor --fail-on-exit`` over ``count`` samples
    whose speed crosses the spec's 60 kmh on every sample, so that every
    sample is an entry or an exit event."""
    trace = directory / f"{count}.trace"
    trace.write_text(
        "".join(
            f'{{"t": {i}.0, "x": 0.0, "y": 0.0, "values": {{"road_type": "motorway", '
            f'"pedestrian_present": false, "operational_speed": {50 + i % 2 * 20}.0}}}}\n'
            for i in range(count)
        )
    )
    argv = ["monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", str(trace), *options]
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        tracemalloc.start()
        try:
            assert main([*argv, "--fail-on-exit"]) == 3
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _assert_one_error_line(text: str) -> None:
    assert text.startswith("error: ")
    assert text.endswith("\n") and text.count("\n") == 1


def _assert_warnings_then_one_error_line(text: str) -> None:
    while text.startswith("warning: "):
        _, newline, text = text.partition("\n")
        assert newline
    if text:
        _assert_one_error_line(text)


HUGE = "9" * 5000  # past int()'s 4300-digit limit


class TestMalformedInputs:
    # in process: an escaping exception fails the test instead of
    # printing a traceback
    @pytest.mark.parametrize(
        "text",
        [
            "operational_speed < \u00b2",
            "operational_speed < " + HUGE,
            "operational_speed < " + "9" * 400 + ".0",
            "not " * 3000 + "road_type == motorway",
            " and ".join(["road_type == motorway"] * 2000),
        ],
        ids=["superscript", "huge-int", "huge-decimal", "deep-not", "long-and"],
    )
    def test_malformed_spec(self, tmp_path, capsys, text):
        spec = tmp_path / "bad.spec"
        spec.write_text(text, encoding="utf-8")
        assert main(["check", "--taxonomy", TAXONOMY, "--spec", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        _assert_one_error_line(captured.err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--taxonomy", "BAD"],
            ["check", "--taxonomy", TAXONOMY, "--spec", "BAD"],
            ["eval", "--taxonomy", TAXONOMY, "--spec", SPEC, "--lod", "BAD"],
            ["enumerate", "--taxonomy", FINITE, "--spec", "BAD"],
            ["monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", "BAD"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_utf8_file(self, tmp_path, capsys, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("operational_speed < 60 km\u00b7h".encode("latin-1"))
        assert main([str(bad) if part == "BAD" else part for part in argv]) == 2
        err = capsys.readouterr().err
        _assert_one_error_line(err)
        assert str(bad) in err and "UTF-8" in err

    def test_non_utf8_byte_past_the_first_read(self, tmp_path, capsys):
        # the trace is decoded as it is read; the error names the file's byte
        record = '{"t": %d, "x": 0, "y": 0, "values": {"road_type": "rural"}}\n'
        head = "".join(record % t for t in range(1000)).encode()
        trace = tmp_path / "late.trace"
        trace.write_bytes(head + b"\xff" + (record % 1000).encode())
        argv = ["monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", str(trace)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out.count("\n") < 1000
        assert captured.err == f"error: {trace}: not UTF-8 text (invalid start byte at byte {len(head)})\n"

    def test_huge_json_integer(self, tmp_path, capsys):
        taxonomy = tmp_path / "huge.json"
        taxonomy.write_text(
            '{"version": "1", "attributes": [{"name": "n", "type": "int", "max": %s}]}' % HUGE
        )
        trace = tmp_path / "huge.trace"
        record = '{"t": 0, "x": 0, "y": 0, "values": {"operational_speed": %s}}' % HUGE
        trace.write_text(record + "\n")
        for argv in (
            ["validate", "--taxonomy", str(taxonomy)],
            ["monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", str(trace)],
            ["eval", "--taxonomy", TAXONOMY, "--spec", SPEC, "--lod", record],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            _assert_one_error_line(err)
            assert "unreadable JSON" in err

    def test_int_bound_past_float_range(self, tmp_path, capsys):
        taxonomy = tmp_path / "wide.json"
        taxonomy.write_text(
            '{"version": "1", "attributes": [{"name": "n", "type": "int", "min": 1, "max": %s}]}'
            % ("9" * 400)
        )
        assert main(["validate", "--taxonomy", str(taxonomy)]) == 0
        assert f"cardinality: {'9' * 400}\n" in capsys.readouterr().out
        # 10**6000 tuples: past str()'s 4300-digit limit
        wide = '{"name": "%s", "type": "int", "min": 0, "max": %s}' % ("%s", "9" * 3000)
        taxonomy.write_text(
            '{"version": "1", "attributes": [%s, %s]}' % (wide % "m", wide % "n")
        )
        assert main(["validate", "--taxonomy", str(taxonomy)]) == 0
        assert f"cardinality: 1{'0' * 6000}\n" in capsys.readouterr().out

    def test_int_wider_than_sys_maxsize_is_counted(self, tmp_path, capsys):
        # 10**20 + 1 values: more than len() can take. Not enumerated here,
        # as that would print 10**20 lines.
        taxonomy = _wide_taxonomy(tmp_path, 10**20)
        spec = tmp_path / "b.spec"
        spec.write_text("b == true\n")
        assert main(["validate", "--taxonomy", str(taxonomy), "--spec", str(spec)]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith(
            "cardinality: 200000000000000000002\nodd cardinality: 100000000000000000001\n"
        )
        assert captured.err == ""


BAD_TAXONOMY = '{"version": "1", "attributes": [{"name": "road_type", "type": "enum"}]}'
BAD_SPEC = "road_type == \n"


class TestInputOrder:
    # every command reads the taxonomy, then the spec, then its own input,
    # and reports the first that fails
    COMMANDS = {
        "validate": [],
        "check": [],
        "eval": ["--lod", "{"],
        "enumerate": [],
        "monitor": ["--trace", "no/such/trace"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_the_taxonomy_is_reported_before_the_spec(self, tmp_path, capsys, command):
        taxonomy, spec = tmp_path / "bad.json", tmp_path / "bad.spec"
        taxonomy.write_text(BAD_TAXONOMY)
        spec.write_text(BAD_SPEC)
        with pytest.raises(OddspecError) as taxonomy_error:
            parse_taxonomy(BAD_TAXONOMY)
        with pytest.raises(OddspecError) as spec_error:
            parse_spec(BAD_SPEC)
        rest = ["--spec", str(spec), *self.COMMANDS[command]]
        for path, error in ((taxonomy, taxonomy_error), (TAXONOMY, spec_error)):
            assert main([command, "--taxonomy", str(path), *rest]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {error.value}\n"


GOOD_RECORDS = [
    '{"t": 0, "x": 0, "y": 0, "values": {"road_type": "motorway", "pedestrian_present": false, "operational_speed": 30.0}}',
    '{"t": 1.5, "x": 0, "y": 0, "values": {"road_type": "rural", "operational_speed": null}}',
    '{"t": 2, "x": 1, "y": 1, "values": {"operational_speed": 61}}',
]
SPEC_WORDS = [
    "road_type", "pedestrian_present", "operational_speed", "motorway", "rural",
    "==", "<", ">=", "=", "and", "or", "not", "(", ")", "true", "false",
    "60", "-3.5", "7.", "kmh", "#", "\n", "\u00b2", HUGE,
]
RECORD_PARTS = GOOD_RECORDS + [
    '{"t": ', HUGE, "1e400", "null", "}", "[", "\n", '"values": {}',
    # JSON whitespace, whitespace only to str.isspace(), and a BOM
    "\t", "\f", "\v", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\ufeff",
]


_BROKEN_LABEL = GOOD_RECORDS[1].replace('"rural"', '"ru\u2028ral"')


@pytest.mark.parametrize(
    "document, failing_line",
    [
        ("\n".join(GOOD_RECORDS) + "\n", None),
        ("\r\n".join(GOOD_RECORDS) + "\r\n", None),
        ("\r".join(GOOD_RECORDS), None),
        ("\u2028".join(GOOD_RECORDS), 1),
        ("\n".join([GOOD_RECORDS[0], _BROKEN_LABEL, GOOD_RECORDS[2]]), 2),
        ("\f".join(GOOD_RECORDS), 1),
        ("\x85".join(GOOD_RECORDS), 1),
    ],
    ids=["lf", "crlf", "cr", "u2028-between", "u2028-in-label", "ff", "nel"],
)
def test_a_trace_splits_into_records_alike_as_text_and_as_a_file(
    tmp_path, capsys, document, failing_line
):
    # only \n, \r\n and \r end a record, in parse_trace and in the CLI
    taxonomy = parse_taxonomy(Path(TAXONOMY).read_text())
    spec = check_spec(parse_spec(Path(SPEC).read_text()), taxonomy)
    trace = tmp_path / "doc.trace"
    trace.write_bytes(document.encode())
    code = main(["monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", str(trace)])
    captured = capsys.readouterr()
    if failing_line is None:
        samples = parse_trace(document, taxonomy).samples
        assert len(samples) == len(GOOD_RECORDS)
        assert code == 0
        assert captured.out == "".join(
            f"t={render_value(s.t)} verdict={eval_spec(spec, s).value}\n" for s in samples
        )
    else:
        with pytest.raises(TraceError, match=f"^line {failing_line}: ") as error:
            parse_trace(document, taxonomy)
        assert code == 2
        assert captured.err == f"error: {error.value}\n"
        assert captured.out.count("\n") == failing_line - 1


def _fuzzed(parts, joiner, whole):
    """Arbitrary bytes, or a mix of the language's own fragments."""
    return st.one_of(
        st.binary(max_size=200),
        st.lists(st.sampled_from(parts), max_size=20).map(lambda p: joiner.join(p).encode()),
        st.sampled_from(whole).map(str.encode),
    )


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True) | st.sampled_from(
    ["and", "true", "Road", "a-b", "", None, 7]
)
_BOUNDS = st.one_of(
    st.none(), st.integers(-10**25, 10**25), st.floats(), st.booleans(), st.text(max_size=3)
)
# near-valid attributes, one shape per type tag, with values of the right
# and of wrong kinds; the arbitrary JSON covers every other shape
_ATTRIBUTE = st.one_of(
    st.fixed_dictionaries({"name": _NAMES, "type": st.just("bool")}),
    st.fixed_dictionaries(
        {"name": _NAMES, "type": st.just("enum"), "labels": st.lists(_NAMES, max_size=3)},
        optional={"ordered": st.booleans() | st.none()},
    ),
    st.fixed_dictionaries(
        {"name": _NAMES, "type": st.sampled_from(["int", "real"])},
        optional={"min": _BOUNDS, "max": _BOUNDS, "unit": st.sampled_from(["kmh", None, 60])},
    ),
    st.fixed_dictionaries({"name": _NAMES, "type": _JSON}),
    _JSON,
)
_TAXONOMY_DOCUMENT = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {"version": st.just("1"), "attributes": st.lists(_ATTRIBUTE, max_size=4)}
    ),
).map(lambda document: json.dumps(document).encode())


@settings(max_examples=200, deadline=None)
@given(
    spec=_fuzzed(
        SPEC_WORDS, " ", [Path(SPEC).read_text(), "not road_type == rural", REAL_EQUALITY]
    ),
    trace=_fuzzed(RECORD_PARTS, "\n", ["\n".join(GOOD_RECORDS)]),
    lod=_fuzzed(RECORD_PARTS, "", GOOD_RECORDS),
    taxonomy=st.one_of(
        _TAXONOMY_DOCUMENT, st.binary(max_size=200), st.just(Path(TAXONOMY).read_bytes())
    ),
)
def test_no_input_ends_in_a_traceback(spec, trace, lod, taxonomy):
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        inputs = {"spec": spec, "trace": trace, "lod": lod, "taxonomy": taxonomy}
        for name, data in inputs.items():
            paths[name] = str(Path(directory) / name)
            Path(paths[name]).write_bytes(data)
        for argv in (
            ["validate", "--taxonomy", paths["taxonomy"]],
            ["check", "--taxonomy", TAXONOMY, "--spec", paths["spec"]],
            ["eval", "--taxonomy", TAXONOMY, "--spec", paths["spec"], "--lod", paths["lod"]],
            ["monitor", "--taxonomy", TAXONOMY, "--spec", paths["spec"],
             "--trace", paths["trace"], "--fail-on-exit"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3)
            _assert_warnings_then_one_error_line(err.getvalue())
