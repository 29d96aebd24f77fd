import dataclasses
import json
import math
import pickle
import random
import sys
import tracemalloc
import warnings

import pytest

from oddspec import (
    And,
    Atom,
    Attribute,
    BoolType,
    Diagnosis,
    EnumType,
    IntType,
    EvaluationError,
    EventKind,
    Lod,
    MonitorError,
    MonitorEvent,
    MonitorState,
    Not,
    Predicate,
    RealEqualityWarning,
    RealType,
    Taxonomy,
    Trace,
    UNKNOWN,
    Verdict,
    check_spec,
    diagnose,
    enumerate_odd,
    iter_trace,
    make_lod,
    monitor_init,
    monitor_step,
    parse_spec,
    parse_trace,
    render_report,
    report_from_state,
    report_json,
    run_monitor,
    serialize_spec,
)
from oracles import (
    BOTH_POLARITY_SPECS,
    SPEC_FAMILY,
    TRIO_TAXONOMY,
    eval_kleene,
    label_orders_of,
    random_spec,
    simulate_monitor,
    space_of,
)

from oddspec.evaluator import _NO_HINT, _evaluate, _retest

FLAG_TAXONOMY = Taxonomy((Attribute("flag", BoolType()),), version="flag1")
FLAG_ATOM = Atom("flag", Predicate.EQ, True)

_LETTER_TO_FLAG = {"T": True, "F": False, "U": None}


def flag_spec():
    return check_spec(parse_spec("flag == true"), FLAG_TAXONOMY)


def trace_for(letters, times=None):
    """Trace whose verdict sequence under flag_spec() is exactly ``letters``."""
    times = times if times is not None else [float(i) for i in range(len(letters))]
    samples = tuple(
        make_lod(FLAG_TAXONOMY, {"flag": _LETTER_TO_FLAG[letter]}, t=t)
        for letter, t in zip(letters, times)
    )
    return Trace(FLAG_TAXONOMY, samples)


def run_letters(letters, times=None):
    return run_monitor(flag_spec(), FLAG_TAXONOMY, trace_for(letters, times))


def events_as_tuples(report):
    return [(e.kind.value, e.t, e.sample_index) for e in report.events]


class TestInit:
    def test_fresh_state(self):
        spec = flag_spec()
        state = monitor_init(spec, FLAG_TAXONOMY)
        assert state.samples_total == 0
        assert state.last_verdict is None
        assert state.last_t is None
        assert all(seconds == 0.0 for seconds in state.dwell.values())
        # the all-Unknown row, on which every atom has rank 1
        assert state.last_values == (UNKNOWN,) * len(FLAG_TAXONOMY)
        assert state.hints == [_NO_HINT] * len(FLAG_TAXONOMY)
        assert state.node_ranks == [1] * len(spec.parents)
        assert state.violations == state.run_starts == [0] * len(spec.atoms)
        # a first sample with every attribute unmeasured repeats those ranks,
        # yet it is the first verdict
        _, verdict, events = monitor_step(state, make_lod(FLAG_TAXONOMY, {}, t=0.0))
        assert verdict is Verdict.UNKNOWN
        assert [(e.kind, e.sample_index) for e in events] == [(EventKind.UNKNOWN_START, 0)]
        assert events[0].diagnosis.unknown_atoms == spec.atoms

    def test_a_directly_built_state_folds_like_monitor_init(self):
        spec = check_spec(parse_spec("a == true or not b == true"), PAIR_TAXONOMY)
        rows = [{"a": False, "b": True}, {"a": None}, {"a": True, "b": False}, {"b": True}]
        samples = [make_lod(PAIR_TAXONOMY, r, t=float(i)) for i, r in enumerate(rows)]
        direct, _, direct_events = fold(spec, samples, MonitorState(spec))
        built, _, built_events = fold(spec, samples)
        assert vars(direct) == vars(built)
        assert report_from_state(direct, direct_events) == report_from_state(built, built_events)

    @pytest.mark.parametrize(
        "derived",
        [
            {"last_t": 1.0},
            {"last_verdict": Verdict.TRUE},
            {"counts": {}},
            {"dwell": {}},
            {"node_ranks": []},
            {"hints": []},
        ],
        ids=lambda derived: next(iter(derived)),
    )
    def test_a_state_is_built_only_from_its_spec(self, derived):
        assert not dataclasses.is_dataclass(MonitorState)
        with pytest.raises(TypeError):
            MonitorState(flag_spec(), **derived)

    def test_version_mismatch(self):
        other = Taxonomy(FLAG_TAXONOMY.attributes, version="flag2")
        with pytest.raises(MonitorError, match="version"):
            monitor_init(flag_spec(), other)


class TestHandSimulatedExamples:
    def test_true_true_false_emits_one_exit(self):
        report = run_letters("TTF")
        assert events_as_tuples(report) == [("entry", 0.0, 0), ("exit", 2.0, 2)]
        assert report.dwell_in_s == 2.0
        assert report.dwell_out_s == 0.0
        exit_event = report.events[1]
        assert exit_event.diagnosis.falsified_atoms == (FLAG_ATOM,)

    def test_constant_true_emits_single_entry(self):
        report = run_letters("TTTTT")
        assert events_as_tuples(report) == [("entry", 0.0, 0)]
        assert report.samples_in == 5

    def test_unknown_round_trip(self):
        report = run_letters("TUT")
        assert events_as_tuples(report) == [
            ("entry", 0.0, 0),
            ("exit", 1.0, 1),
            ("unknown_start", 1.0, 1),
            ("unknown_end", 2.0, 2),
            ("entry", 2.0, 2),
        ]

    def test_out_and_back_six_samples(self):
        report = run_letters("TTFFTT")
        kinds = [e.kind for e in report.events]
        assert kinds == [EventKind.ENTRY, EventKind.EXIT, EventKind.ENTRY]
        assert report.atom_violations == {FLAG_ATOM: 2}
        assert report.samples_in == 4
        assert report.samples_out == 2

    def test_single_flip_counts_once(self):
        report = run_letters("TTFTTT")
        assert report.atom_violations == {FLAG_ATOM: 1}
        assert sum(1 for e in report.events if e.kind is EventKind.EXIT) == 1

    def test_single_sample_has_no_dwell(self):
        report = run_letters("T")
        assert report.samples_in == 1
        assert report.dwell_in_s == report.dwell_out_s == report.dwell_unknown_s == 0.0
        assert events_as_tuples(report) == [("entry", 0.0, 0)]


# every pair covers one of the six transitions; singles cover first-sample
# behaviour; the longer mixes revisit each transition inside a run
ORACLE_FIXTURES = [
    "T", "F", "U",
    "TT", "TF", "TU",
    "FT", "FF", "FU",
    "UT", "UF", "UU",
    "TTFT", "TUFUT", "FUTFU", "UUTTFF",
    "TFTFTF", "UFUFU", "FFFF", "TTTUUU",
    "FTUFTU", "UTFFTU",
]


class TestAgainstOracle:
    @pytest.mark.parametrize("letters", ORACLE_FIXTURES)
    def test_events_counters_and_dwell(self, letters):
        rng = random.Random(letters)
        # non-uniform sampling intervals exercise the dwell arithmetic
        times = []
        t = rng.uniform(0, 2)
        for _ in letters:
            times.append(t)
            t += rng.choice([0.1, 0.25, 0.5, 1.0, 1.75])
        report = run_letters(letters, times)
        expected = simulate_monitor(list(zip(times, letters)))

        assert events_as_tuples(report) == expected["events"]
        assert report.samples_total == len(letters)
        assert report.samples_in == expected["counts"]["T"]
        assert report.samples_out == expected["counts"]["F"]
        assert report.samples_unknown == expected["counts"]["U"]
        assert report.dwell_in_s == expected["dwell"]["T"]
        assert report.dwell_out_s == expected["dwell"]["F"]
        assert report.dwell_unknown_s == expected["dwell"]["U"]

    @pytest.mark.parametrize("letters", ORACLE_FIXTURES)
    def test_dwell_sums_to_elapsed_time(self, letters):
        report = run_letters(letters)
        total = report.dwell_in_s + report.dwell_out_s + report.dwell_unknown_s
        if len(letters) >= 2:
            elapsed = float(len(letters) - 1)
            assert math.isclose(total, elapsed, rel_tol=0, abs_tol=4 * math.ulp(elapsed))
        else:
            assert total == 0.0

    @pytest.mark.parametrize("letters", ORACLE_FIXTURES)
    def test_counter_sum_invariant(self, letters):
        report = run_letters(letters)
        assert report.samples_total == (
            report.samples_in + report.samples_out + report.samples_unknown
        )

    @pytest.mark.parametrize("letters", ORACLE_FIXTURES)
    def test_exit_events_carry_evidence(self, letters):
        report = run_letters(letters)
        for event in report.events:
            if event.kind is EventKind.EXIT:
                assert event.diagnosis.falsified_atoms or event.diagnosis.unknown_atoms

    @pytest.mark.parametrize("letters", ORACLE_FIXTURES)
    def test_events_are_chronological(self, letters):
        report = run_letters(letters)
        times = [e.t for e in report.events]
        assert times == sorted(times)

    @pytest.mark.parametrize("letters", ORACLE_FIXTURES)
    def test_exit_count_matches_transition_count(self, letters):
        report = run_letters(letters)
        exits = sum(1 for e in report.events if e.kind is EventKind.EXIT)
        leaving = sum(
            1 for a, b in zip(letters, letters[1:]) if a == "T" and b != "T"
        )
        assert exits == leaving + (1 if letters[0] == "F" else 0)

    @pytest.mark.parametrize("letters", ORACLE_FIXTURES)
    def test_replaying_events_reconstructs_verdicts(self, letters):
        report = run_letters(letters)
        by_index = {}
        for event in report.events:
            by_index.setdefault(event.sample_index, []).append(event.kind)
        reconstructed = []
        current = None
        for index in range(report.samples_total):
            kinds = by_index.get(index, [])
            if EventKind.ENTRY in kinds:
                current = "T"
            elif EventKind.UNKNOWN_START in kinds:
                current = "U"
            elif EventKind.EXIT in kinds or EventKind.UNKNOWN_END in kinds:
                current = "F"
            reconstructed.append(current)
        assert "".join(reconstructed) == letters


class TestProtocol:
    def test_non_increasing_timestamp_rejected(self):
        state = monitor_init(flag_spec(), FLAG_TAXONOMY)
        monitor_step(state, make_lod(FLAG_TAXONOMY, {"flag": True}, t=1.0))
        with pytest.raises(MonitorError, match="increase"):
            monitor_step(state, make_lod(FLAG_TAXONOMY, {"flag": True}, t=1.0))
        with pytest.raises(MonitorError, match="increase"):
            monitor_step(state, make_lod(FLAG_TAXONOMY, {"flag": True}, t=0.5))

    def test_empty_trace_rejected(self):
        with pytest.raises(MonitorError, match="no samples"):
            run_monitor(flag_spec(), FLAG_TAXONOMY, Trace(FLAG_TAXONOMY, ()))

    def test_trace_version_mismatch(self):
        trace = Trace(
            Taxonomy(FLAG_TAXONOMY.attributes, version="flag2"),
            (make_lod(FLAG_TAXONOMY, {"flag": True}),),
        )
        with pytest.raises(MonitorError, match="version"):
            run_monitor(flag_spec(), FLAG_TAXONOMY, trace)

    def test_reordered_taxonomy_with_the_same_version_is_rejected(self):
        # the layouts differ, so evaluating by the spec's layout would read
        # b's value as a's
        ab = Taxonomy((Attribute("a", BoolType()), Attribute("b", BoolType())), version="1")
        ba = Taxonomy((Attribute("b", BoolType()), Attribute("a", BoolType())), version="1")
        spec = check_spec(parse_spec("a == true"), ab)
        spec_message = (
            "spec was checked against a different taxonomy (version '1') "
            "than this one (version '1')"
        )
        with pytest.raises(MonitorError, match="version") as raised:
            monitor_init(spec, ba)
        assert str(raised.value) == spec_message
        with pytest.raises(EvaluationError, match="version") as raised:
            list(enumerate_odd(ba, spec))
        assert str(raised.value) == spec_message
        trace = parse_trace('{"t": 0, "x": 0, "y": 0, "values": {"a": false, "b": true}}', ba)
        with pytest.raises(MonitorError, match="version") as raised:
            run_monitor(spec, ab, trace)
        assert str(raised.value) == (
            "trace was recorded against a different taxonomy (version '1') "
            "than this one (version '1')"
        )

    def test_manual_fold_equals_run_monitor(self):
        letters = "TUFTTFU"
        trace = trace_for(letters)
        spec = flag_spec()
        state = monitor_init(spec, FLAG_TAXONOMY)
        events = []
        for sample in trace.samples:
            returned, verdict, step_events = monitor_step(state, sample)
            assert returned is state
            events.extend(step_events)
        folded = report_from_state(state, events)
        assert folded == run_monitor(spec, FLAG_TAXONOMY, trace)

    def test_two_runs_are_identical(self):
        first = run_letters("TUFFTT")
        second = run_letters("TUFFTT")
        assert first == second
        assert report_json(first) == report_json(second)

    def test_step_returns_verdict(self):
        state = monitor_init(flag_spec(), FLAG_TAXONOMY)
        _, verdict, _ = monitor_step(state, make_lod(FLAG_TAXONOMY, {"flag": False}, t=0.0))
        assert verdict is Verdict.FALSE


class TestRunningExample(object):
    def test_pedestrian_flip_trace(self, motorway_taxonomy, motorway_spec):
        from conftest import DATA

        trace = parse_trace((DATA / "flip.trace").read_text(), motorway_taxonomy)
        report = run_monitor(motorway_spec, motorway_taxonomy, trace)
        ped_atom = Atom("pedestrian_present", Predicate.EQ, False)
        assert report.atom_violations == {ped_atom: 1}
        assert events_as_tuples(report) == [
            ("entry", 0.0, 0),
            ("exit", 2.0, 2),
            ("entry", 3.0, 3),
        ]
        assert report.samples_total == 6
        assert report.dwell_in_s == 4.0
        assert report.dwell_out_s == 1.0

    def test_biconditional_on_trace_samples(self, finite_taxonomy):
        # fully measured samples: monitor verdict True iff the values tuple
        # is in the enumerated design domain
        from oddspec import enumerate_odd

        spec = check_spec(
            parse_spec("road_type == motorway and pedestrian_present == false"),
            finite_taxonomy,
        )
        inside = set(enumerate_odd(finite_taxonomy, spec))
        samples = [
            make_lod(
                finite_taxonomy,
                {"road_type": road, "pedestrian_present": ped},
                t=float(i),
            )
            for i, (road, ped) in enumerate(
                [("motorway", False), ("motorway", True), ("rural", False), ("motorway", False)]
            )
        ]
        trace = Trace(finite_taxonomy, tuple(samples))
        state = monitor_init(spec, finite_taxonomy)
        for sample in trace.samples:
            _, verdict, _ = monitor_step(state, sample)
            assert (verdict is Verdict.TRUE) == (sample.values in inside)


# the golden monitor traces, each with the spec it runs under and its report
GOLDEN_TRACES = [
    ("flip.trace", "motorway.spec", "report.json"),
    ("dropout.trace", "negated.spec", "dropout_report.json"),
    ("band.trace", "band.spec", "band_report.json"),
    ("int_speed.trace", "band.spec", "int_speed_report.json"),
]


class TestSampleStreams:
    @pytest.mark.parametrize("trace_name, spec_name, report_name", GOLDEN_TRACES, ids=str)
    def test_any_iterable_of_samples_gives_the_trace_s_report(
        self, motorway_taxonomy, trace_name, spec_name, report_name
    ):
        from conftest import DATA

        taxonomy = motorway_taxonomy
        spec = check_spec(parse_spec((DATA / spec_name).read_text()), taxonomy)
        trace = parse_trace((DATA / trace_name).read_text(), taxonomy)
        expected = run_monitor(spec, taxonomy, trace)
        assert report_json(expected) == (DATA / "golden" / report_name).read_text()
        with open(DATA / trace_name, encoding="utf-8") as lines:
            assert run_monitor(spec, taxonomy, iter_trace(lines, taxonomy)) == expected
        assert run_monitor(spec, taxonomy, list(trace.samples)) == expected
        assert run_monitor(spec, taxonomy, (sample for sample in trace.samples)) == expected

    def test_a_mismatched_spec_is_refused_before_an_empty_iterable(self):
        with pytest.raises(MonitorError, match="trace has no samples"):
            run_monitor(flag_spec(), FLAG_TAXONOMY, iter(()))
        other = Taxonomy(FLAG_TAXONOMY.attributes, version="flag2")
        with pytest.raises(MonitorError, match="spec was checked against"):
            run_monitor(flag_spec(), other, [])
        # a Trace's own binding is checked first of all
        with pytest.raises(MonitorError, match="trace was recorded against"):
            run_monitor(flag_spec(), other, Trace(FLAG_TAXONOMY, ()))

    def test_a_time_that_does_not_increase_is_refused(self):
        samples = (make_lod(FLAG_TAXONOMY, {"flag": True}, t=t) for t in (0.0, 1.0, 1.0))
        with pytest.raises(MonitorError, match="timestamp 1.0 does not increase past 1.0"):
            run_monitor(flag_spec(), FLAG_TAXONOMY, samples)

    def test_an_iterable_is_not_held(self):
        spec = flag_spec()

        def peak(count):
            # the verdict never changes, so the fold holds one event
            samples = (make_lod(FLAG_TAXONOMY, {"flag": True}, t=float(i)) for i in range(count))
            tracemalloc.start()
            try:
                assert run_monitor(spec, FLAG_TAXONOMY, samples).samples_in == count
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1_000)  # the first run also fills the interpreter's caches
        # a held sample is about 150 bytes, so 19,000 more would be about 3 MB
        assert peak(20_000) < peak(1_000) + 256 * 1024


class TestReportRendering:
    def test_shape_and_atom_rendering(self):
        report = run_letters("TF")
        document = render_report(report)
        assert document["samples"] == {"total": 2, "in": 1, "out": 1, "unknown": 0}
        assert document["dwell_s"] == {"in": 1.0, "out": 0.0, "unknown": 0.0}
        assert document["atom_violations"] == {"flag == true": 1}
        assert document["events"][1] == {
            "kind": "exit",
            "t": 1.0,
            "index": 1,
            "falsified": ["flag == true"],
            "unknown": [],
        }

    def test_each_atom_is_written_once_per_report(self, monkeypatch):
        taxonomy = Taxonomy(
            (Attribute("flag", BoolType()), Attribute("level", IntType(minimum=0, maximum=9))),
            version="flag-level",
        )
        spec = check_spec(
            parse_spec("(flag == true and level < 5) or (level > 7 and not flag == false)"),
            taxonomy,
        )
        # verdicts true, false, unknown in turn: every sample is an event
        rows = [{"flag": True, "level": 2}, {"flag": False, "level": 2}, {"level": 2}] * 20
        samples = [make_lod(taxonomy, row, t=float(i)) for i, row in enumerate(rows)]
        report = run_monitor(spec, taxonomy, Trace(taxonomy, tuple(samples)))
        assert len(report.events) > len(rows)
        written = []

        def counting(ast):
            written.append(ast)
            return serialize_spec(ast)

        monkeypatch.setattr("oddspec.monitor.serialize_spec", counting)
        document = render_report(report)
        assert len(written) == len({id(atom) for atom in written}) <= len(spec.atoms)
        assert document["events"] == [
            {
                "kind": event.kind.value,
                "t": event.t,
                "index": event.sample_index,
                "falsified": [serialize_spec(a) for a in event.diagnosis.falsified_atoms],
                "unknown": [serialize_spec(a) for a in event.diagnosis.unknown_atoms],
            }
            for event in report.events
        ]
        assert document["atom_violations"] == {
            serialize_spec(atom): count for atom, count in report.atom_violations.items()
        }

    def test_equal_atoms_keep_their_own_text(self):
        # 45 == 45.0, so the two atoms are equal, but they write differently
        whole = Atom("speed", Predicate.LT, 45, "kmh")
        point = Atom("speed", Predicate.LT, 45.0, "kmh")
        assert whole == point
        diagnosis = Diagnosis(Verdict.FALSE, (whole, point), ())
        report = dataclasses.replace(
            run_letters("T"),
            events=(MonitorEvent(EventKind.EXIT, 0.0, 0, diagnosis),),
            atom_violations={},
        )
        falsified = render_report(report)["events"][0]["falsified"]
        assert falsified == ["speed < 45 kmh", "speed < 45.0 kmh"]

    def test_json_round_trips_through_loads(self):
        text = report_json(run_letters("TUF"))
        assert json.loads(text)["samples"]["unknown"] == 1

    def test_samples_total_is_the_sum_of_the_counts(self):
        report = run_letters("TTFUUT")
        assert (report.samples_in, report.samples_out, report.samples_unknown) == (3, 1, 2)
        assert report.samples_total == 6
        assert "samples_total" not in {field.name for field in dataclasses.fields(report)}

    def test_a_dwell_is_at_most_the_largest_float(self):
        times = [0.0, 3.985335865152227e307, 7.871875209470127e307, 8.913182625128503e307]
        times.append(sys.float_info.max)
        elapsed = 0.0
        for earlier, later in zip(times, times[1:]):
            elapsed += later - earlier
        assert elapsed == math.inf  # the float sum of the intervals overflows
        report = run_letters("UUUUU", times)
        assert report.dwell_unknown_s == sys.float_info.max
        assert report.dwell_in_s == report.dwell_out_s == 0.0
        text = report_json(report)
        assert "Infinity" not in text
        assert json.loads(text)["dwell_s"]["unknown"] == sys.float_info.max


PAIR_TAXONOMY = Taxonomy((Attribute("a", BoolType()), Attribute("b", BoolType())), version="pair1")
A_ATOM = Atom("a", Predicate.EQ, True)
B_ATOM = Atom("b", Predicate.EQ, True)


def fold(spec, samples, state=None):
    """Step ``samples`` through ``state`` (a fresh one if None); returns the
    state, the verdicts and the events."""
    state = state if state is not None else monitor_init(spec, spec.taxonomy)
    verdicts, events = [], []
    for sample in samples:
        _, verdict, step_events = monitor_step(state, sample)
        verdicts.append(verdict)
        events.extend(step_events)
    return state, verdicts, events


class TestRepeatedRanks:
    """A sample whose atom ranks repeat the previous sample's reuses its
    diagnosis; the counts must not show it."""

    def test_alternating_ranks_under_a_steady_verdict(self):
        # one disjunct true at a time: the ranks change on every sample and
        # the verdict never does
        spec = check_spec(parse_spec("a == true or b == true"), PAIR_TAXONOMY)
        rows = [(True, False), (False, True)] * 3 + [(True, False)]
        samples = [
            make_lod(PAIR_TAXONOMY, {"a": a, "b": b}, t=float(i)) for i, (a, b) in enumerate(rows)
        ]
        state, verdicts, events = fold(spec, samples)
        report = report_from_state(state, events)
        assert verdicts == [Verdict.TRUE] * len(rows)
        assert events_as_tuples(report) == [("entry", 0.0, 0)]
        assert report.atom_violations == {
            A_ATOM: sum(1 for a, _ in rows if not a),
            B_ATOM: sum(1 for _, b in rows if not b),
        }

    def test_run_that_ends_the_trace_is_counted_whole(self):
        report = run_letters("TF" + "F" * 40)
        assert report.atom_violations == {FLAG_ATOM: 41}
        assert report.samples_out == 41
        assert events_as_tuples(report) == [("entry", 0.0, 0), ("exit", 1.0, 1)]

    def test_report_twice_is_the_same_report(self):
        state, _, events = fold(flag_spec(), trace_for("TFFFUUFF").samples)
        first = report_from_state(state, events)
        assert report_from_state(state, events) == first
        assert first.atom_violations == {FLAG_ATOM: 5}

    def test_report_mid_fold_then_more_steps(self):
        letters = "TTFFFFUUFFFTT"
        trace = trace_for(letters)
        spec = flag_spec()
        for cut in range(1, len(letters)):
            state, _, events = fold(spec, trace.samples[:cut])
            report_from_state(state, events)  # flushes the run pending at the cut
            _, _, more = fold(spec, trace.samples[cut:], state)
            assert report_from_state(state, events + more) == run_monitor(
                spec, FLAG_TAXONOMY, trace
            ), cut

    def test_an_atom_only_under_negation_never_counts(self):
        spec = check_spec(parse_spec("not a == true and b == true"), PAIR_TAXONOMY)
        rows = [(False, True), (False, False), (True, False), (False, False), (False, True)]
        samples = [
            make_lod(PAIR_TAXONOMY, {"a": a, "b": b}, t=float(i)) for i, (a, b) in enumerate(rows)
        ]
        state, _, events = fold(spec, samples)
        report = report_from_state(state, events)
        assert report.atom_violations == {B_ATOM: 3}
        assert state.violations[spec.atoms.index(A_ATOM)] == 0
        for event in events:
            assert A_ATOM not in event.diagnosis.falsified_atoms

    def test_a_run_broken_by_unmeasured_samples_counts_only_falsified_ones(self):
        letters = "TFFUUFFFUT"
        state, _, events = fold(flag_spec(), trace_for(letters).samples)
        assert report_from_state(state, events).atom_violations == {FLAG_ATOM: 5}
        # both runs have ended, so the state holds the whole count
        assert state.violations == [5]

    def test_an_open_run_is_counted_once_however_often_it_is_reported(self):
        spec = flag_spec()
        trace = trace_for("TFFFFF")
        state, _, events = fold(spec, trace.samples[:4])
        violations, starts = list(state.violations), list(state.run_starts)
        mid = report_from_state(state, events)
        assert report_from_state(state, events) == mid
        assert mid.atom_violations == {FLAG_ATOM: 3}
        # a report reads the open run and leaves it open
        assert (state.violations, state.run_starts) == (violations, starts)
        _, _, more = fold(spec, trace.samples[4:], state)
        end = report_from_state(state, events + more)
        assert report_from_state(state, events + more) == end
        assert end.atom_violations == {FLAG_ATOM: 5}
        assert end == run_monitor(spec, FLAG_TAXONOMY, trace)


def _snapshot(state):
    """Every field a step may write, copied."""
    return (
        state.last_verdict, state.last_t, dict(state.counts), dict(state.dwell),
        state.last_values, list(state.hints), list(state.node_ranks),
        list(state.falsified), list(state.unknown), list(state.violations),
        list(state.run_starts),
    )


class TestChecksOnRepeatedRanks:
    def test_wrong_arity_after_a_run_is_refused(self):
        state, _, _ = fold(flag_spec(), trace_for("FFFF").samples)
        with pytest.raises(EvaluationError, match="values"):
            monitor_step(state, Lod(4.0, 0.0, 0.0, (False, False)))

    def test_stale_timestamp_after_a_run_changes_nothing(self):
        spec = flag_spec()
        trace = trace_for("TFFF")
        state, _, events = fold(spec, trace.samples)
        counts, dwell = dict(state.counts), dict(state.dwell)
        snapshot = _snapshot(state)
        with pytest.raises(MonitorError, match="increase"):
            monitor_step(state, make_lod(FLAG_TAXONOMY, {"flag": False}, t=3.0))
        assert (state.counts, state.dwell) == (counts, dwell)
        assert _snapshot(state) == snapshot
        tail = (make_lod(FLAG_TAXONOMY, {"flag": False}, t=4.0),)
        _, _, more = fold(spec, tail, state)
        whole = Trace(FLAG_TAXONOMY, trace.samples + tail)
        assert report_from_state(state, events + more) == run_monitor(spec, FLAG_TAXONOMY, whole)


def _assert_fold_agrees(ast, spec, rows, orders):
    """Fold the samples of ``rows``: every verdict is the truth-table
    referee's, every event carries the diagnosis of its own sample, and the
    violation counts are the per-sample diagnoses summed."""
    samples = [make_lod(spec.taxonomy, r, t=float(i)) for i, r in enumerate(rows)]
    state, verdicts, events = fold(spec, samples)
    report = report_from_state(state, events)

    assert [v.value for v in verdicts] == [eval_kleene(ast, r, orders) for r in rows]
    for event in events:
        assert event.diagnosis == diagnose(spec, samples[event.sample_index])
    expected = {}
    for sample in samples:
        for atom in diagnose(spec, sample).falsified_atoms:
            expected[atom] = expected.get(atom, 0) + 1
    assert report.atom_violations == expected


class TestDifferentialReferee:
    """Random partially measured traces over random specs, folded as
    ``_assert_fold_agrees`` checks."""

    @pytest.mark.parametrize("taxonomy", SPEC_FAMILY, ids=lambda t: t.version)
    def test_fold_agrees_with_per_sample_evaluation(self, taxonomy):
        rng = random.Random(taxonomy.version)
        orders = label_orders_of(taxonomy)
        spaces = {a.name: list(space_of(a)) + [None] for a in taxonomy.attributes}
        for _ in range(6):
            ast = random_spec(rng, taxonomy, 6)
            spec = check_spec(ast, taxonomy)
            # sticky rows: a changed attribute is the exception, so runs of
            # equal ranks are common
            row = {name: rng.choice(space) for name, space in spaces.items()}
            rows = []
            for _ in range(80):
                if rng.random() < 0.3:
                    name = rng.choice(list(spaces))
                    row = dict(row, **{name: rng.choice(spaces[name])})
                rows.append(row)
            _assert_fold_agrees(ast, spec, rows, orders)


def _with_spare(taxonomy):
    """``taxonomy`` with one more attribute, which no spec over it mentions."""
    spare = Attribute("spare", IntType(minimum=0, maximum=3))
    return Taxonomy(taxonomy.attributes + (spare,), version=taxonomy.version + "+spare")


def _changing_rows(rng, spaces, steps):
    """Value maps in which each step changes a random subset of the
    attributes, often several at once: a measured value may become None
    (unmeasured) and back, and about one step in five changes nothing."""
    row = {name: rng.choice(space) for name, space in spaces.items()}
    rows = [row]
    for _ in range(steps - 1):
        row = dict(row)
        if rng.random() >= 0.2:
            for name in rng.sample(list(spaces), rng.randint(1, len(spaces))):
                if rng.random() < 0.3:
                    row[name] = rng.choice(spaces[name][:-1]) if row[name] is None else None
                else:
                    row[name] = rng.choice(spaces[name])
        rows.append(row)
    return rows


class TestChangedAttributes:
    """A step re-tests only the atoms of the attributes whose value changed;
    every answer must still be the one a full evaluation of the sample gives."""

    @pytest.mark.parametrize("base", SPEC_FAMILY, ids=lambda t: t.version)
    def test_fold_agrees_with_per_sample_evaluation(self, base):
        taxonomy = _with_spare(base)
        rng = random.Random("changed " + base.version)
        orders = label_orders_of(taxonomy)
        spaces = {a.name: list(space_of(a)) + [None] for a in taxonomy.attributes}
        for _ in range(6):
            ast = random_spec(rng, base, 6)
            spec = check_spec(ast, taxonomy)
            rows = _changing_rows(rng, spaces, 120)
            _assert_fold_agrees(ast, spec, rows, orders)

    @pytest.mark.parametrize("base", SPEC_FAMILY, ids=lambda t: t.version)
    def test_refused_steps_change_nothing(self, base):
        taxonomy = _with_spare(base)
        rng = random.Random("refused " + base.version)
        spaces = {a.name: list(space_of(a)) + [None] for a in taxonomy.attributes}
        spec = check_spec(random_spec(rng, base, 6), taxonomy)
        rows = _changing_rows(rng, spaces, 40)
        samples = [make_lod(taxonomy, r, t=float(i)) for i, r in enumerate(rows)]
        state, _, _ = fold(spec, samples)
        last_values = state.last_values
        snapshot = _snapshot(state)
        changed = make_lod(taxonomy, _changing_rows(rng, spaces, 2)[1], t=float(len(rows) - 1))
        with pytest.raises(MonitorError, match="increase"):
            monitor_step(state, changed)
        with pytest.raises(EvaluationError, match="values"):
            monitor_step(state, Lod(float(len(rows)), 0.0, 0.0, changed.values[:-1]))
        assert state.last_values is last_values
        assert _snapshot(state) == snapshot

    def test_a_test_that_raises_commits_nothing(self):
        taxonomy = Taxonomy(
            (Attribute("count", IntType(minimum=0, maximum=4)), Attribute("flag", BoolType())),
            version="count1",
        )
        spec = check_spec(parse_spec("flag == true and count < 3"), taxonomy)
        samples = [make_lod(taxonomy, {"count": 1, "flag": True}, t=0.0)]
        state, _, _ = fold(spec, samples)
        snapshot = (state.last_values, list(state.node_ranks), state.last_t, dict(state.counts))
        whole = _snapshot(state)
        # a sample not built from the taxonomy: its count cannot be ordered
        with pytest.raises(TypeError):
            monitor_step(state, Lod(1.0, 0.0, 0.0, ("many", False)))
        assert (state.last_values, state.node_ranks, state.last_t, state.counts) == snapshot
        assert _snapshot(state) == whole
        _, verdict, _ = monitor_step(state, make_lod(taxonomy, {"count": 1, "flag": False}, t=2.0))
        assert verdict is Verdict.FALSE


def _subtree_plans(spec):
    """The plan of every node's subtree, rebuilt from the node table alone:
    a childless node is the atom of its own number."""
    plans = []
    for node, kids in enumerate(spec.children):
        plans.append(node if not kids else tuple(plans[kid] for kid in kids))
    return plans


def _plan_of(ast, atoms):
    """The nesting of ``ast`` over atom positions in ``atoms``, with ``not
    not`` folded away: an int is an atom, a 1-tuple negates its element and
    a 2-tuple conjoins its two."""
    if isinstance(ast, Atom):
        return atoms.index(ast)
    if isinstance(ast, Not):
        if isinstance(ast.operand, Not):
            return _plan_of(ast.operand.operand, atoms)
        return (_plan_of(ast.operand, atoms),)
    assert isinstance(ast, And)
    return (_plan_of(ast.left, atoms), _plan_of(ast.right, atoms))


def _fold(plan, ranks):
    """Kleene-fold a nested plan over atom ranks, every operand folded."""
    if type(plan) is int:
        return ranks[plan]
    if len(plan) == 1:
        return 2 - _fold(plan[0], ranks)
    return min(_fold(plan[0], ranks), _fold(plan[1], ranks))


def _assert_node_ranks(ast, spec, rows, orders):
    """Step the samples of ``rows``; after each, the first ``n`` node ranks
    are the referee's verdicts on the ``n`` atoms, every node's rank is a
    fresh fold of its subtree, the root's is the referee's verdict, an
    evaluation of the sample alone gives the same row, atoms first again,
    and the hints are the ones ``_next_hints`` gives."""
    plans = _subtree_plans(spec)
    state = monitor_init(spec, spec.taxonomy)
    size = len(spec.atoms)
    hints = list(state.hints)
    for i, row in enumerate(rows):
        sample = make_lod(spec.taxonomy, row, t=float(i))
        hints = _next_hints(spec, state.last_values, sample.values, hints)
        monitor_step(state, sample)
        verdicts = [_RANK_OF[eval_kleene(atom, row, orders)] for atom in spec.atoms]
        assert state.node_ranks[:size] == verdicts
        assert state.node_ranks == [_fold(plan, state.node_ranks) for plan in plans]
        assert _VERDICT_NAMES[state.node_ranks[-1]] == eval_kleene(ast, row, orders)
        assert _evaluate(spec, sample.values) == state.node_ranks
        _assert_hints(spec, sample.values, state.hints, hints)
    return state


def _next_hints(spec, last_values, values, hints):
    """The hints that a re-test of ``values`` after ``last_values`` leaves,
    by the rule stated apart from ``_retest``: a measured number that
    changes to another measured value gets the open interval between the
    literals of its atoms next below and above that value (``-inf`` and
    ``inf`` past the ends), or the empty interval at it when it is a
    literal; one that changes to Unknown gets ``_NO_HINT``; one that
    changes from Unknown, or does not change, keeps its hint."""
    hints = list(hints)
    for index, _, literals in spec.groups:
        last, value = last_values[index], values[index]
        if literals is None or value == last or last is UNKNOWN:
            continue
        if value is UNKNOWN:
            hints[index] = _NO_HINT
        elif value in literals:
            hints[index] = (value, value)
        else:
            below = [literal for literal in literals if literal < value]
            above = [literal for literal in literals if literal > value]
            hints[index] = (max(below, default=-math.inf), min(above, default=math.inf))
    return hints


def _assert_hints(spec, values, hints, expected):
    """The hints are ``expected``, each number's an open interval with no
    literal of its atoms inside, ``_NO_HINT`` when its value is Unknown."""
    assert hints == expected
    for index, _, literals in spec.groups:
        if literals is not None:
            low, high = hints[index]
            assert not any(low < literal < high for literal in literals)
            if values[index] is UNKNOWN:
                assert (low, high) == _NO_HINT


_VERDICT_NAMES = ("false", "unknown", "true")
_RANK_OF = {name: rank for rank, name in enumerate(_VERDICT_NAMES)}


class TestNodeTable:
    """The monitor's node ranks against a fresh fold of each subtree and the
    root against ``oracles.eval_kleene``, after every step."""

    @pytest.mark.parametrize("taxonomy", SPEC_FAMILY, ids=lambda t: t.version)
    def test_the_table_is_the_plan(self, taxonomy):
        rng = random.Random("table " + taxonomy.version)
        for _ in range(10):
            ast = random_spec(rng, taxonomy, 6)
            spec = check_spec(ast, taxonomy)
            assert _subtree_plans(spec)[-1] == _plan_of(ast, spec.atoms)
            size = len(spec.atoms)
            assert len(spec.parents) == len(spec.children)
            assert [node for node, kids in enumerate(spec.children) if not kids] == list(
                range(size)
            )
            # a child precedes each parent it lists, once per occurrence, and
            # every parent lists it back as often
            for node, kids in enumerate(spec.children):
                for kid in kids:
                    assert kid < node
                    assert spec.parents[kid].count(node) == kids.count(kid)
            for node, above in enumerate(spec.parents):
                assert all(node in spec.children[parent] for parent in above)
            # only the root has no parent, and only an atom has more than one
            assert [node for node, above in enumerate(spec.parents) if not above] == [
                len(spec.parents) - 1
            ]
            assert all(len(above) == 1 for above in spec.parents[size:-1])

    @pytest.mark.parametrize("text", BOTH_POLARITY_SPECS)
    def test_an_atom_with_leaves_of_both_polarities(self, text):
        ast = parse_spec(text)
        spec = check_spec(ast, TRIO_TAXONOMY)
        assert any(len(spec.parents[atom]) > 1 for atom in range(len(spec.atoms)))
        spaces = {"a": ["x", "y", None], "flag": [True, False, None], "b": [True, False, None]}
        rows = _changing_rows(random.Random(text), spaces, 200)
        _assert_node_ranks(ast, spec, rows, label_orders_of(TRIO_TAXONOMY))

    @pytest.mark.parametrize("base", SPEC_FAMILY, ids=lambda t: t.version)
    def test_random_specs_over_changing_rows(self, base):
        taxonomy = _with_spare(base)
        rng = random.Random("nodes " + base.version)
        orders = label_orders_of(taxonomy)
        spaces = {a.name: list(space_of(a)) + [None] for a in taxonomy.attributes}
        for _ in range(6):
            ast = random_spec(rng, base, 6)
            spec = check_spec(ast, taxonomy)
            _assert_node_ranks(ast, spec, _changing_rows(rng, spaces, 60), orders)

    def test_a_change_under_a_false_sibling_stops_at_the_conjunction(self):
        ast = parse_spec("not (a == true and b == true)")
        spec = check_spec(ast, PAIR_TAXONOMY)
        rows = [{"a": False, "b": True}, {"a": False, "b": None}, {"a": False, "b": False}]
        samples = [make_lod(PAIR_TAXONOMY, r, t=float(i)) for i, r in enumerate(rows)]
        state = _assert_node_ranks(ast, spec, rows[:1], {})
        b_atom = spec.atoms.index(B_ATOM)
        (conjunction,) = spec.parents[b_atom]
        for sample, b_rank in zip(samples[1:], (1, 0)):
            _, verdict, events = monitor_step(state, sample)
            assert state.node_ranks[b_atom] == b_rank
            # the False left operand masks the change: neither the
            # conjunction nor the negation above it moves
            assert state.node_ranks[conjunction] == 0
            assert state.node_ranks[-1] == 2
            assert (verdict, events) == (Verdict.TRUE, [])



class TestAtomFlags:
    """The per-atom flags an event's diagnosis is read from, and the list of
    moved atoms they are updated from, against a full evaluation of every
    sample."""

    @pytest.mark.parametrize("base", SPEC_FAMILY, ids=lambda t: t.version)
    def test_flags_and_diagnoses_over_changing_rows(self, base):
        taxonomy = _with_spare(base)
        rng = random.Random("flags " + base.version)
        orders = label_orders_of(taxonomy)
        spaces = {a.name: list(space_of(a)) + [None] for a in taxonomy.attributes}
        for _ in range(6):
            spec = check_spec(random_spec(rng, base, 6), taxonomy)
            state = monitor_init(spec, taxonomy)
            for i, row in enumerate(_changing_rows(rng, spaces, 80)):
                sample = make_lod(taxonomy, row, t=float(i))
                _, _, events = monitor_step(state, sample)
                ranks = [_RANK_OF[eval_kleene(atom, row, orders)] for atom in spec.atoms]
                assert state.falsified == [b and r == 0 for r, b in zip(ranks, spec.blame)]
                assert state.unknown == [r == 1 for r in ranks]
                for event in events:
                    assert event.diagnosis == diagnose(spec, sample)

    @pytest.mark.parametrize("base", SPEC_FAMILY, ids=lambda t: t.version)
    def test_retest_lists_exactly_the_moved_atoms(self, base):
        taxonomy = _with_spare(base)
        rng = random.Random("moved " + base.version)
        spaces = {a.name: list(space_of(a)) + [None] for a in taxonomy.attributes}
        for _ in range(6):
            spec = check_spec(random_spec(rng, base, 6), taxonomy)
            _assert_retest_lists_the_moved_atoms(spec, _changing_rows(rng, spaces, 80))


def _assert_retest_lists_the_moved_atoms(spec, rows):
    """Re-test the samples of ``rows``, each against the last, with the
    hints the re-tests leave: exactly the atoms whose rank a full
    evaluation moves are listed, each once, the last row is never written,
    and the hints are the ones ``_next_hints`` gives."""
    taxonomy = spec.taxonomy
    size = len(spec.atoms)
    last_values, last_row = (UNKNOWN,) * len(taxonomy), [1] * len(spec.parents)
    hints = [_NO_HINT] * len(taxonomy)
    for row in rows:
        values = make_lod(taxonomy, row).values
        full = _evaluate(spec, values)
        kept = list(last_row)
        expected = _next_hints(spec, last_values, values, hints)
        moved = _retest(spec.groups, values, last_values, last_row, hints)
        atoms_moved = [atom for atom, _ in moved]
        assert len(atoms_moved) == len(set(atoms_moved))
        assert dict(moved) == {i: full[i] for i in range(size) if full[i] != kept[i]}
        # the last row is read, never written
        assert last_row == kept
        _assert_hints(spec, values, hints, expected)
        last_values, last_row = values, full



# a bounded real and a bounded int, each with several literals to choose from
NUMBER_TAXONOMY = Taxonomy(
    (
        Attribute("speed", RealType(unit="kmh", minimum=-50.0, maximum=150.0)),
        Attribute("wet", BoolType()),
        Attribute("lanes", IntType(minimum=0, maximum=8)),
    ),
    version="numbers1",
)
_NUMBER_LITERALS = {"speed": [-12.5, 0, 0.1, 30, 60.25, 99.5, 100], "lanes": [1, 2, 4, 6]}
_NUMBER_BOUNDS = {"speed": (-50.0, 150.0), "lanes": (0, 8)}


def _random_number_spec(rng, depth):
    """Random AST over NUMBER_TAXONOMY whose atoms are mostly on the numbers,
    with every predicate."""
    if depth <= 0 or rng.random() < 0.3:
        name = rng.choice(("speed", "speed", "lanes", "wet"))
        if name == "wet":
            return Atom("wet", Predicate.EQ, rng.random() < 0.5)
        return Atom(name, rng.choice(list(Predicate)), rng.choice(_NUMBER_LITERALS[name]))
    if rng.random() < 0.3:
        return Not(_random_number_spec(rng, depth - 1))
    return And(_random_number_spec(rng, depth - 1), _random_number_spec(rng, depth - 1))


def _check_number_spec(ast):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RealEqualityWarning)
        return check_spec(ast, NUMBER_TAXONOMY)


def _number_move(rng, name, value, literals):
    """A new value of the number ``name`` whose last value is ``value``:
    on a literal, one step (the next float, or 1) to either side of one,
    anywhere between two, past the outermost, a small move from ``value``,
    or unmeasured (None)."""
    low, high = _NUMBER_BOUNDS[name]
    real = name == "speed"
    move = rng.choice(("on", "beside", "between", "past", "nudge", "nudge", "drop"))
    if move == "on":
        return rng.choice(literals)
    if move == "beside":
        literal = rng.choice(literals)
        if real:
            return math.nextafter(literal, rng.choice((-math.inf, math.inf)))
        return literal + rng.choice((-1, 1))
    if move == "between" and len(literals) > 1:
        cut = rng.randrange(len(literals) - 1)
        start, end = literals[cut], literals[cut + 1]
    elif move == "past":
        start, end = rng.choice(((low, literals[0]), (literals[-1], high)))
    elif move == "nudge" and value is not None:
        step = rng.choice((0.001, 0.5)) if real else 1
        start, end = max(low, value - step), min(high, value + step)
    else:
        return None
    return rng.uniform(start, end) if real else rng.randint(start, end)


def _literal_walk(rng, spec, steps):
    """Value maps over NUMBER_TAXONOMY in which, at each step, each number
    makes a ``_number_move`` among the literals of the spec's atoms on it
    (or of ``_NUMBER_LITERALS`` when it has none) with probability 0.7,
    and ``wet`` changes with probability 0.2."""
    literals = {
        name: sorted({a.literal for a in spec.atoms if a.attribute_name == name} or pool)
        for name, pool in _NUMBER_LITERALS.items()
    }
    row = {"speed": None, "wet": None, "lanes": None}
    rows = []
    for _ in range(steps):
        row = dict(row)
        for name in literals:
            if rng.random() < 0.7:
                row[name] = _number_move(rng, name, row[name], literals[name])
        if rng.random() < 0.2:
            row["wet"] = rng.choice((True, False, None))
        rows.append(row)
    return rows


def _moves_inside_a_cell(spec, rows):
    """How many times a number of ``rows`` changes from one measured value
    to another with no literal of its atoms between them or on either."""
    count = 0
    for name in ("speed", "lanes"):
        literals = {a.literal for a in spec.atoms if a.attribute_name == name}
        for last, row in zip(rows, rows[1:]):
            old, new = last[name], row[name]
            if None not in (old, new) and old != new:
                low, high = min(old, new), max(old, new)
                count += not any(low <= literal <= high for literal in literals)
    return count


class TestLiteralCells:
    """A number that moves inside the open interval between two consecutive
    literals of its atoms moves none of them, so its atoms are not tested
    again. Every answer must still be the referee's."""

    def test_fold_and_retest_agree_with_the_referee(self):
        rng = random.Random("cells")
        inside, literal_counts = 0, []
        for _ in range(12):
            ast = _random_number_spec(rng, 5)
            spec = _check_number_spec(ast)
            rows = _literal_walk(rng, spec, 150)
            _assert_node_ranks(ast, spec, rows, {})
            _assert_fold_agrees(ast, spec, rows, {})
            _assert_retest_lists_the_moved_atoms(spec, rows)
            inside += _moves_inside_a_cell(spec, rows)
            literal_counts += [len(literals or ()) for _, _, literals in spec.groups]
        # the walks reach the skipped groups, over several literals
        assert inside > 100
        assert max(literal_counts) >= 4

    def test_a_group_is_skipped_only_inside_its_hint(self):
        spec = check_spec(parse_spec("speed > 30 and not speed >= 60.25"), NUMBER_TAXONOMY)
        groups = [group for group in spec.groups if group[0] == 0]
        atoms = list(range(len(spec.atoms)))
        # (last speed, its hint, new speed, whether the group is skipped, the new hint)
        cases = [
            (45.0, (30, 60.25), 50.0, True, (30, 60.25)),
            (-40.0, (-math.inf, 30), 29.5, True, (-math.inf, 30)),
            (99.0, (60.25, math.inf), 150.0, True, (60.25, math.inf)),
            (45.0, (30, 60.25), 30.0, False, (30.0, 30.0)),
            (45.0, (30, 60.25), 60.25, False, (60.25, 60.25)),
            (30.0, (30.0, 30.0), math.nextafter(30.0, math.inf), False, (30, 60.25)),
            (60.25, (60.25, 60.25), math.nextafter(60.25, 0), False, (30, 60.25)),
            (45.0, (30, 60.25), 99.0, False, (60.25, math.inf)),
            (45.0, (30, 60.25), None, False, _NO_HINT),
            # a value that followed an Unknown one has no hint yet
            (45.0, _NO_HINT, 50.0, False, (30, 60.25)),
            # a change from Unknown reads and writes no hint, so one left by
            # an earlier value, as in the prefix walk, skips nothing
            (None, _NO_HINT, 50.0, False, _NO_HINT),
            (None, (30, 60.25), 50.0, False, (30, 60.25)),
        ]
        for last, hint, new, skipped, after in cases:
            values = make_lod(NUMBER_TAXONOMY, {"speed": new}).values
            last_values = make_lod(NUMBER_TAXONOMY, {"speed": last}).values
            hints = [hint, _NO_HINT, _NO_HINT]
            # a rank no test gives, so that every atom tested again is listed
            row = [-1] * len(spec.parents)
            moved = _retest(groups, values, last_values, row, hints)
            assert [atom for atom, _ in moved] == ([] if skipped else atoms), (last, new)
            assert hints == [after, _NO_HINT, _NO_HINT], (last, new)
            assert row == [-1] * len(spec.parents)

    def test_a_refused_sample_changes_no_hint(self):
        taxonomy = Taxonomy(
            (
                Attribute("speed", RealType(unit="kmh", minimum=0.0)),
                Attribute("level", EnumType(("l1", "l2", "l3"), ordered=True)),
            ),
            version="refused1",
        )
        spec = check_spec(parse_spec("speed < 60 kmh and level >= l2"), taxonomy)
        rows = [{"speed": 50.0, "level": "l3"}, {"speed": 55.0, "level": "l3"}]
        state, _, _ = fold(spec, [make_lod(taxonomy, r, t=float(i)) for i, r in enumerate(rows)])
        assert state.hints[0] == (-math.inf, 60)
        snapshot = _snapshot(state)
        # speed crosses 60, whose group comes first, and then the level's
        # test raises on a value no taxonomy holds
        with pytest.raises(TypeError):
            monitor_step(state, Lod(2.0, 0.0, 0.0, (70.0, ["l3"])))
        assert _snapshot(state) == snapshot
        _, verdict, _ = monitor_step(state, make_lod(taxonomy, {"speed": 70.0, "level": "l3"}, t=3.0))
        assert verdict is Verdict.FALSE
        assert state.hints[0] == (60, math.inf)


_DIAGNOSIS = Diagnosis(Verdict.FALSE, (FLAG_ATOM,), ())
# (class, its field names in order, the arguments of one instance, and of
# another that differs from it in the last field)
_VALUE_OBJECTS = [
    (Lod, ("t", "x", "y", "values"), (1.5, -2.0, 3.0, (True, UNKNOWN)), (1.5, -2.0, 3.0, (True,))),
    (
        Diagnosis,
        ("verdict", "falsified_atoms", "unknown_atoms"),
        (Verdict.UNKNOWN, (FLAG_ATOM,), (Atom("flag", Predicate.EQ, False),)),
        (Verdict.UNKNOWN, (FLAG_ATOM,), ()),
    ),
    (
        MonitorEvent,
        ("kind", "t", "sample_index", "diagnosis"),
        (EventKind.EXIT, 4.0, 3, _DIAGNOSIS),
        (EventKind.EXIT, 4.0, 3, Diagnosis(Verdict.UNKNOWN, (), (FLAG_ATOM,))),
    ),
]


@pytest.mark.parametrize(
    "cls, names, args, other", _VALUE_OBJECTS, ids=[entry[0].__name__ for entry in _VALUE_OBJECTS]
)
class TestValueObjects:
    """A sample, a diagnosis and an event are frozen, hashable values,
    whatever their constructors do to build them fast."""

    def test_fields_in_order(self, cls, names, args, other):
        assert tuple(field.name for field in dataclasses.fields(cls)) == names

    def test_keyword_and_positional_construction_agree(self, cls, names, args, other):
        positional = cls(*args)
        keyword = cls(**dict(zip(names, args)))
        assert positional == keyword and hash(positional) == hash(keyword)
        assert tuple(getattr(positional, name) for name in names) == args

    def test_equal_values_compare_and_hash_equal(self, cls, names, args, other):
        first, second = cls(*args), cls(*args)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second, cls(*other)}) == 2
        assert cls(*other) != first

    def test_assignment_is_refused(self, cls, names, args, other):
        value = cls(*args)
        for name, arg in zip(names, args):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, arg)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert value == cls(*args)

    def test_repr_names_every_field(self, cls, names, args, other):
        shown = ", ".join(f"{name}={arg!r}" for name, arg in zip(names, args))
        assert repr(cls(*args)) == f"{cls.__name__}({shown})"

    def test_pickle_round_trip(self, cls, names, args, other):
        value = cls(*args)
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value)
        assert repr(copy) == repr(value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(copy, names[0], args[0])

    def test_replace_builds_a_new_value(self, cls, names, args, other):
        value = cls(*args)
        assert dataclasses.replace(value) == value
        changed = dataclasses.replace(value, **{names[-1]: other[-1]})
        assert changed == cls(*other) and value == cls(*args)
