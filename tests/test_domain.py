import dataclasses
import json
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspec import (
    UNKNOWN,
    Atom,
    Attribute,
    BoolType,
    EnumType,
    InfiniteDomainError,
    IntType,
    Lod,
    LodError,
    Predicate,
    RealType,
    SpecCheckError,
    Taxonomy,
    Trace,
    TraceError,
    check_spec,
    cod_of,
    count_odd,
    domain_cardinality,
    enumerate_od,
    enumerate_odd,
    iter_trace,
    make_lod,
    parse_lod,
    parse_spec,
    parse_trace,
    serialize_trace,
    value_in_domain,
    value_space,
)
from oracles import SPEC_FAMILY, TAXONOMY_FAMILY, in_domain, nested_loop_od

SIX_TUPLE_OD = {
    ("motorway", True),
    ("motorway", False),
    ("regional", True),
    ("regional", False),
    ("rural", True),
    ("rural", False),
}


def validate_lod(lod: Lod, taxonomy: Taxonomy) -> None:
    """Check the sample invariants directly."""
    assert len(lod.values) == len(taxonomy)
    assert lod.t >= 0
    for attribute, value in zip(taxonomy.attributes, lod.values):
        assert value is UNKNOWN or value_in_domain(attribute, value)


class TestMakeLod:
    def test_positional_tuple_in_taxonomy_order(self, finite_taxonomy):
        lod = make_lod(
            finite_taxonomy,
            {"road_type": "motorway", "pedestrian_present": False},
            t=1.0,
            x=8.4,
            y=53.1,
        )
        assert lod.values == ("motorway", False)
        validate_lod(lod, finite_taxonomy)

    def test_missing_attributes_become_unknown(self, finite_taxonomy):
        lod = make_lod(finite_taxonomy, {})
        assert lod.values == (UNKNOWN, UNKNOWN)
        assert all(v is UNKNOWN for v in lod.values)

    def test_unknown_attribute_name(self, finite_taxonomy):
        with pytest.raises(LodError, match="unknown attribute"):
            make_lod(finite_taxonomy, {"weather": "dry"})

    def test_out_of_domain_value(self, finite_taxonomy):
        with pytest.raises(LodError, match="outside"):
            make_lod(finite_taxonomy, {"road_type": "highway"})

    def test_negative_time(self, finite_taxonomy):
        with pytest.raises(LodError, match="non-negative"):
            make_lod(finite_taxonomy, {}, t=-0.5)
        for t in (-0.5, -math.inf, math.nan):
            with pytest.raises(LodError) as caught:
                make_lod(finite_taxonomy, {}, t=t)
            assert str(caught.value) == f"time must be a non-negative number, got {t!r}"

    def test_the_first_bad_field_is_reported(self, finite_taxonomy):
        # t, then x, then y; a negative t counts before a bad x
        with pytest.raises(LodError) as caught:
            make_lod(finite_taxonomy, {}, t=-1, x="a", y=math.nan)
        assert str(caught.value) == "time must be a non-negative number, got -1.0"
        with pytest.raises(LodError) as caught:
            Lod(t=0, x=math.inf, y=None, values=())
        assert str(caught.value) == "'x' must be a finite number, got inf"

    # make_lod keeps its bare ids; the same cases through Lod end in "-Lod",
    # and JSON literals through parse_lod in "-parse_lod"
    @pytest.mark.parametrize(
        "constructor, key, value",
        [
            pytest.param(constructor, key, value, id=f"{key}-{name}{suffix}")
            for constructor, suffix in [("make_lod", ""), ("Lod", "-Lod")]
            for key in ["t", "x", "y"]
            for name, value in [
                ("inf", math.inf), ("-inf", -math.inf), ("nan", math.nan),
                ("bool", True), ("str", "1"), ("bytes", b"1"), ("none", None),
                ("huge", 10**400), ("-huge", -(10**400)),
            ]
        ] + [
            pytest.param("parse_lod", key, literal, id=f"{key}-{name}-parse_lod")
            for key in ["t", "x", "y"]
            for name, literal in [
                ("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity"), ("1e400", "1e400"),
                ("bool", "true"), ("str", '"1"'), ("huge", "9" * 400),
            ]
        ],
    )
    def test_non_finite_time_or_coordinate(self, finite_taxonomy, constructor, key, value):
        # json.dumps would write it as Infinity or NaN, which no trace accepts
        if constructor == "parse_lod":
            # a record names its key, 't' included, where Lod says "time"
            fields = {"t": "0.0", "x": "0.0", "y": "0.0", key: value}
            line = '{"t": %(t)s, "x": %(x)s, "y": %(y)s, "values": {}}' % fields
            with pytest.raises(TraceError) as raised:
                parse_lod(line, finite_taxonomy)
            shown = repr(json.loads(value))
            assert str(raised.value) == f"line 1: '{key}' must be a finite number, got {shown}"
            return
        with pytest.raises(LodError, match="time must be" if key == "t" else f"'{key}' must be"):
            if constructor == "Lod":
                Lod(**{"t": 0.0, "x": 0.0, "y": 0.0, key: value}, values=())
            else:
                make_lod(finite_taxonomy, {}, **{key: value})

    def test_a_record_number_that_is_not_a_finite_float(self, finite_taxonomy):
        # parse_lod takes an exact finite float as it is and sends any other
        # number through Lod's check: a negative time is refused, and an int
        # and a negative zero are stored as floats
        with pytest.raises(TraceError) as raised:
            parse_lod('{"t": -1, "x": 0, "y": 0, "values": {}}', finite_taxonomy)
        assert str(raised.value) == "line 1: time must be a non-negative number, got -1.0"
        for key in ["t", "x", "y"]:
            for literal, expected in [("-0.0", -0.0), ("2", 2.0)]:
                fields = {"t": "0.0", "x": "0.0", "y": "0.0", key: literal}
                line = '{"t": %(t)s, "x": %(x)s, "y": %(y)s, "values": {}}' % fields
                stored = getattr(parse_lod(line, finite_taxonomy), key)
                assert type(stored) is float and stored == expected
                assert math.copysign(1.0, stored) == math.copysign(1.0, expected)

    def test_finite_extremes_round_trip(self, finite_taxonomy):
        coordinates = [
            (0.0, 1e308, -1e308),
            (5e-324, -0.0, 5e-324),
            (1e308, sys.float_info.max, -sys.float_info.max),
        ]
        trace = Trace(
            finite_taxonomy,
            [make_lod(finite_taxonomy, {}, t=t, x=x, y=y) for t, x, y in coordinates],
        )
        assert parse_trace(serialize_trace(trace), finite_taxonomy) == trace

    def test_int_widens_to_float_for_real_attributes(self, motorway_taxonomy):
        lod = make_lod(motorway_taxonomy, {"operational_speed": 45})
        assert lod.values[2] == 45.0
        assert isinstance(lod.values[2], float)

    def test_none_is_an_unknown_alias(self, finite_taxonomy):
        lod = make_lod(finite_taxonomy, {"road_type": None})
        assert lod.values[0] is UNKNOWN

    def test_a_held_lod_is_small(self):
        # four slots and the object header: 64 bytes on CPython 3.10-3.13,
        # where an instance dict of its own made it 168 or more
        values, count = (True, UNKNOWN), 20_000
        held = [None] * count
        Lod(1.5, -2.0, 3.0, values)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(count):
                held[index] = Lod(1.5, -2.0, 3.0, values)
            size = (tracemalloc.get_traced_memory()[0] - before) / count
        finally:
            tracemalloc.stop()
        assert size < 100
        assert not hasattr(held[-1], "__dict__")

    def test_map_order_is_irrelevant(self, motorway_taxonomy):
        forward = {"road_type": "rural", "pedestrian_present": True, "operational_speed": 3.5}
        backward = dict(reversed(list(forward.items())))
        assert make_lod(motorway_taxonomy, forward) == make_lod(motorway_taxonomy, backward)


def test_unknown_is_a_distinct_singleton():
    assert UNKNOWN is not None
    assert UNKNOWN != "unknown"
    assert UNKNOWN != False  # noqa: E712 - deliberate equality probe
    assert UNKNOWN != 0
    assert type(UNKNOWN)() is UNKNOWN


class TestEnumerateOd:
    def test_two_attribute_domain_is_exactly_six_tuples(self, finite_taxonomy):
        tuples = list(enumerate_od(finite_taxonomy))
        assert len(tuples) == 6
        assert set(tuples) == SIX_TUPLE_OD

    def test_order_is_lexicographic_by_position(self, finite_taxonomy):
        assert list(enumerate_od(finite_taxonomy)) == [
            ("motorway", True),
            ("motorway", False),
            ("regional", True),
            ("regional", False),
            ("rural", True),
            ("rural", False),
        ]

    def test_empty_taxonomy_yields_the_empty_tuple(self):
        assert list(enumerate_od(Taxonomy(()))) == [()]

    def test_real_attribute_refuses(self, motorway_taxonomy):
        with pytest.raises(InfiniteDomainError):
            list(enumerate_od(motorway_taxonomy))

    def test_unbounded_int_refuses(self):
        t = Taxonomy((Attribute("n", IntType(maximum=10)),))
        with pytest.raises(InfiniteDomainError):
            list(enumerate_od(t))

    def test_bounded_int_ascending(self):
        t = Taxonomy((Attribute("n", IntType(minimum=-1, maximum=1)),))
        assert list(enumerate_od(t)) == [(-1,), (0,), (1,)]

    def test_int_wider_than_sys_maxsize_streams_and_counts(self):
        # len() fails past sys.maxsize values; a range of any width still
        # streams, and count_odd sizes it from the data type, not with len()
        def taxonomy(values):
            wide = Attribute("n", IntType(minimum=1, maximum=values))
            return Taxonomy((Attribute("b", BoolType()), wide))

        assert len(value_space(taxonomy(sys.maxsize).attributes[1])) == sys.maxsize
        wide = taxonomy(sys.maxsize + 1)
        tuples = enumerate_od(wide)
        assert [next(tuples) for _ in range(3)] == [(True, 1), (True, 2), (True, 3)]
        spec = check_spec(parse_spec("b == false"), wide)
        admitted = enumerate_odd(wide, spec)
        assert [next(admitted) for _ in range(2)] == [(False, 1), (False, 2)]
        assert count_odd(wide, spec) == sys.maxsize + 1

    @pytest.mark.parametrize(
        "attr_type", [RealType("kmh", 0.0, 1.0), IntType(minimum=0), IntType(maximum=0)]
    )
    def test_value_space_of_an_infinite_attribute_refuses_by_name(self, attr_type):
        with pytest.raises(InfiniteDomainError, match="attribute 'n' has an infinite data type"):
            value_space(Attribute("n", attr_type))

    def test_a_wide_int_streams(self):
        # each value space is read as it goes, never copied: 10**12 + 1 ints
        # would not fit in memory
        wide = Attribute("a", IntType(minimum=0, maximum=10**12))
        taxonomy = Taxonomy((wide, Attribute("b", BoolType())))
        tracemalloc.start()
        try:
            tuples = enumerate_od(taxonomy)
            first = [next(tuples) for _ in range(3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == [(0, True), (0, False), (1, True)]
        assert peak < 1_000_000

    def test_a_wide_int_streams_after_a_true_prefix(self):
        wide = Attribute("a", IntType(minimum=0, maximum=10**12))
        taxonomy = Taxonomy((Attribute("b", BoolType()), wide))
        admitted = enumerate_odd(taxonomy, check_spec(parse_spec("b == true"), taxonomy))
        assert [next(admitted) for _ in range(2)] == [(True, 0), (True, 1)]

    @pytest.mark.parametrize("taxonomy", TAXONOMY_FAMILY, ids=lambda t: t.version)
    def test_matches_nested_loop_oracle(self, taxonomy):
        produced = list(enumerate_od(taxonomy))
        assert produced == nested_loop_od(taxonomy)
        assert len(set(produced)) == len(produced)
        assert len(produced) == domain_cardinality(taxonomy)


TRACE_TEXT = """\
{"t": 0.0, "x": 1.0, "y": 2.0, "values": {"road_type": "motorway", "pedestrian_present": false}}
{"t": 0.1, "x": 1.1, "y": 2.1, "values": {"road_type": "motorway", "pedestrian_present": true}}

{"t": 0.2, "x": 1.2, "y": 2.2, "values": {"road_type": null}}
"""


class TestParseTrace:
    def test_happy_path(self, finite_taxonomy):
        trace = parse_trace(TRACE_TEXT, finite_taxonomy)
        assert len(trace) == 3
        assert [s.t for s in trace.samples] == [0.0, 0.1, 0.2]
        assert trace.taxonomy is finite_taxonomy
        for sample in trace.samples:
            validate_lod(sample, finite_taxonomy)

    def test_null_and_missing_values_become_unknown(self, finite_taxonomy):
        trace = parse_trace(TRACE_TEXT, finite_taxonomy)
        last = trace.samples[2]
        assert last.values == (UNKNOWN, UNKNOWN)

    def test_duplicate_timestamp(self, finite_taxonomy):
        line = '{"t": 5.0, "x": 0, "y": 0, "values": {}}'
        with pytest.raises(TraceError, match="increase"):
            parse_trace([line, line], finite_taxonomy)

    def test_decreasing_timestamp(self, finite_taxonomy):
        lines = [
            '{"t": 5.0, "x": 0, "y": 0, "values": {}}',
            '{"t": 4.0, "x": 0, "y": 0, "values": {}}',
        ]
        with pytest.raises(TraceError, match="line 2"):
            parse_trace(lines, finite_taxonomy)

    def test_malformed_line_reports_number(self, finite_taxonomy):
        lines = ['{"t": 0, "x": 0, "y": 0, "values": {}}', "{oops"]
        with pytest.raises(TraceError, match="line 2"):
            parse_trace(lines, finite_taxonomy)

    @pytest.mark.parametrize(
        "line, pattern",
        [
            ('{"t": 0, "x": 0, "y": 0}', "missing keys"),
            ('{"t": 0, "x": 0, "y": 0, "values": {}, "v": 1}', "unexpected keys"),
            ('{"t": "zero", "x": 0, "y": 0, "values": {}}', "finite number"),
            ('{"t": 0, "x": 0, "y": 0, "values": []}', "object"),
            ('{"t": -1, "x": 0, "y": 0, "values": {}}', "non-negative"),
            ('{"t": 0, "x": 0, "y": 0, "values": {"weather": "dry"}}', "unknown attribute"),
            ('{"t": 0, "x": 0, "y": 0, "values": {"road_type": "highway"}}', "outside"),
            ("[1, 2]", "object"),
        ],
    )
    def test_invalid_records(self, finite_taxonomy, line, pattern):
        with pytest.raises(TraceError, match=pattern):
            parse_trace([line], finite_taxonomy)

    def test_out_of_range_numbers(self, finite_taxonomy, motorway_taxonomy):
        first = '{"t": 0, "x": 0, "y": 0, "values": {}}'
        huge = '{"t": 1, "x": 0, "y": 0, "values": {"road_type": %s}}' % ("9" * 5000)
        deep = '{"t": 1, "x": 0, "y": 0, "values": %s}' % ("[" * 100000)
        for line in (huge, deep):
            with pytest.raises(TraceError, match="line 2: unreadable JSON"):
                parse_trace([first, line], finite_taxonomy)
        big = "9" * 400  # an int past the float range
        with pytest.raises(TraceError, match="line 1: 't' must be a finite number"):
            parse_lod('{"t": %s, "x": 0, "y": 0, "values": {}}' % big, finite_taxonomy)
        with pytest.raises(TraceError, match="line 1: value .* is outside"):
            parse_lod(
                '{"t": 0, "x": 0, "y": 0, "values": {"operational_speed": %s}}' % big,
                motorway_taxonomy,
            )

    def test_empty_stream_gives_empty_trace(self, finite_taxonomy):
        assert len(parse_trace("", finite_taxonomy)) == 0


def test_parse_lod_single_record(finite_taxonomy):
    lod = parse_lod('{"t": 1.5, "x": 0, "y": 0, "values": {"road_type": "rural"}}', finite_taxonomy)
    assert lod.values == ("rural", UNKNOWN)
    assert lod.t == 1.5


# An unbounded int reads any integer json.loads gives.
_COUNTING = Taxonomy((
    Attribute("road_type", EnumType(("motorway", "rural"))),
    Attribute("count", IntType()),
))
_RECORD = '{"t": 1.5, "x": -2, "y": 3.25, "values": {"road_type": "rural", "count": %s}}'
# JSON whitespace, and characters that str.isspace() and str.strip() take
# for whitespace but json.loads refuses after a value as "Extra data"
_AFTER_A_RECORD = [
    "", "\n", " \r\n", "\t", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\xa0", "\u2028", " x", "{}",
]
_DECODED_LINES = [(f"after {after!r}", _RECORD % 7 + after) for after in _AFTER_A_RECORD] + [
    ("two spaces before", "  " + _RECORD % 7),
    ("BOM before", "\ufeff" + _RECORD % 7),
    ("deep array", _RECORD % ("[" * 100_000 + "]" * 100_000)),
    ("huge int", _RECORD % ("9" * 5000)),
]


def _assert_decodes_as_json_loads(line):
    """parse_lod accepts the line where json.loads does, with make_lod's
    sample, and refuses it with json's own message where json.loads does."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        expected = f"line 1: {exc.msg}"
    except (ValueError, RecursionError) as exc:
        expected = f"line 1: unreadable JSON: {exc}"
    else:
        lod = make_lod(_COUNTING, record["values"], record["t"], record["x"], record["y"])
        assert parse_lod(line, _COUNTING) == lod
        assert parse_lod(line.encode(), _COUNTING) == lod  # json.loads reads bytes too
        assert list(iter_trace([line], _COUNTING)) == [lod]
        return
    with pytest.raises(TraceError) as error:
        parse_lod(line, _COUNTING)
    assert str(error.value) == expected


@pytest.mark.parametrize("line", [line for _, line in _DECODED_LINES],
                         ids=[name for name, _ in _DECODED_LINES])
def test_a_record_line_decodes_as_json_loads_does(line):
    _assert_decodes_as_json_loads(line)


@settings(max_examples=200, deadline=None)
@given(
    around=st.lists(
        st.text(st.sampled_from(" \t\n\r\f\v\x1c\x1f\x85\xa0\u2028\ufeffx{"), max_size=3),
        min_size=2, max_size=2,
    )
)
def test_text_around_a_record_decodes_as_json_loads_does(around):
    _assert_decodes_as_json_loads(around[0] + _RECORD % 7 + around[1])


class TestTraceRoundTrip:
    def test_identity_on_fixture(self, finite_taxonomy):
        trace = parse_trace(TRACE_TEXT, finite_taxonomy)
        again = parse_trace(serialize_trace(trace), finite_taxonomy)
        assert again == trace

    def test_unknowns_are_omitted_from_output(self, finite_taxonomy):
        trace = parse_trace(TRACE_TEXT, finite_taxonomy)
        last_line = serialize_trace(trace).splitlines()[2]
        assert json.loads(last_line)["values"] == {}

    def test_identity_on_random_traces(self, motorway_taxonomy):
        rng = random.Random(99)
        samples = []
        t = 0.0
        for _ in range(50):
            t += rng.uniform(0.01, 2.0)
            assignments = {}
            if rng.random() < 0.8:
                assignments["road_type"] = rng.choice(["motorway", "regional", "rural"])
            if rng.random() < 0.8:
                assignments["pedestrian_present"] = rng.random() < 0.5
            if rng.random() < 0.8:
                assignments["operational_speed"] = round(rng.uniform(0, 130), 3)
            samples.append(make_lod(motorway_taxonomy, assignments, t=t, x=rng.random(), y=rng.random()))
        trace = Trace(motorway_taxonomy, tuple(samples))
        assert parse_trace(serialize_trace(trace), motorway_taxonomy) == trace

    def test_names_follow_the_trace_taxonomy(self):
        # a trace laid out by (b, a) must not be written with (a, b)'s names
        ba = Taxonomy((Attribute("b", BoolType()), Attribute("a", BoolType())), version="1")
        trace = parse_trace('{"t": 0, "x": 0, "y": 0, "values": {"a": false, "b": true}}', ba)
        assert trace.samples[0].values == (True, False)
        text = serialize_trace(trace)
        assert json.loads(text)["values"] == {"a": False, "b": True}
        assert parse_trace(text, ba) == trace


def _trace_at(taxonomy, times):
    samples = tuple(make_lod(taxonomy, {}, t=t) for t in times)
    return Trace(taxonomy, samples)


class TestCodOf:
    def test_holds_last_sample(self, finite_taxonomy):
        trace = _trace_at(finite_taxonomy, [0.0, 1.0, 2.0])
        assert cod_of(trace, 1.5).t == 1.0

    def test_exact_timestamp_is_included(self, finite_taxonomy):
        trace = _trace_at(finite_taxonomy, [0.0, 1.0, 2.0])
        assert cod_of(trace, 1.0).t == 1.0

    def test_the_first_sample_holds_from_its_own_time(self, finite_taxonomy):
        trace = _trace_at(finite_taxonomy, [0.5, 1.0])
        assert cod_of(trace, 0.5) is trace.samples[0]

    def test_before_first_sample(self, finite_taxonomy):
        trace = _trace_at(finite_taxonomy, [0.5, 1.0])
        # the refusal names the time asked for and the first sample's, not a later one's
        with pytest.raises(TraceError, match=r"^time 0\.2 precedes the first sample at t=0\.5$"):
            cod_of(trace, 0.2)
        with pytest.raises(TraceError, match="nan"):  # no sample has t <= nan
            cod_of(trace, math.nan)

    def test_empty_trace(self, finite_taxonomy):
        with pytest.raises(TraceError, match="no samples"):
            cod_of(Trace(finite_taxonomy, ()), 0.0)

    def test_against_linear_scan(self, finite_taxonomy):
        rng = random.Random(4)
        times = sorted({round(rng.uniform(0, 100), 3) for _ in range(40)})
        trace = _trace_at(finite_taxonomy, times)
        for _ in range(500):
            now = rng.uniform(times[0], 110)
            held = None
            for sample in trace.samples:  # independent linear scan
                if sample.t <= now:
                    held = sample
            assert cod_of(trace, now) is held


def test_trace_constructor_rejects_unsorted(finite_taxonomy):
    a = make_lod(finite_taxonomy, {}, t=2.0)
    b = make_lod(finite_taxonomy, {}, t=1.0)
    with pytest.raises(TraceError, match="strictly increasing"):
        Trace(finite_taxonomy, (a, b))


def test_trace_constructor_rejects_a_repeated_time(finite_taxonomy):
    a = make_lod(finite_taxonomy, {}, t=1.0)
    b = make_lod(finite_taxonomy, {"road_type": "rural"}, t=1.0)
    with pytest.raises(TraceError, match="strictly increasing: 1.0 after 1.0"):
        Trace(finite_taxonomy, (a, b))


def test_an_int_equal_to_the_largest_float_is_a_time_and_a_coordinate(finite_taxonomy):
    # int(sys.float_info.max) converts to the largest float exactly, so it is
    # as finite as the float; one past it is not
    largest = int(sys.float_info.max)
    lod = Lod(largest, largest, -largest, ())
    assert (lod.t, lod.x, lod.y) == (sys.float_info.max, sys.float_info.max, -sys.float_info.max)
    assert all(type(field) is float for field in (lod.t, lod.x, lod.y))
    record = json.dumps({"t": largest, "x": -largest, "y": largest, "values": {}})
    lod = parse_lod(record, finite_taxonomy)
    assert (lod.t, lod.x, lod.y) == (sys.float_info.max, -sys.float_info.max, sys.float_info.max)
    for key in ("t", "x", "y"):
        with pytest.raises(LodError, match="finite"):
            Lod(**{"t": 0, "x": 0, "y": 0, key: largest + 1}, values=())


def test_lod_time_invariant():
    with pytest.raises(LodError):
        Lod(t=-1.0, x=0.0, y=0.0, values=())
    with pytest.raises(LodError):
        Lod(t=math.nan, x=0.0, y=0.0, values=())


def test_lod_stores_floats_and_a_tuple():
    lod = Lod(t=1, x=0, y=-2, values=["motorway", False])
    assert [type(field) for field in (lod.t, lod.x, lod.y, lod.values)] == [float] * 3 + [tuple]
    assert (lod.t, lod.values) == (1.0, ("motorway", False))
    same = Lod(t=1.0, x=0.0, y=-2.0, values=("motorway", False))
    assert lod == same and hash(lod) == hash(same)
    assert Lod(1, 0, -2, ["motorway", False]) == same


def test_replace_checks_a_lod_as_its_constructor_does():
    lod = Lod(1.0, 0.0, 0.0, ("motorway", False))
    with pytest.raises(LodError, match="time must be a non-negative number"):
        dataclasses.replace(lod, t=-1)
    with pytest.raises(LodError, match="'y' must be a finite number"):
        dataclasses.replace(lod, y=math.inf)
    moved = dataclasses.replace(lod, x=3, values=["rural", True])
    assert moved == Lod(1.0, 3.0, 0.0, ("rural", True))
    assert type(moved.x) is float and type(moved.values) is tuple


HUGE = 10**5000  # past the 4300 digits str() and repr() write
DIGITS = "0" * 5000  # how a refusal shows HUGE


@pytest.mark.parametrize(
    "refuse, error, pattern, shown",
    [
        pytest.param(
            lambda tax: make_lod(tax, {}, t=HUGE), LodError, "time must be a finite number",
            DIGITS, id="time",
        ),
        pytest.param(
            lambda tax: make_lod(tax, {}, x=-HUGE), LodError, "'x' must be a finite number",
            DIGITS, id="coordinate",
        ),
        pytest.param(
            lambda tax: make_lod(tax, {"s": HUGE}), LodError, "outside the domain of attribute 's'",
            DIGITS, id="real-value",
        ),
        pytest.param(
            lambda tax: make_lod(tax, {"n": HUGE}), LodError, "outside the domain of attribute 'n'",
            DIGITS, id="bounded-int-value",
        ),
        pytest.param(
            lambda tax: check_spec(Atom("n", Predicate.EQ, HUGE), tax), SpecCheckError,
            "n: literal .* is outside the attribute's domain", DIGITS, id="int-literal",
        ),
        pytest.param(
            lambda tax: check_spec(Atom("e", Predicate.EQ, HUGE), tax), SpecCheckError,
            "e: expected an enum label", DIGITS, id="enum-literal",
        ),
        pytest.param(
            lambda tax: check_spec(Atom("b", Predicate.EQ, HUGE), tax), SpecCheckError,
            "b: expected true or false", DIGITS, id="bool-literal",
        ),
        # a container repr() cannot write is named by its type
        pytest.param(
            lambda tax: make_lod(tax, {"s": [HUGE]}), LodError,
            "value <list> is outside the domain of attribute 's'", "<list>", id="list-value",
        ),
        pytest.param(
            lambda tax: make_lod(tax, {"s": {"k": HUGE}}), LodError,
            "value <dict> is outside the domain of attribute 's'", "<dict>", id="dict-value",
        ),
        pytest.param(
            lambda tax: Lod(t=[HUGE], x=0.0, y=0.0, values=()), LodError,
            "time must be a finite number, got <list>", "<list>", id="list-time",
        ),
    ],
)
def test_an_int_too_long_for_str_is_refused_with_the_package_error(refuse, error, pattern, shown):
    taxonomy = Taxonomy(
        (
            Attribute("s", RealType("kmh")),
            Attribute("n", IntType(minimum=0, maximum=5)),
            Attribute("e", EnumType(("a", "b"))),
            Attribute("b", BoolType()),
        )
    )
    with pytest.raises(error, match=pattern) as caught:
        refuse(taxonomy)
    assert shown in str(caught.value)


@settings(max_examples=100, deadline=None)
@given(
    road=st.none() | st.sampled_from(["motorway", "regional", "rural"]),
    ped=st.none() | st.booleans(),
    t=st.floats(min_value=0, max_value=1e9, allow_nan=False),
)
def test_make_lod_fuzz(finite_taxonomy, road, ped, t):
    assignments = {}
    if road is not None:
        assignments["road_type"] = road
    if ped is not None:
        assignments["pedestrian_present"] = ped
    lod = make_lod(finite_taxonomy, assignments, t=t)
    validate_lod(lod, finite_taxonomy)


FUZZ_TAXONOMY = Taxonomy(
    (
        Attribute("road", EnumType(("motorway", "rural"))),
        Attribute("light", EnumType(("dark", "dusk", "day"), ordered=True)),
        Attribute("wet", BoolType()),
        Attribute("lanes", IntType(minimum=1, maximum=4)),
        Attribute("speed", RealType("kmh", minimum=0.0, maximum=130.0)),
    )
)
_FUZZ_NAMES = [attribute.name for attribute in FUZZ_TAXONOMY.attributes]
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-1, max_value=5)
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(min_value=-10, max_value=150)
    | st.floats()
    | st.sampled_from(["motorway", "rural", "dark", "dusk", "day", "", "Motorway"])
    | st.text(max_size=6)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _record_lines(draw):
    """A trace record with arbitrary values; some records are also broken
    in one place: a key's value, a missing or an extra key, or the text."""
    number = st.floats(min_value=0, max_value=100)
    record = {
        "t": draw(number),
        "x": draw(number),
        "y": draw(number),
        "values": draw(st.dictionaries(st.sampled_from(_FUZZ_NAMES), _JSON_SCALARS, max_size=5)),
    }
    flaw = draw(st.sampled_from([None, None, None, "value", "drop", "extra", "text"]))
    if flaw == "value":
        record[draw(st.sampled_from(sorted(record)))] = draw(_JSON_VALUES)
    elif flaw == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
    elif flaw == "extra":
        record[draw(st.text(max_size=3))] = draw(_JSON_SCALARS)
    text = json.dumps(record)
    if flaw == "text":
        cut = draw(st.integers(min_value=0, max_value=len(text)))
        text = draw(st.sampled_from([text[:cut], text[cut:] + text[:cut], text[:cut] + "\x00"]))
    return text


def _assert_sound(lod):
    assert isinstance(lod, Lod)
    assert len(lod.values) == len(FUZZ_TAXONOMY)
    for attribute, value in zip(FUZZ_TAXONOMY.attributes, lod.values):
        assert value is UNKNOWN or value_in_domain(attribute, value)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_record_lines() | st.text(max_size=40), max_size=6))
def test_record_parser_yields_sound_samples_or_a_trace_error(lines):
    for line in lines:
        try:
            _assert_sound(parse_lod(line, FUZZ_TAXONOMY))
        except TraceError:
            pass
    times = []
    try:
        for lod in iter_trace(lines, FUZZ_TAXONOMY):
            _assert_sound(lod)
            times.append(lod.t)
    except TraceError:
        pass
    assert all(earlier < later for earlier, later in zip(times, times[1:]))


# ---------------------------------------------------------------------------
# Domain membership against the independent type rules
# ---------------------------------------------------------------------------

# SPEC_FAMILY has no real and no half-bounded attribute; these fill the gap.
_NUMERIC_TAXONOMY = Taxonomy(
    (
        Attribute("speed", RealType("kmh", minimum=0.0, maximum=130.0)),
        Attribute("grade", RealType("pct")),
        Attribute("friction", RealType("ratio", minimum=-1.5)),
        Attribute("ceiling", RealType("m", maximum=2.5)),
        Attribute("lanes", IntType(minimum=1, maximum=4)),
        Attribute("count", IntType()),
        Attribute("floor", IntType(unit="m", maximum=-2)),
    )
)
_MEMBERSHIP_CASES = [
    (taxonomy, attribute)
    for taxonomy in [*SPEC_FAMILY, _NUMERIC_TAXONOMY]
    for attribute in taxonomy.attributes
]
_ALL_LABELS = sorted(
    {label for taxonomy, attribute in _MEMBERSHIP_CASES
     if isinstance(attribute.attr_type, EnumType) for label in attribute.attr_type.labels}
)


class _Label(str):
    """A str subclass, as a JSON object hook or an enum library may pass."""


class _Real(float):
    """A float subclass, as a units library or a numeric wrapper may pass."""


class _UnhashableLabel(str):
    """A str subclass that cannot be a set member or a dict key."""

    __hash__ = None


_FLOAT_MAX = sys.float_info.max
_ADVERSARIAL = [
    True, False, 0, 1, 2, 2.0, 47, -0.0, 0.0, math.nan, math.inf, -math.inf,
    10**400, -(10**400), int(_FLOAT_MAX), int(_FLOAT_MAX) + 1, _FLOAT_MAX, -_FLOAT_MAX,
    2**53 + 1, None, UNKNOWN, [], ["motorway"], (), "", "Motorway", "true",
    *_ALL_LABELS, *(_Label(label) for label in _ALL_LABELS),
    *(_UnhashableLabel(label) for label in _ALL_LABELS),
    _Real(47.5), _Real(-0.0), _Real(math.nan),
]


def _near_bounds(attribute) -> list:
    """Each declared bound, and the nearest values either side of it."""
    kind = attribute.attr_type
    values = []
    for bound in (getattr(kind, "minimum", None), getattr(kind, "maximum", None)):
        if bound is None:
            continue
        if isinstance(kind, IntType):
            values += [bound, bound - 1, bound + 1, float(bound)]
        else:
            values += [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
            if bound == int(bound):
                values += [int(bound), int(bound) - 1, int(bound) + 1]
    return values


def _check_membership(taxonomy, attribute, value):
    name = attribute.name
    expected = in_domain(attribute, value)
    assert value_in_domain(attribute, value) is expected
    position = taxonomy.index_of(name)
    if value is None or value is UNKNOWN:
        assert make_lod(taxonomy, {name: value}).values[position] is UNKNOWN
        return
    if not expected:
        with pytest.raises(LodError) as raised:
            make_lod(taxonomy, {name: value})
        assert str(raised.value) == f"value {value!r} is outside the domain of attribute {name!r}"
        return
    _assert_stored(attribute, make_lod(taxonomy, {name: value}).values[position], value)


def _assert_stored(attribute, stored, value):
    """``stored`` is how ``make_lod`` must keep ``value``, a value in the
    attribute's domain: a real as a float of the same sign, an int as an
    exact int, any other value as itself."""
    kind = attribute.attr_type
    if isinstance(kind, RealType):
        assert type(stored) is float
        assert stored == float(value)
        assert math.copysign(1.0, stored) == math.copysign(1.0, value)
    elif isinstance(kind, IntType):
        assert type(stored) is int and stored == value
    else:
        assert stored is value


class TestMembershipAgainstOracle:
    @pytest.mark.parametrize(
        "taxonomy, attribute", _MEMBERSHIP_CASES,
        ids=[f"{t.version}-{a.name}" for t, a in _MEMBERSHIP_CASES],
    )
    def test_adversarial_values(self, taxonomy, attribute):
        for value in _ADVERSARIAL + _near_bounds(attribute):
            _check_membership(taxonomy, attribute, value)

    @settings(max_examples=300, deadline=None)
    @given(
        case=st.sampled_from(_MEMBERSHIP_CASES),
        value=st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-8, max_value=140),
            st.integers(),
            st.integers(min_value=-(10**400), max_value=10**400),
            st.floats(min_value=-8, max_value=140),
            st.floats(),
            st.sampled_from(_ALL_LABELS),
            st.text(max_size=8),
            st.lists(st.integers(), max_size=2),
            st.sampled_from(_ADVERSARIAL),
        ),
    )
    def test_random_values(self, case, value):
        _check_membership(*case, value)

    def test_record_values_decode_as_mapped_values(self):
        # a trace record goes through make_lod; null is Unknown there too
        taxonomy = _NUMERIC_TAXONOMY
        for attribute in taxonomy.attributes:
            for value in [None, 47, 2.0, -0.0, 10**400, True, "47", [1], *_near_bounds(attribute)]:
                record = json.dumps({"t": 0, "x": 0, "y": 0, "values": {attribute.name: value}})
                try:
                    expected = make_lod(taxonomy, {attribute.name: value})
                except LodError as exc:
                    with pytest.raises(TraceError) as raised:
                        parse_lod(record, taxonomy)
                    assert str(raised.value) == f"line 1: {exc}"
                else:
                    assert parse_lod(record, taxonomy) == expected

    def test_unknown_attribute_message(self, finite_taxonomy):
        with pytest.raises(LodError) as raised:
            make_lod(finite_taxonomy, {"road_type": "rural", "weather": None})
        assert str(raised.value) == "unknown attribute 'weather'"


# ---------------------------------------------------------------------------
# make_lod's inline test against each type's general rule
# ---------------------------------------------------------------------------

_EXACT_TYPE = {EnumType: str, BoolType: bool, IntType: int, RealType: float}
_UNDECLARED_NAMES = ["weather", "Speed", "speed_", ""]


def _general_values(attribute) -> list:
    return _ADVERSARIAL + _near_bounds(attribute)


def _inline_values(attribute) -> list:
    """The values of exactly the attribute's type that lie in its domain,
    which make_lod stores without calling the type's _accept."""
    exact = _EXACT_TYPE[type(attribute.attr_type)]
    return [
        value for value in _general_values(attribute)
        if type(value) is exact and in_domain(attribute, value)
    ]


def _passes_row(kind, value) -> bool:
    """make_lod's inline test, on the row that ``kind`` folded."""
    exact, labels, low, high = kind._row
    return type(value) is exact and (low <= value <= high if labels is None else value in labels)


def _assert_rows_agree_with_the_rule(taxonomy):
    for position, attribute in enumerate(taxonomy.attributes):
        kind = attribute.attr_type
        assert taxonomy._index[attribute.name] == (position, *kind._row, kind._accept)
        assert all(_passes_row(kind, value) for value in _inline_values(attribute))
        for value in _general_values(attribute):
            if _passes_row(kind, value):
                assert kind._accept(value) is value
            if not value_in_domain(attribute, value):
                assert not _passes_row(kind, value)


@st.composite
def _maps(draw):
    """A taxonomy and a name-to-value map over it: its first declared entry
    takes a value that the inline test stores, its second (if any) one from
    the adversarial values, which mostly go through _accept, and the rest
    either; an undeclared name may sit anywhere."""
    taxonomy = draw(st.sampled_from([*SPEC_FAMILY, _NUMERIC_TAXONOMY]))
    names = draw(st.lists(st.sampled_from(taxonomy.names()), min_size=1, unique=True))
    entries = []
    for rank, name in enumerate(names):
        attribute = taxonomy.attribute(name)
        pools = [_inline_values(attribute), _general_values(attribute)]
        if rank < 2:
            pools = pools[rank:rank + 1]
        entries.append((name, draw(st.sampled_from(draw(st.sampled_from(pools))))))
    if draw(st.booleans()):
        entries.append((draw(st.sampled_from(_UNDECLARED_NAMES)), 1))
    return taxonomy, dict(draw(st.permutations(entries)))


class TestInlineDecoding:
    @settings(max_examples=400, deadline=None)
    @given(case=_maps())
    def test_a_map_decodes_as_its_entries_do_in_order(self, case):
        taxonomy, assignments = case
        declared = set(taxonomy.names())
        expected = [None] * len(taxonomy)
        refusal = None
        for name, value in assignments.items():
            if name not in declared:
                refusal = f"unknown attribute {name!r}"
                break
            attribute = taxonomy.attribute(name)
            if value is None or value is UNKNOWN:
                continue
            if not in_domain(attribute, value):
                refusal = f"value {value!r} is outside the domain of attribute {name!r}"
                break
            expected[taxonomy.index_of(name)] = (attribute, value)
        if refusal is not None:
            with pytest.raises(LodError) as raised:
                make_lod(taxonomy, assignments)
            assert str(raised.value) == refusal
            return
        for entry, stored in zip(expected, make_lod(taxonomy, assignments).values):
            if entry is None:
                assert stored is UNKNOWN
            else:
                attribute, value = entry
                _assert_stored(attribute, stored, value)

    def test_every_row_agrees_with_its_rule(self, motorway_taxonomy, finite_taxonomy):
        for taxonomy in [*TAXONOMY_FAMILY, _NUMERIC_TAXONOMY, motorway_taxonomy, finite_taxonomy]:
            _assert_rows_agree_with_the_rule(taxonomy)

    def test_a_replaced_type_folds_a_new_row(self):
        speed = RealType("kmh", minimum=0.0, maximum=130.0)
        roads = EnumType(("motorway", "rural"))
        lanes = IntType(minimum=1, maximum=4)
        slower = dataclasses.replace(speed, maximum=50)
        fewer = dataclasses.replace(roads, labels=["rural"])
        wider = dataclasses.replace(lanes, minimum=None)
        assert slower._row == (float, None, 0.0, 50.0)
        assert fewer._row == (str, frozenset({"rural"}), None, None)
        assert wider._row == (int, None, -math.inf, 4)
        assert _passes_row(speed, 60.0) and not _passes_row(slower, 60.0)
        assert _passes_row(roads, "motorway") and not _passes_row(fewer, "motorway")
        assert _passes_row(wider, -7) and not _passes_row(lanes, -7)
        taxonomy = Taxonomy(
            (Attribute("speed", slower), Attribute("road", fewer), Attribute("lanes", wider))
        )
        _assert_rows_agree_with_the_rule(taxonomy)
        assert make_lod(taxonomy, {"lanes": -7, "road": "rural"}).values == (UNKNOWN, "rural", -7)
        for name, value in [("speed", 60.0), ("road", "motorway")]:
            with pytest.raises(LodError, match="outside the domain"):
                make_lod(taxonomy, {name: value})
