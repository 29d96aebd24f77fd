import copy
import dataclasses
import json
import math
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspec import (
    Attribute,
    BoolType,
    EnumType,
    IntType,
    RealType,
    Taxonomy,
    TaxonomyError,
    domain_cardinality,
    make_lod,
    parse_taxonomy,
    serialize_taxonomy,
    value_in_domain,
)
from oracles import TAXONOMY_FAMILY

DATA = Path(__file__).parent / "data"


def test_parse_motorway_document(motorway_taxonomy):
    t = motorway_taxonomy
    assert t.version == "1"
    assert t.names() == ("road_type", "pedestrian_present", "operational_speed")
    road = t.attribute("road_type")
    assert isinstance(road.attr_type, EnumType)
    assert road.attr_type.labels == ("motorway", "regional", "rural")
    assert not road.attr_type.ordered
    assert isinstance(t.attribute("pedestrian_present").attr_type, BoolType)
    speed = t.attribute("operational_speed").attr_type
    assert isinstance(speed, RealType)
    assert speed.unit == "kmh"
    assert speed.minimum == 0.0
    assert speed.maximum is None


def test_parse_empty_attribute_list():
    t = parse_taxonomy('{"version": "1", "attributes": []}')
    assert len(t) == 0
    assert domain_cardinality(t) == 1


def test_duplicate_attribute_name_rejected():
    doc = {
        "version": "1",
        "attributes": [
            {"name": "road_type", "type": "bool"},
            {"name": "road_type", "type": "bool"},
        ],
    }
    with pytest.raises(TaxonomyError, match="duplicate"):
        parse_taxonomy(json.dumps(doc))


def test_json_syntax_error_reports_position():
    with pytest.raises(TaxonomyError, match=r"line 2, column"):
        parse_taxonomy('{\n  "version" "1"\n}')


@pytest.mark.parametrize(
    "entry, pattern",
    [
        ({"name": "x", "type": "enum", "labels": []}, "at least one label"),
        ({"name": "x", "type": "enum", "labels": ["a", "a"]}, "distinct"),
        ({"name": "x", "type": "speed"}, "unknown type tag"),
        ({"name": "x", "type": "int", "min": 5, "max": 1}, "exceeds"),
        ({"name": "x", "type": "real", "unit": "m", "min": 5.0, "max": 1.0}, "exceeds"),
        ({"name": "x", "type": "real"}, "requires a unit"),
        ({"name": "Speed", "type": "bool"}, "identifier"),
        ({"name": "not", "type": "bool"}, "reserved"),
        ({"name": "x", "type": "enum", "labels": ["true"]}, "reserved"),
        ({"name": "x", "type": "bool", "labels": ["a"]}, "unexpected keys"),
        ({"name": "x", "type": "int", "min": 1.5}, "integer"),
        ({"type": "bool"}, "missing name"),
        ({"name": "x", "type": "bool", "description": 5}, "description must be a string"),
        ({"name": "x", "type": "int", "min": "0"}, "bound '0' is not a number"),
        ({"name": "x", "type": []}, "unknown type tag"),
        ({"name": "x", "type": {}}, "unknown type tag"),
        (1, "expected an object"),
        ("x", "expected an object"),
    ],
)
def test_invalid_attribute_entries(entry, pattern):
    doc = json.dumps({"version": "1", "attributes": [entry]})
    with pytest.raises(TaxonomyError, match=pattern) as refused:
        parse_taxonomy(doc)
    # a constructor's refusal names the entry too
    assert str(refused.value).startswith("attribute #1: ")


def test_out_of_range_numbers():
    doc = '{"version": "1", "attributes": [{"name": "n", "type": "%s", "unit": "m", "min": 0, "max": %s}]}'
    # past int()'s digit limit, or nested past the JSON decoder's stack
    for text in (doc % ("int", "9" * 5000), "[" * 100000):
        with pytest.raises(TaxonomyError, match="unreadable JSON"):
            parse_taxonomy(text)
    # an int bound past the float range is kept exactly, but has no real value
    assert domain_cardinality(parse_taxonomy(doc % ("int", "9" * 400))) == 10**400
    with pytest.raises(TaxonomyError, match="not finite"):
        parse_taxonomy(doc % ("real", "9" * 400))


def test_missing_version_rejected():
    with pytest.raises(TaxonomyError, match="version"):
        parse_taxonomy('{"attributes": []}')


def test_missing_attributes_rejected():
    with pytest.raises(TaxonomyError, match="missing 'attributes' list"):
        parse_taxonomy('{"version": "1"}')


def test_direct_construction_enforces_invariants():
    with pytest.raises(TaxonomyError):
        EnumType(())
    with pytest.raises(TaxonomyError):
        IntType(minimum=3, maximum=1)
    with pytest.raises(TaxonomyError):
        Attribute("BadName", BoolType())
    with pytest.raises(TaxonomyError):
        Taxonomy((Attribute("a", BoolType()), Attribute("a", BoolType())))


@pytest.mark.parametrize(
    "build, pattern",
    [
        (lambda: IntType(minimum=0.5, maximum=2.5), r"int bound 0\.5 must be an integer"),
        (lambda: IntType(maximum=True), "bound True is not a number"),
        (lambda: IntType(maximum=10**5000), "too long to write"),
        (lambda: RealType("kmh", minimum=math.nan, maximum=10.0), "bound nan is not finite"),
        (lambda: RealType("kmh", maximum=-math.inf), "bound -inf is not finite"),
        (lambda: RealType("kmh", maximum=10**400), "not finite"),
        (lambda: RealType("kmh", minimum="0"), "bound '0' is not a number"),
        (lambda: RealType(), "real attribute requires a unit"),
        (lambda: EnumType(("a",), ordered="yes"), "'ordered' must be a boolean"),
        (lambda: EnumType("ab"), "requires a list of labels"),
        (lambda: Attribute("a", BoolType(), description=5), "description must be a string"),
        (lambda: Attribute("a", "bool"), "attribute type 'bool' is not a data type"),
        (lambda: Taxonomy((), version=3), "non-string 'version'"),
        (lambda: Taxonomy((), version=["x"]), "non-string 'version'"),
        (lambda: Taxonomy(["a"]), "'a' is not an Attribute"),
        (lambda: Taxonomy(None), "tuple or list"),
    ],
)
def test_direct_construction_checks_what_parsing_checks(build, pattern):
    with pytest.raises(TaxonomyError, match=pattern):
        build()


def test_real_bounds_are_stored_as_floats():
    speed = RealType("kmh", minimum=0, maximum=130)
    assert (type(speed.minimum), type(speed.maximum)) == (float, float)
    assert speed == RealType("kmh", minimum=0.0, maximum=130.0)


def test_a_real_bound_may_be_the_largest_float():
    largest = sys.float_info.max
    span = Attribute("r", RealType("m", minimum=-largest, maximum=largest))
    assert (span.attr_type.minimum, span.attr_type.maximum) == (-largest, largest)
    assert value_in_domain(span, largest) and value_in_domain(span, -largest)
    taxonomy = Taxonomy((span,))
    assert parse_taxonomy(serialize_taxonomy(taxonomy)) == taxonomy


def test_an_int_range_may_hold_one_value():
    # a fixed lane count: min == max is a one-value domain, not a refusal
    lanes = Attribute("lanes", IntType(minimum=2, maximum=2))
    assert domain_cardinality(Taxonomy((lanes,))) == 1
    assert [value_in_domain(lanes, value) for value in (1, 2, 3)] == [False, True, False]
    with pytest.raises(TaxonomyError, match="exceeds"):
        IntType(minimum=3, maximum=2)


# Pairs of equal data types built from different arguments, with the
# fields each declares. Each type folds its labels or bounds into plain
# attributes when it is built; those are no part of its value.
_EQUAL_TYPES = [
    (EnumType(["a", "b"]), EnumType(("a", "b")), ["labels", "ordered"]),
    (RealType("kmh", minimum=0, maximum=50), RealType("kmh", 0.0, 50.0),
     ["unit", "minimum", "maximum"]),
    (RealType("kmh", maximum=50), RealType("kmh", maximum=50.0), ["unit", "minimum", "maximum"]),
    (IntType(minimum=1, maximum=50), IntType(None, 1, 50), ["unit", "minimum", "maximum"]),
    (IntType(unit="m"), IntType("m"), ["unit", "minimum", "maximum"]),
]
_PROBES = [
    "a", "b", "c", True, False, None, -1, 0, 1, 10, 11, 50, 51, 0.0, -0.0, 10.0, 11.0,
    49.5, 50.0, 50.5, math.nan, math.inf, -math.inf, 10**400, -(10**400), [],
]


@pytest.mark.parametrize(
    "kind, twin, names", _EQUAL_TYPES, ids=["enum", "real", "real-max", "int", "int-unbounded"]
)
def test_the_folded_labels_and_bounds_are_no_part_of_a_type(kind, twin, names):
    assert [f.name for f in dataclasses.fields(kind)] == names
    assert kind == twin and hash(kind) == hash(twin) and repr(kind) == repr(twin)
    document = serialize_taxonomy(Taxonomy((Attribute("a", kind),)))
    assert document == serialize_taxonomy(Taxonomy((Attribute("a", twin),)))
    assert parse_taxonomy(document) == Taxonomy((Attribute("a", kind),))
    # a copy carries the folded data and accepts what the original accepts
    for duplicate in (pickle.loads(pickle.dumps(kind)), copy.deepcopy(kind), twin):
        for value in _PROBES:
            expected = value_in_domain(Attribute("a", kind), value)
            assert value_in_domain(Attribute("a", duplicate), value) is expected


def test_replace_folds_the_new_labels_and_bounds():
    # dataclasses.replace builds through the constructor, which folds again
    speed = dataclasses.replace(RealType(unit="kmh", maximum=50.0), maximum=10.0)
    assert value_in_domain(Attribute("speed", speed), 10.0)
    assert not value_in_domain(Attribute("speed", speed), 11.0)
    lanes = dataclasses.replace(IntType(minimum=1, maximum=4), minimum=3)
    assert [value_in_domain(Attribute("lanes", lanes), n) for n in (2, 3, 4)] == [False, True, True]
    road = dataclasses.replace(EnumType(("a", "b")), labels=("b", "c"))
    assert [value_in_domain(Attribute("road", road), s) for s in "abc"] == [False, True, True]


@pytest.mark.parametrize(
    "build",
    [
        lambda: EnumType((10**5000,)),
        lambda: Attribute(10**5000, BoolType()),
        lambda: IntType(unit=10**5000),
        lambda: IntType(minimum=10**5000, maximum=0),
    ],
    ids=["enum label", "attribute name", "unit", "bound"],
)
def test_a_refused_int_past_the_digit_limit_is_written_out(build):
    with pytest.raises(TaxonomyError, match="1" + "0" * 5000):
        build()


# Field values of every kind a constructor may be given. A field is drawn
# from these about one time in eight, and from values that fit it otherwise,
# so that about a third of the builds succeed and round-trip.
_ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**5000, -(10**5000)]),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.sampled_from(["a", "b", "true"]), st.integers()), max_size=3),
)
_IDENTIFIERS = st.sampled_from(["a", "b", "kmh", "lane_count"])
_NUMBERS = st.one_of(st.none(), st.integers(), st.floats(allow_nan=False, allow_infinity=False))
_FIELDS = {
    EnumType: (st.lists(_IDENTIFIERS, min_size=1, max_size=3, unique=True), st.booleans()),
    BoolType: (),
    RealType: (_IDENTIFIERS, _NUMBERS, _NUMBERS),
    IntType: (st.one_of(st.none(), _IDENTIFIERS), _NUMBERS, _NUMBERS),
}


def _either(fitting):
    return st.integers(0, 7).flatmap(lambda draw: _ANY_VALUE if draw == 0 else fitting)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_taxonomy_that_constructs_round_trips(data):
    kind = data.draw(st.sampled_from(list(_FIELDS)))
    try:
        attr_type = kind(*(data.draw(_either(fitting)) for fitting in _FIELDS[kind]))
        attribute = Attribute(
            data.draw(_either(_IDENTIFIERS)),
            data.draw(_either(st.just(attr_type))),
            data.draw(_either(st.text(max_size=4))),
        )
        taxonomy = Taxonomy(data.draw(_either(st.just([attribute]))), data.draw(_either(st.text())))
    except TaxonomyError:
        return
    assert parse_taxonomy(serialize_taxonomy(taxonomy)) == taxonomy


class TestValueInDomain:
    def test_declared_enum_label(self, motorway_taxonomy):
        road = motorway_taxonomy.attribute("road_type")
        assert value_in_domain(road, "motorway")

    def test_boolean_value(self, motorway_taxonomy):
        ped = motorway_taxonomy.attribute("pedestrian_present")
        assert value_in_domain(ped, True)
        assert value_in_domain(ped, False)

    def test_undeclared_label(self, motorway_taxonomy):
        road = motorway_taxonomy.attribute("road_type")
        assert not value_in_domain(road, "highway")

    def test_kind_confusion_is_false_not_an_error(self, motorway_taxonomy):
        road = motorway_taxonomy.attribute("road_type")
        ped = motorway_taxonomy.attribute("pedestrian_present")
        speed = motorway_taxonomy.attribute("operational_speed")
        assert not value_in_domain(road, 3)
        assert not value_in_domain(ped, "true")
        assert not value_in_domain(speed, "60")
        # bool is not a number even though Python subclasses int
        assert not value_in_domain(speed, True)

    def test_real_bounds_and_finiteness(self, motorway_taxonomy):
        speed = motorway_taxonomy.attribute("operational_speed")
        assert value_in_domain(speed, 0.0)
        assert value_in_domain(speed, 47)
        assert not value_in_domain(speed, -0.1)
        assert not value_in_domain(speed, math.nan)
        assert not value_in_domain(speed, math.inf)

    def test_int_past_float_range_is_outside_a_real_domain(self, motorway_taxonomy):
        speed = motorway_taxonomy.attribute("operational_speed")
        assert not value_in_domain(speed, 10**400)
        lanes = Attribute("lanes", IntType(minimum=0))
        assert value_in_domain(lanes, 10**400)

    def test_int_bounds_reject_floats(self):
        lanes = Attribute("lanes", IntType(minimum=1, maximum=3))
        assert value_in_domain(lanes, 2)
        assert not value_in_domain(lanes, 2.0)
        assert not value_in_domain(lanes, 0)
        assert not value_in_domain(lanes, 4)

    @given(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.floats(),
            st.text(max_size=5),
            st.lists(st.integers(), max_size=2),
        )
    )
    def test_total_over_arbitrary_values(self, value):
        ped = Attribute("p", BoolType())
        road = Attribute("r", EnumType(("a", "b")))
        speed = Attribute("s", RealType(unit="mps"))
        for attr in (ped, road, speed):
            first = value_in_domain(attr, value)
            assert isinstance(first, bool)
            assert value_in_domain(attr, value) == first


def test_a_decoded_taxonomy_pickles_and_copies():
    taxonomy = parse_taxonomy((DATA / "taxonomy_motorway.json").read_text())
    values = {"road_type": "rural", "pedestrian_present": False, "operational_speed": 47}
    pickled = pickle.dumps(taxonomy)
    sample = make_lod(taxonomy, values)
    # the decoding table built by make_lod is not part of the pickled state
    assert pickle.dumps(taxonomy) == pickled
    for duplicate in (pickle.loads(pickle.dumps(taxonomy)), copy.deepcopy(taxonomy)):
        assert duplicate == taxonomy
        assert hash(duplicate) == hash(taxonomy)
        assert make_lod(duplicate, values) == sample


class TestCardinality:
    def test_two_attribute_product(self, finite_taxonomy):
        assert domain_cardinality(finite_taxonomy) == 6

    def test_real_attribute_is_infinite(self, motorway_taxonomy):
        assert math.isinf(domain_cardinality(motorway_taxonomy))

    def test_bounded_int_contributes_its_range(self):
        t = Taxonomy((Attribute("lanes", IntType(minimum=-1, maximum=3)),))
        assert domain_cardinality(t) == 5

    def test_unbounded_int_is_infinite(self):
        t = Taxonomy((Attribute("lanes", IntType(minimum=0)),))
        assert math.isinf(domain_cardinality(t))

    def test_bounded_real_is_still_infinite(self):
        t = Taxonomy((Attribute("mu", RealType(unit="ratio", minimum=0.0, maximum=1.0)),))
        assert math.isinf(domain_cardinality(t))


def test_round_trip_motorway(motorway_taxonomy):
    assert parse_taxonomy(serialize_taxonomy(motorway_taxonomy)) == motorway_taxonomy


def test_fields_at_their_defaults_are_left_out():
    t = Taxonomy(
        (
            Attribute("road", EnumType(("a", "b"))),
            Attribute("speed", RealType("kmh")),
            Attribute("lanes", IntType()),
            Attribute("night", BoolType()),
        ),
        version="1",
    )
    assert serialize_taxonomy(t) == (
        "{\n"
        '  "version": "1",\n'
        '  "attributes": [\n'
        "    {\n"
        '      "name": "road",\n'
        '      "type": "enum",\n'
        '      "labels": [\n'
        '        "a",\n'
        '        "b"\n'
        "      ]\n"
        "    },\n"
        "    {\n"
        '      "name": "speed",\n'
        '      "type": "real",\n'
        '      "unit": "kmh"\n'
        "    },\n"
        "    {\n"
        '      "name": "lanes",\n'
        '      "type": "int"\n'
        "    },\n"
        "    {\n"
        '      "name": "night",\n'
        '      "type": "bool"\n'
        "    }\n"
        "  ]\n"
        "}\n"
    )


def test_round_trip_every_feature():
    t = Taxonomy(
        (
            Attribute("level", EnumType(("lo", "hi"), ordered=True), description="grade"),
            Attribute("speed", RealType(unit="kmh", minimum=0.0, maximum=130.0)),
            Attribute("lanes", IntType(unit="count", minimum=1, maximum=4)),
            Attribute("night", BoolType()),
        ),
        version="2026-08",
    )
    assert parse_taxonomy(serialize_taxonomy(t)) == t


@pytest.mark.parametrize("taxonomy", TAXONOMY_FAMILY, ids=lambda t: t.version)
def test_round_trip_family(taxonomy):
    assert parse_taxonomy(serialize_taxonomy(taxonomy)) == taxonomy
