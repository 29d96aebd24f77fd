"""Independent reference implementations the tests check the package against.

Everything here deliberately avoids the package's evaluation, enumeration,
and monitoring code paths: plain bools instead of verdict algebra, explicit
nested loops instead of itertools, a transition table instead of the
monitor's fold. Only the AST/taxonomy data classes are shared.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from oddspec import (
    And,
    Atom,
    Attribute,
    BoolType,
    EnumType,
    IntType,
    Not,
    Predicate,
    RealType,
    Taxonomy,
)

# ---------------------------------------------------------------------------
# Classical (two-valued) evaluation on fully known assignments
# ---------------------------------------------------------------------------


def eval_two_valued(node, values_by_name: dict, label_orders: dict) -> bool:
    """Reference truth value of an AST over a total assignment.

    ``label_orders`` maps the names of ordered-enum attributes to their
    label lists so ordering comparisons can be resolved by index.
    """
    if isinstance(node, Not):
        return not eval_two_valued(node.operand, values_by_name, label_orders)
    if isinstance(node, And):
        return eval_two_valued(node.left, values_by_name, label_orders) and (
            eval_two_valued(node.right, values_by_name, label_orders)
        )
    assert isinstance(node, Atom)
    value = values_by_name[node.attribute_name]
    literal = node.literal
    if node.attribute_name in label_orders and node.predicate is not Predicate.EQ:
        order = label_orders[node.attribute_name]
        value = order.index(value)
        literal = order.index(literal)
    if node.predicate is Predicate.EQ:
        return value == literal
    if node.predicate is Predicate.LT:
        return value < literal
    if node.predicate is Predicate.GT:
        return value > literal
    if node.predicate is Predicate.LE:
        return value <= literal
    return value >= literal


# Strong Kleene truth tables, written out rather than derived from an
# ordering of the three values.
_KLEENE_NOT = {"true": "false", "false": "true", "unknown": "unknown"}
_KLEENE_AND = {
    ("true", "true"): "true",
    ("true", "false"): "false",
    ("true", "unknown"): "unknown",
    ("false", "true"): "false",
    ("false", "false"): "false",
    ("false", "unknown"): "false",
    ("unknown", "true"): "unknown",
    ("unknown", "false"): "false",
    ("unknown", "unknown"): "unknown",
}


def eval_kleene(node, values_by_name: dict, label_orders: dict) -> str:
    """Reference three-valued verdict ("true", "false" or "unknown") of an
    AST over a partial assignment, where ``None`` marks an unmeasured value.
    """
    if isinstance(node, Not):
        return _KLEENE_NOT[eval_kleene(node.operand, values_by_name, label_orders)]
    if isinstance(node, And):
        return _KLEENE_AND[
            eval_kleene(node.left, values_by_name, label_orders),
            eval_kleene(node.right, values_by_name, label_orders),
        ]
    assert isinstance(node, Atom)
    if values_by_name[node.attribute_name] is None:
        return "unknown"
    return "true" if eval_two_valued(node, values_by_name, label_orders) else "false"


def label_orders_of(taxonomy: Taxonomy) -> dict:
    return {
        a.name: list(a.attr_type.labels)
        for a in taxonomy.attributes
        if isinstance(a.attr_type, EnumType) and a.attr_type.ordered
    }


# ---------------------------------------------------------------------------
# Domain membership, by the type rules as the README states them
# ---------------------------------------------------------------------------


def in_domain(attribute: Attribute, value) -> bool:
    """Whether ``value`` is in the attribute's data type.

    An enum holds its declared labels (any ``str`` equal to one), a bool
    holds ``True`` and ``False``. A real holds every int or float, never a
    bool, that is a finite float or an int no larger in magnitude than the
    largest float, within the inclusive bounds. An int holds every int,
    never a bool or a float, within the bounds. Reals are compared as exact
    fractions, so nothing here rounds or overflows.
    """
    kind = attribute.attr_type
    if isinstance(kind, EnumType):
        return isinstance(value, str) and any(value == label for label in kind.labels)
    if isinstance(kind, BoolType):
        return value is True or value is False
    if type(value) is bool:
        return False
    if isinstance(kind, RealType):
        if not isinstance(value, (int, float)):
            return False
        try:
            exact = Fraction(value)
        except (ValueError, OverflowError):  # nan, +-inf
            return False
        if abs(exact) > Fraction(sys.float_info.max):
            return False
    else:
        assert isinstance(kind, IntType)
        if not isinstance(value, int):
            return False
        exact = value
    if kind.minimum is not None and exact < Fraction(kind.minimum):
        return False
    return kind.maximum is None or exact <= Fraction(kind.maximum)


# ---------------------------------------------------------------------------
# Nested-loop enumeration of finite attribute spaces
# ---------------------------------------------------------------------------


def space_of(attribute: Attribute) -> list:
    kind = attribute.attr_type
    if isinstance(kind, EnumType):
        return list(kind.labels)
    if isinstance(kind, BoolType):
        return [True, False]
    assert isinstance(kind, IntType)
    return list(range(kind.minimum, kind.maximum + 1))


def nested_loop_od(taxonomy: Taxonomy) -> list[tuple]:
    """All domain tuples by explicit recursion, no itertools."""
    spaces = [space_of(a) for a in taxonomy.attributes]

    def build(position: int, prefix: tuple) -> list[tuple]:
        if position == len(spaces):
            return [prefix]
        out = []
        for value in spaces[position]:
            out.extend(build(position + 1, prefix + (value,)))
        return out

    return build(0, ())


def assignment_of(taxonomy: Taxonomy, values: tuple) -> dict:
    return {a.name: v for a, v in zip(taxonomy.attributes, values)}


# ---------------------------------------------------------------------------
# Monitor reference: transitions, counters, dwell from a verdict timeline
# ---------------------------------------------------------------------------


def simulate_monitor(timeline: list[tuple[float, str]]) -> dict:
    """Expected monitor behaviour for samples of (t, verdict letter T/F/U).

    Returns counters, dwell per letter, and events as (kind, t, index).
    """
    events: list[tuple[str, float, int]] = []
    counts = {"T": 0, "F": 0, "U": 0}
    dwell = {"T": 0.0, "F": 0.0, "U": 0.0}
    previous = None
    previous_t = None
    for index, (t, letter) in enumerate(timeline):
        if previous is not None:
            dwell[previous] += t - previous_t
        counts[letter] += 1
        if previous is None:
            first = {"T": "entry", "F": "exit", "U": "unknown_start"}[letter]
            events.append((first, t, index))
        elif previous != letter:
            if previous == "T" and letter == "F":
                events.append(("exit", t, index))
            elif previous == "T" and letter == "U":
                events.append(("exit", t, index))
                events.append(("unknown_start", t, index))
            elif previous == "F" and letter == "T":
                events.append(("entry", t, index))
            elif previous == "F" and letter == "U":
                events.append(("unknown_start", t, index))
            elif previous == "U" and letter == "T":
                events.append(("unknown_end", t, index))
                events.append(("entry", t, index))
            else:  # U -> F
                events.append(("unknown_end", t, index))
        previous = letter
        previous_t = t
    return {"counts": counts, "dwell": dwell, "events": events}


# ---------------------------------------------------------------------------
# Deterministic generator family for exhaustive checks
# ---------------------------------------------------------------------------


def _enum(*labels, ordered=False) -> EnumType:
    return EnumType(tuple(labels), ordered=ordered)


def _bounded_int(lo: int, hi: int) -> IntType:
    return IntType(minimum=lo, maximum=hi)


TAXONOMY_FAMILY: list[Taxonomy] = [
    Taxonomy((), version="f0"),
    Taxonomy((Attribute("kind", _enum("a", "b", "c")),), version="f1"),
    Taxonomy((Attribute("flag", BoolType()),), version="f2"),
    Taxonomy(
        (Attribute("level", _enum("l1", "l2", "l3", "l4", "l5", ordered=True)),),
        version="f3",
    ),
    Taxonomy((Attribute("count", _bounded_int(0, 4)),), version="f4"),
    Taxonomy(
        (
            Attribute("road", _enum("motorway", "regional", "rural")),
            Attribute("busy", BoolType()),
        ),
        version="f5",
    ),
    Taxonomy(
        (
            Attribute("grade", _enum("g1", "g2", "g3", "g4", ordered=True)),
            Attribute("delta", _bounded_int(-2, 2)),
        ),
        version="f6",
    ),
    Taxonomy(
        (
            Attribute("side", _enum("left", "right")),
            Attribute("wet", BoolType()),
            Attribute("lanes", _bounded_int(1, 3)),
        ),
        version="f7",
    ),
    Taxonomy(
        (
            Attribute("tier", _enum("t1", "t2", "t3", ordered=True)),
            Attribute("night", BoolType()),
            Attribute("zone", _enum("z1", "z2", "z3", "z4", "z5")),
        ),
        version="f8",
    ),
    Taxonomy(
        (
            Attribute("road", _enum("motorway", "regional", "rural")),
            Attribute("busy", BoolType()),
            Attribute("lanes", _bounded_int(0, 2)),
            Attribute("mode", _enum("m1", "m2", ordered=True)),
        ),
        version="f9",
    ),
    Taxonomy(
        (
            Attribute("zone", _enum("z1", "z2", "z3", "z4", "z5")),
            Attribute("lanes", _bounded_int(1, 5)),
            Attribute("level", _enum("l1", "l2", "l3", "l4", "l5", ordered=True)),
            Attribute("kind", _enum("k1", "k2", "k3", "k4", "k5")),
        ),
        version="f10",
    ),
    Taxonomy(
        (
            Attribute("b1", BoolType()),
            Attribute("b2", BoolType()),
            Attribute("b3", BoolType()),
            Attribute("b4", BoolType()),
        ),
        version="f11",
    ),
]

SPEC_FAMILY = [t for t in TAXONOMY_FAMILY if len(t) > 0]

TRIO_TAXONOMY = Taxonomy(
    (Attribute("a", _enum("x", "y")), Attribute("flag", BoolType()), Attribute("b", BoolType())),
    version="trio1",
)

# specs over TRIO_TAXONOMY in which an atom occurs both positively and negatively
BOTH_POLARITY_SPECS = [
    "flag == true and not flag == true",
    "not (a == x and not a == x) and a == x",
    "a == x or not (a == x or flag == true) or not flag == true",
    "not not (flag == true and b == true) and not (b == true and not not flag == true)",
]


def random_atom(rng: random.Random, taxonomy: Taxonomy) -> Atom:
    attribute = rng.choice(taxonomy.attributes)
    kind = attribute.attr_type
    if isinstance(kind, BoolType) or (isinstance(kind, EnumType) and not kind.ordered):
        predicate = Predicate.EQ
    else:
        predicate = rng.choice(list(Predicate))
    literal = rng.choice(space_of(attribute))
    return Atom(attribute.name, predicate, literal)


def random_spec(rng: random.Random, taxonomy: Taxonomy, depth: int):
    """Random well-formed AST of depth at most ``depth``."""
    if depth <= 0 or rng.random() < 0.35:
        return random_atom(rng, taxonomy)
    if rng.random() < 0.4:
        return Not(random_spec(rng, taxonomy, depth - 1))
    return And(
        random_spec(rng, taxonomy, depth - 1),
        random_spec(rng, taxonomy, depth - 1),
    )


# ---------------------------------------------------------------------------
# Taxonomy-free AST generator for serializer round trips
# ---------------------------------------------------------------------------

_RESERVED = {"and", "or", "not", "true", "false"}
_FLOAT_SPECIALS = [
    0.0,
    -0.0,
    0.1,
    -2.5,
    1e-9,
    5e-324,
    1e16,
    -1e16,
    1e300,
    1.7976931348623157e308,
    123456.789,
]


def random_identifier(rng: random.Random) -> str:
    while True:
        first = rng.choice("abcdefghijklmnopqrstuvwxyz")
        rest = "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz0123456789_")
            for _ in range(rng.randrange(0, 9))
        )
        name = first + rest
        if name not in _RESERVED:
            return name


def random_literal(rng: random.Random):
    roll = rng.random()
    if roll < 0.2:
        return rng.random() < 0.5
    if roll < 0.45:
        return rng.choice([0, 1, -1, 7, 60, -4096, 10**12, rng.randrange(-10**6, 10**6)])
    if roll < 0.75:
        if rng.random() < 0.5:
            return rng.choice(_FLOAT_SPECIALS)
        return rng.uniform(-1e6, 1e6)
    return random_identifier(rng)


def random_free_atom(rng: random.Random) -> Atom:
    literal = random_literal(rng)
    unit = None
    if isinstance(literal, (int, float)) and not isinstance(literal, bool):
        if rng.random() < 0.4:
            unit = random_identifier(rng)
    return Atom(random_identifier(rng), rng.choice(list(Predicate)), literal, unit)


def random_free_ast(rng: random.Random, depth: int = 6):
    if depth <= 0 or rng.random() < 0.3:
        return random_free_atom(rng)
    if rng.random() < 0.4:
        return Not(random_free_ast(rng, depth - 1))
    return And(random_free_ast(rng, depth - 1), random_free_ast(rng, depth - 1))
