"""Evaluation of specifications over domain samples.

Verdicts are three-valued (strong Kleene): an atom over an unmeasured
attribute is Unknown; negation maps Unknown to Unknown; conjunction is
False-dominant and True-neutral. Restricted to fully measured samples the
semantics collapses to ordinary two-valued logic.

Attributes a specification never mentions cannot influence its verdict:
silence permits all values (the permissive reading of partial coverage).

Evaluation depends only on the values tuple of a sample, never on its
time or coordinates: the atom language carries no temporal or spatial
operators.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .domain import UNKNOWN, AttributeValue, Lod, value_spaces
from .errors import (
    EvaluationError,
    PredicateNotApplicableError,
    SpecCheckError,
    UnknownValueError,
)
from .specdsl import Atom, Plan, Probe, WellFormedSpec, _check_atom
from .taxonomy import Taxonomy


class Verdict(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    @staticmethod
    def from_bool(value: bool) -> "Verdict":
        return Verdict.TRUE if value else Verdict.FALSE


def kleene_not(verdict: Verdict) -> Verdict:
    if verdict is Verdict.TRUE:
        return Verdict.FALSE
    if verdict is Verdict.FALSE:
        return Verdict.TRUE
    return Verdict.UNKNOWN


def kleene_and(left: Verdict, right: Verdict) -> Verdict:
    if left is Verdict.FALSE or right is Verdict.FALSE:
        return Verdict.FALSE
    if left is Verdict.TRUE and right is Verdict.TRUE:
        return Verdict.TRUE
    return Verdict.UNKNOWN


@dataclass(frozen=True)
class Diagnosis:
    """Per-atom breakdown of a verdict.

    ``falsified_atoms`` lists atoms that evaluated False and occur
    positively (under an even number of negations); negatively occurring
    atoms are excluded because blaming them would be misleading.
    ``unknown_atoms`` lists atoms whose attribute was unmeasured.
    """

    verdict: Verdict
    falsified_atoms: tuple[Atom, ...]
    unknown_atoms: tuple[Atom, ...]


_FROM_BOOL = (Verdict.FALSE, Verdict.TRUE)


def _check_arity(lod: Lod, taxonomy: Taxonomy) -> None:
    if len(lod.values) != len(taxonomy):
        raise EvaluationError(
            f"sample has {len(lod.values)} values but the taxonomy declares "
            f"{len(taxonomy)} attributes"
        )


def _verdicts(probes: Iterable[Probe], values: Sequence[AttributeValue]) -> list[Verdict]:
    """One verdict per probe: Unknown for an unmeasured value, else the
    comparison of the value (or its label rank) with the literal."""
    return [
        Verdict.UNKNOWN
        if (value := values[index]) is UNKNOWN
        else _FROM_BOOL[compare(value if ranks is None else ranks[value], literal)]
        for index, compare, literal, ranks in probes
    ]


def _fold(plan: Plan, verdicts: list[Verdict]) -> Verdict:
    """Kleene-fold a compiled plan over its atom verdicts."""
    if type(plan) is int:
        return verdicts[plan]
    if len(plan) == 1:
        return kleene_not(_fold(plan[0], verdicts))
    return kleene_and(_fold(plan[0], verdicts), _fold(plan[1], verdicts))


def eval_atom(atom: Atom, lod: Lod, taxonomy: Taxonomy) -> Verdict:
    """Truth value of one constraint against one sample.

    The atom is checked as ``check_spec`` checks it, including its
    ``RealEqualityWarning``. Unknown attribute values yield
    Verdict.UNKNOWN. Equality is exact (labels byte-equal, numbers by
    numeric equality with int-to-real widening); ordering uses numeric
    order, or label order for enums declared ordered.

    Raises:
        EvaluationError: the atom or sample does not fit the taxonomy,
            which signals a spec that was never checked against it.
        PredicateNotApplicableError: ordering predicate on a type with no
            defined order.
    """
    _check_arity(lod, taxonomy)
    try:
        probe = _check_atom(atom, taxonomy)
    except PredicateNotApplicableError:
        raise
    except SpecCheckError as exc:
        raise EvaluationError(
            f"cannot compare: {exc}; was the spec checked against this taxonomy?"
        ) from None
    return _verdicts((probe,), lod.values)[0]


def eval_spec(spec: WellFormedSpec, lod: Lod) -> Verdict:
    """Verdict of a whole specification: its atom verdicts, Kleene-folded.

    The sample must come from the spec's taxonomy (``make_lod``,
    ``parse_lod``, ``parse_trace`` or ``enumerate_od``); only its arity is
    checked, its values are trusted.
    """
    _check_arity(lod, spec.taxonomy)
    return _fold(spec.plan, _verdicts(spec.probes, lod.values))


def in_odd(spec: WellFormedSpec, lod: Lod) -> bool:
    """Design-domain membership for a fully measured sample.

    Raises:
        UnknownValueError: a mentioned attribute is Unknown; membership is
            then undefined, not false.
    """
    _check_arity(lod, spec.taxonomy)
    verdicts = _verdicts(spec.probes, lod.values)
    if Verdict.UNKNOWN in verdicts:
        name = spec.atoms[verdicts.index(Verdict.UNKNOWN)].attribute_name
        raise UnknownValueError(
            f"attribute {name!r} is unmeasured; membership is undefined"
        )
    return _fold(spec.plan, verdicts) is Verdict.TRUE


def _spaces_of(taxonomy: Taxonomy, spec: WellFormedSpec) -> list[tuple[AttributeValue, ...]]:
    if spec.taxonomy != taxonomy:
        raise EvaluationError(
            f"spec was checked against a different taxonomy (version "
            f"{spec.taxonomy.version!r}) than this one (version {taxonomy.version!r})"
        )
    return value_spaces(taxonomy)


def _admitting_prefixes(
    spec: WellFormedSpec,
    spaces: list[tuple[AttributeValue, ...]],
    order: Sequence[int],
) -> Iterator[tuple[list[AttributeValue], int]]:
    """Depth-first walk that assigns positions in ``order``, one per level,
    each through its value space; yields ``(values, depth)`` for every
    assignment of the first ``depth`` positions on which the spec is True,
    unassigned positions being ``UNKNOWN``. ``values`` is the walk's live
    assignment: read it before resuming the walk.

    A False assignment prunes its subtree and a True one is yielded but
    not extended, since a decided verdict holds for every completion. An
    Unknown one descends to the next position; once every position the
    spec mentions is assigned the verdict is decided, so the walk never
    descends past the last of them. The walk is a loop over a stack of
    value iterators, one per assigned position, never a recursion.
    """
    probes, plan = spec.probes, spec.plan
    values: list[AttributeValue] = [UNKNOWN] * len(spaces)
    verdict = _fold(plan, _verdicts(probes, values))
    if verdict is Verdict.TRUE:
        yield values, 0
    stack = [iter(spaces[order[0]])] if verdict is Verdict.UNKNOWN else []
    while stack:
        depth = len(stack)
        position = order[depth - 1]
        for value in stack[-1]:
            values[position] = value
            verdict = _fold(plan, _verdicts(probes, values))
            if verdict is Verdict.TRUE:
                yield values, depth
            elif verdict is Verdict.UNKNOWN:
                stack.append(iter(spaces[order[depth]]))
                break
        else:
            values[position] = UNKNOWN
            stack.pop()


def enumerate_odd(
    taxonomy: Taxonomy, spec: WellFormedSpec
) -> Iterator[tuple[AttributeValue, ...]]:
    """The satisfying subset of the full domain, in enumeration order.

    The spec is evaluated on prefixes of the enumeration, with every later
    attribute Unknown, not on every tuple. A False prefix is skipped with
    all its completions and a True one yields all of them unevaluated:
    this is sound because strong-Kleene verdicts are monotone, so a True
    or False verdict on a partial sample holds for every completion of it.
    The walk never branches on an attribute after the last one the spec
    mentions.

    Raises:
        EvaluationError: the spec was checked against a taxonomy that is
            not equal to ``taxonomy``.
        InfiniteDomainError: if any attribute is real-valued or unbounded.
    """
    spaces = _spaces_of(taxonomy, spec)
    for values, depth in _admitting_prefixes(spec, spaces, range(len(spaces))):
        prefix = tuple(values[:depth])
        for rest in itertools.product(*spaces[depth:]):
            yield prefix + rest


def count_odd(taxonomy: Taxonomy, spec: WellFormedSpec) -> int:
    """Number of tuples ``enumerate_odd`` yields, computed without listing
    them: the walk adds up the completions of every True prefix. It
    assigns the attributes the spec mentions first, as the count does not
    depend on the order.

    Raises:
        EvaluationError, InfiniteDomainError: as ``enumerate_odd``.
    """
    spaces = _spaces_of(taxonomy, spec)
    mentioned = sorted({index for index, *_ in spec.probes})
    order = mentioned + sorted(set(range(len(spaces))) - set(mentioned))
    sizes = [len(spaces[position]) for position in order]
    return sum(math.prod(sizes[depth:]) for _, depth in _admitting_prefixes(spec, spaces, order))


def diagnose(spec: WellFormedSpec, lod: Lod) -> Diagnosis:
    """Evaluate and name the atoms responsible for a non-True verdict."""
    _check_arity(lod, spec.taxonomy)
    verdicts = _verdicts(spec.probes, lod.values)
    falsified, unknown = [], []
    for atom, verdict, blamed in zip(spec.atoms, verdicts, spec.blame):
        if verdict is Verdict.FALSE and blamed:
            falsified.append(atom)
        elif verdict is Verdict.UNKNOWN:
            unknown.append(atom)
    return Diagnosis(_fold(spec.plan, verdicts), tuple(falsified), tuple(unknown))
