"""Evaluation of specifications over domain samples.

Verdicts are three-valued (strong Kleene): an atom over an unmeasured
attribute is Unknown. Evaluation codes a verdict as its rank in the truth
order FALSE < UNKNOWN < TRUE (0, 1, 2): conjunction is ``min``, negation
is ``2 - r`` and disjunction is ``max``. A ``Verdict`` is built only for
a result the module returns. On fully measured samples the semantics
collapses to ordinary two-valued logic.

Attributes a specification never mentions cannot influence its verdict:
silence permits all values (the permissive reading of partial coverage).

Evaluation depends only on the values tuple of a sample, never on its
time or coordinates: the atom language carries no temporal or spatial
operators.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .domain import UNKNOWN, AttributeValue, Lod, _product, value_spaces
from .errors import EvaluationError, UnknownValueError
from .specdsl import Atom, Group, WellFormedSpec
from .taxonomy import Taxonomy, _check_binding, _type_cardinality


class Verdict(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    # members are singletons compared by identity; Enum's own hash is Python code
    __hash__ = object.__hash__


_VERDICT = (Verdict.FALSE, Verdict.UNKNOWN, Verdict.TRUE)
_RANK = {verdict: rank for rank, verdict in enumerate(_VERDICT)}


def kleene_not(verdict: Verdict) -> Verdict:
    return _VERDICT[2 - _RANK[verdict]]


def kleene_and(left: Verdict, right: Verdict) -> Verdict:
    return _VERDICT[min(_RANK[left], _RANK[right])]


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self, verdict: Verdict, falsified_atoms: tuple[Atom, ...], unknown_atoms: tuple[Atom, ...]
    ):
        # written through the slots, past the frozen __setattr__, as Lod's are
        _set_verdict(self, verdict)
        _set_falsified_atoms(self, falsified_atoms)
        _set_unknown_atoms(self, unknown_atoms)


_set_verdict = Diagnosis.__dict__["verdict"].__set__
_set_falsified_atoms = Diagnosis.__dict__["falsified_atoms"].__set__
_set_unknown_atoms = Diagnosis.__dict__["unknown_atoms"].__set__


def _check_arity(values: tuple, taxonomy: Taxonomy) -> None:
    if len(values) != len(taxonomy.attributes):
        raise EvaluationError(
            f"sample has {len(values)} values but the taxonomy declares "
            f"{len(taxonomy.attributes)} attributes"
        )


# the hint of a position whose last value is Unknown, or that has none yet:
# an open interval that holds no value
_NO_HINT = (0, 0)


def _hint(literals: tuple, value) -> tuple:
    """The open interval between the two consecutive ``literals`` (``-inf``
    and ``inf`` past the ends) that holds ``value``; on a literal, the empty
    interval at it."""
    cut = bisect_right(literals, value)
    low = literals[cut - 1] if cut else -math.inf
    if low == value:
        return (value, value)
    return (low, literals[cut] if cut < len(literals) else math.inf)


def _retest(
    groups: Sequence[Group], values, last_values, row: list[int], hints
) -> list[tuple[int, int]]:
    """The atoms whose rank on ``values`` differs from theirs in ``row``,
    each as ``(atom, new rank)``, where ``row`` holds the ranks on
    ``last_values``: the atoms of each position whose value is ``!=`` the
    last are tested again, 1 (Unknown) on an unmeasured value, else 2 or 0
    as the test holds. An atom belongs to one position, so it is listed at
    most once. Nothing in ``row`` is written: the caller lifts each atom
    listed.

    ``hints`` holds one open interval per position of a number: ``_hint``
    of its last value, or the empty ``_NO_HINT``. Every atom compares its
    attribute with a literal, and no literal lies inside a hint, so when a
    measured value changes to another that lies strictly inside the hint,
    no atom of the position can move and its group is skipped. Any other
    change re-tests the group. A measured value that changes to another
    gives the position the new value's hint, and one that changes to
    Unknown ``_NO_HINT``; a change from Unknown leaves the hint, which is
    then ``_NO_HINT``. So the first change after an Unknown value always
    re-tests, and an evaluation whose last values are all Unknown neither
    reads nor writes a hint. The hints are written only once every test
    has run, so a test that raises leaves them as they were."""
    moved, cells = [], ()
    for index, group, literals in groups:
        if (value := values[index]) != (last := last_values[index]):
            if literals is not None and last is not UNKNOWN:
                if value is UNKNOWN:
                    hint = _NO_HINT
                else:
                    low, high = hints[index]
                    if low < value < high:
                        continue
                    hint = _hint(literals, value)
                cells += ((index, hint),)
            for atom, test, literal in group:
                rank = 1 if value is UNKNOWN else 2 * test(literal, value)
                if rank != row[atom]:
                    moved.append((atom, rank))
    for index, hint in cells:
        hints[index] = hint
    return moved


def _lift(spec: WellFormedSpec, row: list[int], atom: int, rank: int) -> None:
    """Give atom ``atom`` the rank ``rank`` in ``row``, one rank per node of
    the spec's node table, each consistent with its children: from each of
    the atom's parents, recompute the ancestors upward and stop at the first
    whose rank stays, as none above it moves."""
    row[atom] = rank
    parents, children = spec.parents, spec.children
    for node in parents[atom]:
        while True:
            kids = children[node]
            if len(kids) == 1:
                new = 2 - row[kids[0]]
            elif (new := row[kids[0]]) > (right := row[kids[1]]):
                new = right
            if row[node] == new:
                break
            row[node] = new
            if not (above := parents[node]):
                break
            node = above[0]


def _relift(spec: WellFormedSpec, groups, values, last_values, row: list[int], hints) -> None:
    """``_retest`` the atoms of ``groups`` and ``_lift`` each one that moves."""
    for atom, rank in _retest(groups, values, last_values, row, hints):
        _lift(spec, row, atom, rank)


def _evaluate(spec: WellFormedSpec, values) -> list[int]:
    """The rank of every node of ``spec`` on ``values``, atoms first, from
    the all-Unknown row, on which every node has rank 1; the root's rank,
    ``row[-1]``, is the verdict."""
    row = [1] * len(spec.parents)
    # the last values are all Unknown, so no hint is read or written
    _relift(spec, spec.groups, values, (UNKNOWN,) * len(values), row, ())
    return row


def eval_spec(spec: WellFormedSpec, lod: Lod) -> Verdict:
    """Verdict of a whole specification: its atom verdicts, Kleene-folded.

    The sample must come from the spec's taxonomy (``make_lod``,
    ``parse_lod``, ``parse_trace`` or ``enumerate_od``); only its arity is
    checked, its values are trusted.
    """
    _check_arity(lod.values, spec.taxonomy)
    return _VERDICT[_evaluate(spec, lod.values)[-1]]


def in_odd(spec: WellFormedSpec, lod: Lod) -> bool:
    """Design-domain membership for a fully measured sample.

    Raises:
        UnknownValueError: a mentioned attribute is Unknown; membership is
            then undefined, not false.
    """
    _check_arity(lod.values, spec.taxonomy)
    row = _evaluate(spec, lod.values)
    for atom, rank in zip(spec.atoms, row):
        if rank == 1:
            name = atom.attribute_name
            raise UnknownValueError(f"attribute {name!r} is unmeasured; membership is undefined")
    return row[-1] == 2


def _admitting_prefixes(
    spec: WellFormedSpec,
    spaces: list[Sequence[AttributeValue]],
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

    One row of node ranks serves the whole walk. Assigning a value re-tests
    only its position's atoms, as no value equals ``UNKNOWN``, and
    releasing it re-tests them on ``UNKNOWN``; the atoms that move are
    lifted.
    """
    values: list[AttributeValue] = [UNKNOWN] * len(spaces)
    unknown = tuple(values)
    # a group with no literals is never skipped and writes no hint, so none is kept
    groups = {index: ((index, group, None),) for index, group, _ in spec.groups}
    row = [1] * len(spec.parents)
    # a checked spec has an atom, so spaces is not empty and the root is Unknown
    stack = [iter(spaces[order[0]])]
    while stack:
        depth = len(stack)
        position = order[depth - 1]
        group = groups.get(position, ())
        for value in stack[-1]:
            values[position] = value
            _relift(spec, group, values, unknown, row, ())
            if (rank := row[-1]) == 2:
                yield values, depth
            elif rank == 1:
                stack.append(iter(spaces[order[depth]]))
                break
        else:
            _relift(spec, group, unknown, values, row, ())
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
        InfiniteDomainError: if the domain is infinite.
    """
    _check_binding(spec.taxonomy, taxonomy, "spec was checked against", EvaluationError)
    spaces = value_spaces(taxonomy)
    for values, depth in _admitting_prefixes(spec, spaces, range(len(spaces))):
        prefix = tuple(values[:depth])
        for rest in _product(spaces[depth:]):
            yield prefix + rest


def count_odd(taxonomy: Taxonomy, spec: WellFormedSpec) -> int:
    """Number of tuples ``enumerate_odd`` yields, computed without listing
    them: the walk adds up the completions of every True prefix. It
    assigns the attributes the spec mentions first, as the count does not
    depend on the order.

    Raises:
        EvaluationError, InfiniteDomainError: as ``enumerate_odd``.
    """
    _check_binding(spec.taxonomy, taxonomy, "spec was checked against", EvaluationError)
    spaces = value_spaces(taxonomy)
    mentioned = [group[0] for group in spec.groups]
    order = mentioned + [index for index in range(len(spaces)) if index not in mentioned]
    sizes = [_type_cardinality(taxonomy.attributes[index].attr_type) for index in order]
    return sum(math.prod(sizes[depth:]) for _, depth in _admitting_prefixes(spec, spaces, order))


def diagnose(spec: WellFormedSpec, lod: Lod) -> Diagnosis:
    """Evaluate and name the atoms responsible for a non-True verdict."""
    _check_arity(lod.values, spec.taxonomy)
    row = _evaluate(spec, lod.values)
    falsified, unknown = [], []
    for atom, rank, blamed in zip(spec.atoms, row, spec.blame):
        if rank == 0 and blamed:
            falsified.append(atom)
        elif rank == 1:
            unknown.append(atom)
    return Diagnosis(_VERDICT[row[-1]], tuple(falsified), tuple(unknown))
