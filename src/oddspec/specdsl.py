"""Textual language for operational design domain specifications.

Concrete grammar (whitespace separated, ``#`` comments to end of line)::

    expr    := term (("and" term)* | ("or" term)*)
    term    := "not" term | "(" expr ")" | atom
    atom    := IDENT OP literal
    OP      := "==" | "<" | ">" | "<=" | ">="
    literal := NUMBER [IDENT]          # optional unit tag
             | "true" | "false"
             | IDENT                   # enum label

``and`` and ``or`` may not be mixed inside one parenthesis level; use
parentheses to make the intended grouping explicit. ``or`` is sugar:
``a or b`` is rewritten to ``not (not a and not b)`` during parsing, so
the returned tree contains only atoms, negation, and conjunction.
"""

from __future__ import annotations

import enum
import math
import operator
import re
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import (
    PredicateNotApplicableError,
    RealEqualityWarning,
    SpecCheckError,
    SpecParseError,
)
from .taxonomy import (
    IDENTIFIER_RE,
    RESERVED_WORDS,
    _REJECT,
    BoolType,
    EnumType,
    IntType,
    RealType,
    Taxonomy,
    _shown,
)


class Predicate(enum.Enum):
    EQ = "=="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="

    # members are singletons compared by identity; Enum's own hash is Python code
    __hash__ = object.__hash__


ORDERING_PREDICATES = frozenset({Predicate.LT, Predicate.GT, Predicate.LE, Predicate.GE})


# Deepest tree a spec node may hold: an atom is one level, each Not and And
# one more. Not and And refuse to be built deeper, so the dataclass ==, hash
# and repr, pickle and every walk over a tree recurse well inside the
# interpreter's stack, which they overflow at a few hundred levels.
_MAX_DEPTH = 256
_TOO_DEEP = f"the spec nests too deeply: more than {_MAX_DEPTH} levels"
_write = object.__setattr__  # past the frozen __setattr__, with no lookup per call


@dataclass(frozen=True)
class Atom:
    """One constraint: an attribute compared against a literal."""

    attribute_name: str
    predicate: Predicate
    literal: bool | int | float | str
    unit: str | None = None

    _depth = 1  # levels of the tree rooted here; not a field


@dataclass(frozen=True, init=False)
class Not:
    """Negation of a subtree: True where the operand is False, and Unknown
    where it is Unknown.

    Raises:
        SpecCheckError: the tree would be deeper than 256 levels.
        TypeError: the operand is not a spec node.
    """

    operand: "SpecAst"

    def __init__(self, operand: "SpecAst"):
        try:
            depth = operand._depth + 1
        except AttributeError:
            raise TypeError(f"not a spec node: {operand!r}") from None
        if depth > _MAX_DEPTH:
            raise SpecCheckError(_TOO_DEEP)
        _write(self, "operand", operand)
        _write(self, "_depth", depth)

    def __deepcopy__(self, memo):  # immutable; a copy would recurse per level
        return self


@dataclass(frozen=True, init=False)
class And:
    """Conjunction of two subtrees under strong Kleene logic; ``a or b`` is
    parsed as ``not (not a and not b)``.

    Raises:
        SpecCheckError: the tree would be deeper than 256 levels.
        TypeError: an operand is not a spec node.
    """

    left: "SpecAst"
    right: "SpecAst"

    def __init__(self, left: "SpecAst", right: "SpecAst"):
        try:
            depth = left._depth
            right_depth = right._depth
        except AttributeError:
            node = right if hasattr(left, "_depth") else left
            raise TypeError(f"not a spec node: {node!r}") from None
        if right_depth > depth:
            depth = right_depth
        if depth >= _MAX_DEPTH:
            raise SpecCheckError(_TOO_DEEP)
        _write(self, "left", left)
        _write(self, "right", right)
        _write(self, "_depth", depth + 1)

    def __deepcopy__(self, memo):  # immutable; a copy would recurse per level
        return self


SpecAst = Atom | Not | And

Test = Callable[[object, object], bool]
Probe = tuple[int, Test, object]  # (value index, test, literal)
# see WellFormedSpec.groups
Group = tuple[int, tuple[tuple[int, Test, object], ...], tuple | None]


@dataclass(frozen=True, init=False)
class WellFormedSpec:
    """A checked specification, bound to the taxonomy it was checked against.

    ``WellFormedSpec(ast, taxonomy)``, which ``check_spec`` names, is the one
    check and compile of a spec: it checks every atom against the taxonomy
    (well-formedness is atom-local) and compiles the tree once. So
    ``dataclasses.replace`` of ``ast`` or ``taxonomy`` checks and compiles
    again, and replacing a compiled field raises ``ValueError``.

    The binding is structural: the spec fits samples laid out by a taxonomy
    equal to ``taxonomy``, with the same attributes, order, types and
    version. A matching version string alone is not enough. Evaluation
    trusts samples built from that taxonomy by ``make_lod``, ``parse_lod``,
    ``parse_trace`` or ``enumerate_od`` and does not re-validate their
    values; it checks only their arity.

    ``atoms`` are the distinct atoms in first-occurrence order; ``blame[i]``
    is true when atom ``i`` occurs under an even number of negations.
    ``groups`` is the one table of compiled atom tests: one ``(value index,
    ((atom index, test, literal), ...), literals)`` per mentioned attribute,
    in value-index order, where ``test(literal, value)`` is the atom's truth
    on a measured value. For an int or real attribute ``literals`` is the
    sorted distinct literals of its atoms, which cut its domain into cells
    on each of which every atom keeps its verdict; for an enum or bool
    attribute it is ``None``.

    ``parents`` and ``children`` are the tree as a flat node table. Its
    first nodes are the atoms, node ``i`` being atom ``i``, and the
    operators follow in post-order, so every child precedes its parents and
    the root is the last node. An atom has no children, a negation has one
    child and a conjunction two; ``not not`` chains are folded out of the
    table, so no negation's child is a negation. ``parents[i]`` lists one
    parent per occurrence of atom ``i``, of either polarity, one for an
    operator and none for the root. Every evaluation computes node ranks
    upward along it. ``mentioned_attributes`` is derived from ``atoms``.

    Raises:
        SpecCheckError: unknown attribute, literal kind mismatch,
            out-of-domain literal or unit mismatch.
        PredicateNotApplicableError: ordering predicate on a type with no
            defined order.
    """

    ast: SpecAst
    taxonomy: Taxonomy
    atoms: tuple[Atom, ...] = field(init=False, compare=False, repr=False)
    blame: tuple[bool, ...] = field(init=False, compare=False, repr=False)
    groups: tuple[Group, ...] = field(init=False, compare=False, repr=False)
    parents: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    children: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __init__(self, ast: SpecAst, taxonomy: Taxonomy):
        found, blame, parents, children = _compile(ast)
        groups: dict[int, list] = {}
        # A plain loop, not a generator, so that RealEqualityWarning's
        # stacklevel names the caller of the constructor.
        for atom_index, atom in enumerate(found):
            index, test, literal = _check_atom(atom, taxonomy)
            groups.setdefault(index, []).append((atom_index, test, literal))
        # not into self.__dict__: that dict would make every later read of a
        # field 4x slower
        _write(self, "ast", ast)
        _write(self, "taxonomy", taxonomy)
        _write(self, "atoms", tuple(found))
        _write(self, "blame", tuple(blame))
        _write(self, "groups", tuple(_group(taxonomy, *item) for item in sorted(groups.items())))
        _write(self, "parents", tuple(parents))
        _write(self, "children", tuple(children))

    @property
    def mentioned_attributes(self) -> frozenset[str]:
        """Names of the attributes the spec's atoms compare."""
        return frozenset(atom.attribute_name for atom in self.atoms)


def _group(taxonomy: Taxonomy, index: int, members: list) -> Group:
    """One row of ``WellFormedSpec.groups``: a position's compiled atom tests
    and, for a number, their sorted distinct literals."""
    literals = None
    if isinstance(taxonomy.attributes[index].attr_type, (IntType, RealType)):
        literals = tuple(sorted({literal for _, _, literal in members}))
    return (index, tuple(members), literals)


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

# A prefix that skips whitespace and comments, then one token, its
# alternatives tried left to right: a name, an operator, a parenthesis, a
# number with a point and no digit after it, a number, the end of the text,
# a lone '=' or '-', and any other character. The malformed alternatives are
# there so that such input gets a specific message, and the end matches
# where the text ends, so that the prefix never gives back a space or a
# comment to the last alternative.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*([a-z][a-z0-9_]*|==|<=|>=|<|>|\(|\)"
    r"|-?[0-9]+\.(?![0-9])|-?[0-9]+(?:\.[0-9]+)?|\Z|=|-|.)"
)

# The kind and value of each fixed token: a keyword, an operator or a parenthesis.
_FIXED = {word: (word.upper(), word) for word in RESERVED_WORDS}
_FIXED.update((predicate.value, ("OP", predicate)) for predicate in Predicate)
_FIXED.update({"(": ("LPAREN", "("), ")": ("RPAREN", ")")})

# The kind of any other token, by its first character; the empty token is the
# end of the text, and a token whose first character is not here is CHAR.
_LEADS = {
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "IDENT"),
    **dict.fromkeys("-0123456789", "NUMBER"),
    "=": "EQUALS",
    "": "EOF",
}

_LEX_ERRORS = {
    "POINT": "expected a digit after the decimal point",
    "EQUALS": "expected '==' (single '=' is not an operator)",
    "MINUS": "expected a digit after '-'",
    "CHAR": "unexpected character {!r}",
    "RANGE": "number literal out of range",
}


def _starts(text: str) -> list[int]:
    """The start offset of each token of ``text``, EOF included. Only a
    refusal names an offset, so ``_lex`` keeps none and a refusal scans the
    text again with the same regex."""
    starts = [match.start(1) for match in _TOKEN_RE.finditer(text)]
    # every other token is not empty, so the first to start at the end is EOF
    return starts[: starts.index(len(text)) + 1]


def _error(message: str, text: str, index: int) -> SpecParseError:
    """A refusal at token ``index`` of ``text``, named by the 1-based line
    and column where the token starts."""
    offset = _starts(text)[index]
    column = offset - text.rfind("\n", 0, offset)
    return SpecParseError(message, text.count("\n", 0, offset) + 1, column)


def _lex(text: str) -> tuple[list[str], list]:
    """The tokens of ``text`` as two parallel lists: kinds (IDENT NUMBER OP
    LPAREN RPAREN AND OR NOT TRUE FALSE EOF) and values. The last token is
    EOF, where the text ends. No offset is kept: a refusal works out the
    one it names with ``_starts``."""
    kinds, values = [], []
    for token in _TOKEN_RE.findall(text):
        fixed = _FIXED.get(token)
        if fixed is not None:
            kinds.append(fixed[0])
            values.append(fixed[1])
            continue
        kind = _LEADS.get(token[:1], "CHAR")
        if kind == "IDENT":
            kinds.append(kind)
            values.append(token)
            continue
        if kind == "EOF":  # always met, and an empty token may follow it
            break
        if kind == "NUMBER":
            if token == "-":
                kind = "MINUS"
            elif token[-1] == ".":
                kind = "POINT"
            else:
                try:
                    value = float(token) if "." in token else int(token)
                except ValueError:  # more digits than int() converts
                    value = math.inf
                if abs(value) != math.inf:
                    kinds.append(kind)
                    values.append(value)
                    continue
                kind = "RANGE"
        raise _error(_LEX_ERRORS[kind].format(token), text, len(kinds))
    kinds.append("EOF")
    values.append(None)
    return kinds, values


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    """Recursive descent over ``_lex``'s lists; ``pos`` indexes the current
    token. A node the parser builds refuses depth past ``_MAX_DEPTH``, and
    the parser reports that at the token that would have built it. The
    parser keeps no offsets: a refusal works out the one it names, and the
    text of a token it quotes, by scanning the text again."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.values = _lex(text)
        self.pos = 0
        self.nesting = 0  # 'not's and '('s enclosing the current token

    def error(self, message: str, index: int | None = None) -> SpecParseError:
        return _error(message, self.text, self.pos if index is None else index)

    def found(self, index: int) -> str:
        """The source text of token ``index``."""
        return _TOKEN_RE.findall(self.text)[index]

    def expr(self) -> SpecAst:
        node = self.term()
        kinds = self.kinds
        connective = None
        while kinds[self.pos] == "AND" or kinds[self.pos] == "OR":
            index = self.pos
            kind = kinds[index]
            if connective is not None and kind != connective:
                raise self.error("cannot mix 'and' and 'or' without parentheses", index)
            connective = kind
            self.pos = index + 1
            rhs = self.term()
            try:
                node = And(node, rhs) if kind == "AND" else Not(And(Not(node), Not(rhs)))
            except SpecCheckError:
                raise self.error(f"nesting deeper than {_MAX_DEPTH} levels", index) from None
        return node

    def term(self) -> SpecAst:
        kinds, pos = self.kinds, self.pos
        kind = kinds[pos]
        if kind == "NOT" or kind == "LPAREN":
            self.pos = pos + 1
            # Each 'not' or '(' on a path to an atom adds recursion, and in a
            # tree within the bound fewer than _MAX_DEPTH of them enclose any
            # atom (the serializer parenthesizes only And nodes).
            self.nesting += 1
            if self.nesting >= _MAX_DEPTH:
                raise self.error(f"nesting deeper than {_MAX_DEPTH} levels", pos)
            if kind == "NOT":
                node = self.term()
                try:
                    node = Not(node)
                except SpecCheckError:
                    raise self.error(f"nesting deeper than {_MAX_DEPTH} levels", pos) from None
            else:
                node = self.expr()
                if kinds[self.pos] != "RPAREN":
                    raise self.error("expected ')'")
                self.pos += 1
            self.nesting -= 1
            return node
        # atom := IDENT OP literal; an IDENT, OP or literal is never the EOF
        # token, so the token after it exists
        if kind != "IDENT":
            raise self.error(f"expected an attribute name, found {self.found(pos)!r}", pos)
        if kinds[pos + 1] != "OP":
            raise self.error("expected a comparison operator (==, <, >, <=, >=)", pos + 1)
        values = self.values
        kind, literal, unit, end = kinds[pos + 2], values[pos + 2], None, pos + 3
        if kind == "NUMBER":
            if kinds[end] == "IDENT":
                unit, end = values[end], end + 1
        elif kind != "IDENT" and kind != "TRUE" and kind != "FALSE":
            raise self.error(f"expected a literal, found {self.found(pos + 2)!r}", pos + 2)
        elif kinds[end] == "IDENT":
            raise self.error("a unit tag is only allowed after a numeric literal", end)
        elif kind != "IDENT":
            literal = kind == "TRUE"
        self.pos = end
        return Atom(values[pos], values[pos + 1], literal, unit)


def parse_spec(text: str) -> SpecAst:
    """Parse specification text into an AST of atoms, Not, and And nodes.

    Raises:
        SpecParseError: text outside the grammar, a number literal that has
            no int or finite float value, or a tree deeper than 256 levels.
    """
    parser = _Parser(text)
    if parser.kinds[0] == "EOF":
        raise parser.error("empty specification")
    node = parser.expr()
    if parser.kinds[parser.pos] != "EOF":
        raise parser.error(f"unexpected trailing input {parser.found(parser.pos)!r}")
    return node


# --------------------------------------------------------------------------
# AST utilities
# --------------------------------------------------------------------------


def _compile(ast: SpecAst) -> tuple[list[Atom], list[bool], list[tuple], list[tuple]]:
    """One walk of the tree: its distinct atoms in first-occurrence order,
    each atom's blame flag and its node table (``WellFormedSpec.parents``
    and ``children``), with ``not not`` chains folded out."""
    positions: dict[Atom, int] = {}
    blame: list[bool] = []
    operands: list[tuple[int, ...]] = []

    def visit(node: SpecAst, positive: bool) -> int:
        # the node's number: an atom's position, or -1 - j for the j-th
        # operator in post-order, as the number of atoms is not yet known
        if isinstance(node, Atom):
            position = positions.setdefault(node, len(blame))
            if position == len(blame):
                blame.append(positive)
            elif positive:
                blame[position] = True
            return position
        if isinstance(node, Not):
            if isinstance(node.operand, Not):  # not not p folds to p
                return visit(node.operand.operand, positive)
            operands.append((visit(node.operand, not positive),))
        elif isinstance(node, And):
            operands.append((visit(node.left, positive), visit(node.right, positive)))
        else:
            raise TypeError(f"not a spec node: {node!r}")
        return -len(operands)

    visit(ast, True)
    last = len(blame) - 1  # operator j becomes node last + 1 + j
    children: list[tuple] = [()] * len(blame)
    parents: list[tuple] = [()] * (len(blame) + len(operands))
    for node, kids in enumerate(operands, last + 1):
        left = kids[0] if kids[0] >= 0 else last - kids[0]
        parents[left] += (node,)
        if len(kids) == 1:
            children.append((left,))
        else:
            right = kids[1] if kids[1] >= 0 else last - kids[1]
            parents[right] += (node,)
            children.append((left, right))
    return list(positions), blame, parents, children


def atoms(ast: SpecAst) -> list[Atom]:
    """Distinct atoms in first-occurrence order."""
    return _compile(ast)[0]


# --------------------------------------------------------------------------
# Well-formedness
# --------------------------------------------------------------------------


# _TESTS[p](literal, value) is ``value p literal``.
_TESTS = {
    Predicate.EQ: operator.eq,
    Predicate.LT: operator.gt,
    Predicate.GT: operator.lt,
    Predicate.LE: operator.ge,
    Predicate.GE: operator.le,
}


# Per data type: the Python type its literals have, the noun that refuses a
# literal of another kind and, for a type that can lack an order, the noun
# that refuses an ordering atom on it.
_LITERAL_RULES = {
    EnumType: (str, "an enum label", "an unordered enum"),
    BoolType: (bool, "true or false", "a boolean attribute"),
    RealType: ((int, float), "a number", None),
    IntType: (int, "an integer", None),
}


def _check_atom(atom: Atom, taxonomy: Taxonomy) -> Probe:
    """Check one atom against its attribute's row of ``_LITERAL_RULES``,
    then its domain and unit, and compile it; an ordered-enum ordering atom
    becomes a label set."""
    row = taxonomy._index.get(atom.attribute_name)
    if row is None:
        raise SpecCheckError(f"unknown attribute {atom.attribute_name!r}")
    index, accept = row[0], row[-1]
    kind = accept.__self__  # the data type whose _accept the row holds
    literal = atom.literal
    accepted, noun, unordered = _LITERAL_RULES[type(kind)]

    # A bool is an int in Python, so only a bool attribute takes one.
    if not isinstance(literal, accepted) or isinstance(literal, bool) and accepted is not bool:
        raise SpecCheckError(f"{atom.attribute_name}: expected {noun}, got {_shown(literal)}")
    if (
        atom.predicate in ORDERING_PREDICATES
        and unordered is not None
        and not getattr(kind, "ordered", False)
    ):
        raise PredicateNotApplicableError(
            f"{atom.attribute_name}: '{atom.predicate.value}' is not defined for {unordered}"
        )
    if isinstance(kind, RealType) and atom.predicate is Predicate.EQ:
        # name the caller of the constructor, two frames up,
        # or else the caller of the dataclasses.replace that built the spec
        frame, level = sys._getframe(2), 3
        while frame.f_globals.get("__name__") == "dataclasses":
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"{atom.attribute_name}: exact equality on a real-valued attribute is fragile",
            RealEqualityWarning,
            stacklevel=level,
        )

    if accept(literal) is _REJECT:
        raise SpecCheckError(
            f"{atom.attribute_name}: literal {render_value(literal)} is outside "
            f"the attribute's domain"
        )

    if atom.unit is not None:
        declared = getattr(kind, "unit", None)
        if declared != atom.unit:
            raise SpecCheckError(
                f"{atom.attribute_name}: unit {atom.unit!r} does not match "
                f"declared unit {declared!r}"
            )

    test = _TESTS[atom.predicate]
    if isinstance(kind, EnumType) and atom.predicate in ORDERING_PREDICATES:
        rank = kind.labels.index(literal)
        admitted = frozenset(label for r, label in enumerate(kind.labels) if test(rank, r))
        return (index, operator.contains, admitted)
    return (index, test, literal)


check_spec = WellFormedSpec  # no wrapper: a RealEqualityWarning names its caller


# --------------------------------------------------------------------------
# Canonical serialization
# --------------------------------------------------------------------------


def render_value(value) -> str:
    """Literal syntax for a value: labels bare, booleans lowercase, floats
    always positional decimal (never exponent notation) so the output stays
    inside the grammar."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return _shown(value, str)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite literal {value!r} has no syntax")
        text = repr(value)
        if "e" in text:
            from decimal import Decimal  # imported here: only exponent floats need it

            text = format(Decimal(text), "f")
        if "." not in text:
            text += ".0"
        return text
    raise ValueError(f"unsupported literal {value!r}")


def _require_identifier(text: str, what: str) -> None:
    if not IDENTIFIER_RE.match(text) or text in RESERVED_WORDS:
        raise ValueError(f"{what} {text!r} has no syntax in the language")


def _serialize_atom(atom: Atom) -> str:
    _require_identifier(atom.attribute_name, "attribute name")
    if isinstance(atom.literal, str):
        _require_identifier(atom.literal, "label")
    text = f"{atom.attribute_name} {atom.predicate.value} {render_value(atom.literal)}"
    if atom.unit is not None:
        _require_identifier(atom.unit, "unit")
        text += f" {atom.unit}"
    return text


def serialize_spec(ast: SpecAst) -> str:
    """Canonical text: ``parse_spec(serialize_spec(x))`` is structurally ``x``.

    Conjunction chains print without parentheses on the left (matching the
    parser's left associativity); any other nesting is parenthesized.

    Raises:
        ValueError: a name, label, unit or literal that has no syntax.
    """
    if isinstance(ast, And):
        left, right = serialize_spec(ast.left), serialize_spec(ast.right)
        return f"{left} and ({right})" if isinstance(ast.right, And) else f"{left} and {right}"
    if isinstance(ast, Not):
        operand = serialize_spec(ast.operand)
        return f"not ({operand})" if isinstance(ast.operand, And) else f"not {operand}"
    return _serialize_atom(ast)
