import copy
import dataclasses
import pickle
import random
import re
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddspec import (
    And,
    Atom,
    Attribute,
    BoolType,
    EnumType,
    IntType,
    Not,
    Predicate,
    PredicateNotApplicableError,
    RealEqualityWarning,
    RealType,
    SpecCheckError,
    SpecParseError,
    Taxonomy,
    Verdict,
    WellFormedSpec,
    atoms,
    check_spec,
    diagnose,
    eval_spec,
    make_lod,
    parse_spec,
    render_value,
    serialize_spec,
)
from oddspec.specdsl import _check_atom, _lex, _starts
from oracles import (
    SPEC_FAMILY,
    eval_kleene,
    eval_two_valued,
    label_orders_of,
    random_free_ast,
    random_spec,
    space_of,
)

S1 = Atom("road_type", Predicate.EQ, "motorway")
S2 = Atom("pedestrian_present", Predicate.EQ, False)
S3 = Atom("operational_speed", Predicate.LT, 60, unit="kmh")

MOTORWAY_SPEC_TEXT = (
    "road_type == motorway and pedestrian_present == false "
    "and operational_speed < 60 kmh"
)

A = Atom("a", Predicate.EQ, True)


def _chains(levels: int) -> tuple[And, And, Not]:
    """A left and a right conjunction chain and a negation chain of atom
    ``a == true``, each ``levels`` deep."""
    left = right = negation = A
    for _ in range(levels - 1):
        left, right, negation = And(left, A), And(A, right), Not(negation)
    return left, right, negation


class TestParse:
    def test_three_statement_conjunction_is_left_leaning(self):
        ast = parse_spec(MOTORWAY_SPEC_TEXT)
        assert ast == And(And(S1, S2), S3)

    def test_negated_atom(self):
        ast = parse_spec("not (pedestrian_present == true)")
        assert ast == Not(Atom("pedestrian_present", Predicate.EQ, True))

    def test_or_desugars_to_not_and_not(self):
        ast = parse_spec("road_type == motorway or road_type == regional")
        regional = Atom("road_type", Predicate.EQ, "regional")
        assert ast == Not(And(Not(S1), Not(regional)))

    def test_desugared_or_accepts_exactly_the_two_branches(self):
        # truth table over all three road types, checked with the
        # independent evaluator
        ast = parse_spec("road_type == motorway or road_type == regional")
        accepted = {
            road
            for road in ("motorway", "regional", "rural")
            if eval_two_valued(ast, {"road_type": road}, {})
        }
        assert accepted == {"motorway", "regional"}

    def test_or_chain_folds_left(self):
        a, b, c = (Atom("k", Predicate.EQ, lab) for lab in ("a", "b", "c"))
        ast = parse_spec("k == a or k == b or k == c")
        assert ast == Not(And(Not(Not(And(Not(a), Not(b)))), Not(c)))

    def test_comments_and_whitespace(self):
        text = "# leading comment\n  road_type == motorway   # trailing\n"
        assert parse_spec(text) == S1

    def test_number_literals(self):
        assert parse_spec("n == 60").literal == 60
        assert isinstance(parse_spec("n == 60").literal, int)
        assert parse_spec("n == 60.0").literal == 60.0
        assert isinstance(parse_spec("n == 60.0").literal, float)
        assert parse_spec("n == -3.25").literal == -3.25

    def test_unit_tag_only_after_numbers(self):
        assert parse_spec("speed < 60 kmh").unit == "kmh"
        assert parse_spec("speed < 60").unit is None
        with pytest.raises(SpecParseError, match="unit"):
            parse_spec("road_type == motorway kmh")
        with pytest.raises(SpecParseError, match="unit"):
            parse_spec("pedestrian_present == true kmh")

    def test_parentheses_group(self):
        ast = parse_spec("a == x and (b == y and c == z)")
        assert isinstance(ast, And)
        assert isinstance(ast.right, And)

    def test_deterministic(self):
        assert parse_spec(MOTORWAY_SPEC_TEXT) == parse_spec(MOTORWAY_SPEC_TEXT)

    @pytest.mark.parametrize(
        "text, pattern",
        [
            ("a == x and b == y or c == z", "mix"),
            ("a == x or b == y and c == z", "mix"),
            ("a = x", "=="),
            ("a == x and", "attribute name"),
            ("(a == x", r"\)"),
            ("a == x)", "trailing"),
            ("", "empty"),
            ("a == 60.", "decimal"),
            ("a == -", "digit"),
            ("a == !x", "unexpected character"),
            ("a == X", "unexpected character"),
            ("a < ", "literal"),
            ("not", "attribute name"),
            ("a and b", "comparison"),
            ("operational_speed < \u00b2", "unexpected character"),
            ("a < \u0663", "unexpected character"),
            ("a < " + "9" * 5000, "out of range"),
            ("a < " + "9" * 400 + ".0", "out of range"),
        ],
    )
    def test_rejected_inputs(self, text, pattern):
        with pytest.raises(SpecParseError, match=pattern):
            parse_spec(text)

    def test_error_position_is_reported(self):
        try:
            parse_spec("road_type == motorway\nand road_type >")
        except SpecParseError as exc:
            assert exc.line == 2
            assert exc.column == 16
        else:  # pragma: no cover
            pytest.fail("expected a parse error")

    def test_token_positions(self):
        # tabs and '\r' are one column each; the EOF token sits where the
        # input ends, also after a trailing comment
        text = "# head\n\troad_type ==\tmotorway\r\nand not (x >= -3.25 kmh\n\t\tor y<-1) # tail"
        kinds, starts = _lex(text)[0], _starts(text)
        assert [(kind, *_line_and_column(text, start)) for kind, start in zip(kinds, starts)] == [
            ("IDENT", 2, 2), ("OP", 2, 12), ("IDENT", 2, 15),
            ("AND", 3, 1), ("NOT", 3, 5), ("LPAREN", 3, 9), ("IDENT", 3, 10),
            ("OP", 3, 12), ("NUMBER", 3, 15), ("IDENT", 3, 21),
            ("OR", 4, 3), ("IDENT", 4, 6), ("OP", 4, 7), ("NUMBER", 4, 8),
            ("RPAREN", 4, 10), ("EOF", 4, 18),
        ]

    def test_nesting_is_bounded(self, motorway_taxonomy):
        atom = "pedestrian_present == false"
        lod = make_lod(motorway_taxonomy, {"pedestrian_present": False})
        unmeasured = make_lod(motorway_taxonomy, {"road_type": "motorway"})
        # 255 nots, a 256-atom conjunction and an 86-atom disjunction (each
        # 'or' operand sits three levels down) are all 256 levels deep
        for text, verdict in (
            ("not " * 255 + atom, "false"),
            (" and ".join([atom] * 256), "true"),
            (" or ".join([atom] * 86), "true"),
        ):
            ast = parse_spec(text)
            spec = check_spec(ast, motorway_taxonomy)
            assert diagnose(spec, lod).verdict.value == verdict
            assert diagnose(spec, unmeasured).verdict.value == "unknown"
            assert parse_spec(serialize_spec(ast)) == ast
            assert hash(ast) == hash(parse_spec(text))
            assert repr(ast).count("Atom(") == text.count("==")
        for text, column in (
            ("not " * 256 + atom, 1 + 4 * 255),
            (" and ".join([atom] * 257), None),
            (" or ".join([atom] * 87), None),
            ("not " * 3000 + atom, 1 + 4 * 255),
            ("(" * 3000 + atom + ")" * 3000, 256),
            (" and ".join([atom] * 2000), None),
        ):
            with pytest.raises(SpecParseError, match="nesting deeper than 256") as caught:
                parse_spec(text)
            if column is not None:
                assert caught.value.column == column

    def test_a_library_tree_deeper_than_the_parser_accepts_is_refused(self):
        taxonomy = Taxonomy((Attribute("a", BoolType()),), version="deep1")
        lod = make_lod(taxonomy, {"a": True})
        conjunction, _, negation = _chains(256)
        for ast, verdict in ((conjunction, "true"), (negation, "false")):
            assert diagnose(check_spec(ast, taxonomy), lod).verdict.value == verdict
            assert atoms(ast) == [A]
        # the nots would fold away in pairs, yet the tree is too deep to build
        for build in (lambda: And(conjunction, A), lambda: Not(negation), lambda: _chains(1201)):
            with pytest.raises(SpecCheckError, match="nests too deeply: more than 256 levels"):
                build()

    def test_mixing_allowed_with_parentheses(self):
        ast = parse_spec("(a == x and b == y) or c == z")
        assert isinstance(ast, Not)


def _line_and_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``, from the lines before it."""
    lines = text[:offset].split("\n")
    return len(lines), len(lines[-1]) + 1


# What may stand between tokens: whitespace, and comments, one of which holds
# characters that are refused outside a comment.
_GAPS = (" ", "\t", "\r\n", "\n", " # note\n", "\t# $ \u00b2 \f ( 1.\r\n")


def _gap_offsets(gap: str, start: int) -> list[int]:
    """The offsets from the start to the end of a gap at ``start`` that lie
    outside its comments; a comment runs on to its newline."""
    offsets, comment = [], False
    for index in range(len(gap) + 1):
        if not comment:
            offsets.append(start + index)
        if index < len(gap) and gap[index] in "#\n":
            comment = gap[index] == "#"
    return offsets


def _padded_spec(rng: random.Random) -> tuple[str, list[tuple[str, int]], list[int]]:
    """The canonical text of a random spec over SPEC_FAMILY with random gaps
    before, between and after its tokens, the last gap perhaps a comment
    with no newline. Returns the text, its tokens as (text, offset) and the
    offsets in gaps that lie outside comments."""
    canonical = serialize_spec(random_spec(rng, rng.choice(SPEC_FAMILY), 4))
    text, tokens, offsets = "", [], []
    for index, word in enumerate(re.findall(r"[()]|[^ ()]+", canonical)):
        gap = "".join(rng.choice(_GAPS) for _ in range(rng.randrange(min(index, 1), 3)))
        offsets += _gap_offsets(gap, len(text))
        text += gap
        tokens.append((word, len(text)))
        text += word
    gap = "".join(rng.choice(_GAPS) for _ in range(rng.randrange(3)))
    gap += rng.choice(("", "# tail", "\t#"))
    offsets += _gap_offsets(gap, len(text))
    return text + gap, tokens, offsets


class TestPositions:
    """Every position the lexer and parser name, against line and column
    worked out from the lines before the offset."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["$", "\f", "\u00b2"]))
    def test_an_unexpected_character_is_named_where_it_stands(self, rng, char):
        text, tokens, offsets = _padded_spec(rng)
        # inside a name or keyword too: the part before it is a whole token
        offsets += [
            start + index
            for word, start in tokens
            if word[0].isalpha()
            for index in range(1, len(word))
        ]
        offset = rng.choice(offsets)
        with pytest.raises(SpecParseError) as caught:
            parse_spec(text[:offset] + char + text[offset:])
        line, column = _line_and_column(text, offset)
        assert (caught.value.line, caught.value.column) == (line, column)
        assert str(caught.value) == f"line {line}, column {column}: unexpected character {char!r}"

    # Each malformed token the lexer names, with texts it may have, and its message.
    _MALFORMED = {
        "point": (("5.", "-12.", "0."), "expected a digit after the decimal point"),
        "equals": (("=",), "expected '==' (single '=' is not an operator)"),
        "minus": (("-",), "expected a digit after '-'"),
        "out of range": (
            ("9" * 400 + ".0", "-" + "9" * 400 + ".5", "9" * 5000),
            "number literal out of range",
        ),
    }

    @pytest.mark.parametrize("kind", list(_MALFORMED))
    @settings(max_examples=300, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_a_malformed_token_is_named_where_it_stands(self, kind, rng):
        # set off by gaps, so that it joins no token next to it; a gap
        # before it may end a line or a comment
        words, message = self._MALFORMED[kind]
        text, _, offsets = _padded_spec(rng)
        offset = rng.choice(offsets)
        before = rng.choice(_GAPS)
        text = text[:offset] + before + rng.choice(words) + rng.choice(_GAPS) + text[offset:]
        with pytest.raises(SpecParseError) as caught:
            parse_spec(text)
        line, column = _line_and_column(text, offset + len(before))
        assert (caught.value.line, caught.value.column) == (line, column)
        assert str(caught.value) == f"line {line}, column {column}: {message}"

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_a_text_cut_short_is_refused_where_it_ends(self, rng):
        # the tokens before the cut begin a valid spec, so the parser
        # stops at none of them, and a comment may run on to the cut
        text, _, offsets = _padded_spec(rng)
        cut = rng.choice(offsets)
        try:
            parse_spec(text[:cut])
        except SpecParseError as refusal:
            assert (refusal.line, refusal.column) == _line_and_column(text, cut)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_each_token_starts_at_its_own_text(self, rng):
        text, tokens, _ = _padded_spec(rng)
        (kinds, values), starts = _lex(text), _starts(text)
        assert starts == [start for _, start in tokens] + [len(text)]
        assert kinds[-1] == "EOF"
        for (word, _), kind, value in zip(tokens, kinds, values):
            if kind == "IDENT":
                assert value == word
            elif kind == "OP":
                assert value.value == word
            elif kind == "NUMBER":
                assert value == int(word)
            else:
                assert kind == {"(": "LPAREN", ")": "RPAREN"}.get(word, word.upper())


class TestCheck:
    def test_motorway_spec_is_well_formed(self, motorway_taxonomy, motorway_spec):
        assert motorway_spec.ast == And(And(S1, S2), S3)
        assert motorway_spec.mentioned_attributes == {
            "road_type",
            "pedestrian_present",
            "operational_speed",
        }
        assert motorway_spec.taxonomy is motorway_taxonomy

    def test_equality_and_hash_follow_the_ast_and_the_taxonomy(self, motorway_taxonomy):
        text = "road_type == motorway and not pedestrian_present == true"
        first, second = (check_spec(parse_spec(text), motorway_taxonomy) for _ in range(2))
        assert first == second
        assert hash(first) == hash(second)
        assert first != check_spec(parse_spec("road_type == motorway"), motorway_taxonomy)
        renamed = Taxonomy(motorway_taxonomy.attributes, version="2")
        assert first != check_spec(parse_spec(text), renamed)
        # derived from the atoms, not stored next to them
        assert "mentioned_attributes" not in {f.name for f in dataclasses.fields(first)}
        assert first.mentioned_attributes == {"road_type", "pedestrian_present"}
        with pytest.raises(AttributeError):
            first.mentioned_attributes = frozenset()

    def test_ordering_on_unordered_enum_rejected(self, motorway_taxonomy):
        with pytest.raises(PredicateNotApplicableError):
            check_spec(parse_spec("road_type > motorway"), motorway_taxonomy)

    def test_ordering_on_ordered_enum_accepted(self):
        t = Taxonomy((Attribute("level", EnumType(("lo", "mid", "hi"), ordered=True)),))
        spec = check_spec(parse_spec("level > lo"), t)
        assert spec.mentioned_attributes == {"level"}

    def test_ordering_on_bool_rejected(self, motorway_taxonomy):
        with pytest.raises(PredicateNotApplicableError):
            check_spec(parse_spec("pedestrian_present < true"), motorway_taxonomy)

    def test_unit_mismatch(self, motorway_taxonomy):
        with pytest.raises(SpecCheckError, match="unit"):
            check_spec(parse_spec("operational_speed < 60 mph"), motorway_taxonomy)

    def test_unit_on_unitless_attribute(self):
        t = Taxonomy((Attribute("lanes", IntType(minimum=1, maximum=4)),))
        with pytest.raises(SpecCheckError, match="unit"):
            check_spec(parse_spec("lanes >= 2 count"), t)

    def test_matching_unit_accepted_and_optional(self, motorway_taxonomy):
        check_spec(parse_spec("operational_speed < 60 kmh"), motorway_taxonomy)
        check_spec(parse_spec("operational_speed < 60"), motorway_taxonomy)

    def test_unknown_attribute(self, motorway_taxonomy):
        with pytest.raises(SpecCheckError, match="unknown attribute"):
            check_spec(parse_spec("fog_density == high"), motorway_taxonomy)

    def test_non_node_rejected(self, motorway_taxonomy):
        with pytest.raises(TypeError, match="not a spec node"):
            check_spec(object(), motorway_taxonomy)

    @pytest.mark.parametrize(
        "text",
        [
            "road_type == 5",
            "road_type == true",
            "pedestrian_present == motorway",
            "pedestrian_present == 1",
            "operational_speed < slow",
            "operational_speed == true",
        ],
    )
    def test_literal_kind_mismatch(self, motorway_taxonomy, text):
        with pytest.raises(SpecCheckError, match="expected"):
            check_spec(parse_spec(text), motorway_taxonomy)

    def test_int_attribute_rejects_fractional_literal(self):
        t = Taxonomy((Attribute("lanes", IntType(minimum=1, maximum=4)),))
        with pytest.raises(SpecCheckError, match="integer"):
            check_spec(parse_spec("lanes == 2.5"), t)

    def test_out_of_domain_literal(self, motorway_taxonomy):
        with pytest.raises(SpecCheckError, match="outside"):
            check_spec(parse_spec("road_type == highway"), motorway_taxonomy)
        with pytest.raises(SpecCheckError, match="outside"):
            check_spec(parse_spec("operational_speed < -10"), motorway_taxonomy)

    def test_equality_on_real_warns_but_passes(self, motorway_taxonomy):
        with pytest.warns(RealEqualityWarning) as caught:
            spec = check_spec(parse_spec("operational_speed == 45.0"), motorway_taxonomy)
        assert spec.mentioned_attributes == {"operational_speed"}
        # the warning names the line that called check_spec
        assert [w.filename for w in caught] == [__file__]

    def test_grammar_closure(self):
        # negations and conjunctions of well-formed specs stay well-formed
        rng = random.Random(7)
        for taxonomy in SPEC_FAMILY:
            for _ in range(5):
                first = random_spec(rng, taxonomy, 3)
                second = random_spec(rng, taxonomy, 3)
                check_spec(Not(first), taxonomy)
                check_spec(And(first, second), taxonomy)

    def test_well_formedness_is_atom_local(self, motorway_taxonomy):
        # a spec passes iff each of its atoms passes on its own
        good = parse_spec(MOTORWAY_SPEC_TEXT)
        bad = And(good, Atom("road_type", Predicate.EQ, "highway"))
        for ast in (good, bad):
            atom_ok = all(_accepts(a, motorway_taxonomy) for a in atoms(ast))
            assert atom_ok == _accepts(ast, motorway_taxonomy)


def _accepts(ast, taxonomy) -> bool:
    try:
        check_spec(ast, taxonomy)
        return True
    except SpecCheckError:
        return False


class TestPlan:
    def test_double_negation_folds_away(self):
        taxonomy = Taxonomy((Attribute("a", BoolType()), Attribute("b", BoolType())))
        plain = check_spec(parse_spec("a == true"), taxonomy)
        assert (plain.children, plain.parents) == (((),), ((),))
        for text in ("not not a == true", "not not not not a == true"):
            spec = check_spec(parse_spec(text), taxonomy)
            assert (spec.children, spec.parents) == (plain.children, plain.parents)
            assert spec.blame == plain.blame
            assert serialize_spec(spec.ast) == text
        mixed = check_spec(parse_spec("not not not (a == true and not not b == false)"), taxonomy)
        # the two atoms, their conjunction, and one negation above it
        assert mixed.children == ((), (), (0, 1), (2,))
        assert mixed.parents == ((2,), (2,), (3,), ())
        assert mixed.blame == (False, False)

    @pytest.mark.parametrize("taxonomy", SPEC_FAMILY, ids=lambda t: t.version)
    def test_groups_hold_each_probe_once_by_value_index(self, taxonomy):
        rng = random.Random("groups " + taxonomy.version)
        for _ in range(10):
            spec = check_spec(random_spec(rng, taxonomy, 6), taxonomy)
            indices = [index for index, _, _ in spec.groups]
            assert indices == sorted(set(indices))
            members = sorted(
                (atom_index, (index, test, literal))
                for index, group, _ in spec.groups
                for atom_index, test, literal in group
            )
            assert [atom_index for atom_index, _ in members] == list(range(len(spec.atoms)))
            assert [probe for _, probe in members] == [
                _check_atom(atom, taxonomy) for atom in spec.atoms
            ]
            for index, _, literals in spec.groups:
                assert literals == _number_literals(spec, index)

    def test_a_number_lists_its_sorted_distinct_literals(self):
        taxonomy = Taxonomy(
            (
                Attribute("speed", RealType(unit="kmh", minimum=0.0)),
                Attribute("road", EnumType(("a", "b"), ordered=True)),
                Attribute("lanes", IntType(minimum=0, maximum=9)),
                Attribute("wet", BoolType()),
            ),
            version="numbers1",
        )
        text = (
            "speed < 60.5 and lanes >= 2 and road <= a and not (speed > 30 or lanes < 2)"
            " and speed <= 60.5 and wet == true and speed >= 0.25 and lanes > 7"
        )
        spec = check_spec(parse_spec(text), taxonomy)
        assert [(index, literals) for index, _, literals in spec.groups] == [
            (0, (0.25, 30, 60.5)), (1, None), (2, (2, 7)), (3, None),
        ]
        for index, _, literals in spec.groups:
            assert literals == _number_literals(spec, index)


def _number_literals(spec, index):
    """The sorted distinct literals of the atoms on an int or real
    attribute, read from the atoms; None for an enum or bool one."""
    attribute = spec.taxonomy.attributes[index]
    if not isinstance(attribute.attr_type, (IntType, RealType)):
        return None
    return tuple(sorted({a.literal for a in spec.atoms if a.attribute_name == attribute.name}))


_COMPILED = ("atoms", "blame", "groups", "parents", "children")


def _random_verdicts(rng, spec, count=20):
    """The spec's verdicts on ``count`` random samples of its taxonomy,
    some attributes unmeasured, each checked against the Kleene oracle."""
    taxonomy = spec.taxonomy
    orders = label_orders_of(taxonomy)
    verdicts = []
    for _ in range(count):
        measured = {
            attribute.name: rng.choice(space_of(attribute))
            for attribute in taxonomy.attributes
            if rng.random() < 0.8
        }
        verdict = eval_spec(spec, make_lod(taxonomy, measured)).value
        partial = {a.name: measured.get(a.name) for a in taxonomy.attributes}
        assert verdict == eval_kleene(spec.ast, partial, orders)
        verdicts.append(verdict)
    return verdicts


class TestConstructor:
    """``WellFormedSpec(ast, taxonomy)`` is the one check and compile of a
    spec, so no spec holds tables compiled from another tree or taxonomy."""

    def test_check_spec_names_the_constructor(self, motorway_taxonomy):
        assert check_spec is WellFormedSpec
        ast = parse_spec(MOTORWAY_SPEC_TEXT)
        spec = WellFormedSpec(ast, motorway_taxonomy)
        assert spec == WellFormedSpec(ast=ast, taxonomy=motorway_taxonomy)
        assert spec.atoms == (S1, S2, S3)
        for name in _COMPILED:
            with pytest.raises(TypeError):
                WellFormedSpec(ast, motorway_taxonomy, **{name: getattr(spec, name)})

    @pytest.mark.parametrize("taxonomy", SPEC_FAMILY, ids=lambda t: t.version)
    def test_replace_checks_and_compiles_again(self, taxonomy):
        rng = random.Random("rebind " + taxonomy.version)
        reversed_ = Taxonomy(tuple(reversed(taxonomy.attributes)), version=taxonomy.version)
        for _ in range(10):
            spec = check_spec(random_spec(rng, taxonomy, 4), taxonomy)
            rebound = dataclasses.replace(spec, taxonomy=reversed_)
            expected = check_spec(spec.ast, reversed_)
            assert rebound.taxonomy is reversed_
            assert rebound.groups == expected.groups
            seed = rng.random()
            verdicts = _random_verdicts(random.Random(seed), rebound)
            assert verdicts == _random_verdicts(random.Random(seed), expected)

            other = random_spec(rng, taxonomy, 4)
            replaced = dataclasses.replace(spec, ast=other)
            expected = check_spec(other, taxonomy)
            assert replaced == expected and hash(replaced) == hash(expected)
            assert replaced.atoms == expected.atoms
            verdicts = _random_verdicts(random.Random(seed), replaced)
            assert verdicts == _random_verdicts(random.Random(seed), expected)

    def test_a_replaced_tree_or_taxonomy_is_judged_by_itself(self):
        t_ab = Taxonomy((Attribute("a", BoolType()), Attribute("b", BoolType())), version="1")
        t_ba = Taxonomy(tuple(reversed(t_ab.attributes)), version="1")
        spec = check_spec(parse_spec("a == true"), t_ab)
        sample = make_lod(t_ba, {"a": False, "b": True})
        assert eval_spec(dataclasses.replace(spec, taxonomy=t_ba), sample) is Verdict.FALSE
        replaced = dataclasses.replace(spec, ast=parse_spec("a == false"))
        assert eval_spec(replaced, make_lod(t_ab, {"a": False})) is Verdict.TRUE
        with pytest.raises(SpecCheckError, match="unknown attribute"):
            dataclasses.replace(spec, ast=parse_spec("c == true"))

    def test_a_compiled_field_cannot_be_replaced(self, motorway_spec):
        for name in _COMPILED:
            with pytest.raises(ValueError, match=name):
                dataclasses.replace(motorway_spec, **{name: ()})

    def test_fields_equality_repr_and_pickle(self, motorway_taxonomy, motorway_spec):
        names = [f.name for f in dataclasses.fields(WellFormedSpec)]
        assert names == ["ast", "taxonomy", *_COMPILED]
        assert repr(motorway_spec) == (
            f"WellFormedSpec(ast={motorway_spec.ast!r}, taxonomy={motorway_taxonomy!r})"
        )
        copy = pickle.loads(pickle.dumps(motorway_spec))
        assert copy == motorway_spec and hash(copy) == hash(motorway_spec)
        for name in _COMPILED:
            assert getattr(copy, name) == getattr(motorway_spec, name)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(copy, name, getattr(copy, name))

    def test_the_warning_names_the_caller_of_the_constructor(self, motorway_taxonomy):
        ast = parse_spec("operational_speed == 45.0")
        spec = check_spec(parse_spec("operational_speed < 45.0"), motorway_taxonomy)
        with pytest.warns(RealEqualityWarning) as caught:
            WellFormedSpec(ast, motorway_taxonomy)
            check_spec(ast, motorway_taxonomy)
            dataclasses.replace(spec, ast=ast)
        assert [w.filename for w in caught] == [__file__, __file__, __file__]


def _levels(node) -> int:
    if isinstance(node, Not):
        return 1 + _levels(node.operand)
    if isinstance(node, And):
        return 1 + max(_levels(node.left), _levels(node.right))
    return 1


def _subtrees(node):
    yield node
    if isinstance(node, Not):
        yield from _subtrees(node.operand)
    elif isinstance(node, And):
        yield from _subtrees(node.left)
        yield from _subtrees(node.right)


class TestDepth:
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(SPEC_FAMILY), st.integers(0, 10))
    def test_each_node_holds_its_depth(self, rng, taxonomy, depth):
        for ast in (random_free_ast(rng, depth), random_spec(rng, taxonomy, depth)):
            for node in _subtrees(ast):
                assert node._depth == _levels(node)

    def test_a_node_past_256_levels_is_refused_when_built(self):
        left, right, negation = _chains(256)
        # an 'or' of depth 257: its inner conjunction is 256 deep and builds
        inner = And(Not(left.left.left), Not(A))
        builds = (
            lambda: And(left, A),
            lambda: And(A, right),
            lambda: Not(negation),
            lambda: Not(inner),
            lambda: dataclasses.replace(And(A, A), left=left),
            lambda: dataclasses.replace(Not(A), operand=right),
        )
        for build in builds:
            with pytest.raises(SpecCheckError) as caught:
                build()
            assert str(caught.value) == "the spec nests too deeply: more than 256 levels"

    def test_a_tree_at_the_bound_is_a_plain_value(self):
        assert [f.name for f in dataclasses.fields(And)] == ["left", "right"]
        assert [f.name for f in dataclasses.fields(Not)] == ["operand"]
        for ast in _chains(256):
            twin = parse_spec(serialize_spec(ast))
            assert twin == ast and twin is not ast
            assert hash(twin) == hash(ast)
            assert repr(twin) == repr(ast) and "_depth" not in repr(ast)
            for copied in (pickle.loads(pickle.dumps(ast)), copy.deepcopy(ast)):
                assert copied == ast
                # a copy keeps its depth, so it cannot grow past the bound
                with pytest.raises(SpecCheckError, match="nests too deeply"):
                    Not(copied)

    def test_a_non_node_operand_is_refused(self):
        thing = object()
        for build in (lambda: Not(thing), lambda: And(thing, A), lambda: And(A, thing)):
            with pytest.raises(TypeError, match=f"^not a spec node: {re.escape(repr(thing))}$"):
                build()


class TestAtoms:
    def test_occurrence_order(self):
        assert atoms(parse_spec(MOTORWAY_SPEC_TEXT)) == [S1, S2, S3]

    def test_single_atom(self):
        assert atoms(S1) == [S1]

    def test_duplicates_collapse(self):
        a = Atom("flag", Predicate.EQ, True)
        assert atoms(Not(And(a, a))) == [a]


class TestSerialize:
    def test_conjunction_layout(self):
        assert serialize_spec(And(S1, S2)) == (
            "road_type == motorway and pedestrian_present == false"
        )

    def test_negation_layout(self):
        assert serialize_spec(Not(S1)) == "not road_type == motorway"

    def test_negated_conjunction_needs_parens(self):
        assert serialize_spec(Not(And(S1, S2))) == (
            "not (road_type == motorway and pedestrian_present == false)"
        )

    def test_right_nested_conjunction_needs_parens(self):
        a, b, c = S1, S2, S3
        text = serialize_spec(And(a, And(b, c)))
        assert text == (
            "road_type == motorway and (pedestrian_present == false "
            "and operational_speed < 60 kmh)"
        )
        assert parse_spec(text) == And(a, And(b, c))

    def test_unit_is_preserved(self):
        assert serialize_spec(S3) == "operational_speed < 60 kmh"

    def test_canonicalization_fixed_point(self):
        messy = "  road_type==motorway   and (pedestrian_present==false) # x\n and operational_speed<60 kmh"
        canonical = serialize_spec(parse_spec(messy))
        assert canonical == MOTORWAY_SPEC_TEXT
        assert serialize_spec(parse_spec(canonical)) == canonical

    def test_float_literals_stay_in_grammar(self):
        # huge and tiny floats must not serialize to exponent notation
        for value in (1e16, 5e-324, 1e300, -0.0, 0.1):
            atom = Atom("x", Predicate.EQ, value)
            text = serialize_spec(atom)
            assert "e" not in text.split(" == ")[1]
            parsed = parse_spec(text)
            assert parsed.literal == value
            assert isinstance(parsed.literal, float)

    def test_a_tree_of_any_depth_is_written(self):
        left, right, negation = _chains(256)
        assert serialize_spec(left) == " and ".join(["a == true"] * 256)
        assert serialize_spec(right) == (
            "a == true and (" * 254 + "a == true and a == true" + ")" * 254
        )
        assert serialize_spec(negation) == "not " * 255 + "a == true"
        # a name with no syntax is refused, however deep it sits
        with pytest.raises(ValueError, match="attribute name 'A'"):
            serialize_spec(And(left.left, Not(Atom("A", Predicate.EQ, True))))

    def test_non_finite_literal_has_no_syntax(self):
        with pytest.raises(ValueError):
            serialize_spec(Atom("x", Predicate.EQ, float("inf")))

    def test_non_identifier_label_has_no_syntax(self):
        with pytest.raises(ValueError):
            serialize_spec(Atom("x", Predicate.EQ, "Not A Label"))

    def test_unsupported_literal_has_no_syntax(self):
        with pytest.raises(ValueError, match="unsupported literal"):
            render_value(object())

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(5e-324)
    @example(sys.float_info.max)
    @example(1e16)
    @example(1e-5)
    def test_float_rendering_is_the_positional_decimal(self, value):
        # a float is written by its repr unless that has an exponent
        text = format(Decimal(repr(value)), "f")
        assert render_value(value) == (text if "." in text else text + ".0")


IDENTIFIERS = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in {"and", "or", "not", "true", "false"}
)
LITERALS = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    IDENTIFIERS,
)


@st.composite
def atom_nodes(draw):
    literal = draw(LITERALS)
    unit = None
    if isinstance(literal, (int, float)) and not isinstance(literal, bool):
        unit = draw(st.none() | IDENTIFIERS)
    return Atom(draw(IDENTIFIERS), draw(st.sampled_from(list(Predicate))), literal, unit)


AST_NODES = st.recursive(
    atom_nodes(),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
    ),
    max_leaves=12,
)


def _structurally_equal(left, right) -> bool:
    if isinstance(left, Atom) and isinstance(right, Atom):
        return left == right and type(left.literal) is type(right.literal)
    if isinstance(left, Not) and isinstance(right, Not):
        return _structurally_equal(left.operand, right.operand)
    if isinstance(left, And) and isinstance(right, And):
        return _structurally_equal(left.left, right.left) and _structurally_equal(
            left.right, right.right
        )
    return False


@settings(max_examples=300, deadline=None)
@given(AST_NODES)
def test_parse_serialize_round_trip(ast):
    text = serialize_spec(ast)
    reparsed = parse_spec(text)
    assert _structurally_equal(reparsed, ast)
    assert serialize_spec(reparsed) == text


def test_round_trip_seeded_corpus():
    rng = random.Random(20260809)
    for _ in range(300):
        ast = random_free_ast(rng)
        text = serialize_spec(ast)
        assert _structurally_equal(parse_spec(text), ast)


@settings(max_examples=150, deadline=None)
@given(AST_NODES, AST_NODES)
def test_composition_round_trips(left, right):
    for ast in (Not(left), And(left, right)):
        assert _structurally_equal(parse_spec(serialize_spec(ast)), ast)
