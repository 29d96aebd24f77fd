import itertools
import random
import tracemalloc

import pytest

from oddspec import (
    UNKNOWN,
    And,
    Atom,
    Attribute,
    BoolType,
    EnumType,
    EvaluationError,
    InfiniteDomainError,
    IntType,
    Lod,
    Not,
    Predicate,
    RealEqualityWarning,
    Taxonomy,
    UnknownValueError,
    Verdict,
    check_spec,
    count_odd,
    diagnose,
    domain_cardinality,
    enumerate_od,
    enumerate_odd,
    eval_spec,
    in_odd,
    kleene_and,
    kleene_not,
    make_lod,
    parse_spec,
    value_space,
)
from oracles import (
    BOTH_POLARITY_SPECS,
    SPEC_FAMILY,
    TRIO_TAXONOMY,
    assignment_of,
    eval_kleene,
    eval_two_valued,
    label_orders_of,
    nested_loop_od,
    random_atom,
    random_spec,
)

T, F, U = Verdict.TRUE, Verdict.FALSE, Verdict.UNKNOWN


class TestKleeneAlgebra:
    def test_not_table(self):
        assert kleene_not(T) is F
        assert kleene_not(F) is T
        assert kleene_not(U) is U

    @pytest.mark.parametrize(
        "left, right, expected",
        [
            (T, T, T),
            (T, F, F),
            (T, U, U),
            (F, T, F),
            (F, F, F),
            (F, U, F),
            (U, T, U),
            (U, F, F),
            (U, U, U),
        ],
    )
    def test_and_table(self, left, right, expected):
        assert kleene_and(left, right) is expected

    def test_double_negation(self):
        for v in Verdict:
            assert kleene_not(kleene_not(v)) is v


def _lod(taxonomy, road=None, ped=None, speed=None):
    assignments = {}
    if road is not None:
        assignments["road_type"] = road
    if ped is not None:
        assignments["pedestrian_present"] = ped
    if speed is not None:
        assignments["operational_speed"] = speed
    return make_lod(taxonomy, assignments)


class TestEvalAtom:
    def test_label_equality(self, motorway_taxonomy):
        atom = Atom("road_type", Predicate.EQ, "motorway")
        lod = _lod(motorway_taxonomy, road="motorway", ped=False, speed=45)
        spec = check_spec(atom, motorway_taxonomy)
        assert eval_spec(spec, lod) is T
        assert eval_spec(spec, _lod(motorway_taxonomy, road="rural")) is F

    def test_strict_less_than_at_the_boundary(self, motorway_taxonomy):
        atom = Atom("operational_speed", Predicate.LT, 60)
        at_limit = _lod(motorway_taxonomy, speed=60.0)
        below = _lod(motorway_taxonomy, speed=59.999)
        spec = check_spec(atom, motorway_taxonomy)
        assert eval_spec(spec, at_limit) is F
        assert eval_spec(spec, below) is T

    def test_unknown_propagates(self, motorway_taxonomy):
        atom = Atom("pedestrian_present", Predicate.EQ, False)
        assert eval_spec(check_spec(atom, motorway_taxonomy), _lod(motorway_taxonomy)) is U

    def test_int_literal_against_real_value(self, motorway_taxonomy):
        atom = Atom("operational_speed", Predicate.EQ, 45)
        with pytest.warns(RealEqualityWarning):
            spec = check_spec(atom, motorway_taxonomy)
        assert eval_spec(spec, _lod(motorway_taxonomy, speed=45.0)) is T

    def test_ordered_enum_uses_label_order(self):
        t = Taxonomy((Attribute("level", EnumType(("lo", "mid", "hi"), ordered=True)),))
        lod = make_lod(t, {"level": "mid"})
        assert eval_spec(check_spec(Atom("level", Predicate.GT, "lo"), t), lod) is T
        assert eval_spec(check_spec(Atom("level", Predicate.LT, "lo"), t), lod) is F
        assert eval_spec(check_spec(Atom("level", Predicate.LE, "mid"), t), lod) is T
        assert eval_spec(check_spec(Atom("level", Predicate.GE, "hi"), t), lod) is F

    @pytest.mark.parametrize("taxonomy", SPEC_FAMILY, ids=lambda t: t.version)
    def test_every_atom_of_random_specs_agrees_with_the_truth_tables(self, taxonomy):
        rng = random.Random(f"atom-oracle:{taxonomy.version}")
        orders = label_orders_of(taxonomy)
        spaces = _value_spaces(taxonomy)
        seen = set()
        for _ in range(10):
            spec = check_spec(random_spec(rng, taxonomy, 5), taxonomy)
            for _ in range(10):
                values = tuple(
                    UNKNOWN if rng.random() < 0.3 else rng.choice(space) for space in spaces
                )
                partial = {
                    name: None if value is UNKNOWN else value
                    for name, value in assignment_of(taxonomy, values).items()
                }
                lod = Lod(0.0, 0.0, 0.0, values)
                for atom in spec.atoms:
                    verdict = eval_spec(check_spec(atom, taxonomy), lod).value
                    assert verdict == eval_kleene(atom, partial, orders)
                    seen.add(verdict)
        assert "unknown" in seen


class TestEvalSpec:
    def test_motorway_example_true(self, motorway_taxonomy, motorway_spec):
        lod = _lod(motorway_taxonomy, road="motorway", ped=False, speed=45.0)
        assert eval_spec(motorway_spec, lod) is T

    def test_single_atom_mutations_are_false(self, motorway_taxonomy, motorway_spec):
        for lod in (
            _lod(motorway_taxonomy, road="regional", ped=False, speed=45.0),
            _lod(motorway_taxonomy, road="motorway", ped=True, speed=45.0),
            _lod(motorway_taxonomy, road="motorway", ped=False, speed=60.0),
        ):
            assert eval_spec(motorway_spec, lod) is F

    def test_false_dominates_unknown(self, motorway_taxonomy, motorway_spec):
        lod = _lod(motorway_taxonomy, road="rural", ped=None, speed=45.0)
        assert eval_spec(motorway_spec, lod) is F

    def test_unknown_when_undecided(self, motorway_taxonomy, motorway_spec):
        lod = _lod(motorway_taxonomy, road="motorway", ped=None, speed=45.0)
        assert eval_spec(motorway_spec, lod) is U

    def test_compositionality(self):
        rng = random.Random(11)
        for taxonomy in SPEC_FAMILY[:6]:
            spaces = [list(v) for v in _value_spaces(taxonomy)]
            for _ in range(10):
                left = random_spec(rng, taxonomy, 3)
                right = random_spec(rng, taxonomy, 3)
                values = tuple(rng.choice(s + [UNKNOWN]) for s in spaces)
                lod = Lod(0.0, 0.0, 0.0, values)
                checked_l = check_spec(left, taxonomy)
                checked_r = check_spec(right, taxonomy)
                not_spec = check_spec(Not(left), taxonomy)
                and_spec = check_spec(And(left, right), taxonomy)
                assert eval_spec(not_spec, lod) is kleene_not(eval_spec(checked_l, lod))
                assert eval_spec(and_spec, lod) is kleene_and(
                    eval_spec(checked_l, lod), eval_spec(checked_r, lod)
                )

    def test_verdict_ignores_time_and_place(self, motorway_taxonomy, motorway_spec):
        rng = random.Random(23)
        values = ("motorway", False, 45.0)
        verdicts = {
            eval_spec(
                motorway_spec,
                Lod(rng.uniform(0, 1e6), rng.uniform(-180, 180), rng.uniform(-90, 90), values),
            )
            for _ in range(50)
        }
        assert verdicts == {T}

    def test_arity_mismatch(self, motorway_spec):
        with pytest.raises(EvaluationError, match="declares"):
            eval_spec(motorway_spec, Lod(0.0, 0.0, 0.0, ("motorway", False)))


def _value_spaces(taxonomy):
    from oracles import space_of

    return [space_of(a) for a in taxonomy.attributes]


def test_or_desugar_equals_disjunction():
    # on fully known samples, the rewritten form of "a or b" behaves as a
    # classical disjunction, brute-forced over whole finite domains
    rng = random.Random(41)
    for taxonomy in SPEC_FAMILY[:8]:
        for _ in range(8):
            left = random_spec(rng, taxonomy, 3)
            right = random_spec(rng, taxonomy, 3)
            rewritten = check_spec(Not(And(Not(left), Not(right))), taxonomy)
            left_spec = check_spec(left, taxonomy)
            right_spec = check_spec(right, taxonomy)
            for values in enumerate_od(taxonomy):
                lod = Lod(0.0, 0.0, 0.0, values)
                expected = (
                    eval_spec(left_spec, lod) is T or eval_spec(right_spec, lod) is T
                )
                assert eval_spec(rewritten, lod) is (Verdict.TRUE if expected else Verdict.FALSE)


class TestAgainstTwoValuedOracle:
    @pytest.mark.parametrize("taxonomy", SPEC_FAMILY[:8], ids=lambda t: t.version)
    def test_total_samples_agree_with_classical_logic(self, taxonomy):
        rng = random.Random(hash(taxonomy.version) & 0xFFFF)
        orders = label_orders_of(taxonomy)
        domain = list(enumerate_od(taxonomy))
        for _ in range(10):
            ast = random_spec(rng, taxonomy, 4)
            spec = check_spec(ast, taxonomy)
            for values in domain:
                expected = eval_two_valued(ast, assignment_of(taxonomy, values), orders)
                got = eval_spec(spec, Lod(0.0, 0.0, 0.0, values))
                assert got is (Verdict.TRUE if expected else Verdict.FALSE)


class TestAgainstKleeneOracle:
    # kleene_and and kleene_not share the fold's rank encoding, so only a
    # referee with its own truth tables can catch an error in that encoding
    @pytest.mark.parametrize("taxonomy", SPEC_FAMILY, ids=lambda t: t.version)
    def test_partial_samples_agree_with_the_truth_tables(self, taxonomy):
        rng = random.Random(f"kleene-oracle:{taxonomy.version}")
        orders = label_orders_of(taxonomy)
        spaces = _value_spaces(taxonomy)
        for _ in range(20):
            ast = random_spec(rng, taxonomy, 5)
            spec = check_spec(ast, taxonomy)
            for _ in range(20):
                dropout = rng.choice((0.0, 0.4))
                values = tuple(
                    UNKNOWN if rng.random() < dropout else rng.choice(space)
                    for space in spaces
                )
                partial = {
                    name: None if value is UNKNOWN else value
                    for name, value in assignment_of(taxonomy, values).items()
                }
                expected = eval_kleene(ast, partial, orders)
                lod = Lod(0.0, 0.0, 0.0, values)
                assert eval_spec(spec, lod).value == expected
                assert diagnose(spec, lod).verdict.value == expected
                if UNKNOWN not in values:
                    assert in_odd(spec, lod) is (expected == "true")


class TestInOdd:
    def test_inside(self, motorway_taxonomy, motorway_spec):
        lod = _lod(motorway_taxonomy, road="motorway", ped=False, speed=45.0)
        assert in_odd(motorway_spec, lod) is True

    def test_boundary_is_outside(self, motorway_taxonomy, motorway_spec):
        lod = _lod(motorway_taxonomy, road="motorway", ped=False, speed=60.0)
        assert in_odd(motorway_spec, lod) is False

    def test_unknown_mentioned_attribute_is_an_error(self, motorway_taxonomy, motorway_spec):
        lod = _lod(motorway_taxonomy, road="motorway", ped=None, speed=45.0)
        with pytest.raises(UnknownValueError):
            in_odd(motorway_spec, lod)

    def test_error_even_when_verdict_would_be_decided(self, motorway_taxonomy, motorway_spec):
        # rural already falsifies the spec, but membership of a partially
        # measured sample is undefined, not false
        lod = _lod(motorway_taxonomy, road="rural", ped=None, speed=45.0)
        with pytest.raises(UnknownValueError):
            in_odd(motorway_spec, lod)

    def test_unknown_unmentioned_attribute_is_fine(self, motorway_taxonomy):
        spec = check_spec(parse_spec("road_type == motorway"), motorway_taxonomy)
        lod = _lod(motorway_taxonomy, road="motorway")
        assert in_odd(spec, lod) is True


class TestEnumerateOdd:
    def test_conjunction_filter(self, finite_taxonomy):
        spec = check_spec(
            parse_spec("road_type == motorway and pedestrian_present == false"),
            finite_taxonomy,
        )
        assert list(enumerate_odd(finite_taxonomy, spec)) == [("motorway", False)]

    def test_tautology_keeps_everything(self, finite_taxonomy):
        spec = check_spec(
            parse_spec("not (road_type == motorway) or road_type == motorway"),
            finite_taxonomy,
        )
        assert list(enumerate_odd(finite_taxonomy, spec)) == list(enumerate_od(finite_taxonomy))

    def test_contradiction_is_empty(self, finite_taxonomy):
        spec = check_spec(
            parse_spec("pedestrian_present == true and pedestrian_present == false"),
            finite_taxonomy,
        )
        assert list(enumerate_odd(finite_taxonomy, spec)) == []

    def test_version_mismatch(self, finite_taxonomy, motorway_taxonomy):
        other = Taxonomy(finite_taxonomy.attributes, version="999")
        spec = check_spec(parse_spec("road_type == motorway"), other)
        with pytest.raises(EvaluationError, match="version"):
            list(enumerate_odd(finite_taxonomy, spec))

    def test_subset_of_full_domain(self, finite_taxonomy):
        rng = random.Random(31)
        everything = list(enumerate_od(finite_taxonomy))
        for _ in range(20):
            spec = check_spec(random_spec(rng, finite_taxonomy, 5), finite_taxonomy)
            chosen = list(enumerate_odd(finite_taxonomy, spec))
            assert set(chosen) <= set(everything)
            # enumeration order is inherited from the full enumeration
            assert chosen == [v for v in everything if v in set(chosen)]


def _oracle_odd(taxonomy, ast):
    orders = label_orders_of(taxonomy)
    return [
        values
        for values in nested_loop_od(taxonomy)
        if eval_two_valued(ast, assignment_of(taxonomy, values), orders)
    ]


class TestPrunedEnumeration:
    # the pruned walk must list exactly the filtered domain, in its order

    @pytest.mark.parametrize("taxonomy", SPEC_FAMILY, ids=lambda t: t.version)
    def test_random_specs_match_the_filtered_domain_in_order(self, taxonomy):
        rng = random.Random(f"pruned-walk:{taxonomy.version}")
        for _ in range(20):
            ast = random_spec(rng, taxonomy, 4)
            spec = check_spec(ast, taxonomy)
            expected = _oracle_odd(taxonomy, ast)
            assert list(enumerate_odd(taxonomy, spec)) == expected
            assert count_odd(taxonomy, spec) == len(expected)

    @pytest.mark.parametrize("taxonomy", [*SPEC_FAMILY, TRIO_TAXONOMY], ids=lambda t: t.version)
    def test_fixed_specs_match_the_filtered_domain_in_order(self, taxonomy):
        rng = random.Random(f"pruned-fixed:{taxonomy.version}")
        first = random_atom(rng, taxonomy)
        last_attribute = taxonomy.attributes[-1]
        last = Atom(last_attribute.name, Predicate.EQ, _value_spaces(taxonomy)[-1][-1])
        cases = {
            "tautology": (Not(And(first, Not(first))), nested_loop_od(taxonomy)),
            "contradiction": (And(first, Not(first)), []),
            "last attribute only": (last, None),
        }
        if taxonomy is TRIO_TAXONOMY:
            # the walk releases an atom that has leaves of both polarities
            cases.update((text, (parse_spec(text), None)) for text in BOTH_POLARITY_SPECS)
        for name, (ast, expected) in cases.items():
            oracle = _oracle_odd(taxonomy, ast)
            if expected is not None:
                assert oracle == expected, name
            spec = check_spec(ast, taxonomy)
            assert list(enumerate_odd(taxonomy, spec)) == oracle, name
            assert count_odd(taxonomy, spec) == len(oracle), name

    @pytest.mark.parametrize(
        "taxonomy",
        [
            *SPEC_FAMILY,
            # 2 * (10**20 + 1) tuples, more than len() of a range can count
            Taxonomy(
                (Attribute("a", IntType(minimum=0, maximum=10**20)), Attribute("b", BoolType())),
                version="wide",
            ),
        ],
        ids=lambda t: t.version,
    )
    def test_a_tautology_admits_the_whole_domain(self, taxonomy):
        # the OD and the ODD are sized from the same per-type cardinality
        attribute = taxonomy.attributes[-1]
        atom = Atom(attribute.name, Predicate.EQ, value_space(attribute)[0])
        spec = check_spec(Not(And(atom, Not(atom))), taxonomy)
        assert count_odd(taxonomy, spec) == domain_cardinality(taxonomy)

    def test_deep_taxonomy_walks_without_recursion(self):
        # 2**2000 tuples: a walk that recursed per attribute would hit the
        # recursion limit, one that filtered the domain would never finish
        size = 2000
        taxonomy = Taxonomy(tuple(Attribute(f"a{i}", BoolType()) for i in range(size)))
        for position in (1500, 0):
            spec = check_spec(parse_spec(f"a{position} == false"), taxonomy)
            expected = tuple(i != position for i in range(size))
            assert next(enumerate_odd(taxonomy, spec)) == expected
            assert count_odd(taxonomy, spec) == 2 ** (size - 1)

    def test_count_lists_no_int_range(self):
        # an int attribute's values stay a range: counting a spec on the
        # other attribute holds none of the million ints in memory
        taxonomy = Taxonomy(
            (Attribute("a", IntType(minimum=0, maximum=10**6)), Attribute("b", BoolType()))
        )
        spec = check_spec(parse_spec("b == true"), taxonomy)
        tracemalloc.start()
        try:
            assert count_odd(taxonomy, spec) == 1_000_001
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_checks_run_on_the_first_next(self, motorway_taxonomy, motorway_spec, finite_taxonomy):
        odd = enumerate_odd(motorway_taxonomy, motorway_spec)
        with pytest.raises(InfiniteDomainError) as raised:
            next(odd)
        with pytest.raises(InfiniteDomainError) as from_od:
            enumerate_od(motorway_taxonomy)
        assert str(raised.value) == str(from_od.value)
        with pytest.raises(InfiniteDomainError):
            count_odd(motorway_taxonomy, motorway_spec)
        elsewhere = Taxonomy(finite_taxonomy.attributes, version="2")
        other = check_spec(parse_spec("road_type == motorway"), elsewhere)
        odd = enumerate_odd(finite_taxonomy, other)
        with pytest.raises(EvaluationError, match="version"):
            next(odd)
        with pytest.raises(EvaluationError, match="version"):
            count_odd(finite_taxonomy, other)


class TestDiagnose:
    def test_all_three_statements_falsified(self, motorway_taxonomy, motorway_spec):
        lod = _lod(motorway_taxonomy, road="regional", ped=True, speed=70.0)
        report = diagnose(motorway_spec, lod)
        assert report.verdict is F
        assert [a.attribute_name for a in report.falsified_atoms] == [
            "road_type",
            "pedestrian_present",
            "operational_speed",
        ]
        assert report.unknown_atoms == ()

    def test_inside_sample_has_empty_lists(self, motorway_taxonomy, motorway_spec):
        lod = _lod(motorway_taxonomy, road="motorway", ped=False, speed=45.0)
        report = diagnose(motorway_spec, lod)
        assert report.verdict is T
        assert report.falsified_atoms == ()
        assert report.unknown_atoms == ()

    def test_unknown_atom_is_named(self, motorway_taxonomy, motorway_spec):
        lod = _lod(motorway_taxonomy, road="motorway", ped=None, speed=45.0)
        report = diagnose(motorway_spec, lod)
        assert report.verdict is U
        assert report.falsified_atoms == ()
        assert [a.attribute_name for a in report.unknown_atoms] == ["pedestrian_present"]

    def test_negative_occurrences_are_not_blamed(self, motorway_taxonomy):
        spec = check_spec(parse_spec("not (pedestrian_present == true)"), motorway_taxonomy)
        lod = _lod(motorway_taxonomy, ped=True)
        report = diagnose(spec, lod)
        assert report.verdict is F
        assert report.falsified_atoms == ()

    def test_mixed_polarity_atom_is_blamed_when_false(self, motorway_taxonomy):
        atom = Atom("pedestrian_present", Predicate.EQ, True)
        spec = check_spec(And(atom, Not(atom)), motorway_taxonomy)
        report = diagnose(spec, _lod(motorway_taxonomy, ped=False))
        assert report.verdict is F
        assert report.falsified_atoms == (atom,)

    def test_lists_are_disjoint_subsets_of_atoms(self, motorway_taxonomy):
        rng = random.Random(17)
        from oddspec import atoms as atoms_of

        for _ in range(30):
            ast = random_spec(rng, SPEC_FAMILY[5], 5)
            spec = check_spec(ast, SPEC_FAMILY[5])
            spaces = _value_spaces(SPEC_FAMILY[5])
            values = tuple(rng.choice(list(s) + [UNKNOWN]) for s in spaces)
            report = diagnose(spec, Lod(0.0, 0.0, 0.0, values))
            falsified = set(report.falsified_atoms)
            unknown = set(report.unknown_atoms)
            assert falsified.isdisjoint(unknown)
            assert falsified | unknown <= set(atoms_of(ast))


class TestKleeneRefinement:
    def test_decided_verdicts_survive_completion(self, finite_taxonomy):
        # small inline version of the completion property: a True/False
        # verdict on a partial sample must hold for every completion
        rng = random.Random(5)
        spaces = _value_spaces(finite_taxonomy)
        for _ in range(40):
            ast = random_spec(rng, finite_taxonomy, 4)
            spec = check_spec(ast, finite_taxonomy)
            orders = label_orders_of(finite_taxonomy)
            for partial in itertools.product(*[list(s) + [UNKNOWN] for s in spaces]):
                verdict = eval_spec(spec, Lod(0.0, 0.0, 0.0, partial))
                if verdict is U:
                    continue
                for completion in itertools.product(
                    *[[v] if v is not UNKNOWN else list(s) for v, s in zip(partial, spaces)]
                ):
                    expected = eval_two_valued(
                        ast, assignment_of(finite_taxonomy, completion), orders
                    )
                    assert verdict is (Verdict.TRUE if expected else Verdict.FALSE)
