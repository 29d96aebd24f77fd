"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expected value is either fixed by the worked motorway example or
computed by the independent reference implementations in ``oracles.py``.
"""

import itertools
import math
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from oddspec import (
    UNKNOWN,
    Atom,
    EnumType,
    Lod,
    Predicate,
    PredicateNotApplicableError,
    Taxonomy,
    Verdict,
    atoms,
    check_spec,
    enumerate_od,
    enumerate_odd,
    eval_spec,
    parse_spec,
    serialize_spec,
)
from oracles import (
    SPEC_FAMILY,
    assignment_of,
    eval_two_valued,
    label_orders_of,
    random_free_ast,
    random_spec,
    simulate_monitor,
    space_of,
)
from test_monitor import ORACLE_FIXTURES, events_as_tuples, run_letters

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL — {title}")
        raise
    print(f"criterion {number}: PASS — {title}")


# ---------------------------------------------------------------------------


def test_criterion_1_od_enumeration_reproduces_worked_example(finite_taxonomy):
    with criterion(1, "OD enumeration yields exactly the six worked-example tuples"):
        produced = set(enumerate_od(finite_taxonomy))
        assert produced == {
            ("motorway", True),
            ("motorway", False),
            ("regional", True),
            ("regional", False),
            ("rural", True),
            ("rural", False),
        }
        assert len(list(enumerate_od(finite_taxonomy))) == 6


def test_criterion_2_worked_example_spec_against_truth_table(
    motorway_taxonomy, motorway_spec
):
    with criterion(2, "worked-example spec matches the brute-force truth table"):
        def oracle(road, ped, speed):
            return road == "motorway" and ped is False and speed < 60.0

        base = ("motorway", False, 45.0)
        mutations = [
            ("regional", False, 45.0),
            ("motorway", True, 45.0),
            ("motorway", False, 60.0),
        ]
        for values in [base] + mutations:
            got = eval_spec(motorway_spec, Lod(0.0, 0.0, 0.0, values))
            assert got is (Verdict.TRUE if oracle(*values) else Verdict.FALSE), values
        assert eval_spec(motorway_spec, Lod(0.0, 0.0, 0.0, base)) is Verdict.TRUE
        for values in mutations:
            assert eval_spec(motorway_spec, Lod(0.0, 0.0, 0.0, values)) is Verdict.FALSE


def test_criterion_3_membership_biconditional_exhaustive():
    with criterion(3, "verdict-True iff tuple enumerated, 220 specs, zero counterexamples"):
        rng = random.Random(0xA11CE)
        specs_checked = 0
        for taxonomy in SPEC_FAMILY:
            orders = label_orders_of(taxonomy)
            domain = list(enumerate_od(taxonomy))
            for _ in range(20):
                ast = random_spec(rng, taxonomy, 6)
                spec = check_spec(ast, taxonomy)
                enumerated = set(enumerate_odd(taxonomy, spec))
                oracle_set = {
                    values
                    for values in domain
                    if eval_two_valued(ast, assignment_of(taxonomy, values), orders)
                }
                assert enumerated == oracle_set, taxonomy.version
                for values in domain:
                    verdict = eval_spec(spec, Lod(0.0, 0.0, 0.0, values))
                    assert (verdict is Verdict.TRUE) == (values in enumerated)
                specs_checked += 1
        assert specs_checked >= 200


def test_criterion_4_kleene_completion_property():
    with criterion(4, "decided verdicts on partial samples survive every completion"):
        rng = random.Random(0xB0B)
        for taxonomy in SPEC_FAMILY:
            spaces = [list(space_of(a)) for a in taxonomy.attributes]
            orders = label_orders_of(taxonomy)
            for _ in range(4):
                ast = random_spec(rng, taxonomy, 6)
                spec = check_spec(ast, taxonomy)
                for partial in itertools.product(*[s + [UNKNOWN] for s in spaces]):
                    verdict = eval_spec(spec, Lod(0.0, 0.0, 0.0, partial))
                    if verdict is Verdict.UNKNOWN:
                        continue
                    expected = verdict is Verdict.TRUE
                    completions = itertools.product(
                        *[
                            [value] if value is not UNKNOWN else space
                            for value, space in zip(partial, spaces)
                        ]
                    )
                    for completion in completions:
                        classical = eval_two_valued(
                            ast, assignment_of(taxonomy, completion), orders
                        )
                        assert classical == expected, (taxonomy.version, partial)


def test_criterion_5_permissive_assumption_invariance():
    with criterion(5, "unmentioned attribute values never change a verdict (1000+ cases)"):
        rng = random.Random(0x5EED)
        comparisons = 0
        candidates = [t for t in SPEC_FAMILY if len(t) >= 2]
        while comparisons < 1000:
            taxonomy = rng.choice(candidates)
            mentioned_count = rng.randrange(1, len(taxonomy))
            mentioned_slice = Taxonomy(
                taxonomy.attributes[:mentioned_count], version=taxonomy.version
            )
            spec = check_spec(random_spec(rng, mentioned_slice, 5), taxonomy)
            spaces = [list(space_of(a)) for a in taxonomy.attributes]
            shared = [rng.choice(space + [UNKNOWN]) for space in spaces]
            verdicts = set()
            for _ in range(4):
                values = [
                    shared[i]
                    if taxonomy.attributes[i].name in spec.mentioned_attributes
                    else rng.choice(spaces[i] + [UNKNOWN])
                    for i in range(len(taxonomy))
                ]
                verdicts.add(eval_spec(spec, Lod(0.0, 0.0, 0.0, tuple(values))))
                comparisons += 1
            assert len(verdicts) == 1
        assert comparisons >= 1000


def test_criterion_6_serializer_round_trip_corpus():
    with criterion(6, "parse/serialize identity on 1000 generated trees"):
        def structurally_equal(left, right):
            from oddspec import And, Not

            if isinstance(left, Atom) and isinstance(right, Atom):
                return left == right and type(left.literal) is type(right.literal)
            if isinstance(left, Not) and isinstance(right, Not):
                return structurally_equal(left.operand, right.operand)
            if isinstance(left, And) and isinstance(right, And):
                return structurally_equal(left.left, right.left) and structurally_equal(
                    left.right, right.right
                )
            return False

        rng = random.Random(0xCAFE)
        for _ in range(1000):
            ast = random_free_ast(rng)
            text = serialize_spec(ast)
            reparsed = parse_spec(text)
            assert structurally_equal(reparsed, ast), text
            assert serialize_spec(reparsed) == text, text


def test_criterion_7_monitor_state_machine_against_oracle():
    with criterion(7, "22 oracle traces reproduce events, counters, and dwell"):
        transitions_seen = set()
        first_samples_seen = set()
        assert len(ORACLE_FIXTURES) >= 20
        for letters in ORACLE_FIXTURES:
            first_samples_seen.add(letters[0])
            transitions_seen.update(
                (a, b) for a, b in zip(letters, letters[1:]) if a != b
            )
            rng = random.Random(letters)
            times = []
            t = rng.uniform(0.0, 3.0)
            for _ in letters:
                times.append(t)
                t += rng.choice([0.1, 0.3, 0.5, 1.0, 2.25])
            report = run_letters(letters, times)
            expected = simulate_monitor(list(zip(times, letters)))
            assert events_as_tuples(report) == expected["events"]
            assert report.samples_in == expected["counts"]["T"]
            assert report.samples_out == expected["counts"]["F"]
            assert report.samples_unknown == expected["counts"]["U"]
            assert report.dwell_in_s == expected["dwell"]["T"]
            assert report.dwell_out_s == expected["dwell"]["F"]
            assert report.dwell_unknown_s == expected["dwell"]["U"]
            if len(letters) >= 2:
                elapsed = times[-1] - times[0]
                total = report.dwell_in_s + report.dwell_out_s + report.dwell_unknown_s
                # accumulation error bound: one ulp per interval addition
                assert abs(total - elapsed) <= len(letters) * math.ulp(max(elapsed, 1.0))
        # the fixtures must cover all six transitions and all first verdicts
        assert transitions_seen == {
            ("T", "F"), ("T", "U"), ("F", "T"), ("F", "U"), ("U", "T"), ("U", "F"),
        }
        assert first_samples_seen == {"T", "F", "U"}


def test_criterion_8_predicate_applicability(motorway_taxonomy):
    with criterion(8, "order on unordered enum rejected, on ordered enum accepted"):
        with pytest.raises(PredicateNotApplicableError):
            check_spec(parse_spec("road_type > motorway"), motorway_taxonomy)
        ordered = Taxonomy(
            (motorway_taxonomy.attributes[0].__class__(
                "road_type",
                EnumType(("motorway", "regional", "rural"), ordered=True),
            ),),
            version="ordered",
        )
        spec = check_spec(parse_spec("road_type > motorway"), ordered)
        assert atoms(spec.ast) == [Atom("road_type", Predicate.GT, "motorway")]
        inside = set(enumerate_odd(ordered, spec))
        assert inside == {("regional",), ("rural",)}


def test_criterion_9_cli_golden_fixtures():
    with criterion(9, "five commands byte-stable against golden stdout and exit codes"):
        taxonomy = str(DATA / "taxonomy_motorway.json")
        finite = str(DATA / "taxonomy_finite.json")
        spec = str(DATA / "motorway.spec")
        cases = [
            (["validate", "--taxonomy", taxonomy], "validate.txt", 0),
            (["check", "--taxonomy", taxonomy, "--spec", spec], "check.txt", 0),
            (
                ["eval", "--taxonomy", taxonomy, "--spec", spec,
                 "--lod", str(DATA / "lod_out.json")],
                "eval.txt",
                0,
            ),
            (["enumerate", "--taxonomy", finite], "enumerate_od.txt", 0),
            (
                ["enumerate", "--taxonomy", finite, "--spec", str(DATA / "finite.spec")],
                "enumerate_odd.txt",
                0,
            ),
            (
                ["monitor", "--taxonomy", taxonomy, "--spec", spec,
                 "--trace", str(DATA / "flip.trace")],
                "monitor.txt",
                0,
            ),
            (
                ["monitor", "--taxonomy", taxonomy, "--spec", spec,
                 "--trace", str(DATA / "flip.trace"), "--fail-on-exit"],
                "monitor.txt",
                3,
            ),
        ]
        for argv, golden, expected_code in cases:
            result = subprocess.run(
                [sys.executable, "-m", "oddspec", *argv],
                capture_output=True,
                text=True,
            )
            assert result.returncode == expected_code, argv
            assert result.stdout == (GOLDEN / golden).read_text(), argv
