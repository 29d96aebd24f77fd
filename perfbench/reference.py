"""Expected outputs, computed without oddspec.evaluator or oddspec.monitor.

Verdicts come from the two-valued oracle in tests/oracles.py, extended to
strong Kleene logic for unmeasured attributes; events come from its
transition-table monitor simulation. Only the spec parser and serializer
of the package are used, to get the AST and the atom texts the report
names. Every function here runs outside the benchmark's timed regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import repo

repo.add_to_path()

from oddspec import And, Atom, Not, Taxonomy, parse_spec, serialize_spec  # noqa: E402
from oracles import (  # noqa: E402
    eval_two_valued,
    label_orders_of,
    nested_loop_od,
    simulate_monitor,
)

_LETTER = {True: "T", False: "F", None: "U"}
VERDICT_OF_LETTER = {"T": "true", "F": "false", "U": "unknown"}


def kleene(node, values: dict, orders: dict):
    """True, False, or None (unknown) for an AST over a partial assignment;
    `values` maps every attribute name to its value or None."""
    if isinstance(node, Not):
        inner = kleene(node.operand, values, orders)
        return None if inner is None else not inner
    if isinstance(node, And):
        left = kleene(node.left, values, orders)
        right = kleene(node.right, values, orders)
        if left is False or right is False:
            return False
        return True if left and right else None
    if values[node.attribute_name] is None:
        return None
    return eval_two_valued(node, values, orders)


def positive_atoms(ast) -> list[Atom]:
    """Distinct atoms with at least one occurrence under an even number of
    negations, in first-occurrence order."""
    found: dict[Atom, None] = {}

    def visit(node, negations: int) -> None:
        if isinstance(node, Atom):
            if negations % 2 == 0:
                found.setdefault(node, None)
        elif isinstance(node, Not):
            visit(node.operand, negations + 1)
        else:
            visit(node.left, negations)
            visit(node.right, negations)

    visit(ast, 0)
    return list(found)


def depth(node) -> int:
    if isinstance(node, Atom):
        return 1
    if isinstance(node, Not):
        return 1 + depth(node.operand)
    return 1 + max(depth(node.left), depth(node.right))


@dataclass(frozen=True)
class ExpectedDrive:
    """What a monitor must report for one drive."""

    times: list[float]
    verdicts: list[str]
    events: list[tuple[str, float, int]]
    counts: dict[str, int]
    atom_violations: dict[str, int]

    def lines(self) -> list[str]:
        """The CLI's per-sample output; `repr` of a 10 Hz timestamp is the
        positional decimal the CLI renders."""
        return [f"t={t!r} verdict={v}" for t, v in zip(self.times, self.verdicts)]

    def properties(self) -> dict:
        total = self.counts["total"]
        return {
            "samples": total,
            "in_share": self.counts["in"] / total,
            "out_share": self.counts["out"] / total,
            "unknown_share": self.counts["unknown"] / total,
            "events": len(self.events),
            "events_per_ksample": 1000 * len(self.events) / total,
        }


def expected_drive(taxonomy: Taxonomy, spec_text: str, rows: list[dict],
                   times: list[float]) -> ExpectedDrive:
    ast = parse_spec(spec_text)
    orders = label_orders_of(taxonomy)
    names = taxonomy.names()
    blamable = positive_atoms(ast)
    violations = {atom: 0 for atom in blamable}
    timeline = []
    for t, row in zip(times, rows):
        values = {name: row.get(name) for name in names}
        timeline.append((t, _LETTER[kleene(ast, values, orders)]))
        for atom in blamable:
            if values[atom.attribute_name] is not None and not eval_two_valued(
                atom, values, orders
            ):
                violations[atom] += 1
    simulated = simulate_monitor(timeline)
    letters = simulated["counts"]
    return ExpectedDrive(
        times=list(times),
        verdicts=[VERDICT_OF_LETTER[letter] for _, letter in timeline],
        events=simulated["events"],
        counts={
            "total": len(timeline),
            "in": letters["T"],
            "out": letters["F"],
            "unknown": letters["U"],
        },
        atom_violations={
            serialize_spec(atom): count for atom, count in violations.items() if count
        },
    )


def drive_mismatches(expected: ExpectedDrive, verdicts: list[str], events: list[tuple],
                     counts: dict, atom_violations: dict) -> list[str]:
    """Differences between a monitor's output and the reference; empty when
    they agree."""
    problems = []
    if verdicts != expected.verdicts:
        problems.append(_first_difference("verdict", verdicts, expected.verdicts))
    if events != expected.events:
        problems.append(_first_difference("event", events, expected.events))
    if counts != expected.counts:
        problems.append(f"counts {counts} != {expected.counts}")
    if atom_violations != expected.atom_violations:
        problems.append(f"atom_violations {atom_violations} != {expected.atom_violations}")
    return problems


def cli_drive_mismatches(expected: ExpectedDrive, stdout: str, report: dict) -> list[str]:
    """Check `oddspec monitor` output: its verdict lines byte for byte, and
    the events, counts and atom violations of its JSON report."""
    lines = stdout.splitlines()
    problems = []
    if lines != expected.lines():
        problems.append(_first_difference("verdict line", lines, expected.lines()))
    events = [(e["kind"], e["t"], e["index"]) for e in report["events"]]
    problems += drive_mismatches(
        expected, expected.verdicts, events, report["samples"], report["atom_violations"]
    )
    return problems


def _first_difference(what: str, seen: list, wanted: list) -> str:
    for index, (a, b) in enumerate(zip(seen, wanted)):
        if a != b:
            return f"{what} {index}: {a!r} != {b!r}"
    return f"{len(seen)} {what}s != {len(wanted)}"


def render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def expected_odd(taxonomy: Taxonomy, spec_text: str) -> list[tuple]:
    """Admitted tuples in enumeration order, by nested loops and the
    two-valued oracle."""
    ast = parse_spec(spec_text)
    orders = label_orders_of(taxonomy)
    names = taxonomy.names()
    return [
        values
        for values in nested_loop_od(taxonomy)
        if eval_two_valued(ast, dict(zip(names, values)), orders)
    ]


def odd_lines(admitted: list[tuple]) -> list[str]:
    """The `oddspec enumerate --spec` output for these tuples."""
    return [",".join(render(v) for v in values) for values in admitted]


def odd_mismatches(expected: list, seen: list) -> list[str]:
    """Differences between enumeration output (tuples or lines) and the
    reference; the order must match too."""
    if seen == expected:
        return []
    return [_first_difference("tuple", seen, expected)]
