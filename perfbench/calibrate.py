"""A fixed yardstick for the host's speed.

The benchmark shares a few cores of a host with other tenants, and the
host's speed shifts by up to a third, for seconds and for minutes at a
time, in CPU time as much as in wall time. A run therefore times this
routine between its operations and scales each operation's time to a
host on which the routine takes `REFERENCE_S`. The routine is
benchmark code that no change to `src/` touches, and it does the kind of
interpreter work the package does (small objects, recursive evaluation,
dict lookups, string formatting, JSON), so a change to the package moves
the scaled times as much as the raw ones, while the host's shifts move
both the routine and the operations and cancel out.
"""

from __future__ import annotations

import json
import statistics
import time

REFERENCE_S = 0.25
ROUNDS = 6_000
CHECKSUM = 1_111_059

NAMES = [f"attribute_{k}" for k in range(12)]


class Node:
    __slots__ = ("op", "children", "name", "limit")

    def __init__(self, op: str, children: tuple = (), name: str = "", limit: int = 0):
        self.op, self.children, self.name, self.limit = op, children, name, limit


def _tree(depth: int, index: int) -> Node:
    if depth == 0:
        return Node("atom", name=NAMES[index % len(NAMES)], limit=index % 5 + 1)
    children = tuple(_tree(depth - 1, index * 3 + k) for k in range(3))
    return Node(("and", "or", "not-or")[depth % 3], children)


TREE = _tree(4, 1)


def _eval(node: Node, env: dict[str, int | None]) -> bool | None:
    """Strong Kleene logic over atoms `env[name] >= limit`; None is unknown."""
    if node.op == "atom":
        value = env.get(node.name)
        return None if value is None else value >= node.limit
    results = [_eval(child, env) for child in node.children]
    if node.op == "and":
        return False if False in results else (None if None in results else True)
    verdict = True if True in results else (None if None in results else False)
    if node.op == "not-or" and verdict is not None:
        return not verdict
    return verdict


def routine() -> int:
    """The fixed work; returns CHECKSUM."""
    total = 0
    for i in range(ROUNDS):
        env = {name: (None if (i + k) % 17 == 0 else (i * k) % 7)
               for k, name in enumerate(NAMES)}
        verdict = _eval(TREE, env)
        line = ",".join(f"{name}={value}" for name, value in env.items())
        record = json.loads(json.dumps({"t": i / 10, "values": env, "verdict": verdict}))
        total += len(line) + len(record["values"]) + {True: 1, False: 2, None: 3}[verdict]
    return total


def seconds() -> float:
    """Wall time of one routine call."""
    start = time.perf_counter()
    routine()
    return time.perf_counter() - start


class Yardstick:
    """Times the routine once at the start and once after every operation.
    An operation's scale is REFERENCE_S over the mean of the two timings
    around it; multiplying its times by the scale gives the times of a
    host on which the routine takes REFERENCE_S."""

    def __init__(self) -> None:
        self.seconds = [seconds()]
        self.scales: list[float] = []

    def mark(self) -> float:
        """Time the routine after an operation; returns that operation's scale."""
        self.seconds.append(seconds())
        self.scales.append(REFERENCE_S / statistics.mean(self.seconds[-2:]))
        return self.scales[-1]
