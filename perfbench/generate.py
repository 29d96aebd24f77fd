"""Seeded, stdlib-only inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical taxonomy, spec and trace text. The shape of every input
(attribute set, atom count, nesting, trace length, domain size) is fixed,
and the seed only picks literals and drives the random walks, so the cost
of a workload barely depends on which seed a run uses.
"""

from __future__ import annotations

import json
import random

# ---------------------------------------------------------------------------
# The 12-attribute drive taxonomy shared by drive-cli and online-step. It has
# every attribute type (enum, ordered enum, bool, bounded int, real with a
# unit), so every branch of eval_atom and value_in_domain runs.
# ---------------------------------------------------------------------------

ROADS = ["motorway", "trunk", "regional", "rural", "urban"]
WEATHER = ["clear", "cloudy", "rain", "snow", "fog"]
VISIBILITY = ["poor", "limited", "moderate", "good", "excellent"]
TRAFFIC = ["free", "light", "moderate", "dense", "jammed"]

DRIVE_ATTRIBUTES = [
    {"name": "road_type", "type": "enum", "labels": ROADS},
    {"name": "weather", "type": "enum", "labels": WEATHER},
    {"name": "visibility", "type": "enum", "labels": VISIBILITY, "ordered": True},
    {"name": "traffic", "type": "enum", "labels": TRAFFIC, "ordered": True},
    {"name": "pedestrian_present", "type": "bool"},
    {"name": "construction_zone", "type": "bool"},
    {"name": "lane_markings", "type": "bool"},
    {"name": "lane_count", "type": "int", "min": 1, "max": 6},
    {"name": "speed_limit", "type": "int", "unit": "kmh", "min": 30, "max": 130},
    {"name": "operational_speed", "type": "real", "unit": "kmh", "min": 0.0, "max": 250.0},
    {"name": "road_friction", "type": "real", "unit": "mu", "min": 0.0, "max": 1.0},
    {"name": "gradient", "type": "real", "unit": "pct", "min": -15.0, "max": 15.0},
]

# Real attributes: (step of the random walk, grid of spec literals).
_REALS = {
    "operational_speed": (1.5, [float(v) for v in range(40, 165, 5)]),
    "road_friction": (0.01, [v / 20 for v in range(4, 19)]),
    "gradient": (0.2, [float(v) for v in range(-8, 9)]),
}
_UNITS = {
    "speed_limit": "kmh", "operational_speed": "kmh", "road_friction": "mu", "gradient": "pct",
}

DRIVE_SAMPLES = 10_000
DRIVE_DROPOUT_SHARE = 0.02
ONLINE_STEPS = 4_000
ONLINE_DROPOUT_SHARE = 0.20
ONLINE_ATOMS = 40


def taxonomy_text(attributes: list[dict], version: str) -> str:
    return json.dumps({"version": version, "attributes": attributes}, indent=2) + "\n"


def _literal(name: str, value) -> str:
    if isinstance(value, bool):
        text = "true" if value else "false"
    elif isinstance(value, float):
        text = repr(value)
    else:
        text = str(value)
    unit = _UNITS.get(name)
    return f"{text} {unit}" if unit else text


# ---------------------------------------------------------------------------
# drive-cli: a moderate motorway-pilot spec and a long drive that is mostly
# inside it, with excursions and short sensor dropouts.
# ---------------------------------------------------------------------------


def drive_params(seed: int) -> dict:
    rng = random.Random(f"drive-spec:{seed}")
    return {
        "weather": rng.sample(WEATHER[:3], 2),
        "visibility": rng.choice(["limited", "moderate"]),
        "speed_limit": rng.choice([60, 70, 80]),
        "max_speed": rng.choice([110.0, 120.0, 130.0]),
    }


def drive_spec_text(params: dict) -> str:
    """Eight atoms, one `or`, one `not`, over every attribute type."""
    w1, w2 = params["weather"]
    return (
        "# motorway pilot envelope\n"
        "road_type == motorway\n"
        "and not construction_zone == true\n"
        "and pedestrian_present == false\n"
        f"and (weather == {w1} or weather == {w2})\n"
        f"and visibility >= {params['visibility']}\n"
        f"and speed_limit >= {_literal('speed_limit', params['speed_limit'])}\n"
        f"and operational_speed < {_literal('operational_speed', params['max_speed'])}\n"
    )


# Each excursion breaks one constraint of the drive spec for a while.
def _excursion_value(kind: str, params: dict, rng: random.Random):
    if kind == "road_type":
        return rng.choice(ROADS[1:])
    if kind in ("construction_zone", "pedestrian_present"):
        return True
    if kind == "weather":
        return rng.choice([w for w in WEATHER if w not in params["weather"]])
    if kind == "visibility":
        return VISIBILITY[VISIBILITY.index(params["visibility"]) - 1]
    if kind == "speed_limit":
        return params["speed_limit"] - 10
    # operational_speed; exactly at the limit is outside, since `<` is strict
    over = round(params["max_speed"] + rng.uniform(1.0, 15.0), 2)
    return rng.choice([params["max_speed"], over])


_EXCURSION_KINDS = [
    "road_type", "construction_zone", "pedestrian_present", "weather",
    "visibility", "speed_limit", "operational_speed",
]


def _walk(value: float, name: str, rng: random.Random, low: float, high: float) -> float:
    step, _ = _REALS[name]
    return round(min(high, max(low, value + rng.uniform(-step, step))), 2)


def drive_rows(params: dict, seed: int, count: int = DRIVE_SAMPLES) -> list[dict]:
    """Sample value dicts (taxonomy order) of a drive that stays inside the
    spec except during excursions; dropouts are applied afterwards."""
    rng = random.Random(f"drive-trace:{seed}")
    state = {
        "road_type": "motorway",
        "weather": params["weather"][0],
        "visibility": "good",
        "traffic": "light",
        "pedestrian_present": False,
        "construction_zone": False,
        "lane_markings": True,
        "lane_count": 3,
        "speed_limit": 120,
        "operational_speed": params["max_speed"] - 25.0,
        "road_friction": 0.7,
        "gradient": 0.0,
    }
    inside_low = params["visibility"]
    excursion_kind, excursion_left, excursion_value = None, 0, None
    rows = []
    for _ in range(count):
        # slow changes that keep the vehicle inside
        if rng.random() < 0.01:
            state["weather"] = rng.choice(params["weather"])
        if rng.random() < 0.01:
            state["visibility"] = rng.choice(VISIBILITY[VISIBILITY.index(inside_low):])
        if rng.random() < 0.02:
            state["traffic"] = rng.choice(TRAFFIC)
        if rng.random() < 0.01:
            state["lane_markings"] = rng.random() < 0.9
        if rng.random() < 0.005:
            state["lane_count"] = rng.randint(2, 5)
        if rng.random() < 0.005:
            state["speed_limit"] = rng.choice(
                [v for v in (80, 100, 120, 130) if v >= params["speed_limit"]]
            )
        state["operational_speed"] = _walk(
            state["operational_speed"], "operational_speed", rng, 60.0, params["max_speed"] - 2.0
        )
        state["road_friction"] = _walk(
            state["road_friction"], "road_friction", rng, 0.3, 0.95
        )
        state["gradient"] = _walk(state["gradient"], "gradient", rng, -6.0, 6.0)

        if excursion_left == 0 and rng.random() < 1 / 400:
            excursion_kind = rng.choice(_EXCURSION_KINDS)
            excursion_left = rng.randint(20, 80)
            excursion_value = _excursion_value(excursion_kind, params, rng)
        row = dict(state)
        if excursion_left:
            row[excursion_kind] = excursion_value
            excursion_left -= 1
        rows.append(row)
    _apply_dropouts(rows, DRIVE_DROPOUT_SHARE, 3, 8, rng)
    return rows


def _apply_dropouts(rows: list[dict], share: float, shortest: int, longest: int,
                    rng: random.Random) -> None:
    """Unmeasure one attribute over short episodes covering about `share`
    of the samples. Half the dropouts omit the key, half write null."""
    names = [a["name"] for a in DRIVE_ATTRIBUTES]
    start_probability = share / (1 - share) / ((shortest + longest) / 2)
    index = 0
    while index < len(rows):
        if rng.random() < start_probability:
            name = rng.choice(names)
            length = rng.randint(shortest, longest)
            omit = rng.random() < 0.5
            for row in rows[index:index + length]:
                if omit:
                    del row[name]
                else:
                    row[name] = None
            index += length
        else:
            index += 1


def sample_time(index: int) -> float:
    """10 Hz timestamps; i / 10 is the nearest double to the decimal, so its
    repr is the short decimal the CLI prints."""
    return index / 10


def trace_text(rows: list[dict]) -> str:
    lines = []
    for index, values in enumerate(rows):
        record = {
            "t": sample_time(index),
            "x": round(8.4 + index * 1e-4, 6),
            "y": round(53.1 + index * 5e-5, 6),
            "values": values,
        }
        lines.append(json.dumps(record))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# online-step: a wide spec (40 distinct atoms, `or`/`not` at every level)
# and free random-walk sensor dicts with long dropout episodes.
# ---------------------------------------------------------------------------


def _random_atom(rng: random.Random, attribute: dict) -> str:
    name, kind = attribute["name"], attribute["type"]
    if kind == "bool":
        return f"{name} == {_literal(name, rng.random() < 0.5)}"
    if kind == "enum" and not attribute.get("ordered"):
        return f"{name} == {rng.choice(attribute['labels'])}"
    if kind == "enum":
        op = rng.choice(["==", "<", ">", "<=", ">="])
        return f"{name} {op} {rng.choice(attribute['labels'][1:-1])}"
    if kind == "int":
        op = rng.choice(["==", "<", ">", "<=", ">="])
        value = rng.randint(attribute["min"] + 1, attribute["max"] - 1)
        if name == "speed_limit":
            value = rng.choice(range(40, 130, 10))
        return f"{name} {op} {_literal(name, value)}"
    op = rng.choice(["<", ">", "<=", ">="])  # no exact equality on reals
    return f"{name} {op} {_literal(name, rng.choice(_REALS[name][1]))}"


def _formula(leaves: int, depth: int, atoms: list[str]) -> str:
    """A fixed shape over `leaves` atoms: binary splits, connectives
    alternating `and`/`or` by depth, the right child of every `and` negated."""
    if leaves == 1:
        return atoms.pop()
    left_count = (leaves + 1) // 2
    left = _formula(left_count, depth + 1, atoms)
    right = _formula(leaves - left_count, depth + 1, atoms)
    if left_count > 1:
        left = f"({left})"
    if leaves - left_count > 1:
        right = f"({right})"
    if depth % 2 == 0:
        return f"{left} and not {right}"
    return f"{left} or {right}"


# The attribute of each of the 40 leaves is fixed, so that the seed changes
# literals and predicates but not how much each leaf costs to evaluate.
_ONLINE_LEAVES = [
    DRIVE_ATTRIBUTES[i]
    for i in (0, 9, 2, 7, 4, 1, 10, 3, 8, 11, 5, 0, 9, 2, 7, 1, 10, 3, 8, 6,
              0, 9, 2, 7, 4, 1, 10, 3, 8, 11, 5, 0, 9, 2, 7, 1, 11, 3, 8, 6)
]


def online_spec_text(seed: int, episode: int = 0) -> str:
    rng = random.Random(f"online-spec:{seed}:{episode}")
    atoms: list[str] = []
    for attribute in _ONLINE_LEAVES:
        atom = _random_atom(rng, attribute)
        while atom in atoms:
            atom = _random_atom(rng, attribute)
        atoms.append(atom)
    return "# wide in-vehicle spec\n" + _formula(ONLINE_ATOMS, 1, atoms) + "\n"


def online_rows(seed: int, episode: int, count: int = ONLINE_STEPS) -> list[dict]:
    """Sensor dicts of one drive: every attribute drifts on its own."""
    rng = random.Random(f"online-rows:{seed}:{episode}")
    state = {}
    for attribute in DRIVE_ATTRIBUTES:
        name, kind = attribute["name"], attribute["type"]
        if kind == "enum":
            state[name] = rng.choice(attribute["labels"])
        elif kind == "bool":
            state[name] = rng.random() < 0.5
        elif kind == "int":
            state[name] = rng.randint(attribute["min"], attribute["max"])
        else:
            state[name] = rng.choice(_REALS[name][1])
    rows = []
    for _ in range(count):
        for attribute in DRIVE_ATTRIBUTES:
            name, kind = attribute["name"], attribute["type"]
            if kind == "real":
                grid = _REALS[name][1]
                state[name] = _walk(state[name], name, rng, min(grid), max(grid))
            elif rng.random() < 0.01:
                if kind == "enum":
                    state[name] = rng.choice(attribute["labels"])
                elif kind == "bool":
                    state[name] = not state[name]
                else:
                    state[name] = rng.randint(attribute["min"], attribute["max"])
        rows.append(dict(state))
    _apply_dropouts(rows, ONLINE_DROPOUT_SHARE, 10, 40, rng)
    return rows


# ---------------------------------------------------------------------------
# enumerate-odd: a finite 10-attribute taxonomy of 120,000 tuples and a
# selective spec (2.88% admitted) that constrains the early attributes.
# ---------------------------------------------------------------------------

FINITE_ATTRIBUTES = [
    {"name": "road_type", "type": "enum", "labels": ROADS},
    {"name": "weather", "type": "enum", "labels": WEATHER},
    {"name": "visibility", "type": "enum", "labels": VISIBILITY, "ordered": True},
    {"name": "traffic", "type": "enum", "labels": TRAFFIC, "ordered": True},
    {"name": "construction_zone", "type": "bool"},
    {"name": "pedestrian_present", "type": "bool"},
    {"name": "lane_markings", "type": "bool"},
    {"name": "lane_count", "type": "int", "min": 1, "max": 4},
    {"name": "speed_band", "type": "int", "min": 1, "max": 3},
    {"name": "daylight", "type": "enum", "labels": ["day", "night"]},
]


def enumerate_spec_text(seed: int) -> str:
    """Admits 2/5 roads x 2/5 weathers x 3/5 visibilities x 3/5 traffic
    levels x 1/2 of construction_zone, whatever the seed."""
    rng = random.Random(f"enumerate-spec:{seed}")
    r1, r2 = rng.sample(ROADS, 2)
    w1, w2 = rng.sample(WEATHER, 2)
    visibility = rng.choice([">=", "<="])
    traffic = rng.choice([">=", "<="])
    return (
        f"(road_type == {r1} or road_type == {r2})\n"
        f"and (weather == {w1} or weather == {w2})\n"
        f"and visibility {visibility} moderate\n"
        f"and traffic {traffic} moderate\n"
        "and not construction_zone == true\n"
    )
