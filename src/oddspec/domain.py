"""Domain samples: positional value tuples indexed by time and location.

A sample ("local operational domain") is one element of the product of all
attribute data types, observed at a time ``t`` and planar coordinates
``(x, y)``. Coordinates are carried verbatim in whatever fixed frame the
producer chose; no geodesy is performed here.

Sensors may fail to measure an attribute, so a position may hold the
``UNKNOWN`` sentinel instead of a concrete value. Unknown is distinct from
every domain value and from ``measured false``.

Trace files are line-delimited JSON, one sample per line::

    {"t": 12.5, "x": 8.4372, "y": 53.1435, "values": {"road_type": "motorway",
     "pedestrian_present": false, "operational_speed": 47.2}}

Keys missing from ``values``, or explicitly null, denote Unknown.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from .errors import InfiniteDomainError, LodError, TraceError
from .taxonomy import (
    Attribute,
    BoolType,
    EnumType,
    IntType,
    RealType,
    Taxonomy,
    domain_cardinality,
    value_in_domain,
)


class _Unknown:
    """Singleton sentinel for an unmeasured attribute value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = _Unknown()

AttributeValue = Union[str, bool, int, float, _Unknown]


def is_unknown(value: AttributeValue) -> bool:
    return value is UNKNOWN


@dataclass(frozen=True)
class Lod:
    """One domain sample: values in taxonomy attribute order."""

    t: float
    x: float
    y: float
    values: tuple[AttributeValue, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.t >= 0:
            raise LodError(f"time must be a non-negative number, got {self.t!r}")


@dataclass(frozen=True)
class Trace:
    """Samples strictly ordered by time, all laid out by one taxonomy."""

    taxonomy: Taxonomy
    samples: tuple[Lod, ...]
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        times = tuple(sample.t for sample in self.samples)
        for earlier, later in zip(times, times[1:]):
            if not later > earlier:
                raise TraceError(
                    f"timestamps must be strictly increasing: {later} after {earlier}"
                )
        object.__setattr__(self, "_times", times)

    def __len__(self) -> int:
        return len(self.samples)


def make_lod(
    taxonomy: Taxonomy,
    assignments: Mapping[str, AttributeValue],
    t: float = 0.0,
    x: float = 0.0,
    y: float = 0.0,
) -> Lod:
    """Build a sample from a name-to-value map.

    Attributes absent from the map (or mapped to ``UNKNOWN``/``None``)
    become Unknown. Integers are widened to floats for real attributes.
    The result does not depend on the map's iteration order.

    Raises:
        LodError: unknown attribute name, out-of-domain value, or t < 0.
    """
    values: list[AttributeValue] = [UNKNOWN] * len(taxonomy)
    for name, value in assignments.items():
        if name not in taxonomy:
            raise LodError(f"unknown attribute {name!r}")
        if value is UNKNOWN or value is None:
            continue
        attribute = taxonomy.attribute(name)
        if not value_in_domain(attribute, value):
            raise LodError(
                f"value {value!r} is outside the domain of attribute {name!r}"
            )
        if isinstance(attribute.attr_type, RealType):
            value = float(value)
        values[taxonomy.index_of(name)] = value
    return Lod(t=float(t), x=float(x), y=float(y), values=tuple(values))


def value_space(attribute: Attribute) -> tuple[AttributeValue, ...]:
    """All values of a finite attribute, in enumeration order.

    Enums enumerate in label declaration order, booleans as (true, false),
    bounded ints ascending.
    """
    kind = attribute.attr_type
    if isinstance(kind, EnumType):
        return kind.labels
    if isinstance(kind, BoolType):
        return (True, False)
    if isinstance(kind, IntType) and kind.minimum is not None and kind.maximum is not None:
        return tuple(range(kind.minimum, kind.maximum + 1))
    raise InfiniteDomainError(
        f"attribute {attribute.name!r} has an infinite data type; "
        f"an extensional enumeration does not exist"
    )


def enumerate_od(taxonomy: Taxonomy) -> Iterator[tuple[AttributeValue, ...]]:
    """Yield every element of the full operational domain exactly once.

    Order is lexicographic by attribute position, then by value order
    within each attribute. The empty taxonomy yields one empty tuple.

    Raises:
        InfiniteDomainError: if any attribute is real-valued or unbounded.
    """
    if math.isinf(domain_cardinality(taxonomy)):
        raise InfiniteDomainError(
            "the domain is infinite and cannot be enumerated; "
            "it can only be described"
        )
    spaces = [value_space(attribute) for attribute in taxonomy.attributes]
    return iter(itertools.product(*spaces))


_RECORD_KEYS = {"t", "x", "y", "values"}


def _parse_record(line: str, lineno: int, taxonomy: Taxonomy) -> Lod:
    def fail(message: str) -> TraceError:
        return TraceError(f"line {lineno}: {message}")

    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise fail(exc.msg) from exc
    if not isinstance(record, dict):
        raise fail("expected a JSON object")
    missing = _RECORD_KEYS - set(record)
    if missing:
        raise fail(f"missing keys {sorted(missing)}")
    extra = set(record) - _RECORD_KEYS
    if extra:
        raise fail(f"unexpected keys {sorted(extra)}")
    for key in ("t", "x", "y"):
        raw = record[key]
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not math.isfinite(raw):
            raise fail(f"{key!r} must be a finite number, got {raw!r}")
    if not isinstance(record["values"], dict):
        raise fail("'values' must be an object")
    assignments = {
        name: (UNKNOWN if value is None else value)
        for name, value in record["values"].items()
    }
    try:
        return make_lod(taxonomy, assignments, t=record["t"], x=record["x"], y=record["y"])
    except LodError as exc:
        raise fail(str(exc)) from exc


def parse_lod(text: str, taxonomy: Taxonomy) -> Lod:
    """Parse a single sample record (same shape as one trace line)."""
    return _parse_record(text, 1, taxonomy)


def parse_trace(stream: Union[str, Iterable[str]], taxonomy: Taxonomy) -> Trace:
    """Parse a line-delimited trace document; blank lines are ignored.

    Raises:
        TraceError: malformed line (with line number), unknown attribute
            key, out-of-domain value, or non-increasing timestamps.
    """
    lines = stream.splitlines() if isinstance(stream, str) else stream
    samples: list[Lod] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        sample = _parse_record(line, lineno, taxonomy)
        if samples and not sample.t > samples[-1].t:
            raise TraceError(
                f"line {lineno}: timestamp {sample.t} does not increase past "
                f"{samples[-1].t}"
            )
        samples.append(sample)
    return Trace(taxonomy=taxonomy, samples=tuple(samples))


def serialize_trace(trace: Trace, taxonomy: Taxonomy) -> str:
    """Render a trace back to line-delimited JSON; Unknowns are omitted."""
    lines = []
    for sample in trace.samples:
        values = {
            attribute.name: sample.values[i]
            for i, attribute in enumerate(taxonomy.attributes)
            if sample.values[i] is not UNKNOWN
        }
        record = {"t": sample.t, "x": sample.x, "y": sample.y, "values": values}
        lines.append(json.dumps(record))
    return "\n".join(lines) + ("\n" if lines else "")


def cod_of(trace: Trace, now: float) -> Lod:
    """Sample-and-hold lookup: the sample with the greatest t <= now.

    Raises:
        TraceError: empty trace, or ``now`` precedes the first sample.
    """
    if not trace.samples:
        raise TraceError("trace has no samples")
    position = bisect_right(trace._times, now)
    if position == 0:
        raise TraceError(
            f"time {now} precedes the first sample at t={trace.samples[0].t}"
        )
    return trace.samples[position - 1]
