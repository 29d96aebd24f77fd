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

import io
import json
import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import pairwise
from operator import attrgetter

from .errors import InfiniteDomainError, LodError, TraceError
from .taxonomy import (
    _FLOAT_MAX,
    _REJECT,
    Attribute,
    BoolType,
    EnumType,
    Taxonomy,
    _shown,
    _type_cardinality,
    domain_cardinality,
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

AttributeValue = str | bool | int | float | _Unknown


@dataclass(frozen=True, slots=True, init=False)
class Lod:
    """One domain sample: values in taxonomy attribute order, at time ``t``
    and place ``(x, y)``. Every way of building a sample ends in this check
    of ``t``, ``x`` and ``y``: each is an int or float (not a bool) no larger
    in magnitude than the largest float, and ``t`` is not negative. Each is
    stored as a float."""

    t: float
    x: float
    y: float
    values: tuple[AttributeValue, ...]

    def __init__(self, t: float, x: float, y: float, values: Iterable[AttributeValue]):
        if type(values) is not tuple:
            values = tuple(values)
        if type(t) is not float or not 0 <= t <= _FLOAT_MAX:
            t = _number("time", t)
        if type(x) is not float or not abs(x) <= _FLOAT_MAX:
            x = _number("'x'", x)
        if type(y) is not float or not abs(y) <= _FLOAT_MAX:
            y = _number("'y'", y)
        # written through the slots, past the frozen __setattr__, which
        # would cost a call per field
        _set_t(self, t)
        _set_x(self, x)
        _set_y(self, y)
        _set_values(self, values)


_set_t = Lod.__dict__["t"].__set__
_set_x = Lod.__dict__["x"].__set__
_set_y = Lod.__dict__["y"].__set__
_set_values = Lod.__dict__["values"].__set__


def _number(name: str, value) -> float:
    """``Lod``'s check of a time or coordinate; a refusal calls it ``name``."""
    if not isinstance(value, bool) and (
        isinstance(value, float) or isinstance(value, int) and abs(value) <= _FLOAT_MAX
    ):
        value = float(value)
        if name == "time" and not value >= 0:  # also true for a NaN time
            raise LodError(f"time must be a non-negative number, got {value!r}")
        if abs(value) <= _FLOAT_MAX:
            return value
    raise LodError(f"{name} must be a finite number, got {_shown(value)}")


@dataclass(frozen=True)
class Trace:
    """Samples strictly ordered by time, all laid out by one taxonomy."""

    taxonomy: Taxonomy
    samples: tuple[Lod, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        for earlier, later in pairwise(self.samples):
            if not later.t > earlier.t:
                raise TraceError(
                    f"timestamps must be strictly increasing: {later.t} after {earlier.t}"
                )

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
    The result does not depend on the map's iteration order; a refusal
    names the first bad entry in it.

    A value of exactly its attribute's type (``str``, ``bool``, ``int`` or
    ``float``) that lies in the labels or bounds its type folded is stored
    as it is, with no call. Every other value goes through the type's
    ``_accept``, the general rule.

    Raises:
        LodError: unknown attribute name, out-of-domain value, or a time or
            coordinate that ``Lod`` refuses.
    """
    decoder = taxonomy._index
    values: list[AttributeValue] = [UNKNOWN] * len(decoder)
    for name, value in assignments.items():
        try:
            position, exact, labels, low, high, accept = decoder[name]
        except KeyError:
            raise LodError(f"unknown attribute {name!r}") from None
        if type(value) is exact and (low <= value <= high if labels is None else value in labels):
            values[position] = value
            continue
        if value is UNKNOWN or value is None:
            continue
        stored = accept(value)
        if stored is _REJECT:
            raise LodError(
                f"value {_shown(value)} is outside the domain of attribute {name!r}"
            )
        values[position] = stored
    return Lod(t, x, y, tuple(values))


def value_space(attribute: Attribute) -> Sequence[AttributeValue]:
    """All values of a finite attribute, in enumeration order.

    Enums enumerate in label declaration order, booleans as (true, false),
    bounded ints ascending, as a ``range`` that holds no value in memory.
    A real or unbounded attribute raises ``InfiniteDomainError``.
    """
    kind = attribute.attr_type
    if _type_cardinality(kind) == math.inf:
        raise InfiniteDomainError(
            f"attribute {attribute.name!r} has an infinite data type; "
            f"an extensional enumeration does not exist"
        )
    if isinstance(kind, EnumType):
        return kind.labels
    if isinstance(kind, BoolType):
        return (True, False)
    return range(kind.minimum, kind.maximum + 1)


def value_spaces(taxonomy: Taxonomy) -> list[Sequence[AttributeValue]]:
    """The value space of every attribute, in taxonomy order.

    Raises:
        InfiniteDomainError: if the domain is infinite.
    """
    if domain_cardinality(taxonomy) == math.inf:
        raise InfiniteDomainError(
            "the domain is infinite and cannot be enumerated; "
            "it can only be described"
        )
    return [value_space(attribute) for attribute in taxonomy.attributes]


def enumerate_od(taxonomy: Taxonomy) -> Iterator[tuple[AttributeValue, ...]]:
    """Yield every element of the full operational domain exactly once.

    Order is lexicographic by attribute position, then by value order
    within each attribute. The empty taxonomy yields one empty tuple.

    Raises:
        InfiniteDomainError: if any attribute is real-valued or unbounded.
    """
    return _product(value_spaces(taxonomy))


def _product(spaces: Sequence[Sequence[AttributeValue]]) -> Iterator[tuple[AttributeValue, ...]]:
    """Every tuple of the spaces' product, in ``enumerate_od``'s order. An
    odometer over one iterator per position, so that a ``range`` streams
    instead of being copied; a loop, never a recursion."""
    if not spaces:
        yield ()
        return
    last = len(spaces) - 1
    values: list[AttributeValue] = [UNKNOWN] * last
    stack = [iter(spaces[0])]
    while stack:
        position = len(stack) - 1
        if position == last:
            prefix = tuple(values)
            for value in stack.pop():
                yield prefix + (value,)
            continue
        for value in stack[-1]:
            values[position] = value
            stack.append(iter(spaces[position + 1]))
            break
        else:
            stack.pop()


_RECORD_KEYS = {"t", "x", "y", "values"}
_raw_decode = json.JSONDecoder().raw_decode


def _decode(line: str, lineno: int):
    """``json.loads(line)``, with a refusal as a ``TraceError``. A line that
    is one value and then only JSON whitespace takes one C call; any other
    goes through ``json.loads``, so that its errors stay json's own."""
    try:
        value, end = _raw_decode(line)
        if not line[end:].strip(" \t\n\r"):
            return value
    except (ValueError, RecursionError, TypeError):  # TypeError: bytes, which json.loads reads
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise _line_error(lineno, exc.msg) from exc
    except (ValueError, RecursionError) as exc:  # a huge integer, deep nesting
        raise _line_error(lineno, f"unreadable JSON: {exc}") from exc


def _line_error(lineno: int, message: str) -> TraceError:
    return TraceError(f"line {lineno}: {message}")


def _parse_record(line: str, lineno: int, taxonomy: Taxonomy) -> Lod:
    record = _decode(line, lineno)
    if not isinstance(record, dict):
        raise _line_error(lineno, "expected a JSON object")
    if record.keys() != _RECORD_KEYS:
        missing = _RECORD_KEYS - record.keys()
        if missing:
            raise _line_error(lineno, f"missing keys {sorted(missing)}")
        raise _line_error(lineno, f"unexpected keys {sorted(record.keys() - _RECORD_KEYS)}")
    try:
        # Lod's exact-float test, inline; any other value goes through
        # _number, which names the record's key 't' where Lod says "time"
        t = record["t"]
        if type(t) is not float or not 0 <= t <= _FLOAT_MAX:
            t = _number("'t'", t)
        x = record["x"]
        if type(x) is not float or not abs(x) <= _FLOAT_MAX:
            x = _number("'x'", x)
        y = record["y"]
        if type(y) is not float or not abs(y) <= _FLOAT_MAX:
            y = _number("'y'", y)
        if not isinstance(record["values"], dict):
            raise _line_error(lineno, "'values' must be an object")
        return make_lod(taxonomy, record["values"], t=t, x=x, y=y)
    except LodError as exc:
        raise _line_error(lineno, str(exc)) from exc


def parse_lod(text: str, taxonomy: Taxonomy) -> Lod:
    """Parse a single sample record (same shape as one trace line)."""
    return _parse_record(text, 1, taxonomy)


def iter_trace(lines: str | Iterable[str], taxonomy: Taxonomy) -> Iterator[Lod]:
    """Yield the samples of a trace document, one per line, as it is read;
    blank lines are ignored. A string splits into lines as a text file
    does: at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else.

    Raises:
        TraceError: malformed line (with line number), unknown attribute
            key, out-of-domain value, or non-increasing timestamps.
    """
    if isinstance(lines, str):
        lines = io.StringIO(lines, newline="")
    last_t = None
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        sample = _parse_record(line, lineno, taxonomy)
        if last_t is not None and not sample.t > last_t:
            raise TraceError(
                f"line {lineno}: timestamp {sample.t} does not increase past {last_t}"
            )
        last_t = sample.t
        yield sample


def parse_trace(stream: str | Iterable[str], taxonomy: Taxonomy) -> Trace:
    """Parse a whole trace document; raises as ``iter_trace`` does."""
    return Trace(taxonomy, tuple(iter_trace(stream, taxonomy)))


def serialize_trace(trace: Trace) -> str:
    """Render a trace back to line-delimited JSON; Unknowns are omitted."""
    lines = []
    for sample in trace.samples:
        values = {
            attribute.name: value
            for attribute, value in zip(trace.taxonomy.attributes, sample.values)
            if value is not UNKNOWN
        }
        record = {"t": sample.t, "x": sample.x, "y": sample.y, "values": values}
        lines.append(json.dumps(record))
    return "\n".join(lines) + ("\n" if lines else "")


def cod_of(trace: Trace, now: float) -> Lod:
    """Sample-and-hold lookup: the sample with the greatest t <= now.

    Raises:
        TraceError: empty trace, or ``now`` is NaN or precedes the first
            sample.
    """
    if not trace.samples:
        raise TraceError("trace has no samples")
    if not now >= trace.samples[0].t:  # also true for a NaN time
        raise TraceError(
            f"time {now} precedes the first sample at t={trace.samples[0].t}"
        )
    return trace.samples[bisect_right(trace.samples, now, key=attrgetter("t")) - 1]
