"""Typed attribute taxonomy for an operational domain.

A taxonomy declares which attributes describe the vehicle's surroundings
(road type, presence of pedestrians, ...) and the data type of each one.
Attribute order is significant: it fixes the tuple position of each value
in every domain sample, so reordering the file changes the sample layout.

The on-disk form is a JSON document::

    {
      "version": "1",
      "attributes": [
        {"name": "road_type", "type": "enum", "labels": ["motorway", "regional", "rural"]},
        {"name": "pedestrian_present", "type": "bool"},
        {"name": "operational_speed", "type": "real", "unit": "kmh", "min": 0.0}
      ]
    }

Enums may carry ``"ordered": true`` to enable <, >, <=, >= on label order.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal

from .errors import TaxonomyError

IDENTIFIER_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

# Keywords of the specification language; allowing them as attribute names
# or enum labels would make those attributes impossible to reference.
RESERVED_WORDS = frozenset({"and", "or", "not", "true", "false"})


def _check_identifier(text: str, what: str) -> None:
    if not isinstance(text, str) or not IDENTIFIER_RE.match(text):
        raise TaxonomyError(f"{what} {text!r} is not a valid identifier")
    if text in RESERVED_WORDS:
        raise TaxonomyError(f"{what} {text!r} is a reserved word")


# What a type's ``_accept`` returns for a value outside the type.
_REJECT = object()

# A number is a finite real when abs(number) <= _FLOAT_MAX. Unlike
# math.isfinite, the comparison does not raise on an int past the float range.
_FLOAT_MAX = sys.float_info.max


def _shown(value, show=repr) -> str:
    """``show(value)``; Decimal writes an int past the 4300 digits str() stops
    at, and anything else ``show`` cannot write is named by its type."""
    try:
        return show(value)
    except ValueError:
        if isinstance(value, int):
            return format(Decimal(value), "f")
        return f"<{type(value).__name__}>"


@dataclass(frozen=True)
class EnumType:
    """Finite set of labels; unordered unless explicitly flagged."""

    labels: tuple[str, ...]
    ordered: bool = False

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise TaxonomyError("enum must declare at least one label")
        for label in self.labels:
            _check_identifier(label, "enum label")
        if len(set(self.labels)) != len(self.labels):
            raise TaxonomyError("enum labels must be pairwise distinct")

    def _accept(self, value):
        """A ``str`` that is one of the labels, unchanged."""
        return value if isinstance(value, str) and value in self.labels else _REJECT


@dataclass(frozen=True)
class BoolType:
    """Two-valued attribute."""

    def _accept(self, value):
        return value if value is True or value is False else _REJECT


@dataclass(frozen=True)
class RealType:
    """Real-valued attribute with a unit tag and optional inclusive bounds."""

    unit: str
    minimum: float | None = None
    maximum: float | None = None

    def __post_init__(self):
        _check_identifier(self.unit, "unit")
        _check_bounds(self.minimum, self.maximum)

    def _accept(self, value):
        """A finite number (not a ``bool``) within the bounds, as a ``float``."""
        if isinstance(value, (float, int)) and not isinstance(value, bool):
            low, high = self.minimum, self.maximum
            # `not value < low` so that a nan bound, which only direct
            # construction can give, rejects nothing
            if (
                -_FLOAT_MAX <= value <= _FLOAT_MAX
                and (low is None or not value < low)
                and (high is None or not value > high)
            ):
                return float(value)
        return _REJECT


@dataclass(frozen=True)
class IntType:
    """Integer-valued attribute, optionally unit-tagged and bounded."""

    unit: str | None = None
    minimum: int | None = None
    maximum: int | None = None

    def __post_init__(self):
        if self.unit is not None:
            _check_identifier(self.unit, "unit")
        _check_bounds(self.minimum, self.maximum)

    def _accept(self, value):
        """An ``int`` (not a ``bool``) within the bounds, unchanged."""
        if isinstance(value, int) and not isinstance(value, bool):
            low, high = self.minimum, self.maximum
            if (low is None or not value < low) and (high is None or not value > high):
                return value
        return _REJECT


def _check_bounds(minimum, maximum) -> None:
    if minimum is not None and maximum is not None and minimum > maximum:
        raise TaxonomyError(f"lower bound {minimum} exceeds upper bound {maximum}")


AttributeType = EnumType | BoolType | RealType | IntType


@dataclass(frozen=True)
class Attribute:
    name: str
    attr_type: AttributeType
    description: str | None = None

    def __post_init__(self):
        _check_identifier(self.name, "attribute name")


@dataclass(frozen=True)
class Taxonomy:
    """Ordered attribute declarations; immutable and shareable once built."""

    attributes: tuple[Attribute, ...]
    version: str = "1"
    # name -> (position, the data type's _accept), for name lookup and decoding
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        index = {}
        for position, attribute in enumerate(self.attributes):
            if attribute.name in index:
                raise TaxonomyError(f"duplicate attribute name {attribute.name!r}")
            index[attribute.name] = (position, attribute.attr_type._accept)
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Tuple position of the named attribute; raises KeyError if absent."""
        return self._index[name][0]

    def attribute(self, name: str) -> Attribute:
        return self.attributes[self._index[name][0]]

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)


def _check_binding(bound: Taxonomy, taxonomy: Taxonomy, subject: str, error: type) -> None:
    """Raise ``error`` unless ``bound``, the taxonomy a spec or trace was
    built on, equals ``taxonomy``; ``subject`` says how it was built."""
    if bound != taxonomy:
        raise error(
            f"{subject} a different taxonomy (version {bound.version!r}) "
            f"than this one (version {taxonomy.version!r})"
        )


def value_in_domain(attr: Attribute, value) -> bool:
    """Check whether ``value`` lies in the attribute's data type.

    Total and deterministic: any value of the wrong kind, an undeclared
    enum label, a non-finite real, or a bound violation yields False.
    ``bool`` is never accepted for numeric attributes even though Python
    treats it as an int.
    """
    return attr.attr_type._accept(value) is not _REJECT


def _type_cardinality(kind: AttributeType) -> int | float:
    if isinstance(kind, EnumType):
        return len(kind.labels)
    if isinstance(kind, BoolType):
        return 2
    if isinstance(kind, IntType) and kind.minimum is not None and kind.maximum is not None:
        return kind.maximum - kind.minimum + 1
    return math.inf


def domain_cardinality(taxonomy: Taxonomy) -> int | float:
    """Number of elements in the full operational domain.

    Returns ``math.inf`` as soon as one attribute is real-valued or an
    unbounded int. The empty taxonomy has cardinality 1 (the empty tuple).
    """
    total = 1
    for attribute in taxonomy.attributes:
        per_attr = _type_cardinality(attribute.attr_type)
        if per_attr == math.inf:
            return math.inf
        total *= per_attr
    return total


_COMMON_KEYS = {"name", "type", "description"}
_ALLOWED_KEYS = {
    "enum": _COMMON_KEYS | {"labels", "ordered"},
    "bool": _COMMON_KEYS,
    "real": _COMMON_KEYS | {"unit", "min", "max"},
    "int": _COMMON_KEYS | {"unit", "min", "max"},
}


def _parse_attribute(entry, position: int) -> Attribute:
    where = f"attribute #{position + 1}"
    if not isinstance(entry, dict):
        raise TaxonomyError(f"{where}: expected an object")
    tag = entry.get("type")
    if not isinstance(tag, str) or tag not in _ALLOWED_KEYS:
        raise TaxonomyError(f"{where}: unknown type tag {tag!r}")
    if "name" not in entry:
        raise TaxonomyError(f"{where}: missing name")
    extra = set(entry) - _ALLOWED_KEYS[tag]
    if extra:
        raise TaxonomyError(f"{where}: unexpected keys {sorted(extra)} for type {tag!r}")
    description = entry.get("description")
    if description is not None and not isinstance(description, str):
        raise TaxonomyError(f"{where}: description must be a string")

    if tag == "enum":
        labels = entry.get("labels")
        if not isinstance(labels, list):
            raise TaxonomyError(f"{where}: enum requires a list of labels")
        ordered = entry.get("ordered", False)
        if not isinstance(ordered, bool):
            raise TaxonomyError(f"{where}: 'ordered' must be a boolean")
        attr_type: AttributeType = EnumType(tuple(labels), ordered=ordered)
    elif tag == "bool":
        attr_type = BoolType()
    else:
        real = tag == "real"
        if real and "unit" not in entry:
            raise TaxonomyError(f"{where}: real attribute requires a unit")
        attr_type = (RealType if real else IntType)(
            unit=entry.get("unit"),
            minimum=_parse_bound(entry.get("min"), where, integral=not real),
            maximum=_parse_bound(entry.get("max"), where, integral=not real),
        )
    return Attribute(name=entry["name"], attr_type=attr_type, description=description)


def _parse_bound(raw, where: str, integral: bool):
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TaxonomyError(f"{where}: bound {raw!r} is not a number")
    if integral:
        if not isinstance(raw, int):
            raise TaxonomyError(f"{where}: int bound {raw!r} must be an integer")
        return raw
    if not abs(raw) <= _FLOAT_MAX:
        raise TaxonomyError(f"{where}: bound {raw!r} is not finite")
    return float(raw)


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse a taxonomy JSON document.

    Raises:
        TaxonomyError: on JSON syntax errors (with line/column), unknown
            type tags, duplicate names, empty enums, or inverted bounds.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TaxonomyError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a huge integer, deep nesting
        raise TaxonomyError(f"unreadable JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise TaxonomyError("top level must be an object")
    extra = set(document) - {"version", "attributes"}
    if extra:
        raise TaxonomyError(f"unexpected top-level keys {sorted(extra)}")
    version = document.get("version")
    if not isinstance(version, str):
        raise TaxonomyError("missing or non-string 'version'")
    entries = document.get("attributes")
    if not isinstance(entries, list):
        raise TaxonomyError("missing 'attributes' list")
    attributes = [_parse_attribute(entry, i) for i, entry in enumerate(entries)]
    return Taxonomy(attributes=tuple(attributes), version=version)


def serialize_taxonomy(taxonomy: Taxonomy) -> str:
    """Render a taxonomy back to its canonical JSON document.

    ``parse_taxonomy(serialize_taxonomy(t))`` equals ``t`` field for field.
    """
    entries = []
    for attribute in taxonomy.attributes:
        kind = attribute.attr_type
        entry: dict = {"name": attribute.name}
        if isinstance(kind, EnumType):
            entry["type"] = "enum"
            entry["labels"] = list(kind.labels)
            if kind.ordered:
                entry["ordered"] = True
        elif isinstance(kind, BoolType):
            entry["type"] = "bool"
        else:
            entry["type"] = "real" if isinstance(kind, RealType) else "int"
            if kind.unit is not None:
                entry["unit"] = kind.unit
            if kind.minimum is not None:
                entry["min"] = kind.minimum
            if kind.maximum is not None:
                entry["max"] = kind.maximum
        if attribute.description is not None:
            entry["description"] = attribute.description
        entries.append(entry)
    document = {"version": taxonomy.version, "attributes": entries}
    return json.dumps(document, indent=2) + "\n"
