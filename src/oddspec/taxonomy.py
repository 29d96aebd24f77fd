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

The constructors of the data types, ``Attribute`` and ``Taxonomy`` are the one
check of a declaration: ``parse_taxonomy`` only decodes the JSON shape and
builds through them, so a parsed and a directly built taxonomy obey the same
rules, and every taxonomy that constructs round-trips through
``serialize_taxonomy`` and ``parse_taxonomy``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field

from .errors import TaxonomyError

IDENTIFIER_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

# Keywords of the specification language; allowing them as attribute names
# or enum labels would make those attributes impossible to reference.
RESERVED_WORDS = frozenset({"and", "or", "not", "true", "false"})


def _check_identifier(text: str, what: str) -> None:
    if not isinstance(text, str) or not IDENTIFIER_RE.match(text):
        raise TaxonomyError(f"{what} {_shown(text)} is not a valid identifier")
    if text in RESERVED_WORDS:
        raise TaxonomyError(f"{what} {_shown(text)} is a reserved word")


# What a type's ``_accept`` returns for a value outside the type.
_REJECT = object()

# Each data type also folds, when it is built, a ``_row``: (exact type,
# labels, low, high). A value of exactly that type that is one of the labels
# (an enum's; None for the other types) or lies in low..high is in the
# domain, and ``_accept`` would return it as it is. ``make_lod`` tests this
# inline and calls ``_accept`` only for any other value.

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
            from decimal import Decimal  # imported here: only huge ints need it

            return format(Decimal(value), "f")
        return f"<{type(value).__name__}>"


@dataclass(frozen=True)
class EnumType:
    """Finite set of labels; unordered unless explicitly flagged."""

    # a tuple or list, stored as a tuple; None (the default) is refused
    labels: tuple[str, ...] = None
    ordered: bool = False

    def __post_init__(self):
        if not isinstance(self.labels, (tuple, list)):
            raise TaxonomyError("enum requires a list of labels")
        if not isinstance(self.ordered, bool):
            raise TaxonomyError("'ordered' must be a boolean")
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise TaxonomyError("enum must declare at least one label")
        for label in self.labels:
            _check_identifier(label, "enum label")
        if len(set(self.labels)) != len(self.labels):
            raise TaxonomyError("enum labels must be pairwise distinct")
        # a plain attribute, not a field, so it is no part of the type's value
        object.__setattr__(self, "_row", (str, frozenset(self.labels), None, None))

    def _accept(self, value):
        """A ``str`` that is one of the labels, unchanged. A ``str`` subclass
        is compared with each label, so it need not be hashable."""
        return value if isinstance(value, str) and value in self.labels else _REJECT


@dataclass(frozen=True)
class BoolType:
    """Two-valued attribute."""

    # not a field: every bool lies between False and True
    _row = (bool, None, False, True)

    def _accept(self, value):
        return value if value is True or value is False else _REJECT


@dataclass(frozen=True)
class RealType:
    """Real-valued attribute with a unit tag and optional inclusive bounds."""

    # required; None (the default) is refused
    unit: str = None
    minimum: float | None = None
    maximum: float | None = None

    def __post_init__(self):
        if self.unit is None:
            raise TaxonomyError("real attribute requires a unit")
        _check_identifier(self.unit, "unit")
        _check_bounds(self, integral=False)

    def _accept(self, value):
        """A finite number (not a ``bool``) within the bounds, as a ``float``;
        an exact ``float`` comes back as it is."""
        # the folded bounds are finite floats, so NaN, an infinity and an int
        # past the largest float all fail this one comparison
        if isinstance(value, (float, int)) and not isinstance(value, bool):
            if self._low <= value <= self._high:
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
        _check_bounds(self, integral=True)

    def _accept(self, value):
        """An ``int`` (not a ``bool``) within the bounds, unchanged."""
        if isinstance(value, int) and not isinstance(value, bool):
            if self._low <= value <= self._high:
                return value
        return _REJECT


def _check_bounds(kind: RealType | IntType, integral: bool) -> None:
    """Check each bound of ``kind`` and their order; store a real type's
    bounds as floats. Fold them into ``_low`` and ``_high``, the bounds that
    ``_accept`` tests a number against, and into ``_row``; a missing bound
    becomes the largest float for a real and infinity for an int, signed for
    its side."""
    for field_name in ("minimum", "maximum"):
        bound = getattr(kind, field_name)
        if bound is None:
            continue
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            raise TaxonomyError(f"bound {_shown(bound)} is not a number")
        if integral:
            if not isinstance(bound, int):
                raise TaxonomyError(f"int bound {_shown(bound)} must be an integer")
            try:
                repr(bound)
            except ValueError:  # past the int digit limit, which the JSON reader keeps too
                raise TaxonomyError(f"int bound {_shown(bound)} is too long to write") from None
        elif not abs(bound) <= _FLOAT_MAX:
            raise TaxonomyError(f"bound {_shown(bound)} is not finite")
        elif type(bound) is not float:
            object.__setattr__(kind, field_name, float(bound))
    low, high = kind.minimum, kind.maximum
    if low is not None and high is not None and low > high:
        raise TaxonomyError(f"lower bound {_shown(low)} exceeds upper bound {_shown(high)}")
    # plain attributes, not fields, so they are no part of the type's value
    unbounded = math.inf if integral else _FLOAT_MAX
    low = -unbounded if low is None else low
    high = unbounded if high is None else high
    object.__setattr__(kind, "_low", low)
    object.__setattr__(kind, "_high", high)
    object.__setattr__(kind, "_row", (int if integral else float, None, low, high))


AttributeType = EnumType | BoolType | RealType | IntType

# JSON type tag -> (data type class, JSON key -> constructor field). An entry
# also holds "name" and "type", and may hold "description".
_TYPE_TAGS = {
    "enum": (EnumType, {"labels": "labels", "ordered": "ordered"}),
    "bool": (BoolType, {}),
    "real": (RealType, {"unit": "unit", "min": "minimum", "max": "maximum"}),
    "int": (IntType, {"unit": "unit", "min": "minimum", "max": "maximum"}),
}
# data type class -> its tag; tag -> the keys an entry may hold
_TAG_OF = {kind: tag for tag, (kind, _) in _TYPE_TAGS.items()}
_KEYS_OF = {tag: {"name", "type", "description", *keys} for tag, (_, keys) in _TYPE_TAGS.items()}


@dataclass(frozen=True)
class Attribute:
    """One declared attribute: its name, its data type and an optional
    free-text description."""

    name: str
    attr_type: AttributeType
    description: str | None = None

    def __post_init__(self):
        _check_identifier(self.name, "attribute name")
        if type(self.attr_type) not in _TAG_OF:
            raise TaxonomyError(f"attribute type {_shown(self.attr_type)} is not a data type")
        if self.description is not None and not isinstance(self.description, str):
            raise TaxonomyError("description must be a string")


@dataclass(frozen=True)
class Taxonomy:
    """Ordered attribute declarations; immutable and shareable once built."""

    attributes: tuple[Attribute, ...]
    version: str = "1"
    # name -> (position, exact type, labels, low, high, the data type's
    # _accept), for name lookup, decoding (see make_lod) and checking an atom
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.attributes, (tuple, list)):
            raise TaxonomyError("attributes must be a tuple or list")
        if not isinstance(self.version, str):
            raise TaxonomyError("missing or non-string 'version'")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        index = {}
        for position, attribute in enumerate(self.attributes):
            if not isinstance(attribute, Attribute):
                raise TaxonomyError(f"{_shown(attribute)} is not an Attribute")
            if attribute.name in index:
                raise TaxonomyError(f"duplicate attribute name {attribute.name!r}")
            kind = attribute.attr_type
            index[attribute.name] = (position, *kind._row, kind._accept)
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


def _parse_attribute(entry, position: int) -> Attribute:
    where = f"attribute #{position + 1}"
    if not isinstance(entry, dict):
        raise TaxonomyError(f"{where}: expected an object")
    tag = entry.get("type")
    if not isinstance(tag, str) or tag not in _TYPE_TAGS:
        raise TaxonomyError(f"{where}: unknown type tag {tag!r}")
    if "name" not in entry:
        raise TaxonomyError(f"{where}: missing name")
    extra = set(entry) - _KEYS_OF[tag]
    if extra:
        raise TaxonomyError(f"{where}: unexpected keys {sorted(extra)} for type {tag!r}")
    kind, keys = _TYPE_TAGS[tag]
    fields = {}
    for key, field_name in keys.items():  # a loop, as a comprehension costs a call in 3.11
        if key in entry:
            fields[field_name] = entry[key]
    try:
        attr_type = kind(**fields)
        return Attribute(entry["name"], attr_type, entry.get("description"))
    except TaxonomyError as exc:
        raise TaxonomyError(f"{where}: {exc}") from exc


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
    entries = document.get("attributes")
    if not isinstance(entries, list):
        raise TaxonomyError("missing 'attributes' list")
    attributes = [_parse_attribute(entry, i) for i, entry in enumerate(entries)]
    return Taxonomy(attributes, version=document.get("version"))


def serialize_taxonomy(taxonomy: Taxonomy) -> str:
    """Render a taxonomy back to its canonical JSON document.

    ``parse_taxonomy(serialize_taxonomy(t))`` equals ``t`` field for field.
    """
    entries = []
    for attribute in taxonomy.attributes:
        kind = attribute.attr_type
        tag = _TAG_OF[type(kind)]
        entry: dict = {"name": attribute.name, "type": tag}
        for key, field_name in _TYPE_TAGS[tag][1].items():
            value = getattr(kind, field_name)
            # a field at its default (no bound, no unit, unordered) is left out
            if value is not None and value is not False:
                entry[key] = value
        if attribute.description is not None:
            entry["description"] = attribute.description
        entries.append(entry)
    document = {"version": taxonomy.version, "attributes": entries}
    return json.dumps(document, indent=2) + "\n"
