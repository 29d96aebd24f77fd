"""Exception and warning types shared across the package."""


class OddspecError(Exception):
    """Base class for every error raised by this package."""


class TaxonomyError(OddspecError):
    """The taxonomy document is syntactically or structurally invalid."""


class SpecParseError(OddspecError):
    """The specification text does not conform to the grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SpecCheckError(OddspecError):
    """A statement is not well-formed with respect to the taxonomy."""


class PredicateNotApplicableError(SpecCheckError):
    """An ordering predicate was applied to a type that defines no order."""


class LodError(OddspecError):
    """A domain sample violates its invariants or the taxonomy."""


class TraceError(OddspecError):
    """A trace document is malformed or breaks trace invariants."""


class InfiniteDomainError(OddspecError):
    """Enumeration was requested for an infinite domain."""


class UnknownValueError(OddspecError):
    """A membership query hit an unmeasured attribute value."""


class EvaluationError(OddspecError):
    """Evaluation inputs do not fit together (unchecked spec, wrong arity)."""


class MonitorError(OddspecError):
    """Monitor protocol violation: bad timestamps or mismatched taxonomies."""


class RealEqualityWarning(UserWarning):
    """Exact equality against a real-valued attribute is almost never intended."""
