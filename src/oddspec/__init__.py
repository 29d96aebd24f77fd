"""Operational design domain toolkit.

Declare the attribute space a vehicle operates in (the operational
domain), write the subset it is engineered for (the operational design
domain) as a small declarative language, evaluate and enumerate that
subset, and monitor drive traces for excursions.
"""

from .domain import (
    UNKNOWN,
    AttributeValue,
    Lod,
    Trace,
    cod_of,
    enumerate_od,
    iter_trace,
    make_lod,
    parse_lod,
    parse_trace,
    serialize_trace,
    value_space,
)
from .errors import (
    EvaluationError,
    InfiniteDomainError,
    LodError,
    MonitorError,
    OddspecError,
    PredicateNotApplicableError,
    RealEqualityWarning,
    SpecCheckError,
    SpecParseError,
    TaxonomyError,
    TraceError,
    UnknownValueError,
)
from .evaluator import (
    Diagnosis,
    Verdict,
    count_odd,
    diagnose,
    enumerate_odd,
    eval_spec,
    in_odd,
    kleene_and,
    kleene_not,
)
from .monitor import (
    EventKind,
    MonitorEvent,
    MonitorReport,
    MonitorState,
    monitor_init,
    monitor_step,
    render_report,
    report_from_state,
    report_json,
    run_monitor,
)
from .specdsl import (
    And,
    Atom,
    Not,
    Predicate,
    SpecAst,
    WellFormedSpec,
    atoms,
    check_spec,
    parse_spec,
    render_value,
    serialize_spec,
)
from .taxonomy import (
    Attribute,
    AttributeType,
    BoolType,
    EnumType,
    IntType,
    RealType,
    Taxonomy,
    domain_cardinality,
    parse_taxonomy,
    serialize_taxonomy,
    value_in_domain,
)

__version__ = "0.1.0"
