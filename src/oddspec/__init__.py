"""Operational design domain toolkit.

Declare the attribute space a vehicle operates in (the operational
domain), write the subset it is engineered for (the operational design
domain) as a small declarative language, evaluate and enumerate that
subset, and monitor drive traces for excursions.

``import oddspec`` loads none of the package's modules. Each exported name,
and each module read as an attribute, loads its module the first time it
is read (PEP 562), so a program, the CLI included, pays only for the
layers it uses.
"""

import importlib

_EXPORTS = {
    "domain": (
        "UNKNOWN",
        "AttributeValue",
        "Lod",
        "Trace",
        "cod_of",
        "enumerate_od",
        "iter_trace",
        "make_lod",
        "parse_lod",
        "parse_trace",
        "serialize_trace",
        "value_space",
    ),
    "errors": (
        "EvaluationError",
        "InfiniteDomainError",
        "LodError",
        "MonitorError",
        "OddspecError",
        "PredicateNotApplicableError",
        "RealEqualityWarning",
        "SpecCheckError",
        "SpecParseError",
        "TaxonomyError",
        "TraceError",
        "UnknownValueError",
    ),
    "evaluator": (
        "Diagnosis",
        "Verdict",
        "count_odd",
        "diagnose",
        "enumerate_odd",
        "eval_spec",
        "in_odd",
        "kleene_and",
        "kleene_not",
    ),
    "monitor": (
        "EventKind",
        "MonitorEvent",
        "MonitorReport",
        "MonitorState",
        "monitor_init",
        "monitor_step",
        "render_report",
        "report_from_state",
        "report_json",
        "run_monitor",
    ),
    "specdsl": (
        "And",
        "Atom",
        "Not",
        "Predicate",
        "SpecAst",
        "WellFormedSpec",
        "atoms",
        "check_spec",
        "parse_spec",
        "render_value",
        "serialize_spec",
    ),
    "taxonomy": (
        "Attribute",
        "AttributeType",
        "BoolType",
        "EnumType",
        "IntType",
        "RealType",
        "Taxonomy",
        "domain_cardinality",
        "parse_taxonomy",
        "serialize_taxonomy",
        "value_in_domain",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a module read as an attribute, which importing it binds
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
