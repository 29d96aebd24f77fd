"""The package's exports, and the modules that importing it and running each
CLI command load."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import oddspec

DATA = Path(__file__).parent / "data"
TAXONOMY = str(DATA / "taxonomy_motorway.json")
FINITE = str(DATA / "taxonomy_finite.json")
SPEC = str(DATA / "motorway.spec")
FINITE_SPEC = str(DATA / "finite.spec")

# every exported name, by the module that defines it
EXPORTS = {
    "domain": [
        "UNKNOWN", "AttributeValue", "Lod", "Trace", "cod_of", "enumerate_od", "iter_trace",
        "make_lod", "parse_lod", "parse_trace", "serialize_trace", "value_space",
    ],
    "errors": [
        "EvaluationError", "InfiniteDomainError", "LodError", "MonitorError", "OddspecError",
        "PredicateNotApplicableError", "RealEqualityWarning", "SpecCheckError",
        "SpecParseError", "TaxonomyError", "TraceError", "UnknownValueError",
    ],
    "evaluator": [
        "Diagnosis", "Verdict", "count_odd", "diagnose", "enumerate_odd", "eval_spec", "in_odd",
        "kleene_and", "kleene_not",
    ],
    "monitor": [
        "EventKind", "MonitorEvent", "MonitorReport", "MonitorState", "monitor_init",
        "monitor_step", "render_report", "report_from_state", "report_json", "run_monitor",
    ],
    "specdsl": [
        "And", "Atom", "Not", "Predicate", "SpecAst", "WellFormedSpec", "atoms", "check_spec",
        "parse_spec", "render_value", "serialize_spec",
    ],
    "taxonomy": [
        "Attribute", "AttributeType", "BoolType", "EnumType", "IntType", "RealType", "Taxonomy",
        "domain_cardinality", "parse_taxonomy", "serialize_taxonomy", "value_in_domain",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_every_export_once():
    assert sorted(oddspec.__all__) == sorted(name for _, name in NAMES)
    assert len(set(oddspec.__all__)) == len(oddspec.__all__)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_an_export_is_its_module_object(module, name):
    defined = getattr(importlib.import_module(f"oddspec.{module}"), name)
    assert getattr(oddspec, name) is defined
    assert name in dir(oddspec)


def test_a_star_import_binds_every_export():
    namespace = {}
    exec("from oddspec import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"oddspec.{module}"), name)
    assert not {"domain", "importlib", "_MODULE_OF"} & namespace.keys()


def test_a_module_is_an_attribute_of_the_package():
    for module in EXPORTS:
        assert getattr(oddspec, module) is importlib.import_module(f"oddspec.{module}")
        assert module in dir(oddspec)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        oddspec.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from oddspec import no_such_name", {})
    assert oddspec.__version__ == "0.1.0"


# A child interpreter runs a script, then prints the oddspec modules it loaded.
_LOADED = """
import json, os, sys
from contextlib import redirect_stdout
{script}
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "oddspec")))
"""
_COMMAND = """
from oddspec.cli import main
with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
    assert main({argv!r}) == 0
"""
_FRONT = ["oddspec", "oddspec.cli", "oddspec.errors", "oddspec.specdsl", "oddspec.taxonomy"]
_LAYERS = ["oddspec.domain", "oddspec.evaluator"]


def _loaded(script: str) -> list[str]:
    child = subprocess.run(
        [sys.executable, "-c", _LOADED.format(script=script)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout)


def test_importing_the_package_loads_no_module():
    assert _loaded("import oddspec") == ["oddspec"]
    # a name loads its own module and those that module imports
    assert _loaded("from oddspec import OddspecError") == ["oddspec", "oddspec.errors"]
    assert _loaded("import oddspec; oddspec.monitor") == [
        "oddspec", *(f"oddspec.{module}" for module in sorted(EXPORTS))
    ]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["check", "--taxonomy", TAXONOMY, "--spec", SPEC], []),
        (["validate", "--taxonomy", TAXONOMY], []),
        (["validate", "--taxonomy", FINITE, "--spec", FINITE_SPEC], _LAYERS),
        (["eval", "--taxonomy", TAXONOMY, "--spec", SPEC, "--lod", str(DATA / "lod_out.json")],
         _LAYERS),
        (["enumerate", "--taxonomy", FINITE], ["oddspec.domain"]),
        (["enumerate", "--taxonomy", FINITE, "--spec", FINITE_SPEC], _LAYERS),
        (["monitor", "--taxonomy", TAXONOMY, "--spec", SPEC, "--trace", str(DATA / "flip.trace")],
         [*_LAYERS, "oddspec.monitor"]),
    ],
    ids=["check", "validate", "validate-spec", "eval", "enumerate", "enumerate-spec", "monitor"],
)
def test_a_command_loads_only_the_layers_it_runs(argv, layers):
    assert _loaded(_COMMAND.format(argv=argv)) == sorted(_FRONT + layers)
