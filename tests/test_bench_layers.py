"""The benchmark's traced layer functions and the package's exported names
resolve, so a traced run wraps every function it names."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import clusterpump

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def test_layer_functions_are_callables_of_their_modules():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for layer, names in child.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"clusterpump.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"clusterpump.{layer}.{name}"


def test_exported_names_exist():
    assert [name for name in clusterpump.__all__ if not hasattr(clusterpump, name)] == []


# The parameters that the benchmark's counters read off a traced call by name
# (its ``Tracer._count_*`` methods); a renamed one breaks every traced run.
COUNTED_PARAMETERS = {
    "meanfield.mean_field_evolve": ("p", "t_final", "dt"),
    "solver.evolve_rk4": ("t_final", "dt"),
    "lindblad.liouvillian_parts": ("H", "jumps"),
    "meanfield.default_dt": ("p",),
}


@pytest.mark.parametrize("name, parameters", COUNTED_PARAMETERS.items(), ids=list(COUNTED_PARAMETERS))
def test_counted_parameters_keep_their_names(name, parameters):
    layer, function = name.split(".")
    signature = inspect.signature(getattr(importlib.import_module(f"clusterpump.{layer}"), function))
    assert [p for p in parameters if p not in signature.parameters] == []
