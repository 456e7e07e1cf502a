"""The benchmark's traced layer functions and the package's exported names
resolve, so a traced run wraps every function it names."""

import importlib
import importlib.util
from pathlib import Path

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
