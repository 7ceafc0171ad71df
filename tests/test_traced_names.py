"""The benchmark's traced names must exist in fwpoly.

``benchmark/tracer.py`` wraps the functions it lists in ``LAYERS`` by name
and refuses to run when one is missing.  This checks, inside the tier-1
suite, that every listed name is still a module-level function or a method
of a class defined in ``fwpoly.<layer>``, so merging or renaming a traced
function fails here rather than in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(layer, name) for layer, names in mod.LAYERS.items() for name in names]


@pytest.mark.parametrize("layer,name", _layers(), ids=lambda v: v)
def test_traced_name_resolves(layer, name):
    mod = importlib.import_module(f"fwpoly.{layer}")
    target = vars(mod).get(name)
    is_function = callable(target) and not isinstance(target, type)
    classes = [v for v in vars(mod).values()
               if isinstance(v, type) and v.__module__ == mod.__name__]
    assert is_function or any(name in vars(cls) for cls in classes)
