"""The benchmark's traced solver layers must be called, not only defined.

``tests/test_traced_names.py`` checks that each name ``benchmark/tracer.py``
wraps still exists.  A name can exist and still never be reached through
its wrapper, for instance when a caller binds the function once at import
time, before the tracer replaces it; the per-layer counts would then read
zero on working code.  This installs the tracer as the benchmark does, runs
one short solve per variant, and checks that every traced name on the
solver path records at least one span.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from fwpoly import instances

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"

SOLVER_PATH = ("directions.candidates_afw", "directions.candidates_bpfw",
               "directions.candidates_ifw", "directions.select",
               "active_set.away_and_local_fw", "active_set.apply_step",
               "stepsize.step")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_solver_layers_record_spans():
    mod = _tracer_module()
    for layer in mod.LAYERS:
        importlib.import_module(f"fwpoly.{layer}")
    solvers = importlib.import_module("fwpoly.solvers")
    edge, mid = instances.wolfe_edge(), instances.fwipw_mid()
    tracer = mod.Tracer()
    tracer.install()
    try:
        for variant in ("FW", "AFW", "BPFW", "IFW"):
            solvers.solve(edge.poly, edge.obj, variant, x0=edge.x0, max_iters=20)
        solvers.solve(mid.poly, mid.obj, "FWIPW", step="pow2", L=mid.L,
                      x0=mid.x0, max_iters=20)
    finally:
        tracer.uninstall()
    _, _, name, _ = tracer.arrays()
    calls = dict(zip(mod.SPAN_NAMES, np.bincount(name, minlength=len(mod.SPAN_NAMES))))
    assert {span: int(calls[span]) for span in SOLVER_PATH if calls[span] == 0} == {}
