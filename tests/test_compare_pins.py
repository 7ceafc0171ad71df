"""Smoke tests for ``scripts/compare_pins.py``.

The script compares the pinned runs of two checkouts, and it reaches into
the pin modules and the harness for their rosters.  These tests run its
record comparison on synthetic runs (a tie, a fork, a moved value, a tie
path), capture
one small run the way its worker does, and check that every roster name the
worker looks up still resolves, so a rename fails here rather than in the
next comparison.  Its geometry mode is run on a small benchmark round and
its value comparison on synthetic rows.
"""

import ast
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_pins.py"


def _load(name, path):
    """The module at path, registered as name (dataclasses look it up there)."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


cp = _load("compare_pins", SCRIPT)

A, B, C = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
G = np.array([0.5, 0.5, -1.0])


def _rec(t, f, kind, case=1, step=None):
    return (t, f, case, kind, step)


def _run(records, reason="gap_tol", f_final=0.0):
    return {"reason": reason, "f_final": f_final, "records": records}


def _compare(old, new):
    report = {"problems": [], "ties": [], "forks": []}
    worst = cp._compare_run(old, new, report, "run")
    return report, worst


def test_equal_runs_report_nothing():
    step = (G, {"FW": (-1.0, (C,)), "BPFW": (-0.5, (A, C))})
    run = _run([_rec(0, 1.0, "FW", step=step), _rec(1, 0.5, "BPFW", step=step)])
    report, worst = _compare(run, run)
    assert report == {"problems": [], "ties": [], "forks": []}
    assert worst == 0.0


def test_label_flip_at_a_tie_is_listed_not_a_problem():
    old = _run([_rec(0, 1.0, "FW", step=(G, {"FW": (-1.0, (C,)), "Away": (-1.0, (A,))}))])
    new = _run([_rec(0, 1.0, "Away",
                     step=(G, {"FW": (-1.0, (C,)), "Away": (-1.0 + 1e-15, (A,))}))])
    report, _ = _compare(old, new)
    assert report["problems"] == []
    assert len(report["ties"]) == 1 and "FW/case 1 -> Away/case 1" in report["ties"][0]
    assert report["forks"] == ["run t=0: the tie above"]


def test_label_flip_without_a_tie_is_a_problem():
    old = _run([_rec(0, 1.0, "FW", step=(G, {"FW": (-1.0, (C,)), "Away": (-0.5, (A,))}))])
    new = _run([_rec(0, 1.0, "Away", step=(G, {"FW": (-1.0, (C,)), "Away": (-0.5, (A,))}))])
    report, _ = _compare(old, new)
    assert report["problems"] == ["run t=0: FW/case 1 -> Away/case 1"]


def test_fork_onto_tied_vertices_is_named():
    old = _run([_rec(0, 1.0, "BPFW", step=(G, {"BPFW": (-1.5, (A, C))}))])
    new = _run([_rec(0, 1.0, "BPFW", step=(G, {"BPFW": (-1.5, (B, C))}))])
    report, _ = _compare(old, new)
    assert report["problems"] == []
    assert report["forks"] == ["run t=0: BPFW step on other vertices, <g, v> 0.5 vs 0.5 (tie)"]


def _forked(vertices):
    """Old and new runs that fork at t=0 onto other vertices, then move and run longer."""
    old = _run([_rec(0, 1.0, "BPFW", step=(G, {"BPFW": (-1.5, (A, C))})),
                _rec(1, 0.5, "FW"), _rec(2, 0.25, "FW")], f_final=0.125)
    new = _run([_rec(0, 1.0, "BPFW", step=(G, {"BPFW": (-1.5, (vertices, C))})),
                _rec(1, 0.5 + 1e-9, "FW"), _rec(2, 0.25, "Away"), _rec(3, 0.2, "FW")],
               f_final=0.1)
    return old, new


def test_tie_path_after_a_tied_fork_is_listed_not_a_problem():
    report, _ = _compare(*_forked(B))
    assert report["problems"] == []
    assert report["forks"] == ["run t=0: BPFW step on other vertices, <g, v> 0.5 vs 0.5 (tie)"]
    assert report["tie paths"] == [
        "run t=1: f_val 0.5 -> 0.500000001",
        "run t=2: FW/case 1 -> Away/case 1",
        "run: 3 -> 4 records",
        "run: f_final 0.125 -> 0.1",
    ]


def test_the_same_moves_after_a_fork_without_a_tie_are_problems():
    report, _ = _compare(*_forked((1.0, 1.0, 0.0)))
    assert report["forks"] == ["run t=0: BPFW step on other vertices, <g, v> "
                               "0.5 vs 1 (no tie)"]
    assert report["problems"] == [
        "run t=1: f_val 0.5 -> 0.500000001",
        "run t=2: FW/case 1 -> Away/case 1",
        "run: 3 -> 4 records",
        "run: f_final 0.125 -> 0.1",
    ]
    assert "tie paths" not in report


def test_moved_values_lengths_and_reasons_are_problems():
    old = _run([_rec(0, 1.0, "FW"), _rec(1, 0.5, "FW")], f_final=0.25)
    new = _run([_rec(0, 1.0 + 1e-12, "FW")], reason="max_iters", f_final=0.25 + 1e-14)
    report, worst = _compare(old, new)
    assert report["problems"] == [
        "run t=0: f_val 1.0 -> 1.000000000001",
        "run: reason gap_tol -> max_iters",
        "run: 2 -> 1 records",
    ]
    assert worst == pytest.approx(1e-12)


def test_solve_capturing_records_every_candidate_set():
    from fwpoly import instances, solvers

    inst = instances.interior_quadratic()
    build = solvers.candidates_bpfw
    trace, steps = cp._solve_capturing(solvers, solvers.solve, inst.poly, inst.obj,
                                       "BPFW", max_iters=50)
    assert solvers.candidates_bpfw is build
    assert len(steps) == len(trace.records) > 0
    # the worker's summary reads the columnar trace through its records view
    assert cp._records(trace, steps) == list(zip(
        range(len(trace.f_val)), trace.f_val.tolist(), trace.case.tolist(),
        trace.step_kind, steps))
    for g, cands in steps:
        assert set(cands) == {"FW", "BPFW"}
        inner, (away, local) = cands["BPFW"]
        assert inner == pytest.approx(float(g @ (np.array(local) - np.array(away))))


def _worker_lookups():
    """(module alias, attribute) for every attribute the worker reads off a module."""
    tree = ast.parse(SCRIPT.read_text())
    worker = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "worker")
    aliases = {"tp", "ep", "harness", "instances", "solvers", "workloads"}
    return sorted({(n.value.id, n.attr) for n in ast.walk(worker)
                   if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                   and n.value.id in aliases})


def test_worker_lookups_resolve():
    modules = {
        "tp": importlib.import_module("test_trace_pins"),
        "ep": importlib.import_module("test_envelope_pins"),
        "harness": importlib.import_module("fwpoly.harness"),
        "instances": importlib.import_module("fwpoly.instances"),
        "solvers": importlib.import_module("fwpoly.solvers"),
        "workloads": _load("benchmark_workloads", ROOT / "benchmark" / "workloads.py"),
    }
    lookups = _worker_lookups()
    assert {alias for alias, _ in lookups} >= {"tp", "ep", "harness", "workloads"}
    missing = [f"{alias}.{name}" for alias, name in lookups
               if not hasattr(modules[alias], name)]
    assert not missing


def test_ulps_counts_units_in_the_last_place_of_the_old_value():
    assert cp.ulps(1.0, 1.0) == 0.0
    assert cp.ulps(1.0, np.nextafter(1.0, 2.0)) == 1.0
    assert cp.ulps(0.75, 0.75 - 4 * math.ulp(0.75)) == 4.0


def test_compare_values_lists_moved_values_and_fails_above_four_ulp():
    x = 0.7475122422746558
    old = {("sweep", "a"): [("face 0", (x, 1.0))],
           ("sweep", "b"): [("face 0", (x, 1.0)), ("face 1", (0.5, 2.0))],
           ("sweep", "c"): [("face 0", (x,))],
           ("benchmark", "geometry"): [("box2 #0", (x,))]}
    new = {("sweep", "a"): [("face 0", (x, 1.0))],
           ("sweep", "b"): [("face 0", (x + math.ulp(x), 1.0)), ("face 1", (0.5, 2.0))],
           ("sweep", "c"): [("face 1", (x,))],
           ("benchmark", "geometry"): [("box2 #0", (x + 5 * math.ulp(x),))]}
    lines, problems = cp.compare_values(old, new)
    assert "moved  sweep:b  1 of 4 values, worst 1 ulp" in lines
    assert f"  face 0 value 0: {x!r} -> {x + math.ulp(x)!r} (1 ulp)" in lines
    assert lines[-1] == "unmoved (1): sweep:a"
    assert problems == ["benchmark:geometry box2 #0 value 0: 5 ulp > 4",
                        "sweep:c: rows differ in number, labels or length"]


def test_geometry_mode_collects_every_pinned_sweep_and_benchmark_row():
    import test_geometry as tg

    workloads = _load("benchmark_workloads", ROOT / "benchmark" / "workloads.py")
    values = cp.geometry_values(tg, workloads, workloads.TINY)
    assert sorted(values) == [("benchmark", "geometry")] + [
        ("sweep", name) for name in sorted(tg.SWEEP_DIGESTS)]
    assert len(values[("sweep", "cube3")]) == 26
    assert values[("benchmark", "geometry")][0] == ("box2 #0", (math.sqrt(2) / 2, 1.0))
    lines, problems = cp.compare_values(values, values)
    assert problems == [] and lines == [f"unmoved ({len(values)}): " + ", ".join(
        ":".join(key) for key in sorted(values))]
