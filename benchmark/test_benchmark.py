"""Self-tests of the benchmark runner: python3 -m pytest -q benchmark/test_benchmark.py"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "benchmark", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    report = json.loads(lines[-2])["report"]
    assert report["failed_frac"] == 0.0
    assert f"{workload} failed_frac = 0 ratio" in lines
    for phase in report["phases"]:
        assert any(line.startswith(f"{workload} {phase} = ") for line in lines)


def test_inflated_modulus_is_a_counted_failure():
    """Acceptance c05's negative control: a 10x inflated mu must be caught."""
    cases = workloads.build_certified(7, workloads.TINY)
    case = next(c for c in cases if c.name == "fw_segment/FW/ss")
    case = dataclasses.replace(case, max_iters=workloads.FULL.certified_iters)
    inst = case.inst
    tr = workloads.solvers.solve(inst.poly, inst.obj, "FW", step="ss", L=inst.L,
                                 max_iters=case.max_iters, gap_tol=case.gap_tol,
                                 x0=inst.x0, fstar=inst.fstar, record_points=True)

    honest = workloads.Ledger()
    workloads.verify_certified(case, tr, honest)
    assert honest.attempted > 0 and honest.failures == []

    radial = inst.derived["radial"]
    inflated = dict(inst.derived, radial=dataclasses.replace(radial, mu=10 * radial.mu))
    bad = dataclasses.replace(case, inst=dataclasses.replace(inst, derived=inflated))
    ledger = workloads.Ledger()
    workloads.verify_certified(bad, tr, ledger)
    assert ledger.attempted == honest.attempted
    assert len(ledger.failures) == 1
    assert ledger.failures[0].startswith("fw_segment/FW/ss envelope fw: violated")


def test_fails_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("certified", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
