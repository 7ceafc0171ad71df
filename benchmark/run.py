"""Benchmark runner for fwpoly.

    python3 benchmark/run.py --workload certified --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports fwpoly from its
``src/`` directory.  The load is one caller in one process, in a closed
loop: the runner repeats the workload's fixed body of work (one round)
until ``--seconds`` have passed, at least once, and reports per-round
medians.  BLAS and OpenMP are pinned to one thread.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
processes that import fwpoly and build and certify every input),
``work_s`` (the round's timed phases) and ``peak_rss_mb``.  ``--trace 1``
also runs the untraced rounds, then one more round with spans around each
layer's public functions, and prints the per-layer metrics plus the
tracing overhead.  Either way the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it name every failed operation and give the phase times, the
output digests and the versions the run used.  Outputs go to
``.bench_out/<workload>/`` in the checkout.  See benchmark/README.md.
"""

import os
import sys

# Pin the thread pools before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9
# timed phases of a round; each workload has some of them
PHASES = ("solve_s", "trace_write_s", "verify_s", "geometry_s")
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("certified", "structured", "geometry"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few iterations of each op, for self-tests")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_workloads():
    """Import the workload module against this checkout's fwpoly sources."""
    if not os.path.isfile(os.path.join(SRC, "fwpoly", "solvers.py")):
        sys.exit(f"benchmark: no fwpoly sources under {SRC}")
    sys.path.insert(0, SRC)
    import workloads

    import fwpoly.solvers
    if not os.path.abspath(fwpoly.solvers.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: fwpoly was imported from {fwpoly.solvers.__file__}")
    return workloads


def setup_child(args):
    """One fresh-process set-up: import fwpoly, build and certify the inputs."""
    t0 = time.perf_counter()
    workloads = import_workloads()
    workloads.build(args.workload, args.seed, workloads.SIZES[args.size])
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"benchmark: set-up process exited with {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def run_rounds(workloads, args, inputs, ledger, out_dir):
    """Repeat the body of work until the time is up; digests must agree."""
    rounds = []
    t_begin = time.perf_counter()
    while not rounds or time.perf_counter() - t_begin < args.seconds:
        res = workloads.run_round(args.workload, inputs, out_dir, ledger)
        if rounds:
            ledger.check(f"round {len(rounds)} digest", res.digest == rounds[0].digest,
                         f"{res.digest} differs from round 0's {rounds[0].digest}")
        rounds.append(res)
    return rounds


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/status") as fh:  # Linux only
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "process_threads": threads}


def per_layer_names():
    """Every metric ``--trace 1`` reports, in output order."""
    from tracer import metric_names

    return metric_names() + [f"phase.{p}" for p in PHASES] + ["tracing.overhead_ratio"]


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_child:
        setup_child(args)
        return 0
    workloads = import_workloads()
    size = workloads.SIZES[args.size]
    out_dir = os.path.join(OUT, args.workload)
    traces_dir = os.path.join(out_dir, "outputs")

    setup_s = measure_setup(args) if args.trace == 0 else None
    ledger = workloads.Ledger()
    inputs = workloads.build(args.workload, args.seed, size)
    rounds = run_rounds(workloads, args, inputs, ledger, traces_dir)
    op_s = {op: statistics.median(r.ops.get(op, 0.0) for r in rounds)
            for op in rounds[0].ops}
    work_s = sum(op_s.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases = {}
    for (phase, _), secs in op_s.items():
        phases[phase] = phases.get(phase, 0.0) + secs
    report = {"workload": args.workload, "seed": args.seed,
              "round_work_s": [r.work_s for r in rounds],
              "digest": rounds[0].digest, "phases": phases}

    if args.trace == 0:
        metrics = {"setup_s": (setup_s, "s"), "work_s": (work_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            t_inputs = workloads.build(args.workload, args.seed, size)
            traced = workloads.run_round(args.workload, t_inputs, traces_dir, ledger)
        finally:
            tracer.uninstall()
        ledger.check("traced digest", traced.digest == rounds[0].digest,
                     f"{traced.digest} differs from the untraced {rounds[0].digest}")
        solve_by_variant = {v: statistics.median(r.solve_by_variant.get(v, 0.0)
                                                 for r in rounds)
                            for v in rounds[0].solve_by_variant}
        values = tracer.metrics(rounds[0].iters, solve_by_variant, traced.trace_bytes)
        values.update({f"phase.{p}": phases.get(p, 0.0) for p in PHASES})
        values["tracing.overhead_ratio"] = traced.work_s / work_s
        tracer.save(os.path.join(out_dir, "spans.npz"))
        metrics = {name: (values[name], _unit(name)) for name in per_layer_names()}
        report["traced_phases"] = traced.phases

    attempted, failed = ledger.attempted, len(ledger.failures)
    report["failed_frac"] = failed / attempted
    report["peak_rss_mb"] = peak_rss_mb
    if setup_s is not None:
        report["setup_s"] = setup_s
    report["environment"] = environment()
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    for name, value in [("setup_s", setup_s), *phases.items(),
                        ("peak_rss_mb", peak_rss_mb),
                        ("failed_frac", report["failed_frac"])]:
        if value is not None:
            print(f"{args.workload} {name} = {value:.6g} {_unit(name)}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name):
    """Unit of a metric, from its name's suffix."""
    suffix = name.rsplit(".", 1)[-1]
    for end, unit in (("_s", "s"), ("_mb", "MB"), ("calls", "count"),
                      ("iters", "count"), ("bytes", "bytes")):
        if suffix.endswith(end):
            return unit
    return "us" if suffix.startswith("us_per") else "ratio"


if __name__ == "__main__":
    sys.exit(main())
