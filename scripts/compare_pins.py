"""Compare the pinned traces of two source checkouts, record by record.

    python scripts/compare_pins.py OLD_CHECKOUT [NEW_CHECKOUT]

Each checkout runs, in its own process with its own ``src`` on the path,
every run that ``tests/test_trace_pins.py`` and ``tests/test_envelope_pins.py``
pin: the 55 certified runs with their envelope checks, the 16 large-n runs
and the four ``bench`` suites; then every solve of the benchmark's
``certified`` and ``structured`` workloads at seed 1.  NEW_CHECKOUT defaults to the checkout this
script is in.  For every pin whose digest differs, the script checks

* the same terminal reason and the same number of records;
* |delta f_val| <= 1e-13 max(1, |f_val|) at every record, and for f_final;
* equal case labels and step kinds, except at records where the two
  selected directions' <g, d> agree to 1e-12 relative in the new run (a tie
  that rounding may break either way); those records are listed;
* for envelope pins, equal verdicts (ok, t0, t1, first violation, records
  checked and skipped) for every check; for bench pins, equal summary rows
  apart from the final gap, the fitted exponent and r2.

Unmoved pins are listed by name.  For each moved run the first record where
the two runs take another step (another kind, or other vertices) is listed
under ``forks``, with the <g, v> values that decided it.  A fork where the
kinds' <g, d> or every differing pair's <g, v> tie starts a tie path: from
there a run may take another, equally valid path, so the f and label
differences after the fork, a different number of records and a moved
f_final are listed under ``tie paths``, not as problems.  A changed terminal
reason or envelope verdict, and any difference before the fork or after a
fork that is not a tie, stay problems.  The exit status is 1 when a moved
pin has a problem, else 0.

    python scripts/compare_pins.py --geometry OLD_CHECKOUT [NEW_CHECKOUT]

compares geometry values instead: the five sweeps that ``SWEEP_DIGESTS`` in
``tests/test_geometry.py`` pins (inner, outer and phi_lower_bound of every
proper face), the result rows of the benchmark's ``geometry`` workload at
seed 1, and ``minimal_supports(poly, x)`` at the x of every pair of that
round.  Every moved value is listed with its distance in units in the last
place of the old value, and every moved support list beside its old one; the
exit status is 1 when a value moves by more than 4 ulp, a pair's supports
differ, or the rows differ in number or labels, else 0.  For each sweep and
for the benchmark round it also prints the ``hull_distance`` calls each
checkout made, so a change that skips projections shows its cut beside its
verdict.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import subprocess
import sys
import tempfile

F_TOL = 1e-13
TIE_TOL = 1e-12
ULP_TOL = 4


# -- worker: runs inside one checkout --------------------------------------------


def _records(trace, steps):
    steps = steps + [None] * (len(trace.records) - len(steps))
    return [(r.t, r.f_val, r.case, r.step_kind, step)
            for r, step in zip(trace.records, steps)]


def _solve_capturing(solvers, fn, *args, **kwargs):
    """(result, steps): per iteration, the gradient and every candidate.

    A candidate is its kind mapped to (<g, d>, the vertices it names).  The
    support builders name support rows, which are read back as vertices.
    FW and FWIPW build no candidates, so their runs capture nothing.
    """
    import numpy as np

    seen = []
    names = ("candidates_afw", "candidates_bpfw", "candidates_ifw")
    originals = {name: getattr(solvers, name) for name in names}

    def spy(build):
        def wrapped(where, *rest):
            cands = build(where, *rest)
            g = np.array(rest[1] if build is originals["candidates_ifw"] else rest[0])
            out = {}
            for d in cands:
                named = d.payload if isinstance(d.payload, tuple) else (d.payload,)
                if hasattr(where, "vertex") and d.kind != "FW":
                    named = tuple(where.vertex(i) for i in named)
                out[d.kind] = (d.inner,
                               tuple(tuple(np.asarray(v).tolist()) for v in named))
            seen.append((g, out))
            return cands
        return wrapped

    for name in names:
        setattr(solvers, name, spy(originals[name]))
    try:
        return fn(*args, **kwargs), seen
    finally:
        for name in names:
            setattr(solvers, name, originals[name])


def _csv_digest(trace, tmp):
    path = os.path.join(tmp, "trace.csv")
    trace.to_csv(path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _summary(trace, steps):
    return {"reason": trace.terminal_reason, "f_final": trace.f_final,
            "records": _records(trace, steps)}


def worker(out_path):
    from fwpoly import harness, instances, solvers
    from fwpoly.objectives import curvature_constant

    import test_envelope_pins as ep
    import test_trace_pins as tp

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run_id, (factory, variant, step) in zip(tp.IDS, tp.RUNS):
            inst = factory()
            trace, steps = _solve_capturing(
                solvers, solvers.solve, inst.poly, inst.obj, variant, step=step,
                L=None if step == "ls" else inst.L, max_iters=tp.MAX_ITERS,
                gap_tol=tp.GAP_TOL, x0=inst.x0, fstar=inst.fstar)
            verdicts = []
            dim = inst.poly.dim()
            m = inst.poly.A.shape[0] if inst.poly.A.size else None
            for envelope_id, mu, theta in ep._checks(inst, variant):
                rep = harness.envelope_check(trace, envelope_id, mu, theta, inst.L,
                                             dim=dim, m=m)
                verdicts.append(((envelope_id, mu, theta),
                                 (rep.ok, rep.t0, rep.t1, rep.first_violation,
                                  rep.n_checked, rep.n_skipped), rep.worst_ratio))
            out[("trace", run_id)] = dict(_summary(trace, steps),
                                          digest=_csv_digest(trace, tmp))
            out[("envelope", run_id)] = dict(_summary(trace, steps), verdicts=verdicts,
                                             digest=ep._run_digest(factory, variant, step))
        problems = tp._large_problems()
        for run_id, (name, variant, step) in zip(tp.LARGE_IDS, tp.LARGE_RUNS):
            poly, obj = problems[name]
            L = None if step == "ls" else curvature_constant(obj, poly)
            trace, steps = _solve_capturing(
                solvers, solvers.solve, poly, obj, variant, step=step, L=L,
                max_iters=tp.LARGE_ITERS, gap_tol=1e-8)
            out[("large", run_id)] = dict(_summary(trace, steps),
                                          digest=_csv_digest(trace, tmp))
        for suite in sorted(ep.BENCH_PINS):
            runs = {}
            for inst_name, variant, step in harness._SUITES[suite]:
                inst = getattr(instances, inst_name)()
                (trace, rep), steps = _solve_capturing(
                    solvers, harness.check_instance_run, inst, variant, step=step,
                    max_iters=2000, gap_tol=1e-10)
                runs[f"{inst_name}-{variant}-{step}"] = dict(
                    _summary(trace, steps),
                    envelope=None if rep is None else rep.ok)
            bench_dir = os.path.join(tmp, suite)
            os.mkdir(bench_dir)
            rows = harness.bench(suite, bench_dir, max_iters=2000)
            digest = hashlib.sha256()
            for name in sorted(os.listdir(bench_dir)):
                digest.update(name.encode())
                with open(os.path.join(bench_dir, name), "rb") as fh:
                    digest.update(fh.read())
            out[("bench", suite)] = {"runs": runs, "rows": rows,
                                     "digest": digest.hexdigest()}
        sys.path.insert(0, os.path.join(os.environ["CHECKOUT"], "benchmark"))
        import workloads

        for workload in ("certified", "structured"):
            for case in workloads.build(workload, 1, workloads.FULL):
                trace, steps = _solve_capturing(
                    solvers, solvers.solve, case.poly, case.obj, case.variant,
                    step=case.step, L=case.L, max_iters=case.max_iters,
                    gap_tol=case.gap_tol, x0=case.x0, fstar=case.fstar)
                out[(workload, case.name)] = dict(_summary(trace, steps),
                                                  digest=_csv_digest(trace, tmp))
    with open(out_path, "wb") as fh:
        pickle.dump(out, fh)


def _geometry_row(line):
    """(label, values) of one benchmark result row: a quoted name, an index, values."""
    name, index, *values = line.rstrip("\n").split(",")
    label = name.strip("'") + " #" + index
    return label, tuple(None if v == "None" else float(v) for v in values)


def geometry_values(tg, workloads, size, calls):
    """Every sweep row that tg pins, the benchmark's geometry rows at seed 1
    and the minimal supports at each of its pairs' x (or the error raised).

    ``calls`` receives per value key the ``geometry.hull_distance`` calls
    made to collect it.
    """
    from fwpoly import geometry
    from fwpoly.polytope import PolytopeError

    out, made, hull_distance = {}, [], geometry.hull_distance
    geometry.hull_distance = lambda *args: made.append(1) or hull_distance(*args)
    try:
        for name in sorted(tg.SWEEP_DIGESTS):
            poly = tg.sweep_polytope(name)
            out[("sweep", name)] = [
                ("face " + ",".join(map(str, sorted(face.vset))), tuple(vals))
                for face, *vals in tg.sweep(poly, tg.face_lattice(poly))]
            calls[("sweep", name)] = len(made)
            made.clear()
        inputs = workloads.build("geometry", 1, size)
        with tempfile.TemporaryDirectory() as tmp:
            workloads.run_round("geometry", inputs, tmp, workloads.Ledger())
            with open(os.path.join(tmp, "geometry.csv")) as fh:
                out[("benchmark", "geometry")] = [_geometry_row(line) for line in fh]
        calls[("benchmark", "geometry")] = len(made)
    finally:
        geometry.hull_distance = hull_distance

    def supports(poly, x):
        try:
            return tuple(geometry.minimal_supports(poly, x))
        except PolytopeError as exc:
            return str(exc)

    out[("supports", "geometry")] = [(f"{gi.name} #{p}", supports(gi.poly, x))
                                     for gi in inputs for p, (_, x) in enumerate(gi.pairs)]
    return out


def geometry_worker(out_path):
    import test_geometry as tg

    sys.path.insert(0, os.path.join(os.environ["CHECKOUT"], "benchmark"))
    import workloads

    calls = {}
    values = geometry_values(tg, workloads, workloads.FULL, calls)
    with open(out_path, "wb") as fh:
        pickle.dump((values, calls), fh)


# -- driver: compares two checkouts ---------------------------------------------------


def _collect(checkout, tmp, label, worker_flag="--worker"):
    checkout = os.path.abspath(checkout)
    out_path = os.path.join(tmp, f"{label}.pkl")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", CHECKOUT=checkout,
               PYTHONPATH=os.pathsep.join([os.path.join(checkout, "src"),
                                           os.path.join(checkout, "tests")]))
    subprocess.run([sys.executable, os.path.abspath(__file__), worker_flag, out_path],
                   check=True, env=env, cwd=tmp)
    with open(out_path, "rb") as fh:
        return pickle.load(fh)


def _tie(a, b):
    """Whether two inner products agree to TIE_TOL, relative to max(1, |a|, |b|)."""
    return abs(a - b) <= TIE_TOL * max(1.0, abs(a), abs(b))


def _choice(step, kind):
    """(<g, d>, vertices) of the candidate of this kind, or None."""
    return None if step is None else step[1].get(kind)


def _kind_tie(step, kind0, kind1):
    """The two kinds' <g, d> in this step when they differ but tie, else None."""
    a, b = _choice(step, kind0), _choice(step, kind1)
    if kind0 != kind1 and a is not None and b is not None and _tie(a[0], b[0]):
        return a[0], b[0]
    return None


def _fork(old_rec, new_rec):
    """(text, tie) when the runs take another step at this record, else None.

    Another step is one of another kind, or of the same kind on other
    vertices; for those the text names the vertex pairs and their <g, v>
    values under the new run's gradient.  tie says whether the two kinds'
    <g, d>, or every pair's <g, v>, agree to TIE_TOL.
    """
    t, kind0, kind1 = old_rec[0], old_rec[3], new_rec[3]
    if kind0 != kind1:
        tie = _kind_tie(new_rec[4], kind0, kind1) is not None
        return f"t={t}: " + ("the tie above" if tie else f"{kind0} -> {kind1}, no tie"), tie
    c0, c1 = _choice(old_rec[4], kind0), _choice(new_rec[4], kind1)
    if c0 is None or c1 is None or c0[1] == c1[1]:
        return None
    g = new_rec[4][0]
    vals = [(float(g @ v0), float(g @ v1))
            for v0, v1 in zip(c0[1], c1[1]) if v0 != v1]
    return (f"t={t}: {kind0} step on other vertices, <g, v> "
            + "; ".join(f"{a:.17g} vs {b:.17g} ({'tie' if _tie(a, b) else 'no tie'})"
                        for a, b in vals)), all(_tie(a, b) for a, b in vals)


def _compare_run(old, new, report, where):
    """Compare two runs of one pin; returns the worst relative f difference.

    A fork decided by a tie starts a tie path: the f and label differences
    after it, a different record count and f_final are listed under
    "tie paths", not as problems.  A changed terminal reason stays a problem.
    """
    problems, paths = report["problems"], []
    worst = 0.0
    fork = tie_path = None
    for old_rec, new_rec in zip(old["records"], new["records"]):
        t, f0, case0, kind0, _ = old_rec
        _, f1, case1, kind1, step1 = new_rec
        on_path = tie_path is not None and t > tie_path
        listed = paths if on_path else problems
        rel = abs(f0 - f1) / max(1.0, abs(f0))
        worst = max(worst, rel)
        if rel > F_TOL:
            listed.append(f"{where} t={t}: f_val {f0!r} -> {f1!r}")
        if fork is None:
            fork = _fork(old_rec, new_rec)
            if fork is not None and fork[1]:
                tie_path = t
        if (case0, kind0) == (case1, kind1):
            continue
        text = f"{where} t={t}: {kind0}/case {case0} -> {kind1}/case {case1}"
        inner = _kind_tie(step1, kind0, kind1)
        if inner is not None and not on_path:
            report["ties"].append(f"{text}, <g, d> {inner[0]!r} vs {inner[1]!r}")
        else:
            listed.append(text)
    if old["reason"] != new["reason"]:
        problems.append(f"{where}: reason {old['reason']} -> {new['reason']}")
    listed = problems if tie_path is None else paths
    if len(old["records"]) != len(new["records"]):
        listed.append(f"{where}: {len(old['records'])} -> {len(new['records'])} records")
    rel = abs(old["f_final"] - new["f_final"]) / max(1.0, abs(old["f_final"]))
    worst = max(worst, rel)
    if rel > F_TOL:
        listed.append(f"{where}: f_final {old['f_final']!r} -> {new['f_final']!r}")
    if fork is not None:
        report["forks"].append(f"{where} {fork[0]}")
    if paths:
        report.setdefault("tie paths", []).extend(paths)
    return worst


def compare(old_tree, new_tree):
    with tempfile.TemporaryDirectory() as tmp:
        old = _collect(old_tree, tmp, "old")
        new = _collect(new_tree, tmp, "new")
    report = {"problems": [], "ties": [], "forks": [], "tie paths": []}
    unmoved = []
    for key in sorted(old):
        kind, name = key
        a, b = old[key], new[key]
        if a["digest"] == b["digest"]:
            unmoved.append(f"{kind}:{name}")
            continue
        if kind == "bench":
            worst = 0.0
            for run in a["runs"]:
                worst = max(worst, _compare_run(a["runs"][run], b["runs"][run], report,
                                                f"bench:{name} {run}"))
                if a["runs"][run]["envelope"] != b["runs"][run]["envelope"]:
                    report["problems"].append(f"bench:{name} {run}: envelope verdict changed")
            skip = ("final_gap", "exponent", "r2")
            for ra, rb in zip(a["rows"], b["rows"]):
                if {k: v for k, v in ra.items() if k not in skip} != \
                        {k: v for k, v in rb.items() if k not in skip}:
                    report["problems"].append(f"bench:{name}: summary row {ra} -> {rb}")
            print(f"moved  bench:{name}  {len(a['runs'])} runs, "
                  f"worst |df|/max(1,|f|) {worst:.2g}")
            continue
        worst = _compare_run(a, b, report, f"{kind}:{name}")
        line = (f"moved  {kind}:{name}  {len(a['records'])} -> {len(b['records'])} records, "
                f"{a['reason']} -> {b['reason']}, worst |df|/max(1,|f|) {worst:.2g}")
        if kind == "envelope":
            changed = [(check, va, vb) for (check, va, _), (_, vb, _)
                       in zip(a["verdicts"], b["verdicts"]) if va != vb]
            for check, va, vb in changed:
                report["problems"].append(f"envelope:{name} {check}: verdict {va} -> {vb}")
            line += f", {len(a['verdicts']) - len(changed)}/{len(a['verdicts'])} " \
                    "envelope verdicts equal"
        print(line)
    print(f"unmoved ({len(unmoved)}): {', '.join(unmoved)}")
    for section in ("ties", "forks", "tie paths", "problems"):
        print(f"{section} ({len(report[section])}):")
        for line in report[section]:
            print(f"  {line}")
    return 1 if report["problems"] else 0


def ulps(old, new):
    """|new - old| in units in the last place of old."""
    return abs(new - old) / math.ulp(old)


def compare_values(old, new):
    """(report lines, problems) for two geometry_values collections."""
    lines, problems, unmoved = [], [], []
    for key in sorted(old):
        where = ":".join(key)
        a, b = old[key], new.get(key, [])
        supports = key[0] == "supports"  # any change of a support list is a problem
        if [label for label, _ in a] != [label for label, _ in b] or not supports and any(
                len(va) != len(vb) for (_, va), (_, vb) in zip(a, b)):
            problems.append(f"{where}: rows differ in number, labels or length")
            continue
        if supports:
            moved = [f"{where} {label}: {x} -> {y}" for (label, x), (_, y) in zip(a, b)
                     if x != y]
            lines.extend("moved  " + line for line in moved)
            problems.extend(moved)
            if not moved:
                unmoved.append(where)
            continue
        moved = [(label, col, x, y) for (label, va), (_, vb) in zip(a, b)
                 for col, (x, y) in enumerate(zip(va, vb)) if x != y]
        if not moved:
            unmoved.append(where)
            continue
        total = sum(len(va) for _, va in a)
        dists = [math.inf if None in (x, y) else ulps(x, y) for _, _, x, y in moved]
        lines.append(f"moved  {where}  {len(moved)} of {total} values, "
                     f"worst {max(dists):.3g} ulp")
        for (label, col, x, y), d in zip(moved, dists):
            lines.append(f"  {label} value {col}: {x!r} -> {y!r} ({d:.3g} ulp)")
            if d > ULP_TOL:
                problems.append(f"{where} {label} value {col}: {d:.3g} ulp > {ULP_TOL}")
    lines.append(f"unmoved ({len(unmoved)}): {', '.join(unmoved)}")
    return lines, problems


def compare_geometry(old_tree, new_tree):
    with tempfile.TemporaryDirectory() as tmp:
        old, old_calls = _collect(old_tree, tmp, "old", "--geometry-worker")
        new, new_calls = _collect(new_tree, tmp, "new", "--geometry-worker")
    lines, problems = compare_values(old, new)
    print("\n".join(lines))
    print("hull_distance calls, old -> new:")
    for key in sorted(old_calls):
        print(f"  {':'.join(key)}  {old_calls[key]} -> {new_calls.get(key)}")
    print(f"problems ({len(problems)}):")
    for line in problems:
        print(f"  {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    elif sys.argv[1:2] == ["--geometry-worker"]:
        geometry_worker(sys.argv[2])
    elif sys.argv[1:2] == ["--geometry"]:
        sys.exit(compare_geometry(sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else here))
    else:
        sys.exit(compare(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else here))
