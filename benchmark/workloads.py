"""Inputs, fixed bodies of work and output checks of the three workloads.

``build`` makes a workload's inputs from a seed: it constructs every
polytope and objective and certifies every instance, which is the work the
``setup_s`` metric times.  ``run_round`` then runs the workload's fixed body
of work once through fwpoly's public API.  It times each operation, checks
every output into a ``Ledger`` and returns the timings with a digest of the
outputs.

Functions of fwpoly are always looked up through their module at call time
(``solvers.solve``, never a name imported into this file), so the wrappers
that the traced mode installs on those module attributes see every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from fwpoly import geometry, harness, instances, objectives, polytope, solvers

WORKLOADS = ("certified", "structured", "geometry")
CERT_KINDS = ("radial", "vertex", "face")

# Slacks of the checks, as pinned by the acceptance tests.
REL_SLACK = 1e-8
TOL_LAW = 1e-9


@dataclass(frozen=True)
class Size:
    """How much work one round does; FULL is what the benchmark measures."""

    zigzag_iters: int  # cap of the two acceptance-matrix zigzag runs
    certified_iters: int  # cap of every other certified run
    wolfe_dims: tuple  # one seeded Wolfe-type quadratic per simplex size
    structured_n: int
    structured_face_dim: int
    structured_rank: int
    structured_iters: int
    sphere_polytopes: int
    sphere_vertices: int
    pairs_per_polytope: int


FULL = Size(zigzag_iters=100_000, certified_iters=2000, wolfe_dims=(3, 4, 5),
            structured_n=500, structured_face_dim=50, structured_rank=5,
            structured_iters=100, sphere_polytopes=3, sphere_vertices=9,
            pairs_per_polytope=6)
TINY = Size(zigzag_iters=300, certified_iters=100, wolfe_dims=(3,),
            structured_n=30, structured_face_dim=4, structured_rank=2,
            structured_iters=8, sphere_polytopes=1, sphere_vertices=6,
            pairs_per_polytope=1)
SIZES = {"full": FULL, "tiny": TINY}


class Ledger:
    """Counts attempted operations and names every one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, op, ok, detail=""):
        """Count one operation whose outcome is ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail(op, detail)
        return ok

    def fail(self, op, detail):
        """Name a failure of an operation already counted."""
        self.failures.append(f"{op}: {detail}")

    def call(self, op, fn, *args, **kwargs):
        """Run one operation; an exception is a counted, named failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every failing op is recorded, never skipped
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
            return None

    def audit(self, op, fn, *args):
        """Run one audit; a report that is not ok is a named failure."""
        rep = self.call(op, fn, *args)
        if rep is not None and not rep.ok:
            t, msg = rep.failures[0]
            self.fail(op, f"t={t}: {msg}")


@dataclass
class RoundResult:
    ops: dict = field(default_factory=dict)  # (phase, operation) -> seconds
    digest: str = ""  # SHA-256 of the round's outputs (trace CSVs or result rows)
    iters: dict = field(default_factory=dict)  # variant -> solver iterations
    solve_by_variant: dict = field(default_factory=dict)  # variant -> seconds
    trace_bytes: int = 0  # bytes RunTrace.to_csv wrote

    def timed(self, phase, op, fn, *args, **kwargs):
        """Call fn and record its wall time as one timed operation."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ops[(phase, op)] = time.perf_counter() - t0

    @property
    def phases(self):
        out = {}
        for (phase, _), secs in self.ops.items():
            out[phase] = out.get(phase, 0.0) + secs
        return out

    @property
    def work_s(self):
        return sum(self.ops.values())


# -- certified ---------------------------------------------------------------------


@dataclass
class SolveCase:
    """One ``solvers.solve`` call of a round."""

    name: str
    poly: polytope.Polytope
    obj: objectives.Objective
    L: float
    fstar: float
    variant: str
    step: str
    max_iters: int
    gap_tol: float
    x0: np.ndarray | None = None
    inst: instances.Instance | None = None  # certified workload only


def certify(name, poly, obj, x0=None):
    """Build a certified instance the way ``fwpoly.instances`` does."""
    cert = objectives.holder_certificate(obj, poly)
    L = objectives.curvature_constant(obj, poly)
    derived = {kind: geometry.derive_error_bound(poly, cert.mu, cert.theta,
                                                 cert.points, kind)
               for kind in CERT_KINDS}
    return instances.Instance(name, poly, obj, cert, L, derived, x0)


def wolfe_quadratic(rng, n):
    """Diagonal quadratic on Simplex(n) with its optimum inside an edge.

    The gradient at the optimum is -1 on the edge and strictly larger off
    it, so the optimum is unique and lies in the relative interior of the
    edge.  The start is a vertex off the edge, where the vanilla solver
    zigzags, as on ``instances.wolfe_edge``.
    """
    i, j, k = (int(t) for t in rng.choice(n, size=3, replace=False))
    theta = rng.uniform(0.35, 0.65)
    xstar = np.zeros(n)
    xstar[i], xstar[j] = theta, 1.0 - theta
    q = rng.uniform(2.0, 6.0, n)
    g = -1.0 + rng.uniform(0.3, 0.7, n)
    g[[i, j]] = -1.0
    obj = objectives.Quadratic(np.diag(q), g - q * xstar)
    return certify(f"wolfe{n}", polytope.Simplex(n), obj, x0=np.eye(n)[k])


def _starts_at_vertex(inst):
    return inst.x0 is None or inst.poly.is_vertex(inst.x0)


def _accepted(inst):
    """(variant, step) pairs the instance's polytope and start point accept."""
    pairs = [(v, s) for v in ("FW", "AFW", "BPFW", "IFW") for s in ("ls", "ss")]
    if not _starts_at_vertex(inst):
        pairs = [(v, s) for v, s in pairs if v not in ("AFW", "BPFW")]
    if (isinstance(inst.poly, polytope.StdFormPolytope)
            and inst.poly.is_simplex_like() and _starts_at_vertex(inst)):
        pairs.append(("FWIPW", "pow2"))
    return pairs


# The acceptance matrix's zigzag runs keep their 100k-iteration cap.
ZIGZAG = {("wolfe_edge", "FW", "ls"): 1e-12, ("fw_power4", "FW", "ss"): 1e-10}


def build_certified(seed, size):
    rng = np.random.default_rng(seed)
    insts = [factory.__wrapped__() for factory in instances.ALL_CERTIFIED]
    for inst in insts:
        for kind in CERT_KINDS:
            if kind not in inst.derived:
                inst.derived[kind] = geometry.derive_error_bound(
                    inst.poly, inst.cert.mu, inst.cert.theta, inst.cert.points, kind)
    insts += [wolfe_quadratic(rng, n) for n in size.wolfe_dims]
    cases = []
    for inst in insts:
        for variant, step in _accepted(inst):
            key = (inst.name, variant, step)
            if key in ZIGZAG:
                cap, tol = size.zigzag_iters, ZIGZAG[key]
            else:
                cap, tol = size.certified_iters, 1e-10
            cases.append(SolveCase(f"{inst.name}/{variant}/{step}", inst.poly,
                                   inst.obj, inst.L, inst.fstar, variant, step,
                                   cap, tol, inst.x0, inst))
    return cases


ENVELOPE = {"FW": ("fw", "radial"), "AFW": ("afw", "vertex"),
            "BPFW": ("bpfw", "vertex"), "IFW": ("ifw", "face"),
            "FWIPW": ("fwipw", "face")}


def verify_certified(case, tr, ledger):
    """Audits, envelope and rate fit of one certified trace."""
    inst, poly = case.inst, case.inst.poly
    envelope_id, kind = ENVELOPE[case.variant]
    if case.variant == "IFW" and isinstance(poly, polytope.StdFormPolytope):
        envelope_id = "ifw_std"
    audits = [
        ("progress", harness.audit_progress, (tr, inst.L, REL_SLACK)),
        ("selection", harness.audit_selection, (tr, REL_SLACK)),
        ("scaling", harness.audit_scaling,
         (tr, poly, inst.xstar_points, kind, REL_SLACK)),
    ]
    if case.variant in ("AFW", "BPFW"):
        audits.append(("drop-accounting", harness.audit_drop_accounting, (tr,)))
    elif case.variant == "IFW":
        audits.append(("ifw-dims", harness.audit_ifw_dims, (tr,)))
    elif case.variant == "FWIPW":
        audits.append(("fwipw", harness.audit_fwipw,
                       (tr, inst.cert.mu, inst.cert.theta, inst.L, REL_SLACK)))
    for label, fn, args in audits:
        ledger.audit(f"{case.name} audit {label}", fn, *args)
    cert = inst.derived[kind]
    if cert.valid:
        op = f"{case.name} envelope {envelope_id}"
        m = poly.A.shape[0] if poly.A.size else None
        rep = ledger.call(op, harness.envelope_check, tr, envelope_id, cert.mu,
                          cert.theta, inst.L, dim=poly.dim(), m=m, rel_slack=REL_SLACK)
        if rep is not None and not rep.ok:
            ledger.fail(op,
                        f"violated at t={rep.first_violation}, "
                        f"worst ratio {rep.worst_ratio:.3g}")
    try:
        harness.fit_rate(tr)
    except ValueError:
        pass  # too few iterations above the noise floor for a fit, as in bench


def _solve_all(res, cases, ledger, record_points):
    """Time every solve; returns the (case, trace) pairs of those that ran."""
    traces = []
    for case in cases:
        tr = res.timed("solve_s", case.name, ledger.call, f"{case.name} solve",
                       solvers.solve, case.poly, case.obj, case.variant,
                       step=case.step, L=case.L, max_iters=case.max_iters,
                       gap_tol=case.gap_tol, x0=case.x0, fstar=case.fstar,
                       record_points=record_points)
        if tr is None:
            continue
        v = case.variant
        res.iters[v] = res.iters.get(v, 0) + len(tr.records)
        res.solve_by_variant[v] = (res.solve_by_variant.get(v, 0.0)
                                   + res.ops[("solve_s", case.name)])
        traces.append((case, tr))
    return traces


def _write_traces(res, traces, out_dir, phase):
    """Write every trace as CSV, timed under ``phase`` unless it is None."""
    paths = []
    for k, (case, tr) in enumerate(traces):
        path = os.path.join(out_dir, f"{k:03d}_{case.name.replace('/', '_')}.csv")
        if phase is None:
            tr.to_csv(path)
        else:
            res.timed(phase, case.name, tr.to_csv, path)
        paths.append(path)
    res.digest, res.trace_bytes = _digest_files(paths)


def run_certified(cases, out_dir, ledger):
    res = RoundResult()
    traces = _solve_all(res, cases, ledger, record_points=True)
    _write_traces(res, traces, out_dir, "trace_write_s")
    for case, tr in traces:
        res.timed("verify_s", case.name, verify_certified, case, tr, ledger)
    return res


# -- structured --------------------------------------------------------------------


def _low_rank_quadratic(rng, n, rank, xstar, gstar):
    """Positive-definite diagonal-plus-rank-r Q with gradient gstar at xstar."""
    U = rng.standard_normal((n, rank)) / math.sqrt(n)
    Q = np.diag(rng.uniform(1.0, 2.0, n)) + U @ U.T
    return objectives.Quadratic(Q, gstar - Q @ xstar)


def build_structured(seed, size):
    """Simplex(n) and Box(n) quadratics minimized on a face of dimension k.

    On the simplex the optimum has k + 1 positive coordinates with equal
    gradient entries and larger entries elsewhere.  On the unit box it has
    k free coordinates with zero gradient and the rest at a bound whose
    gradient sign holds it there.  Either way the minimizer is unique and
    the minimal face containing it has dimension k.
    """
    rng = np.random.default_rng(seed)
    n, k, r = size.structured_n, size.structured_face_dim, size.structured_rank
    problems = []

    supp = rng.choice(n, size=k + 1, replace=False)
    xstar = np.zeros(n)
    w = rng.uniform(0.5, 1.5, k + 1)
    xstar[supp] = w / w.sum()
    gstar = -1.0 + rng.uniform(0.5, 1.5, n)
    gstar[supp] = -1.0
    problems.append((polytope.Simplex(n),
                     _low_rank_quadratic(rng, n, r, xstar, gstar), xstar))

    free = rng.choice(n, size=k, replace=False)
    at_hi = rng.random(n) < 0.5
    xstar = np.where(at_hi, 1.0, 0.0)
    xstar[free] = rng.uniform(0.2, 0.8, k)
    gstar = np.where(at_hi, -1.0, 1.0) * rng.uniform(0.5, 1.5, n)
    gstar[free] = 0.0
    problems.append((polytope.Box(np.zeros(n), np.ones(n)),
                     _low_rank_quadratic(rng, n, r, xstar, gstar), xstar))

    cases = []
    for poly, obj, xstar in problems:
        fstar, L = obj.value(xstar), objectives.curvature_constant(obj, poly)
        for variant in ("FW", "AFW", "BPFW", "IFW"):
            for step in ("ls", "ss"):
                cases.append(SolveCase(f"{poly.name}/{variant}/{step}", poly, obj,
                                       L, fstar, variant, step,
                                       size.structured_iters, 1e-8))
    return cases


def run_structured(cases, out_dir, ledger):
    res = RoundResult()
    traces = _solve_all(res, cases, ledger, record_points=False)
    for case, tr in traces:
        ledger.audit(f"{case.name} audit progress", harness.audit_progress,
                     tr, case.L, REL_SLACK)
        ledger.audit(f"{case.name} audit selection", harness.audit_selection,
                     tr, REL_SLACK)
        if case.step == "ls":
            ledger.call(f"{case.name} monotone", tr.assert_monotone)
    _write_traces(res, traces, out_dir, None)
    return res


# -- geometry ----------------------------------------------------------------------


@dataclass
class GeometryInput:
    name: str
    poly: polytope.Polytope
    pairs: list  # (y, x) point pairs of the distance sweep


def sphere_polytope(rng, n_vertices, jitter=0.02):
    """V-rep polytope on n points of the unit sphere in R^3.

    A Fibonacci lattice on the sphere, rotated at random, each point moved
    by Gaussian noise of scale ``jitter`` and projected back onto the
    sphere.  Every point is then a vertex, and points in general position
    span a simplicial polytope, so the vertex count alone fixes the face
    count (2n - 4 facets, 3n - 6 edges) whatever the seed.  The even
    spread and the small jitter keep the cost of the facial sweep within a
    few percent across seeds (coefficient of variation about 5% for n = 9);
    independent uniform points vary it by about 15%.
    """
    i = np.arange(n_vertices) + 0.5
    polar = np.arccos(1.0 - 2.0 * i / n_vertices)
    azimuth = math.pi * (1.0 + math.sqrt(5.0)) * i
    P = np.column_stack([np.cos(azimuth) * np.sin(polar),
                         np.sin(azimuth) * np.sin(polar), np.cos(polar)])
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    P = P @ (Q * np.sign(np.diag(R))).T + jitter * rng.standard_normal(P.shape)
    return polytope.VRepPolytope(P / np.linalg.norm(P, axis=1, keepdims=True),
                                 name=f"sphere{n_vertices}")


def build_geometry(seed, size):
    rng = np.random.default_rng(seed)
    polys = [instances.named_polytope(name)
             for name in ("cube3", "truncsimplex", "cube2std")]
    polys.insert(2, polytope.StdFormPolytope(np.ones((1, 5)), np.array([1.0]),
                                             name="simplex5std"))
    polys += [sphere_polytope(rng, size.sphere_vertices)
              for _ in range(size.sphere_polytopes)]
    return [GeometryInput(f"{k}:{poly.name}", poly,
                          [(poly.sample_point(rng), poly.sample_point(rng))
                           for _ in range(size.pairs_per_polytope)])
            for k, poly in enumerate(polys)]


# Acceptance c01: facial distances of a corner of two pinned boxes.
C01 = (("box2", (1.0, 1.0), math.sqrt(2) / 2, 1.0),
       ("box_2x1", (2.0, 1.0), 2 / math.sqrt(5), 1.0))


def _c01(rows, ledger):
    for name, hi, inner_want, outer_want in C01:
        box = polytope.Box(np.zeros(2), np.array(hi))
        inner = ledger.call(f"{name} inner", geometry.inner_facial_distance, box, [0])
        outer = ledger.call(f"{name} outer", geometry.outer_facial_distance, box, [0])
        rows.append((name, 0, inner, outer))
        for label, got, want in (("inner", inner, inner_want),
                                 ("outer", outer, outer_want)):
            if got is not None and abs(got - want) > TOL_LAW:
                ledger.fail(f"{name} {label}", f"{got!r} != pinned {want!r}")


def _sweep(gi, rows, ledger):
    """Facial constants of every proper face, then the distance pairs."""
    poly = gi.poly
    lattice = ledger.call(f"{gi.name} face_lattice", geometry.face_lattice, poly)
    if lattice is None:
        return
    full = lattice[-1].vset
    for f, face in enumerate(lattice):
        if face.vset == full:
            continue
        op = f"{gi.name} face {sorted(face.vset)}"
        inner = ledger.call(f"{op} inner", geometry.inner_facial_distance,
                            poly, face, lattice=lattice)
        outer = ledger.call(f"{op} outer", geometry.outer_facial_distance,
                            poly, face, lattice=lattice)
        lower = ledger.call(f"{op} phi_lower_bound", geometry.phi_lower_bound,
                            poly, face, lattice=lattice)
        rows.append((gi.name, f, inner, outer, lower))
        if None not in (inner, lower) and lower > inner + TOL_LAW:
            ledger.fail(f"{op} phi_lower_bound", f"{lower!r} > exact {inner!r}")
    for p, (y, x) in enumerate(gi.pairs):
        op = f"{gi.name} pair {p}"
        r = ledger.call(f"{op} radial", geometry.radial_distance, poly, y, x)
        fd = ledger.call(f"{op} face", geometry.face_distance, poly, y, x)
        v = ledger.call(f"{op} vertex", geometry.vertex_distance, poly, y, x)
        rows.append((gi.name, p, r, fd, v))
        if None in (r, fd, v):
            continue
        if fd > v + TOL_LAW:
            ledger.fail(f"{op} ordering", f"face {fd!r} > vertex {v!r}")
        for label, d in (("radial", r), ("vertex", v)):
            if d > 1.0 + TOL_LAW:
                ledger.fail(f"{op} {label}", f"{d!r} > 1")


def run_geometry(inputs, out_dir, ledger):
    res = RoundResult()
    rows = []
    res.timed("geometry_s", "c01", _c01, rows, ledger)
    for gi in inputs:
        res.timed("geometry_s", gi.name, _sweep, gi, rows, ledger)
    path = os.path.join(out_dir, "geometry.csv")
    with open(path, "w") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    res.digest, _ = _digest_files([path])
    return res


# -- shared ------------------------------------------------------------------------


def _digest_files(paths):
    """SHA-256 over the files' names and bytes, in order, and the byte total."""
    h = hashlib.sha256()
    total = 0
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.basename(path).encode() + b"\0" + data)
        total += len(data)
    return h.hexdigest(), total


BUILDERS = {"certified": build_certified, "structured": build_structured,
            "geometry": build_geometry}
RUNNERS = {"certified": run_certified, "structured": run_structured,
           "geometry": run_geometry}


def build(workload, seed, size):
    return BUILDERS[workload](seed, size)


def run_round(workload, inputs, out_dir, ledger):
    """Run one round, writing its output files into an emptied ``out_dir``.

    Truncating a file that still has unwritten blocks makes ext4 flush them
    first, which costs tens of milliseconds per file, so every round writes
    new files instead of overwriting the last round's.
    """
    os.makedirs(out_dir, exist_ok=True)
    for entry in os.listdir(out_dir):
        os.unlink(os.path.join(out_dir, entry))
    return RUNNERS[workload](inputs, out_dir, ledger)
