"""Acceptance gate: ten criteria, each a single test with pinned tolerances.

The per-criterion PASS/FAIL summary is printed by the conftest hook after the
run.  Expensive solver traces are shared through a module-scoped fixture; the
envelope negative controls reuse the same traces with an inflated growth
constant, which only changes the bound being checked, not the trajectory.
"""

import math
import time

import numpy as np
import pytest

from fwpoly._hulls import hull_distance
from fwpoly.geometry import (
    face_distance,
    face_lattice,
    facial_lower_bound,
    inner_facial_distance,
    outer_facial_distance,
    phi_lower_bound,
    phibar_lower_bound_std,
    radial_distance,
    vertex_distance,
)
from fwpoly.harness import (
    audit_drop_accounting,
    audit_fwipw,
    audit_ifw_dims,
    audit_progress,
    audit_selection,
    audit_scaling,
    envelope_check,
    fit_rate,
)
from fwpoly.instances import (
    edge_mid_std,
    fw_power4,
    fw_segment,
    fwipw_mid,
    fwipw_simplex5,
    interior_quadratic,
    random_vrep,
    truncated_simplex,
    wolfe_edge,
)
from fwpoly.polytope import Box, Simplex, StdFormPolytope, simplex_like_cube
from fwpoly.solvers import solve

from conftest import inv_sigma_bound

# pinned acceptance tolerances
TOL_PHI = 1e-9          # facial distance worked examples
TOL_LB = 1e-9           # lower bound soundness slack
TOL_ORDER = 1e-9        # distance ordering slack
REL_SLACK = 1e-8        # per-iteration audits and envelopes
TOL_FEAS = 1e-8         # iterate feasibility
TOL_ORACLE = 1e-8       # oracle cross-checks
FIT_R2 = 0.95
GAP_TARGET = 1e-10
MAX_RUN_SECONDS = 30.0

BOX2 = Box(np.zeros(2), np.ones(2))
BOX_2X1 = Box(np.zeros(2), np.array([2.0, 1.0]))


def _timed_solve(inst, variant, step, **kw):
    kw.setdefault("x0", inst.x0)
    t0 = time.perf_counter()
    tr = solve(inst.poly, inst.obj, variant, step=step, L=inst.L,
               fstar=inst.fstar, **kw)
    return tr, time.perf_counter() - t0


@pytest.fixture(scope="module")
def runs():
    """All solver traces the criteria share: (instance, trace, seconds)."""
    out = {}

    def add(key, inst, variant, step, **kw):
        tr, secs = _timed_solve(inst, variant, step, **kw)
        out[key] = (inst, tr, secs)

    add("iq_fw", interior_quadratic(), "FW", "ss", gap_tol=GAP_TARGET,
        max_iters=5000, record_points=True)
    add("seg_fw", fw_segment(), "FW", "ss", gap_tol=GAP_TARGET,
        max_iters=2000, record_points=True)
    add("p4_fw", fw_power4(), "FW", "ss", gap_tol=GAP_TARGET,
        max_iters=100000, record_points=True)
    for variant in ("AFW", "BPFW", "IFW"):
        add(f"wolfe_{variant.lower()}", wolfe_edge(), variant, "ss",
            gap_tol=GAP_TARGET, max_iters=2000, record_points=True)
    add("std_ifw", edge_mid_std(), "IFW", "ss", gap_tol=GAP_TARGET,
        max_iters=2000, record_points=True)
    add("ipw_mid", fwipw_mid(), "FWIPW", "pow2", gap_tol=GAP_TARGET,
        max_iters=1000, record_points=True)
    add("ipw_s5", fwipw_simplex5(), "FWIPW", "pow2", gap_tol=GAP_TARGET,
        max_iters=1000, record_points=True)
    add("wolfe_fw_ls", wolfe_edge(), "FW", "ls", gap_tol=1e-12,
        max_iters=100000)
    return out


def floor_cut(trace, floor=1e-12):
    """Last iteration whose measured gap is still above the cancellation floor."""
    ts, gaps = trace.gap_series()
    return float(ts[gaps >= floor][-1])


# -- 1: facial distance worked examples ---------------------------------------------


def test_c01_facial_distance_examples():
    t0 = time.perf_counter()
    # unit square, corner vertex
    assert inner_facial_distance(BOX2, [0]) == pytest.approx(
        math.sqrt(2) / 2, abs=TOL_PHI)
    assert outer_facial_distance(BOX2, [0]) == pytest.approx(1.0, abs=TOL_PHI)
    # stretched box [0,2] x [0,1]
    assert inner_facial_distance(BOX_2X1, [0]) == pytest.approx(
        2 / math.sqrt(5), abs=TOL_PHI)
    assert outer_facial_distance(BOX_2X1, [0]) == pytest.approx(1.0, abs=TOL_PHI)
    assert time.perf_counter() - t0 < 1.0


# -- 2: sigma lower bounds never exceed the exact facial distances --------------------


def test_c02_lower_bound_soundness():
    rng = np.random.default_rng(0)
    polys = [
        Simplex(2), Simplex(3), Simplex(4),
        BOX2, BOX_2X1, Box(np.zeros(3), np.ones(3)),
        truncated_simplex(0.6),
        StdFormPolytope(np.ones((1, 3)), np.array([1.0]), name="simplex3std"),
        simplex_like_cube(2),
        random_vrep(rng, n_points=7, dim=2),
        random_vrep(rng, n_points=8, dim=2),
        random_vrep(rng, n_points=9, dim=2),
    ]
    assert len(polys) >= 10
    n_faces = 0
    for poly in polys:
        lattice = face_lattice(poly)
        V = np.asarray(poly.enumerate_vertices())
        full = lattice[-1].vset
        for face in lattice:
            if face.vset == full:
                continue
            n_faces += 1
            exact_phi = inner_facial_distance(poly, face, lattice=lattice)
            assert phi_lower_bound(poly, face, lattice=lattice) <= exact_phi + TOL_LB
            rest = sorted(full - face.vset)
            exact_pair = hull_distance(V[sorted(face.vset)], V[rest])
            assert facial_lower_bound(poly, face) <= exact_pair + TOL_LB
    assert n_faces >= 30

    # standard-form corollary agrees with the general bound on 0/1 polytopes
    std_polys = [
        StdFormPolytope(np.ones((1, 3)), np.array([1.0]), name="simplex3std"),
        fwipw_simplex5().poly,
        simplex_like_cube(2),
    ]
    n_std = 0
    for poly in std_polys:
        lattice = face_lattice(poly)
        for face in lattice:
            if len(face.vset) == poly.n or face.vset == lattice[-1].vset:
                continue
            n_std += 1
            gen = facial_lower_bound(poly, face)
            assert gen == pytest.approx(inv_sigma_bound(poly, face.vset), rel=1e-12)
            assert phibar_lower_bound_std(poly, face) <= \
                outer_facial_distance(poly, face, lattice=lattice) + TOL_LB
    assert n_std >= 5


# -- 3: affine-invariant distance ordering -------------------------------------------


def test_c03_distance_ordering():
    polys = [Simplex(3), Simplex(4), BOX2, truncated_simplex(0.6)]
    rng = np.random.default_rng(2024)
    n_pairs = 0
    for poly in polys:
        for _ in range(50):
            x = poly.sample_point(rng)
            y = poly.sample_point(rng)
            n_pairs += 1
            f = face_distance(poly, y, x)
            v = vertex_distance(poly, y, x)
            assert f <= v + TOL_ORDER
            assert v <= 1.0 + TOL_ORDER
            if poly.minimal_face(x).dim == poly.dim():
                r = radial_distance(poly, y, x)
                assert v <= r + TOL_ORDER
                assert r <= 1.0 + TOL_ORDER
            # zero law: every distance vanishes only at y = x
            if np.allclose(x, y, atol=1e-13):
                assert f <= TOL_ORDER
            else:
                assert f > 0.0
    assert n_pairs == 200

    # vertex law, exact: the ray from any x through a vertex exits the polytope
    # at that vertex, so the radial distance to a vertex is exactly 1
    for poly in polys:
        V = poly.enumerate_vertices()
        for i, vtx in enumerate(V):
            for j, other in enumerate(V):
                if i != j:
                    assert radial_distance(poly, vtx, other) == pytest.approx(
                        1.0, abs=1e-12)
            x = poly.sample_point(rng)
            if not np.allclose(x, vtx, atol=1e-12):
                assert radial_distance(poly, vtx, x) == pytest.approx(
                    1.0, abs=1e-12)


# -- 4: per-iteration inequalities over instance x variant combos ---------------------


AUDIT_COMBOS = (
    ("iq_fw", "radial"),
    ("seg_fw", "radial"),
    ("p4_fw", "radial"),
    ("wolfe_afw", "vertex"),
    ("wolfe_bpfw", "vertex"),
    ("wolfe_ifw", "face"),
    ("std_ifw", "face"),
    ("ipw_mid", "face"),
    ("ipw_s5", "face"),
)


def test_c04_iteration_audits(runs):
    assert len(AUDIT_COMBOS) >= 6
    for key, kind in AUDIT_COMBOS:
        inst, tr, _ = runs[key]
        audit_progress(tr, inst.L, rel_slack=REL_SLACK).require()
        audit_selection(tr, rel_slack=REL_SLACK).require()
        audit_scaling(tr, inst.poly, inst.xstar_points, kind,
                      rel_slack=REL_SLACK).require()
        if tr.variant == "FWIPW":
            audit_fwipw(tr, inst.cert.mu, inst.cert.theta, inst.L,
                        rel_slack=REL_SLACK).require()


# -- 5: convergence envelopes, plus decisive inflated-constant controls ---------------


ENVELOPE_COMBOS = (
    ("iq_fw", "fw", "radial"),
    ("seg_fw", "fw", "radial"),
    ("p4_fw", "fw", "radial"),
    ("wolfe_afw", "afw", "vertex"),
    ("wolfe_bpfw", "bpfw", "vertex"),
    ("wolfe_ifw", "ifw", "face"),
    ("std_ifw", "ifw_std", "face"),
    ("ipw_mid", "fwipw", "face"),
    ("ipw_s5", "fwipw", "face"),
)


def _envelope(inst, tr, envelope_id, kind, mu_scale=1.0):
    cert = inst.derived[kind]
    m = inst.poly.A.shape[0] if inst.poly.A.size else None
    return envelope_check(tr, envelope_id, mu_scale * cert.mu, cert.theta,
                          inst.L, dim=inst.poly.dim(), m=m, rel_slack=REL_SLACK)


def test_c05_rate_envelopes(runs):
    for key, envelope_id, kind in ENVELOPE_COMBOS:
        inst, tr, secs = runs[key]
        assert secs < MAX_RUN_SECONDS, f"{key} took {secs:.1f}s"
        rep = _envelope(inst, tr, envelope_id, kind)
        assert rep.ok, (f"{key}: envelope violated at t={rep.first_violation}, "
                        f"worst ratio {rep.worst_ratio:.3g}")
        assert rep.worst_ratio <= 1.0 + REL_SLACK

    # negative controls: a 10x inflated growth constant must be caught, and
    # decisively so, on the instances whose envelopes are near-tight
    for key, envelope_id, kind in (("seg_fw", "fw", "radial"),
                                  ("ipw_mid", "fwipw", "face")):
        inst, tr, _ = runs[key]
        rep = _envelope(inst, tr, envelope_id, kind, mu_scale=10.0)
        assert not rep.ok
        assert rep.first_violation is not None
        assert rep.worst_ratio > 10.0


# -- 6: zigzag contrast between the vanilla and active-set solvers --------------------


def test_c06_zigzag_contrast(runs):
    _, ls_tr, _ = runs["wolfe_fw_ls"]
    assert len(ls_tr.records) == 100000  # the vanilla solver never converges here
    fit = fit_rate(ls_tr, window=(100, 100000))
    assert fit.regime == "sublinear"
    assert fit.exponent == pytest.approx(-1.0, abs=0.2)

    windows = {"wolfe_afw": 10, "wolfe_bpfw": 4, "wolfe_ifw": 4}
    for key, lo in windows.items():
        _, tr, _ = runs[key]
        assert tr.terminal_reason == "gap_tol"
        assert len(tr.records) <= 1000
        assert tr.fw_gap_final <= GAP_TARGET
        fit = fit_rate(tr, window=(lo, floor_cut(tr)), burn_in=lo,
                       min_points=10)
        assert fit.regime == "linear", f"{key}: {fit}"
        assert fit.r2 >= FIT_R2
        assert fit.ratio < 1.0


# -- 7: flat quartic growth halves the exponent to -2 ---------------------------------


def test_c07_flat_growth_rate(runs):
    _, tr, _ = runs["p4_fw"]
    fit = fit_rate(tr, window=(1000, 50000))
    assert fit.regime == "sublinear"
    assert fit.exponent == pytest.approx(-2.0, abs=0.3)


# -- 8: integer-step invariants of the pairwise solver --------------------------------


def test_c08_integer_step_invariants(runs):
    for key in ("ipw_mid", "ipw_s5"):
        inst, tr, _ = runs[key]
        assert len(tr.records) <= 1000
        poly = inst.poly
        for r in tr.records:
            assert poly.contains(r.x, tol=TOL_FEAS)
            frac, _ = math.frexp(r.eta)
            assert frac == 0.5, f"eta={r.eta!r} is not a power of two"
        assert poly.contains(tr.x_final, tol=TOL_FEAS)
        etas = [r.eta for r in tr.records]
        assert all(b <= a for a, b in zip(etas, etas[1:]))
        # every iterate is an integer lattice point at the current step scale
        for k, r in enumerate(tr.records):
            x_next = (tr.records[k + 1].x if k + 1 < len(tr.records)
                      else tr.x_final)
            alpha = x_next / r.eta
            assert np.abs(alpha - np.round(alpha)).max() <= 1e-9


# -- 9: drop-step accounting and in-face dimension decrease ---------------------------


def test_c09_drop_accounting(runs):
    n_drops = 0
    for key in ("wolfe_afw", "wolfe_bpfw"):
        _, tr, _ = runs[key]
        audit_drop_accounting(tr).require()
        n_drops += sum(1 for r in tr.records if r.case == 3)
    assert n_drops >= 1  # the start vertex is off the optimal face

    n_checked = 0
    for key in ("wolfe_ifw", "std_ifw"):
        _, tr, _ = runs[key]
        rep = audit_ifw_dims(tr).require()
        n_checked += rep.n_checked
    assert n_checked >= 1


# -- 10: oracle cross-checks against brute force --------------------------------------


def test_c10_oracle_cross_checks():
    rng = np.random.default_rng(42)
    polys = [
        Simplex(3), Simplex(4), BOX2, Box(np.zeros(3), np.ones(3)),
        truncated_simplex(0.6),
        StdFormPolytope(np.ones((1, 3)), np.array([1.0]), name="simplex3std"),
    ]
    n_lmo = n_step = 0
    while n_lmo < 100:
        poly = polys[n_lmo % len(polys)]
        V = np.asarray(poly.enumerate_vertices())
        k = int(rng.integers(1, len(V) + 1))
        subset = rng.choice(len(V), size=k, replace=False)
        x = rng.dirichlet(np.ones(k)) @ V[subset]
        g = rng.standard_normal(poly.n)

        # in-face oracle vs enumeration of the minimal face's vertices
        a = poly.in_face_lmo(x, g)
        W = poly.face_vertices(poly.minimal_face(x))
        assert len(W) >= 1
        brute = min(float(g @ w) for w in W)
        got = float(g @ a)
        assert abs(got - brute) <= TOL_ORACLE * max(1.0, abs(brute))
        assert poly.contains(a, tol=1e-10)
        n_lmo += 1

        # ratio-test step cap vs feasibility bisection along a chord
        y = poly.sample_point(rng)
        d = y - x
        if np.linalg.norm(d) < 1e-9:
            continue
        eta = poly.max_step(x, d)
        lo, hi = 1.0, 2.0
        while poly.contains(x + hi * d, tol=1e-12) and hi < 1e7:
            lo, hi = hi, hi * 2
        assert hi < 1e7
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if poly.contains(x + mid * d, tol=1e-12):
                lo = mid
            else:
                hi = mid
        assert abs(eta - lo) <= TOL_ORACLE * max(1.0, eta)
        n_step += 1
    assert n_step >= 90
