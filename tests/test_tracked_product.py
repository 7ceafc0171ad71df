"""The quadratic's run-local evaluation: y = Qx kept at one product per step.

``Quadratic.product(d)`` is Q @ d, summed over Q's rows at d's nonzeros
when they are few.  A solve keeps y = Qx along the run, advances it by
eta Qd after each step and recomputes it as Q @ x at each drop step.  These
tests hold every tracked gradient and value to the exact ones, within the
drift bound the objectives module states, and check the refresh.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwpoly.instances import (
    fwipw_mid,
    fwipw_simplex5,
    interior_quadratic,
    random_vrep,
    wolfe_edge,
)
from fwpoly.objectives import (
    PowerDistance,
    Quadratic,
    QuadraticEvaluation,
    curvature_constant,
)
from fwpoly.polytope import Box, Simplex, StdFormPolytope
from fwpoly.solvers import solve

from test_trace_pins import _large_problems

# the drift bound: tracked g and f against the exact ones, relative to the
# scale of the terms they sum (see ``QuadraticEvaluation``)
DRIFT = 1e-12

RUNS = [(variant, step) for variant in ("FW", "AFW", "BPFW", "IFW")
        for step in ("ls", "ss")]


def _rounding_bound(Q, d):
    """Elementwise bound on the rounding of Q @ d: 4 n eps (|Q| @ |d|)."""
    return 4 * Q.shape[0] * np.finfo(float).eps * (np.abs(Q) @ np.abs(d))


def _psd(rng, n, kind):
    """Diagonal plus rank-2 (may be singular), or rank-2 alone (singular)."""
    U = rng.standard_normal((n, 2))
    Q = U @ U.T
    if kind == "diag+lowrank":
        Q = Q + np.diag(rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.7))
    return Q


class _Spy(QuadraticEvaluation):
    """Records (x, tracked g, tracked f) at each f_val call, one per record,
    and whether y equals Q @ x bit for bit after each refresh."""

    def __init__(self, obj, x):
        self.seen, self.refreshed = [], []
        super().__init__(obj, x)

    def f_val(self):
        f = super().f_val()
        self.seen.append((self.x.copy(), self.g.copy(), f))
        return f

    def advance(self, x, d, eta, refresh):
        super().advance(x, d, eta, refresh)
        if refresh:
            self.refreshed.append(np.array_equal(self.y, self.obj.Q @ x))


def _spied_solve(poly, obj, *args, **kwargs):
    """solve() with a spying evaluation; the objective is left as it was."""
    spies = []

    def evaluation(x):
        spies.append(_Spy(obj, x))
        return spies[-1]

    obj.evaluation = evaluation
    try:
        trace = solve(poly, obj, *args, **kwargs)
    finally:
        del obj.evaluation
    (spy,) = spies
    return trace, spy


class TestProduct:
    @pytest.mark.parametrize("nnz", [0, 1, 2, 5, 20, 60])
    def test_equals_dense_product_to_rounding(self, nnz):
        rng = np.random.default_rng(nnz)
        n = 60
        obj = Quadratic(_psd(rng, n, "diag+lowrank"), np.zeros(n))
        d = np.zeros(n)
        d[rng.choice(n, nnz, replace=False)] = rng.standard_normal(nnz)
        got = obj.product(d)
        assert got.shape == (n,)
        assert np.all(np.abs(got - obj.Q @ d) <= _rounding_bound(obj.Q, d))

    def test_unit_vector_gives_the_row_bit_for_bit(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 10, 60):
            obj = Quadratic(_psd(rng, n, "diag+lowrank"), np.zeros(n))
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1.0
                assert np.array_equal(obj.product(e), obj.Q[i])

    def test_line_model_matches_the_objective_to_rounding(self):
        rng = np.random.default_rng(2)
        n = 30
        obj = Quadratic(_psd(rng, n, "diag+lowrank"), rng.standard_normal(n))
        x = Simplex(n).sample_point(rng)
        ev = obj.evaluation(x)
        assert np.array_equal(ev.gradient(), obj.grad(x))
        for nnz in (2, 30):
            d = np.zeros(n)
            d[:nnz] = rng.standard_normal(nnz)
            slope, curv = ev.line_model(x, ev.gradient(), d)
            want_slope, want_curv = obj.line_model(x, obj.grad(x), d)
            assert slope == want_slope
            assert abs(curv - want_curv) <= 1e-13 * (np.abs(d) @ np.abs(obj.Q) @ np.abs(d))


def _problems(rng, n, kind):
    """(polytope, objective) on Simplex(n), a box and a random V-rep polytope."""
    vrep = random_vrep(rng, n_points=8, dim=3)
    lo = rng.uniform(-1.0, 0.0, n)
    for poly in (Simplex(n), Box(lo, lo + rng.uniform(0.5, 2.0, n)), vrep):
        m = poly.n
        yield poly, Quadratic(_psd(rng, m, kind), rng.standard_normal(m))


class TestTrackedEvaluation:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8),
           st.sampled_from(["diag+lowrank", "lowrank"]))
    def test_tracked_gradient_and_value_match_exact(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        cases = [(poly, obj, variant, step) for poly, obj in _problems(rng, n, kind)
                 for variant, step in RUNS]
        std = StdFormPolytope(np.ones((1, n)), [1.0])
        cases.append((std, Quadratic(_psd(rng, n, kind), rng.standard_normal(n)),
                      "FWIPW", "pow2"))
        for poly, obj, variant, step in cases:
            trace, spy = _spied_solve(poly, obj, variant, step=step, max_iters=100,
                                      gap_tol=1e-12, record_points=True)
            assert len(spy.seen) == len(trace.records)
            for rec, (x, g, f) in zip(trace.records, spy.seen):
                assert np.array_equal(rec.x, x) and rec.f_val == f
                scale = np.abs(obj.Q).max() * max(1.0, np.abs(x).sum()) \
                    + np.abs(obj.c).max()
                assert np.abs(g - obj.grad(x)).max() <= DRIFT * max(1.0, scale), \
                    (variant, step, rec.t)
                assert abs(f - obj.value(x)) <= DRIFT * max(
                    1.0, scale * max(1.0, np.abs(x).sum())), (variant, step, rec.t)
            assert all(spy.refreshed)
            drops = sum(r.case == 3 for r in trace.records)
            assert len(spy.refreshed) == drops

    @pytest.mark.parametrize("factory,variant,step", [
        (wolfe_edge, "AFW", "ls"),
        (fwipw_simplex5, "BPFW", "ss"),
        (fwipw_mid, "IFW", "ls"),
    ])
    def test_drop_step_recomputes_y_exactly(self, factory, variant, step):
        inst = factory()
        trace, spy = _spied_solve(inst.poly, inst.obj, variant, step=step, L=inst.L,
                                  x0=inst.x0, max_iters=300, gap_tol=1e-10)
        drops = [r.t for r in trace.records if r.case == 3]
        assert drops, "the run needs a drop step"
        assert spy.refreshed == [True] * len(drops)

    def test_drop_step_on_a_large_simplex(self):
        poly, obj = _large_problems()["simplex60"]
        trace, spy = _spied_solve(poly, obj, "AFW", step="ss",
                                  L=curvature_constant(obj, poly), max_iters=300,
                                  gap_tol=1e-10)
        assert sum(r.case == 3 for r in trace.records) == len(spy.refreshed) >= 1
        assert all(spy.refreshed)

    def test_start_gradient_is_exact(self):
        inst = wolfe_edge()
        ev = inst.obj.evaluation(inst.x0)
        assert np.array_equal(ev.gradient(), inst.obj.grad(inst.x0))
        assert np.array_equal(ev.y, inst.obj.Q @ inst.x0)

    def test_final_value_and_gap_are_exact(self):
        inst = interior_quadratic()
        trace = solve(inst.poly, inst.obj, "FW", step="ss", L=inst.L, max_iters=50)
        g = inst.obj.grad(trace.x_final)
        assert trace.f_final == inst.obj.value(trace.x_final)
        assert trace.fw_gap_final == float(g @ (trace.x_final - inst.poly.lmo(g)))


def test_stateless_evaluation_recomputes_from_x(monkeypatch):
    """An objective without a product of its own is evaluated at x each time."""
    obj = PowerDistance(np.full(4, 0.1), 4)
    calls = []
    monkeypatch.setattr(obj, "grad", lambda x, g=obj.grad: calls.append(x.copy()) or g(x))
    trace = solve(Simplex(4), obj, "AFW", step="ls", max_iters=20, gap_tol=1e-14,
                  record_points=True)
    # one gradient per record at that record's point, then the final one
    assert len(calls) >= len(trace.records) + 1
    for rec, x in zip(trace.records, calls):
        assert np.array_equal(rec.x, x)
