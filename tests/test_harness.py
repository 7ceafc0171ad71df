"""Verification harness: recursion bounds, rate fits, envelopes, audits."""

import numpy as np
import pytest

from fwpoly import geometry
from fwpoly.harness import (
    audit_drop_accounting,
    audit_fwipw,
    audit_ifw_dims,
    audit_progress,
    audit_scaling,
    audit_selection,
    bench,
    borwein_bound,
    check_instance_run,
    detect_regimes,
    envelope_check,
    envelope_for,
    fit_rate,
)
from fwpoly.instances import (
    edge_mid_std,
    fw_segment,
    fwipw_mid,
    interior_quadratic,
    wolfe_edge,
)
from fwpoly.solvers import IterRecord, RunTrace, solve


def run(inst, variant, step="ss", gap_tol=1e-10, max_iters=2000, **kw):
    kw.setdefault("x0", inst.x0)
    return solve(inst.poly, inst.obj, variant, step=step, L=inst.L,
                 gap_tol=gap_tol, max_iters=max_iters, fstar=inst.fstar, **kw)


class TestBorweinBound:
    def test_harmonic_closed_form(self):
        # p=1, unit sigmas, beta0=1/2: bound is exactly 1/(2+t)
        b = borwein_bound(0.5, 1.0, np.ones(50))
        assert np.allclose(b, 1.0 / (2.0 + np.arange(51)))

    def test_dominates_simulated_recursion(self):
        rng = np.random.default_rng(7)
        for p in (0.5, 1.0):
            sig = rng.uniform(0.0, 1.0, size=200)
            beta = 0.8
            bound = borwein_bound(beta, p, sig)
            for t, s in enumerate(sig):
                beta = (1.0 - s * beta ** p) * beta
                assert beta <= bound[t + 1] * (1 + 1e-12)

    def test_zero_start(self):
        assert np.all(borwein_bound(0.0, 1.0, np.ones(5)) == 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            borwein_bound(0.5, 0.0, np.ones(3))
        with pytest.raises(ValueError):
            borwein_bound(-0.1, 1.0, np.ones(3))


class TestFitRate:
    @pytest.mark.parametrize("q", [-0.5, -1.0, -1.3, -2.0])
    def test_recovers_exact_power(self, q):
        ts = np.arange(1, 2001, dtype=float)
        fit = fit_rate((ts, ts ** q))
        assert fit.regime == "sublinear"
        assert fit.exponent == pytest.approx(q, abs=0.02)

    def test_detects_geometric_decay(self):
        ts = np.arange(0, 400, dtype=float)
        fit = fit_rate((ts, 2.0 * 0.9 ** ts))
        assert fit.regime == "linear"
        assert fit.ratio == pytest.approx(0.9, abs=1e-6)

    def test_window_and_burn_in(self):
        ts = np.arange(1, 1001, dtype=float)
        fit = fit_rate((ts, ts ** -1.0), window=(50, 800), burn_in=50)
        assert fit.window[0] >= 50 and fit.window[1] <= 800

    def test_short_window_rejected(self):
        ts = np.arange(1, 12, dtype=float)
        with pytest.raises(ValueError):
            fit_rate((ts, ts ** -1.0))


class TestEnvelopes:
    def test_fw_radial_passes(self):
        inst = fw_segment()
        cert = inst.derived["radial"]
        tr = run(inst, "FW", max_iters=500)
        rep = envelope_check(tr, "fw", cert.mu, cert.theta, inst.L,
                             dim=inst.poly.dim())
        assert rep.ok
        assert rep.first_violation is None
        assert rep.worst_ratio <= 1.0 + 1e-8
        assert rep.n_checked + rep.n_skipped == len(tr.records) + 1

    def test_inflated_modulus_fails(self):
        inst = fw_segment()
        cert = inst.derived["radial"]
        tr = run(inst, "FW", max_iters=500)
        rep = envelope_check(tr, "fw", 10 * cert.mu, cert.theta, inst.L,
                             dim=inst.poly.dim())
        assert not rep.ok
        assert rep.first_violation is not None
        assert rep.worst_ratio > 10.0

    def test_mu_must_be_positive(self):
        inst = fw_segment()
        tr = run(inst, "FW", max_iters=50)
        with pytest.raises(ValueError):
            envelope_check(tr, "fw", 0.0, 0.5, inst.L)

    def test_check_instance_run_wrapper(self):
        tr, rep = check_instance_run(wolfe_edge(), "AFW")
        assert rep.ok
        assert rep.envelope_id == "afw"
        assert tr.terminal_reason == "gap_tol"

    def test_check_instance_run_without_certificate(self):
        # the Wolfe optimum sits on an edge: no valid radial certificate
        tr, rep = check_instance_run(wolfe_edge(), "FW", step="ls", max_iters=200)
        assert rep is None
        assert len(tr.records) == 200

    def test_envelope_for(self):
        std, simplex = edge_mid_std().poly, wolfe_edge().poly
        assert envelope_for("IFW", std) == "ifw_std"
        assert envelope_for("ifw", simplex) == "ifw"
        assert envelope_for("BPFW", std) == "bpfw"


class TestRegimes:
    def test_fw_linear_theta_starts_immediately(self):
        inst = interior_quadratic()
        cert = inst.derived["radial"]
        tr = run(inst, "FW", gap_tol=1e-8, max_iters=3000)
        reg = detect_regimes(tr, "fw", cert.mu, cert.theta, inst.L)
        assert reg.t0 == 0 and reg.t1 is None

    def test_fwipw_t0_is_first_small_target(self):
        inst = fwipw_mid()
        tr = run(inst, "FWIPW", step="pow2", max_iters=1000)
        reg = detect_regimes(tr, "fwipw", 1.0, 0.5, inst.L)
        assert reg.t0 == min(r.t for r in tr.records if r.gamma < 1.0)

    def test_afw_has_constant_regime_end(self):
        inst = wolfe_edge()
        cert = inst.derived["vertex"]
        tr = run(inst, "AFW")
        reg = detect_regimes(tr, "afw", cert.mu, cert.theta, inst.L)
        assert reg.t1 is not None and reg.t1 >= reg.t0 - 1

    def test_empty_support_at_t0_ends_constant_regime_at_t0(self):
        # FW keeps no active set, so checked under afw its support at t0 is
        # empty: the tail is anchored at t0, not at the final gap
        inst = wolfe_edge()
        tr = run(inst, "FW", step="ls", max_iters=300)
        rep = envelope_check(tr, "afw", inst.cert.mu, 0.25, inst.L,
                             dim=inst.poly.dim())
        assert (rep.t0, rep.t1) == (0, 0)
        assert rep.first_violation != 1
        assert rep.ok

    def test_unknown_envelope_rejected(self):
        inst = wolfe_edge()
        tr = run(inst, "AFW")
        with pytest.raises(ValueError):
            detect_regimes(tr, "pgd", 1.0, 0.5, inst.L)


class TestAudits:
    def test_clean_run_passes_all(self):
        inst = wolfe_edge()
        tr = run(inst, "AFW")
        assert audit_progress(tr, inst.L).ok
        assert audit_selection(tr).ok
        assert audit_drop_accounting(tr).ok

    def test_progress_catches_tampering(self):
        inst = wolfe_edge()
        tr = run(inst, "AFW")
        tr.records[6].f_val += 1.0
        rep = audit_progress(tr, inst.L)
        assert not rep.ok
        with pytest.raises(AssertionError):
            rep.require()

    def test_selection_catches_positive_inner(self):
        inst = wolfe_edge()
        tr = run(inst, "AFW")
        tr.records[3].inner = 1.0
        assert not audit_selection(tr).ok

    def test_drop_accounting_prefix_rule(self):
        rec = IterRecord(0, 1.0, None, 1.0, 3, "Away", 0.1, 0.1, -0.5, 2)
        tr = RunTrace("AFW", [rec], "max_iters", np.zeros(2), 0.9, 0.5)
        assert not audit_drop_accounting(tr).ok
        assert audit_drop_accounting(tr, initial_support=2).ok

    def test_scaling_distance_seen_through_module(self, monkeypatch):
        # a wrapper on geometry.vertex_distance (as the benchmark tracer
        # installs) must see every distance the audit evaluates
        calls = []
        real = geometry.vertex_distance

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(geometry, "vertex_distance", counted)
        inst = wolfe_edge()
        tr = run(inst, "AFW", max_iters=50, record_points=True)
        rep = audit_scaling(tr, inst.poly, inst.xstar_points, "vertex")
        assert rep.ok
        assert len(calls) == rep.n_checked * len(inst.xstar_points) > 0

    def test_ifw_dims_decrease(self):
        inst = wolfe_edge()
        tr = run(inst, "IFW")
        rep = audit_ifw_dims(tr)
        assert rep.ok

    def test_ifw_dims_catch_stall(self):
        mk = lambda t, case, dim: IterRecord(t, 1.0 - 0.1 * t, None, 1.0, case,
                                             "InAway", 0.1, 0.1, -0.5, dim)
        recs = [mk(0, 3, 2), mk(1, 1, 2)]  # drop step, dimension unchanged
        tr = RunTrace("IFW", recs, "max_iters", np.zeros(3), 0.8, 0.5)
        assert not audit_ifw_dims(tr).ok

    def test_fwipw_structural(self):
        inst = fwipw_mid()
        tr = run(inst, "FWIPW", step="pow2", max_iters=1000)
        rep = audit_fwipw(tr, 1.0, 0.5, inst.L)
        assert rep.ok

    def test_fwipw_catches_non_power_step(self):
        inst = fwipw_mid()
        tr = run(inst, "FWIPW", step="pow2", max_iters=1000)
        tr.records[2].eta = 0.3
        assert not audit_fwipw(tr, 1.0, 0.5, inst.L).ok


class TestBench:
    def test_interior_suite(self, tmp_path):
        rows = bench("interior", tmp_path, max_iters=5000, gap_tol=1e-10)
        assert len(rows) == 3
        assert all(r["envelope"] == "pass" for r in rows)
        assert (tmp_path / "summary_interior.csv").exists()
        assert (tmp_path / "summary_interior.txt").exists()
        assert (tmp_path / "interior_quadratic_fw_ss.csv").exists()

    def test_unknown_suite(self, tmp_path):
        with pytest.raises(ValueError):
            bench("nope", tmp_path)
