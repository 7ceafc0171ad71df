"""Verification harness: recursion bounds, rate fits, envelopes, audits."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from fwpoly import geometry, harness
from fwpoly.harness import (
    audit_drop_accounting,
    audit_fwipw,
    audit_ifw_dims,
    audit_progress,
    audit_scaling,
    audit_selection,
    bench,
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
from fwpoly.solvers import CSV_CHUNK_ROWS, STEP_COLUMNS, IterRecord, solve

from conftest import trace_of


def run(inst, variant, step="ss", gap_tol=1e-10, max_iters=2000, **kw):
    kw.setdefault("x0", inst.x0)
    return solve(inst.poly, inst.obj, variant, step=step, L=inst.L,
                 gap_tol=gap_tol, max_iters=max_iters, fstar=inst.fstar, **kw)


def tampered(trace, column, t, value):
    """The trace with one entry of a column replaced, the rest untouched."""
    data = getattr(trace, column).copy()
    data[t] = value
    return dataclasses.replace(trace, **{column: data})


def reference_progress(trace, L, rel_slack=harness.REL_SLACK):
    """audit_progress as one loop over the IterRecords."""
    recs, failures = trace.records, []
    for k, r in enumerate(recs):
        f_next = recs[k + 1].f_val if k + 1 < len(recs) else trace.f_final
        tol = rel_slack * max(1.0, abs(r.f_val))
        if r.step_kind == "PW":
            taken = r.f_val + r.eta * r.inner + r.eta ** 2 * L / 2.0
            if f_next > taken + tol:
                failures.append((r.t, f"pow2 majorant: {f_next!r} > {taken!r}"))
            continue
        loose = r.f_val - r.inner ** 2 / (2 * L)
        if r.case == 1 and f_next > loose + tol:
            failures.append((r.t, f"case 1: {f_next!r} > {loose!r}"))
        elif r.case == 2 and f_next > r.f_val + r.inner / 2.0 + tol and f_next > loose + tol:
            failures.append((r.t, f"case 2: {f_next!r} > max bound"))
        elif r.case == 3 and f_next > r.f_val + tol:
            failures.append((r.t, f"case 3 increased: {f_next!r} > {r.f_val!r}"))
    return harness.AuditReport("progress", not failures, len(recs), failures)


def whole_column_reports(trace, L, rel_slack=harness.REL_SLACK):
    """audit_progress and audit_selection as loops over whole columns, each
    converted to one list up front."""
    f_val, inner, fw_gap = trace.f_val.tolist(), trace.inner.tolist(), trace.fw_gap.tolist()
    f_next = f_val[1:] + [trace.f_final]
    strong = [None] * len(f_val) if trace.strong_gap is None else trace.strong_gap.tolist()
    f_gap = [None] * len(f_val) if trace.fstar is None else trace.f_gap.tolist()
    progress, selection = [], []
    for t, case in enumerate(trace.case.tolist()):
        f, nxt, g, tol = f_val[t], f_next[t], inner[t], rel_slack * max(1.0, abs(f_val[t]))
        loose = f - g ** 2 / (2 * L)
        if trace.step_kind[t] == "PW":
            taken = f + trace.eta[t].item() * g + trace.eta[t].item() ** 2 * L / 2.0
            if nxt > taken + tol:
                progress.append((t, f"pow2 majorant: {nxt!r} > {taken!r}"))
        elif case == 1 and nxt > loose + tol:
            progress.append((t, f"case 1: {nxt!r} > {loose!r}"))
        elif case == 2 and nxt > f + g / 2.0 + tol and nxt > loose + tol:
            progress.append((t, f"case 2: {nxt!r} > max bound"))
        elif case == 3 and nxt > f + tol:
            progress.append((t, f"case 3 increased: {nxt!r} > {f!r}"))
        tol = rel_slack * max(1.0, abs(f), fw_gap[t])
        if strong[t] is not None and g > -strong[t] / 2.0 + tol:
            selection.append((t, f"<g,d>={g!r} vs strong gap {strong[t]!r}"))
        if strong[t] is not None and strong[t] < fw_gap[t] - tol:
            selection.append((t, "strong gap below the plain gap"))
        if g > -fw_gap[t] + tol:
            selection.append((t, f"<g,d>={g!r} above -fw_gap={-fw_gap[t]!r}"))
        if f_gap[t] is not None and g > -f_gap[t] + tol:
            selection.append((t, f"<g,d>={g!r} above -(f-f*)"))
    return (harness.AuditReport("progress", not progress, len(f_val), progress),
            harness.AuditReport("selection", not selection, len(f_val), selection))


def reference_counts(trace, initial_support):
    """audit_drop_accounting and audit_ifw_dims as one loop over the IterRecords."""
    recs, drop_fails, dim_fails = trace.records, [], []
    good = drops = n_dims = 0
    for k, r in enumerate(recs):
        drops, good = drops + (r.case == 3), good + (r.case != 3)
        if not drop_fails and drops > good + initial_support - 1:
            drop_fails.append((r.t, f"{drops} drops vs {good} productive steps"))
        if r.case == 3 and k + 1 < len(recs):
            n_dims += 1
            nxt = recs[k + 1].support_or_face_dim
            if nxt > r.support_or_face_dim - 1:
                dim_fails.append((r.t, f"dim {r.support_or_face_dim} -> {nxt}"))
    return (harness.AuditReport("drop-accounting", not drop_fails, len(recs), drop_fails),
            harness.AuditReport("ifw-dims", not dim_fails, n_dims, dim_fails))


def reference_envelope_verdict(rep, fstar, rel_slack=harness.REL_SLACK):
    """(first violation, worst ratio, checked, skipped) of a report's gaps and
    bounds, as a loop over the points computes them."""
    noise_floor = 1e-13 * max(1.0, abs(fstar), float(rep.gaps[0]))
    first, worst, checked, skipped = None, 0.0, 0, 0
    for i, (g, b) in enumerate(zip(rep.gaps, rep.bounds)):
        if g <= noise_floor:
            skipped += 1
            continue
        checked += 1
        if b > 0:
            worst = max(worst, g / b)
        if g > b * (1.0 + rel_slack) and first is None:
            first = i
    return first, worst, checked, skipped


def reference_fwipw(trace, mu, theta, L, rel_slack=harness.REL_SLACK):
    """audit_fwipw as one loop over the IterRecords."""
    recs, failures, prev_eta = trace.records, [], 1.0
    t0 = next((r.t for r in recs if r.gamma < 1.0), len(recs))
    noise_floor = 1e-13 * max(1.0, abs(trace.fstar), recs[0].f_gap)
    for k, r in enumerate(recs):
        f_next = recs[k + 1].f_val if k + 1 < len(recs) else trace.f_final
        if math.frexp(r.eta)[0] != 0.5:
            failures.append((r.t, f"eta={r.eta!r} is not a power of two"))
        if r.eta > prev_eta * (1 + 1e-15):
            failures.append((r.t, f"eta increased: {prev_eta!r} -> {r.eta!r}"))
        if r.eta > r.gamma * (1 + 1e-12):
            failures.append((r.t, f"eta={r.eta!r} above target {r.gamma!r}"))
        prev_eta = r.eta
        if r.t >= t0 and r.f_gap > noise_floor:
            floor = mu ** theta * max(r.f_gap, 0.0) ** (1 - theta) / (2 * L)
            if r.eta < floor * (1 - rel_slack) - 1e-15:
                failures.append((r.t, f"eta={r.eta!r} below sandwich floor {floor!r}"))
            if f_next > r.f_val + rel_slack * max(1.0, abs(r.f_val)):
                failures.append((r.t, "gap increased past t0"))
    return harness.AuditReport("fwipw", not failures, len(recs), failures)


class TestBorweinBound:
    """``_tail_value`` bounds beta_{t+1} <= (1 - sigma_t beta_t^p) beta_t, p = 1 - 2 theta."""

    @staticmethod
    def bound(beta0, theta, sigmas):
        acc = np.concatenate([[0.0], np.cumsum(sigmas)])
        return np.array([harness._tail_value(beta0, theta, s) for s in acc])

    def test_harmonic_closed_form(self):
        # p = 1 (theta = 0), unit sigmas, beta0 = 1/2: the bound is exactly 1/(2+t)
        b = self.bound(0.5, 0.0, np.ones(50))
        assert np.allclose(b, 1.0 / (2.0 + np.arange(51)))

    def test_dominates_simulated_recursion(self):
        rng = np.random.default_rng(7)
        for theta, p in ((0.25, 0.5), (0.0, 1.0)):
            sig = rng.uniform(0.0, 1.0, size=200)
            beta = 0.8
            bound = self.bound(beta, theta, sig)
            for t, s in enumerate(sig):
                beta = (1.0 - s * beta ** p) * beta
                assert beta <= bound[t + 1] * (1 + 1e-12)

    def test_zero_start(self):
        assert np.all(self.bound(0.0, 0.0, np.ones(5)) == 0.0)


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


# the constants each harness check takes, and out-of-range values of each
_USES = {"envelope_check": "mu theta L rel_slack", "detect_regimes": "mu theta L",
         "audit_progress": "L rel_slack", "audit_selection": "rel_slack",
         "audit_scaling": "rel_slack", "audit_fwipw": "mu theta L rel_slack"}
_BAD = {"mu": (np.nan, np.inf, -1.0), "theta": (np.nan, 0.0, 0.75),
        "L": (np.nan, np.inf, 0.0, -1.0), "rel_slack": (np.nan, np.inf, -1e-8)}


class TestConstantsChecked:
    """A NaN, infinite or out-of-range constant raises ValueError.

    Unchecked, a NaN bound made every comparison pass (ok=True), and L = 0
    divided by zero.  Each function is called with the instance's certified
    constants, one of which is replaced by a bad value.
    """

    CALLS = {
        "envelope_check": lambda inst, tr, c: envelope_check(
            tr, "fw", c["mu"], c["theta"], c["L"], dim=inst.poly.dim(),
            rel_slack=c["rel_slack"]),
        "detect_regimes": lambda inst, tr, c: detect_regimes(
            tr, "fw", c["mu"], c["theta"], c["L"]),
        "audit_progress": lambda inst, tr, c: audit_progress(
            tr, c["L"], rel_slack=c["rel_slack"]),
        "audit_selection": lambda inst, tr, c: audit_selection(
            tr, rel_slack=c["rel_slack"]),
        "audit_scaling": lambda inst, tr, c: audit_scaling(
            tr, inst.poly, inst.xstar_points, "radial", rel_slack=c["rel_slack"]),
        "audit_fwipw": lambda inst, tr, c: audit_fwipw(
            tr, c["mu"], c["theta"], c["L"], rel_slack=c["rel_slack"]),
    }

    @pytest.fixture(scope="class")
    def traced(self):
        inst = interior_quadratic()
        cert = inst.derived["radial"]
        good = {"mu": cert.mu, "theta": cert.theta, "L": inst.L, "rel_slack": 1e-8}
        return inst, run(inst, "FW", max_iters=300, record_points=True), good

    @pytest.mark.parametrize("fn", sorted(CALLS))
    def test_certified_constants_accepted(self, traced, fn):
        inst, tr, good = traced
        self.CALLS[fn](inst, tr, good)

    @pytest.mark.parametrize("fn,name,bad", [
        (fn, name, bad) for fn, names in _USES.items()
        for name in names.split() for bad in _BAD[name]], ids=str)
    def test_bad_constant_raises(self, traced, fn, name, bad):
        inst, tr, good = traced
        with pytest.raises(ValueError, match="need finite mu"):
            self.CALLS[fn](inst, tr, {**good, name: bad})


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
        tr = tampered(tr, "f_val", 6, tr.f_val[6] + 1.0)
        rep = audit_progress(tr, inst.L)
        assert not rep.ok
        with pytest.raises(AssertionError):
            rep.require()

    def test_selection_catches_positive_inner(self):
        inst = wolfe_edge()
        tr = run(inst, "AFW")
        assert not audit_selection(tampered(tr, "inner", 3, 1.0)).ok

    def test_drop_accounting_prefix_rule(self):
        rec = IterRecord(0, 1.0, None, 1.0, 3, "Away", 0.1, 0.1, -0.5, 2)
        tr = trace_of([rec], "AFW", f_final=0.9, fw_gap_final=0.5)
        rep = audit_drop_accounting(tr)
        assert (rep.ok, rep.n_checked) == (False, 1)
        assert rep.failures == [(0, "1 drops vs 0 productive steps")]
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
        rep = audit_ifw_dims(trace_of(recs, "IFW", f_final=0.8, fw_gap_final=0.5))
        assert (rep.ok, rep.n_checked, rep.failures) == (False, 1, [(0, "dim 2 -> 2")])

    def test_fwipw_structural(self):
        inst = fwipw_mid()
        tr = run(inst, "FWIPW", step="pow2", max_iters=1000)
        rep = audit_fwipw(tr, 1.0, 0.5, inst.L)
        assert rep.ok
        with pytest.raises(ValueError, match="known optimal value"):
            audit_fwipw(dataclasses.replace(tr, fstar=None), 1.0, 0.5, inst.L)
        # with no step, the noise floor reads the final value
        assert audit_fwipw(run(inst, "FWIPW", step="pow2", max_iters=0), 1.0, 0.5,
                           inst.L) == harness.AuditReport("fwipw", True, 0, [])

    def test_fwipw_catches_non_power_step(self):
        inst = fwipw_mid()
        tr = run(inst, "FWIPW", step="pow2", max_iters=1000)
        assert not audit_fwipw(tampered(tr, "eta", 2, 0.3), 1.0, 0.5, inst.L).ok

    def test_each_step_reaches_the_next_value(self):
        tr = run(wolfe_edge(), "AFW")
        f_next = [f for _, f in tr.steps("f_next")]
        assert f_next == [r.f_val for r in tr.records[1:]] + [tr.f_final]
        assert list(tr.steps("gamma")) == [(t, None) for t in range(len(tr.f_val))]

    def test_column_audits_keep_record_reports(self):
        # the same verdicts, failure tuples and messages as a loop over records
        inst, mid = wolfe_edge(), fwipw_mid()
        tr = run(inst, "AFW")
        tr_ipw = run(mid, "FWIPW", step="pow2", max_iters=1000)
        case2 = tampered(tr, "case", 10, 2)
        seen = set()
        for trace in (tr, tampered(tr, "f_val", 6, tr.f_val[6] + 1.0),
                      tampered(case2, "f_val", 11, tr.f_val[11] + 1.0),  # case 2
                      tampered(tr, "f_val", 7, tr.f_val[7] + 1.0)):  # after the case-3 step 6
            report = audit_progress(trace, inst.L)
            assert report == reference_progress(trace, inst.L)
            seen |= {msg.split(":")[0] for _, msg in report.failures}
        assert seen == {"case 1", "case 2", "case 3 increased"}
        below = tampered(tr, "strong_gap", 3, tr.fw_gap[3] / 2.0)
        assert audit_selection(below) == whole_column_reports(below, inst.L)[1]
        assert (3, "strong gap below the plain gap") in audit_selection(below).failures
        reports = []
        for trace in (tr_ipw, tampered(tr_ipw, "eta", 2, 0.3),
                      tampered(tr_ipw, "eta", 5, tr_ipw.eta[5] / 2.0 ** 20),
                      tampered(tr_ipw, "f_val", 6, tr_ipw.f_val[6] + 1.0)):
            reports.append(audit_fwipw(trace, 1.0, 0.5, mid.L))
            assert reports[-1] == reference_fwipw(trace, 1.0, 0.5, mid.L)
            assert audit_progress(trace, mid.L) == reference_progress(trace, mid.L)
        assert [rep.ok for rep in reports] == [True, False, False, False]
        assert "below sandwich floor" in reports[2].failures[0][1]
        assert (5, "gap increased past t0") in reports[3].failures

    def test_audits_stream_a_long_trace_by_chunks(self):
        # three chunks and a bit: converted whole, the columns of the two
        # audits would take about 1.6 MiB of Python floats; a chunk at a time,
        # under 1 MiB, with the whole-column reports across chunk edges too
        inst = wolfe_edge()
        tr = run(inst, "FW", step="ls", gap_tol=1e-12, max_iters=3 * CSV_CHUNK_ROWS + 100)
        parts = list(tr.chunks())
        assert [lo for lo, _ in parts] == [k * CSV_CHUNK_ROWS for k in range(4)]
        assert np.array_equal(np.concatenate([part.f_val for _, part in parts]), tr.f_val)
        assert [part.f_final for _, part in parts] == (
            [tr.f_val[lo].item() for lo, _ in parts[1:]] + [tr.f_final])
        for audit in (lambda: audit_progress(tr, inst.L), lambda: audit_selection(tr)):
            tracemalloc.start()
            try:
                report = audit()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.ok and report.n_checked == len(tr.f_val) > 3 * CSV_CHUNK_ROWS
            assert peak < 2 ** 20
        edge = CSV_CHUNK_ROWS  # step edge - 1 reaches the first value of the next chunk
        bad = tampered(tampered(tr, "f_val", edge, tr.f_val[edge] + 1.0), "inner", 7, 1.0)
        progress, selection = audit_progress(bad, inst.L), audit_selection(bad)
        assert (progress, selection) == whole_column_reports(bad, inst.L)
        assert [t for t, _ in progress.failures] == [7, edge - 1]
        tr.assert_monotone()
        a, b = tr.f_val[edge - 1].item(), tr.f_val[edge].item() + 1.0
        with pytest.raises(AssertionError, match=re.escape(f"increased: {a!r} -> {b!r}")):
            bad.assert_monotone()
        low = tr.f_final - 1.0  # a last step below the value it reached
        with pytest.raises(AssertionError, match=re.escape(f"{low!r} -> {tr.f_final!r}")):
            tampered(tr, "f_val", len(tr.f_val) - 1, low).assert_monotone()

    def test_chunks_slice_the_step_columns_only(self):
        # a per-step field left out of STEP_COLUMNS would reach the audits whole
        for inst, variant, step in ((wolfe_edge(), "FW", "ss"), (wolfe_edge(), "AFW", "ss"),
                                    (fwipw_mid(), "FWIPW", "pow2")):
            tr = run(inst, variant, step, gap_tol=1e-14, max_iters=CSV_CHUNK_ROWS + 10,
                     record_points=True)
            T = len(tr.f_val)
            assert T != len(tr.x_final)  # FW's run crosses a chunk edge
            per_step = {f.name for f in dataclasses.fields(tr)
                        if np.shape(getattr(tr, f.name))[:1] == (T,)}
            assert per_step <= set(STEP_COLUMNS)
            for lo, part in tr.chunks():
                for f in dataclasses.fields(tr):
                    mine, whole = getattr(part, f.name), getattr(tr, f.name)
                    if f.name in STEP_COLUMNS and whole is not None:
                        cut = whole[lo:lo + CSV_CHUNK_ROWS]
                        assert np.array_equal(np.asarray(mine), np.asarray(cut))
                    elif f.name != "f_final":
                        assert mine is whole

    def test_counting_audits_keep_record_reports(self):
        inst = wolfe_edge()
        afw, ifw = run(inst, "AFW"), run(inst, "IFW")
        drop = int(np.flatnonzero(ifw.case[:-1] == 3)[0])
        stalled = tampered(ifw, "support_or_face_dim", drop + 1, ifw.support_or_face_dim[drop])
        verdicts = []
        for trace in (afw, ifw, stalled, tampered(afw, "case", 0, 3)):
            for initial_support in (0, 1, 2):
                drops, dims = reference_counts(trace, initial_support)
                assert audit_drop_accounting(trace, initial_support) == drops
                assert audit_ifw_dims(trace) == dims
                verdicts.append((drops.ok, dims.ok))
        assert (True, True) in verdicts and (True, False) in verdicts
        assert not all(ok for ok, _ in verdicts)

    def test_envelope_verdict_matches_a_loop_over_points(self):
        # the worst ratio keeps its type too: the envelope pins hash its repr
        seg, edge = fw_segment(), wolfe_edge()
        checks = [(run(seg, "FW", max_iters=500), "fw", seg, seg.derived["radial"].mu),
                  (run(edge, "AFW"), "afw", edge, edge.derived["vertex"].mu)]
        seen = set()
        for tr, envelope_id, inst, mu in checks:
            for scale in (1.0, 10.0, 1e6):
                rep = envelope_check(tr, envelope_id, scale * mu, 0.5, inst.L,
                                     dim=inst.poly.dim())
                first, worst, checked, skipped = reference_envelope_verdict(rep, tr.fstar)
                assert (rep.ok, rep.first_violation, rep.n_checked, rep.n_skipped) == (
                    first is None, first, checked, skipped)
                assert repr(rep.worst_ratio) == repr(worst)
                seen.add(rep.ok)
        assert seen == {True, False}


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
