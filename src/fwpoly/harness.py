"""Trace verification harness.

Everything here consumes a finished RunTrace and checks it against the
convergence theory: per-iteration progress bounds, direction-selection and
scaling inequalities, drop-step accounting, regime boundaries (t0, t1), the
full rate envelopes, and empirical rate-exponent fits.  The envelopes are
exact transcriptions of the certified bounds, so a failure flags either a bad
certificate or a solver bug.

All envelope and audit routines assume the trace recorded every iteration
(the solvers do this unconditionally) and that the run started at a vertex,
which is the solvers' default initialization.

Every envelope follows one template.  A productive step cuts the gap by at
least mu^{2 theta} gap^{1-2 theta} / (c L) and may cost up to k iterations
(the drop steps it pays for).  The bound halves every k iterations up to
t0, the first t where that cut is at most half the gap; with a t1 offset it
then stays at gap(t0) up to t1 = (support or face size at t0) + t0 + offset;
then the Borwein tail (geometric at theta = 1/2) takes one step per k
iterations.  The families differ only in their row of ENVELOPES:

    envelope   c   k     t1 offset   certificate
    fw         2   1     none        radial
    afw, bpfw  8   2     -1          vertex
    ifw        8   dim   none        face
    ifw_std    8   m     0           face
    fwipw      4   1     none        face

FWIPW alone takes t0 from its curvature targets (the first below one) and
anchors its geometric tail at t0.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import distance_for
from .polytope import StdFormPolytope

# default check slacks; acceptance-pinned
REL_SLACK = 1e-8


def _check_constants(mu=1.0, theta=0.5, L=1.0, rel_slack=0.0):
    """Raise ValueError unless mu, L > 0 and rel_slack >= 0 are finite and 0 < theta <= 1/2."""
    if not (0.0 < mu < math.inf and 0.0 < theta <= 0.5 and 0.0 < L < math.inf
            and 0.0 <= rel_slack < math.inf):
        raise ValueError(f"need finite mu, L > 0, 0 < theta <= 1/2, rel_slack >= 0; got "
                         f"mu={mu!r}, theta={theta!r}, L={L!r}, rel_slack={rel_slack!r}")


# -- Borwein-style recursion bound -----------------------------------------------


def _tail_value(anchor_gap, theta, sigma_sum):
    """Closed-form Borwein tail (p = 1 - 2*theta) from a measured anchor gap."""
    if anchor_gap <= 0.0:
        return 0.0
    p = 1.0 - 2.0 * theta
    return (anchor_gap ** (-p) + p * sigma_sum) ** (-1.0 / p)


# -- rate fitting ------------------------------------------------------------------


@dataclass
class RateFit:
    regime: str  # "linear" | "sublinear" | "inconclusive"
    exponent: float  # slope of log gap vs log t (sublinear hypothesis)
    ratio: float  # per-iteration factor exp(slope) (linear hypothesis)
    r2_sublinear: float
    r2_linear: float
    window: tuple
    n_points: int

    @property
    def r2(self):
        if self.regime == "linear":
            return self.r2_linear
        return self.r2_sublinear


def _r2(y, yhat):
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res <= 1e-20 else 0.0
    return max(0.0, 1.0 - ss_res / ss_tot)


def fit_rate(trace, window=None, burn_in=10, min_points=20):
    """Fit log gap against log t (sublinear) and against t (linear).

    ``trace`` is a RunTrace with known optimal value, or a (ts, gaps) pair.
    The first ``burn_in`` iterations are discarded as transient and the fit
    uses at most 120 log-spaced sample indices, so long traces weigh late
    iterations sensibly under both hypotheses.  Model selection is by
    r-squared with a tie margin: within 0.02 the regime is reported
    "inconclusive".
    """
    if hasattr(trace, "gap_series"):
        ts, gaps = trace.gap_series()
    else:
        ts, gaps = trace
        ts = np.asarray(ts, dtype=float)
        gaps = np.asarray(gaps, dtype=float)
    keep = (ts >= burn_in) & (gaps > 0)
    if window is not None:
        keep &= (ts >= window[0]) & (ts <= window[1])
    ts, gaps = ts[keep], gaps[keep]
    if len(ts) < min_points:
        raise ValueError(f"window too short for a rate fit: {len(ts)} < {min_points}")
    # log-spaced subsample over the surviving index range, deduplicated
    idx = np.unique(np.geomspace(1, len(ts), num=min(120, len(ts))).astype(int) - 1)
    st, sg = ts[idx], np.log(gaps[idx])

    sub_coef = np.polyfit(np.log(st), sg, 1)
    r2_sub = _r2(sg, np.polyval(sub_coef, np.log(st)))
    lin_coef = np.polyfit(st, sg, 1)
    r2_lin = _r2(sg, np.polyval(lin_coef, st))

    if abs(r2_lin - r2_sub) <= 0.02:
        regime = "inconclusive"
    elif r2_lin > r2_sub:
        regime = "linear"
    else:
        regime = "sublinear"
    return RateFit(regime, float(sub_coef[0]), float(math.exp(lin_coef[0])),
                   r2_sub, r2_lin, (float(ts[0]), float(ts[-1])), len(st))


# -- regime detection ---------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeFamily:
    """One row of the rate template (see the module docstring)."""

    c: float  # progress constant of a productive step
    epoch: object  # iterations per productive step: a count, "dim" or "m"
    t1_offset: int | None  # None: no constant regime after t0
    cert_kind: str  # set distance of the certificate the rate consumes


ENVELOPES = {
    "fw": EnvelopeFamily(2, 1, None, "radial"),
    "afw": EnvelopeFamily(8, 2, -1, "vertex"),
    "bpfw": EnvelopeFamily(8, 2, -1, "vertex"),
    "ifw": EnvelopeFamily(8, "dim", None, "face"),
    "ifw_std": EnvelopeFamily(8, "m", 0, "face"),
    "fwipw": EnvelopeFamily(4, 1, None, "face"),
}


def envelope_for(variant, poly):
    """The envelope id of a solver variant on a polytope."""
    if variant.upper() == "IFW" and isinstance(poly, StdFormPolytope):
        return "ifw_std"
    return variant.lower()


@dataclass
class Regimes:
    t0: int
    t1: int | None  # end of the constant regime where the envelope has one


def _halving_t0(gaps, mu, theta, L, denom):
    """Smallest t with mu^{2 theta} gap_t^{1-2 theta} / (denom L) <= 1/2."""
    thresh = mu ** (2 * theta) * np.maximum(gaps, 0.0) ** (1 - 2 * theta) / (denom * L)
    hits = np.nonzero(thresh <= 0.5 + 1e-15)[0]
    return int(hits[0]) if len(hits) else len(gaps) - 1


def _gamma_t0(trace):
    """FWIPW: first iteration whose curvature target drops below one."""
    hits = () if trace.gamma is None else np.flatnonzero(trace.gamma < 1.0)
    return int(hits[0]) if len(hits) else len(trace.f_val)


def detect_regimes(trace, envelope_id, mu, theta, L):
    """Regime boundaries (t0, t1) per the envelope definitions, from the trace."""
    _check_constants(mu, theta, L)
    gaps = None if envelope_id == "fwipw" else trace.gap_series()[1]
    return _regimes(trace, envelope_id, gaps, mu, theta, L)


def _regimes(trace, envelope_id, gaps, mu, theta, L):
    """detect_regimes on checked constants and the trace's gap series (unread by fwipw)."""
    if envelope_id not in ENVELOPES:
        raise ValueError(f"unknown envelope id {envelope_id!r}")
    if envelope_id == "fwipw":
        return Regimes(_gamma_t0(trace), None)
    fam = ENVELOPES[envelope_id]
    t0 = _halving_t0(gaps, mu, theta, L, fam.c)
    if fam.t1_offset is None:
        return Regimes(t0, None)
    # constant regime ends once the support or face present at t0 is worked off
    if t0 < len(trace.f_val):
        size = int(trace.support_or_face_dim[t0])
        return Regimes(t0, max(t0, size + t0 + fam.t1_offset))
    return Regimes(t0, t0)


# -- certified envelopes ---------------------------------------------------------------


@dataclass
class EnvelopeReport:
    ok: bool
    envelope_id: str
    t0: int
    t1: int | None
    first_violation: int | None
    worst_ratio: float  # max gap/bound over checked points
    n_checked: int
    n_skipped: int  # points under the noise floor
    bounds: np.ndarray = field(repr=False, default=None)
    gaps: np.ndarray = field(repr=False, default=None)


def _envelope_series(trace, envelope_id, mu, theta, L, dim, m):
    _, gaps = trace.gap_series()
    t = np.arange(len(gaps))
    reg = _regimes(trace, envelope_id, gaps, mu, theta, L)
    fam = ENVELOPES[envelope_id]
    k = {"dim": dim, "m": m}.get(fam.epoch, fam.epoch)
    if k is None or k < 1:
        raise ValueError(f"the {envelope_id} envelope needs {fam.epoch} >= 1, got {k}")
    e = np.ceil(t / k)
    linear_theta = theta >= 0.5 - 1e-12
    if linear_theta and envelope_id != "fwipw":
        rho = min(max(mu / (fam.c * L), 0.0), 0.5)
        return gaps, gaps[0] * (1.0 - rho) ** e, reg

    def anchor(i):
        return gaps[i] if i < len(gaps) else 0.0

    t0 = reg.t0
    b = np.empty(len(gaps))
    b[: t0 + 1] = gaps[0] / 2.0 ** e[: t0 + 1]
    if linear_theta:  # FWIPW: geometric tail anchored at t0
        rho = min(max(mu / (fam.c * L), 0.0), 1.0)
        for i in t[t0 + 1:]:
            b[i] = anchor(t0) * (1.0 - rho) ** (i - t0)
        return gaps, b, reg
    ta = t0 if reg.t1 is None else reg.t1  # the tail's anchor
    b[t0 + 1: ta + 1] = anchor(t0)
    sig = mu ** (2 * theta) / (fam.c * L)
    epochs = np.ceil((t - ta) / k)
    for i in range(max(t0, ta) + 1, len(gaps)):
        b[i] = _tail_value(anchor(ta), theta, sig * epochs[i])
    return gaps, b, reg


def envelope_check(trace, envelope_id, mu, theta, L, dim=None, m=None,
                   rel_slack=REL_SLACK):
    """Assert gap_t <= certified bound at every recorded t, with relative slack.

    ``dim`` is the polytope dimension (needed by ``ifw``) and ``m`` the
    row count of a standard-form polytope (needed by ``ifw_std``).  Points
    whose measured gap sits below the floating-point noise floor of the
    objective evaluation are skipped rather than compared; by then the
    measured gap is dominated by cancellation error.
    """
    _check_constants(mu, theta, L, rel_slack)
    gaps, bounds, reg = _envelope_series(trace, envelope_id, mu, theta, L, dim, m)
    noise_floor = 1e-13 * max(1.0, abs(trace.fstar), float(gaps[0]))
    checked = ~(gaps <= noise_floor)  # a NaN gap is checked and fails nothing
    ratios = np.divide(gaps, bounds, out=np.zeros_like(gaps), where=checked & (bounds > 0))
    over = np.flatnonzero(checked & (gaps > bounds * (1.0 + rel_slack)))
    first = int(over[0]) if over.size else None
    worst = max(0.0, np.fmax.reduce(ratios, initial=0.0))  # np.float64 unless 0.0
    return EnvelopeReport(first is None, envelope_id, reg.t0, reg.t1, first, worst,
                          int(checked.sum()), int((~checked).sum()), bounds, gaps)


# -- per-iteration audits -------------------------------------------------------------


@dataclass
class AuditReport:
    name: str
    ok: bool
    n_checked: int
    failures: list = field(default_factory=list)  # (t, message)

    def require(self):
        if not self.ok:
            t, msg = self.failures[0]
            raise AssertionError(f"{self.name} audit failed at t={t}: {msg}")
        return self


def audit_progress(trace, L, rel_slack=REL_SLACK):
    """Per-step progress bounds, by case label.

    Case 1 must satisfy the quadratic decrease f+ <= f - <g,d>^2 / (2L).
    Case 2 satisfies the halving bound f+ <= f + <g,d>/2 when the curvature
    target -<g,d>/L reaches eta_max, and the quadratic decrease otherwise
    (line search is never worse than the majorant minimizer, so the
    disjunction of the two bounds is what is actually guaranteed).
    Case 3 guarantees monotonicity only.

    Power-of-two steps (step_kind "PW") are not majorant minimizers, so for
    them every case is checked against the curvature majorant evaluated at
    the step actually taken: f+ <= f + eta <g,d> + eta^2 L / 2.
    """
    _check_constants(L=L, rel_slack=rel_slack)
    failures = []
    for t, f_val, f_next, inner, eta, case, kind in trace.steps(
            "f_val", "f_next", "inner", "eta", "case", "step_kind"):
        tol = rel_slack * max(1.0, abs(f_val))
        if kind == "PW":
            taken = f_val + eta * inner + eta ** 2 * L / 2.0
            if f_next > taken + tol:
                failures.append((t, f"pow2 majorant: {f_next!r} > {taken!r}"))
            continue
        loose = f_val - inner ** 2 / (2 * L)
        if case == 1 and f_next > loose + tol:
            failures.append((t, f"case 1: {f_next!r} > {loose!r}"))
        elif case == 2 and f_next > f_val + inner / 2.0 + tol and f_next > loose + tol:
            failures.append((t, f"case 2: {f_next!r} > max bound"))
        elif case == 3 and f_next > f_val + tol:
            failures.append((t, f"case 3 increased: {f_next!r} > {f_val!r}"))
    return AuditReport("progress", not failures, len(trace.f_val), failures)


def audit_selection(trace, rel_slack=REL_SLACK):
    """Direction-selection inequalities.

    For the active-set and in-face variants the chosen direction satisfies
    <g,d> <= <g, v-a>/2 < 0 and <g,d> <= -fw_gap; with a known optimal value
    the chain extends to <g,d> <= f* - f.
    """
    _check_constants(rel_slack=rel_slack)
    failures = []
    for t, f_val, fw_gap, inner, strong_gap, f_gap in trace.steps(
            "f_val", "fw_gap", "inner", "strong_gap", "f_gap"):
        tol = rel_slack * max(1.0, abs(f_val), fw_gap)
        if strong_gap is not None and inner > -strong_gap / 2.0 + tol:
            failures.append((t, f"<g,d>={inner!r} vs strong gap {strong_gap!r}"))
        if strong_gap is not None and strong_gap < fw_gap - tol:
            failures.append((t, "strong gap below the plain gap"))
        if inner > -fw_gap + tol:
            failures.append((t, f"<g,d>={inner!r} above -fw_gap={-fw_gap!r}"))
        if f_gap is not None and inner > -f_gap + tol:
            failures.append((t, f"<g,d>={inner!r} above -(f-f*)"))
    return AuditReport("selection", not failures, len(trace.f_val), failures)


def audit_scaling(trace, poly, xstar_points, kind, rel_slack=REL_SLACK):
    """Scaling inequalities in multiplied form: gap * distance >= f - f*.

    ``kind`` selects the distance and the matching gap: the plain gap for
    "radial", the strong (away) gap for "vertex" and "face".  The distance
    to the optimal set is evaluated as the minimum over the supplied optimal
    points; for a subset of the optimal set that minimum only overestimates
    the distance, which keeps the audited inequality valid.  Needs a trace
    recorded with points (row t of ``trace.points``).  Every (T // 80)-th
    of the T steps is audited, so a long trace costs 80 to 160 checks.
    """
    _check_constants(rel_slack=rel_slack)
    dist_fn = distance_for(kind)
    xstar_points = np.atleast_2d(np.asarray(xstar_points, dtype=float))
    if trace.points is None or trace.fstar is None or not len(trace.points):
        raise ValueError("scaling audit needs a trace recorded with points and f*")
    gaps = trace.fw_gap if kind == "radial" else trace.strong_gap
    if gaps is None:
        raise ValueError(f"trace lacks the strong gap needed for {kind!r}")
    audited = range(0, len(trace.points), max(1, len(trace.points) // 80))
    failures = []
    for t, gap, f_gap in zip(audited, gaps[::audited.step].tolist(),
                             trace.f_gap[::audited.step].tolist()):
        d = min(dist_fn(poly, y, trace.points[t]) for y in xstar_points)
        lhs = gap * d
        tol = rel_slack * max(1.0, lhs, f_gap)
        if lhs < f_gap - tol:
            failures.append((t, f"gap*dist={lhs!r} < f-f*={f_gap!r} (d={d!r})"))
    return AuditReport(f"scaling[{kind}]", not failures, len(audited), failures)


def audit_drop_accounting(trace, initial_support=1):
    """Prefix counting: drop steps can never outrun productive steps.

    Over every prefix, #Case3 <= #Case1+#Case2 + initial support size - 1.
    """
    drops = np.cumsum(trace.case == 3)
    good = np.arange(1, len(drops) + 1) - drops
    over = np.flatnonzero(drops > good + initial_support - 1)[:1].tolist()
    failures = [(t, f"{drops[t]} drops vs {good[t]} productive steps") for t in over]
    return AuditReport("drop-accounting", not failures, len(drops), failures)


def audit_ifw_dims(trace):
    """Every in-face drop step lowers the minimal-face dimension by >= 1."""
    dims = trace.support_or_face_dim
    drops = np.flatnonzero(trace.case[:-1] == 3)
    failures = [(t, f"dim {dims[t]} -> {dims[t + 1]}")
                for t in drops[dims[drops + 1] > dims[drops] - 1].tolist()]
    return AuditReport("ifw-dims", not failures, len(drops), failures)


def audit_fwipw(trace, mu, theta, L, rel_slack=REL_SLACK):
    """Structural checks specific to the integer-step loop.

    The step sequence must be nonincreasing exact powers of two bounded by
    the curvature target; past t0 (the first iteration with target < 1) the
    sandwich eta_t >= mu^theta gap^{1-theta} / (2L) holds and the gap is
    monotone.  Sandwich checks are skipped once the measured gap falls to
    the cancellation floor of the objective evaluation, where the recorded
    gap overstates the true one by orders of magnitude.
    """
    _check_constants(mu, theta, L, rel_slack)
    if trace.fstar is None:
        raise ValueError("audit_fwipw needs a known optimal value")
    failures = []
    t0 = _gamma_t0(trace)
    first = trace.f_val[0] if len(trace.f_val) else trace.f_final
    noise_floor = 1e-13 * max(1.0, abs(trace.fstar), float(first - trace.fstar))
    prev_eta = 1.0
    for t, f_val, f_next, eta, gamma, f_gap in trace.steps(
            "f_val", "f_next", "eta", "gamma", "f_gap"):
        frac, _ = math.frexp(eta)
        if frac != 0.5:  # 2^k has mantissa exactly one half
            failures.append((t, f"eta={eta!r} is not a power of two"))
        if eta > prev_eta * (1 + 1e-15):
            failures.append((t, f"eta increased: {prev_eta!r} -> {eta!r}"))
        if gamma is not None and eta > gamma * (1 + 1e-12):
            failures.append((t, f"eta={eta!r} above target {gamma!r}"))
        prev_eta = eta
        if t >= t0 and f_gap is not None and f_gap > noise_floor:
            floor = mu ** theta * max(f_gap, 0.0) ** (1 - theta) / (2 * L)
            if eta < floor * (1 - rel_slack) - 1e-15:
                failures.append((t, f"eta={eta!r} below sandwich floor {floor!r}"))
            if f_next > f_val + rel_slack * max(1.0, abs(f_val)):
                failures.append((t, "gap increased past t0"))
    return AuditReport("fwipw", not failures, len(trace.f_val), failures)


# -- bench suites ---------------------------------------------------------------------


def check_instance_run(inst, variant, step="ss", max_iters=2000, gap_tol=1e-10,
                       **solve_kw):
    """Solve a certified instance and check it against its family's envelope.

    The envelope is ``envelope_for(variant, inst.poly)``.  Returns
    ``(trace, report)``, or ``(trace, None)`` when the instance has no valid
    certificate of the kind that envelope consumes (the Wolfe setting has
    no radial one).
    """
    from .solvers import solve

    solve_kw.setdefault("x0", inst.x0)
    trace = solve(inst.poly, inst.obj, variant, step=step, L=inst.L,
                  max_iters=max_iters, gap_tol=gap_tol, fstar=inst.fstar,
                  **solve_kw)
    envelope_id = envelope_for(variant, inst.poly)
    cert = inst.derived.get(ENVELOPES[envelope_id].cert_kind)
    if cert is None or not cert.valid:
        return trace, None
    m = inst.poly.A.shape[0] if inst.poly.A.size else None
    return trace, envelope_check(trace, envelope_id, cert.mu, cert.theta, inst.L,
                                 dim=inst.poly.dim(), m=m)


_SUITES = {
    "wolfe": (("wolfe_edge", "FW", "ls"),
              ("wolfe_edge", "AFW", "ss"),
              ("wolfe_edge", "BPFW", "ss"),
              ("wolfe_edge", "IFW", "ss")),
    "interior": (("interior_quadratic", "FW", "ss"),
                 ("interior_quadratic", "AFW", "ss"),
                 ("interior_quadratic", "BPFW", "ss")),
    "theta-sweep": (("fw_segment", "FW", "ss"),
                    ("fw_power4", "FW", "ss")),
    "fwipw": (("fwipw_mid", "FWIPW", "pow2"),
              ("fwipw_simplex5", "FWIPW", "pow2"),
              ("edge_mid_std", "IFW", "ss")),
}


def bench(suite, out_dir, max_iters=20000, gap_tol=1e-10):
    """Run a named suite, write one CSV trace per run plus a summary table.

    Returns the summary rows; a row's envelope entry is "fail" when the
    certified bound was violated, which the CLI maps to a nonzero exit.
    """
    from . import instances as _inst

    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; have {sorted(_SUITES)}")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for inst_name, variant, step in _SUITES[suite]:
        inst = getattr(_inst, inst_name)()
        trace, report = check_instance_run(inst, variant, step=step,
                                           max_iters=max_iters, gap_tol=gap_tol)
        name = f"{inst_name}_{variant.lower()}_{step}"
        trace.to_csv(os.path.join(out_dir, name + ".csv"))
        try:
            fit = fit_rate(trace)
            regime, expo, r2 = fit.regime, fit.exponent, fit.r2
        except ValueError:
            regime, expo, r2 = "short", float("nan"), float("nan")
        rows.append({
            "instance": inst_name,
            "variant": variant,
            "step": step,
            "theta": inst.cert.theta,
            "iters": len(trace.f_val),
            "final_gap": trace.f_final - inst.fstar,
            "regime": regime,
            "exponent": expo,
            "r2": r2,
            "envelope": "n/a" if report is None else ("pass" if report.ok else "fail"),
        })
    _write_summary(rows, out_dir, suite)
    return rows


def _write_summary(rows, out_dir, suite):
    cols = list(rows[0].keys())
    with open(os.path.join(out_dir, f"summary_{suite}.csv"), "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    lines = [" | ".join(cols)]
    for row in rows:
        lines.append(" | ".join(
            f"{row[c]:.3g}" if isinstance(row[c], float) else str(row[c])
            for c in cols))
    with open(os.path.join(out_dir, f"summary_{suite}.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
