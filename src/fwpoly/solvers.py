"""One solver loop for all five variants: FW, AFW, BPFW, IFW, and FWIPW.

The loop owns the gradient, the LMO, the gap stop, the records and the
feasibility check; a small per-variant state supplies the direction, the
step, the strong gap, the support or face dimension, and the update with
its own invariant.  The loop records one IterRecord per executed step: the
iterate value, the optimality gaps, the selected direction kind, the step
and its cap, and the case label used by the counting arguments:

* Case 1: the step stayed strictly below its cap,
* Case 2: the step hit a cap that was at least 1 (full progress available),
* Case 3: the step hit a cap below 1 (a drop step; no guaranteed decrease).

Stopping is on the Frank-Wolfe gap, an affine-invariant optimality measure.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .active_set import ActiveSet
from .directions import (
    candidates_afw,
    candidates_bpfw,
    candidates_ifw,
    fw_direction,
    pairwise_direction,
    select,
)
from .objectives import curvature_constant
from .polytope import PolytopeError, StdFormPolytope
from .stepsize import StepRule, target_pow2

CASE_TOL = 1e-12
POINT_TOL = 1e-10
FEAS_TOL = 1e-8

VARIANTS = ("FW", "AFW", "BPFW", "IFW", "FWIPW")

CSV_COLUMNS = ("t", "f_val", "f_gap", "fw_gap", "case", "eta", "step_kind",
               "support_or_face_dim")


def fw_gap_value(g, x, v):
    """The Frank-Wolfe gap <g, x - v> with v the LMO vertex at g."""
    return float(np.asarray(g) @ (np.asarray(x) - np.asarray(v)))


@dataclass
class RunConfig:
    variant: str
    step: StepRule
    max_iters: int = 1000
    gap_tol: float = 1e-8
    record_points: bool = False
    fstar: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.gap_tol <= 0:
            raise ValueError("gap_tol must be positive")
        if self.variant == "FWIPW" and self.step.kind != "pow2":
            raise ValueError("FWIPW requires the pow2 step rule")
        if self.variant != "FWIPW" and self.step.kind == "pow2":
            raise ValueError("the pow2 step rule is specific to FWIPW")


@dataclass
class IterRecord:
    t: int
    f_val: float
    f_gap: float | None
    fw_gap: float
    case: int
    step_kind: str
    eta: float
    eta_max: float
    inner: float
    support_or_face_dim: int
    strong_gap: float | None = None
    gamma: float | None = None
    x: np.ndarray | None = field(default=None, repr=False)


@dataclass
class RunTrace:
    variant: str
    records: list
    terminal_reason: str  # "gap_tol" | "max_iters" | "stationary"
    x_final: np.ndarray
    f_final: float
    fw_gap_final: float
    fstar: float | None = None

    def gap_series(self):
        """(t, f_gap) arrays over the executed iterations plus the final point."""
        if self.fstar is None:
            raise ValueError("gap_series needs a known optimal value")
        ts = [r.t for r in self.records] + [len(self.records)]
        gaps = [r.f_val - self.fstar for r in self.records]
        gaps.append(self.f_final - self.fstar)
        return np.asarray(ts, dtype=float), np.asarray(gaps, dtype=float)

    def assert_monotone(self, start=0, tol=1e-10):
        vals = [r.f_val for r in self.records[start:]] + [self.f_final]
        for a, b in zip(vals, vals[1:]):
            if b > a + tol:
                raise AssertionError(f"objective increased: {a!r} -> {b!r}")

    def to_csv(self, path):
        """Write the trace in the fixed 8-column layout, shortest-roundtrip floats."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(CSV_COLUMNS)
            for r in self.records:
                f_gap = "" if r.f_gap is None else repr(r.f_gap)
                w.writerow([r.t, repr(r.f_val), f_gap, repr(r.fw_gap), r.case,
                            repr(r.eta), r.step_kind, r.support_or_face_dim])


def _classify(eta, eta_max):
    if abs(eta - eta_max) <= CASE_TOL:
        return 2 if eta_max >= 1.0 else 3
    return 1


def _check_feasible(poly, x, t):
    if not poly.contains(x, tol=FEAS_TOL):
        raise PolytopeError(f"iterate left the polytope at t={t}")


class _PointState:
    """FW and IFW: the iterate is a bare point, moved along the chosen direction."""

    gamma = None  # the integer-step target; only FWIPW records one

    def __init__(self, poly, cfg, x0):
        self.poly, self.cfg = poly, cfg
        self.x = np.asarray(x0, dtype=float) if x0 is not None else poly.initial_vertex()
        _check_feasible(poly, self.x, 0)

    def direction(self, g, v):
        """(chosen direction, strong gap <g, a - v> or None)."""
        if self.cfg.variant == "FW":
            return fw_direction(g, self.x, v), None
        cands = candidates_ifw(self.poly, self.x, g, v)
        return select(cands), float(g @ (cands[1].payload - v))

    def step(self, obj, g, d):
        return self.cfg.step.step(obj, self.x, g, d)

    def count(self):
        # x has passed the feasibility check, so no second membership test
        return self.poly.face_dim_at(self.x)

    def update(self, d, eta, t):
        self.x = self.x + eta * d.vec


class _ActiveSetState(_PointState):
    """AFW and BPFW: the iterate is a convex combination of support vertices.

    The global step competes with the away step (AFW) or with the
    support-local pairwise swap (BPFW).
    """

    def __init__(self, poly, cfg, x0):
        self.poly, self.cfg = poly, cfg
        v0 = poly.initial_vertex() if x0 is None else np.asarray(x0, dtype=float)
        self.aset = ActiveSet.from_vertex(poly, v0)
        self.x = self.aset.point

    def direction(self, g, v):
        build = candidates_afw if self.cfg.variant == "AFW" else candidates_bpfw
        cands = build(self.aset, g, v)
        a = cands[1].payload if self.cfg.variant == "AFW" else cands[1].payload[0]
        return select(cands), float(g @ (a - v))

    def count(self):
        return self.aset.support_size()

    def update(self, d, eta, t):
        self.aset.apply_step(d.set_step_kind, d.payload, eta)
        x = self.aset.point
        drift = np.linalg.norm(x - (self.x + eta * d.vec))
        if drift > POINT_TOL * max(1.0, np.linalg.norm(self.x)):
            raise PolytopeError(f"active-set point drifted by {drift:g} at t={t}")
        self.x = x


class _IntegerStepState(_PointState):
    """FWIPW on 0/1 standard-form polytopes: the in-face pairwise direction.

    The step is the largest power of two below both the curvature target
    gamma = -<g, d>/L and the previous step, so every iterate is an integer
    multiple of the current step.  That integrality is asserted each
    iteration; feasibility needs no ratio test.
    """

    def __init__(self, poly, cfg, x0):
        if not (isinstance(poly, StdFormPolytope) and poly.is_simplex_like()):
            raise PolytopeError("FWIPW needs a standard-form polytope with 0/1 vertices")
        self.poly, self.cfg = poly, cfg
        self.x = np.asarray(x0, dtype=float) if x0 is not None else poly.initial_vertex()
        if not poly.is_vertex(self.x):
            raise PolytopeError("FWIPW must start at a vertex")
        self.eta_prev = 1.0

    def direction(self, g, v):
        d = pairwise_direction(self.poly, self.x, g, v)
        return d, float(g @ (d.payload[0] - v))

    def step(self, obj, g, d):
        """The power-of-two step, or None when the target is not positive."""
        self.gamma = -d.inner / self.cfg.step.L
        if self.gamma <= 0.0:
            return None
        return target_pow2(self.gamma, self.eta_prev)

    def update(self, d, eta, t):
        self.x = self.x + eta * d.vec
        alpha = self.x / eta
        if np.abs(alpha - np.round(alpha)).max() > 1e-9:
            raise PolytopeError(
                f"integer-step invariant broken at t={t}: check L and the polytope")
        self.eta_prev = eta


_STATES = {"FW": _PointState, "IFW": _PointState, "AFW": _ActiveSetState,
           "BPFW": _ActiveSetState, "FWIPW": _IntegerStepState}


def run(poly, obj, cfg, x0=None):
    """The solver loop shared by every variant.

    Each iteration takes the gradient and the LMO vertex, stops on the FW
    gap, lets the variant's state choose a direction and a step, records
    the iteration, applies the step, and checks the iterate is feasible.
    """
    state = _STATES[cfg.variant](poly, cfg, x0)
    records = []
    reason = "max_iters"
    for t in range(cfg.max_iters):
        x = state.x
        g = obj.grad(x)
        v = poly.lmo(g)
        gap = fw_gap_value(g, x, v)
        if gap <= cfg.gap_tol:
            reason = "gap_tol"
            break
        d, strong = state.direction(g, v)
        eta = state.step(obj, g, d)
        if eta is None:
            reason = "stationary"
            break
        f_val = obj.value(x)
        records.append(IterRecord(
            t, f_val, None if cfg.fstar is None else f_val - cfg.fstar,
            gap, _classify(eta, d.eta_max), d.kind, eta, d.eta_max, d.inner,
            state.count(), strong_gap=strong, gamma=state.gamma,
            x=x.copy() if cfg.record_points else None))
        state.update(d, eta, t)
        _check_feasible(poly, state.x, t + 1)
    x = state.x
    g = obj.grad(x)
    return RunTrace(cfg.variant, records, reason, x, obj.value(x),
                    fw_gap_value(g, x, poly.lmo(g)), cfg.fstar)


def solve(poly, obj, variant, step="ls", L=None, max_iters=1000, gap_tol=1e-8,
          x0=None, fstar=None, record_points=False):
    """One-call front end: build the step rule and the config, then run.

    ``step`` is "ls", "ss", or "pow2"; the curvature constant L defaults to
    smoothness times squared diameter when a rule needs it.
    """
    variant = variant.upper()
    if step in ("ss", "pow2") and L is None:
        L = curvature_constant(obj, poly)
    cfg = RunConfig(variant, StepRule(step, L), max_iters=max_iters, gap_tol=gap_tol,
                    record_points=record_points, fstar=fstar)
    return run(poly, obj, cfg, x0=x0)
