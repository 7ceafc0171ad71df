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

Stopping is on the Frank-Wolfe gap, an affine-invariant optimality measure;
a gap that is not finite (a NaN or infinite gradient) stops the run with
terminal reason "nonfinite".  FWIPW also stops, as "stationary", when its
step target is not positive, and as "precision_floor" before a step so
small that every coordinate is already a multiple of it in doubles.
"""

from __future__ import annotations

import math
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
    # "gap_tol" | "max_iters" | "stationary" | "precision_floor" | "nonfinite"
    terminal_reason: str
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

    def assert_monotone(self):
        vals = [r.f_val for r in self.records] + [self.f_final]
        for a, b in zip(vals, vals[1:]):
            if b > a + 1e-10:
                raise AssertionError(f"objective increased: {a!r} -> {b!r}")

    def to_csv(self, path):
        """Write the trace in the fixed 8-column layout, one line per record.

        Floats are written as their ``repr`` (the shortest string that reads
        back to the same double), an unknown ``f_gap`` as an empty field, and
        every line ends in ``\\n``; no field is quoted, since none holds a
        comma or a quote.  The lines are streamed, never joined in memory.
        """
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            fh.writelines(
                f"{r.t},{r.f_val!r},{'' if r.f_gap is None else repr(r.f_gap)},"
                f"{r.fw_gap!r},{r.case},{r.eta!r},{r.step_kind},"
                f"{r.support_or_face_dim}\n"
                for r in self.records)


def _classify(eta, eta_max):
    if abs(eta - eta_max) <= CASE_TOL:
        return 2 if eta_max >= 1.0 else 3
    return 1


def _check_feasible(poly, x, t):
    if not poly.contains(x, tol=FEAS_TOL):
        raise PolytopeError(f"iterate left the polytope at t={t}")


class _PointState:
    """FW, and IFW through _InFaceState: the iterate is a bare point.

    The variant's direction rule is fixed by the class, so no iteration
    tests which variant runs.
    """

    gamma = None  # the integer-step target; only FWIPW records one

    def __init__(self, poly, variant, rule, x0):
        self.poly, self.rule = poly, rule
        self.x = np.asarray(x0, dtype=float) if x0 is not None else poly.initial_vertex()
        _check_feasible(poly, self.x, 0)

    def direction(self, g, v, gap):
        """(chosen direction, strong gap <g, a - v> or None); gap is <g, x - v>."""
        return fw_direction(self.x, v, gap), None

    def step(self, obj, g, d):
        return self.rule.step(obj, self.x, g, d)

    def count(self):
        # x has passed the feasibility check, so no second membership test
        return self.poly.face_dim_at(self.x)

    def update(self, d, eta, t):
        self.x = self.x + eta * d.vec


class _InFaceState(_PointState):
    """IFW: the global step competes with the in-face away and pairwise steps."""

    def direction(self, g, v, gap):
        cands = candidates_ifw(self.poly, self.x, g, v, gap)
        return select(cands), float(g @ (cands[1].payload - v))


class _ActiveSetState(_PointState):
    """AFW and BPFW: the iterate is a convex combination of support vertices.

    The global step competes with the away step (AFW) or with the
    support-local pairwise swap (BPFW).  Each update checks the support's
    point against x + eta d, to a tolerance scaled by the polytope's
    diameter so that a drift on a tiny polytope cannot hide under 1e-10.
    The candidate builder is picked once, when ``solve`` builds the state.
    """

    def __init__(self, poly, variant, rule, x0):
        self.poly, self.rule = poly, rule
        self.build = candidates_afw if variant == "AFW" else candidates_bpfw
        v0 = poly.initial_vertex() if x0 is None else np.asarray(x0, dtype=float)
        self.aset = ActiveSet.from_vertex(poly, v0)
        self.x = self.aset.point
        self.diam = poly.diameter()

    def direction(self, g, v, gap):
        cands = self.build(self.aset, g, v, gap)
        a = self.aset.vertex(cands[1].payload[0])  # the away row
        return select(cands), float(g @ (a - v))

    def count(self):
        return self.aset.support_size()

    def update(self, d, eta, t):
        self.aset.apply_step(d.kind, d.payload, eta)
        x = self.aset.point
        drift = np.linalg.norm(x - (self.x + eta * d.vec))
        if drift > POINT_TOL * min(max(1.0, np.linalg.norm(self.x)), self.diam):
            raise PolytopeError(f"active-set point drifted by {drift:g} at t={t}")
        self.x = x


class _IntegerStepState(_PointState):
    """FWIPW on 0/1 standard-form polytopes: the in-face pairwise direction.

    The step is the largest power of two below both the curvature target
    gamma = -<g, d>/L and the previous step, so every iterate is an integer
    multiple of the current step.  That integrality is asserted each
    iteration; feasibility needs no ratio test.  A step at most the spacing
    of doubles at max(1, |x|_inf) would make that check vacuous, so the run
    stops before it.
    """

    def __init__(self, poly, variant, rule, x0):
        if not (isinstance(poly, StdFormPolytope) and poly.is_simplex_like()):
            raise PolytopeError("FWIPW needs a standard-form polytope with 0/1 vertices")
        self.poly, self.L = poly, rule.L
        self.x = np.asarray(x0, dtype=float) if x0 is not None else poly.initial_vertex()
        if not poly.is_vertex(self.x):
            raise PolytopeError("FWIPW must start at a vertex")
        self.eta_prev = 1.0

    def direction(self, g, v, gap):
        d = pairwise_direction(self.poly, self.x, g, v)
        return d, float(g @ (d.payload[0] - v))

    def step(self, obj, g, d):
        """The power-of-two step, or None with ``stop_reason`` set."""
        self.gamma = -d.inner / self.L
        if self.gamma <= 0.0:
            self.stop_reason = "stationary"
            return None
        eta = target_pow2(self.gamma, self.eta_prev)
        if eta <= np.spacing(max(1.0, np.abs(self.x).max())):
            self.stop_reason = "precision_floor"
            return None
        return eta

    def update(self, d, eta, t):
        self.x = self.x + eta * d.vec
        alpha = self.x / eta
        if np.abs(alpha - np.round(alpha)).max() > 1e-9:
            raise PolytopeError(
                f"integer-step invariant broken at t={t}: check L and the polytope")
        self.eta_prev = eta


_STATES = {"FW": _PointState, "IFW": _InFaceState, "AFW": _ActiveSetState,
           "BPFW": _ActiveSetState, "FWIPW": _IntegerStepState}


def solve(poly, obj, variant, step="ls", L=None, max_iters=1000, gap_tol=1e-8,
          x0=None, fstar=None, record_points=False):
    """Run one variant from x0 (by default the polytope's initial vertex).

    ``step`` is "ls", "ss", or "pow2"; the curvature constant L defaults to
    smoothness times squared diameter when a rule needs it.  One loop serves
    every variant: each iteration takes the gradient and the LMO vertex,
    stops on the FW gap, lets the variant's state choose a direction and a
    step, records the iteration, applies the step, and checks the iterate
    is feasible.
    """
    variant = variant.upper()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if gap_tol <= 0:
        raise ValueError("gap_tol must be positive")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    if variant == "FWIPW" and step != "pow2":
        raise ValueError("FWIPW requires the pow2 step rule")
    if variant != "FWIPW" and step == "pow2":
        raise ValueError("the pow2 step rule is specific to FWIPW")
    if step in ("ss", "pow2") and L is None:
        L = curvature_constant(obj, poly)
    rule = StepRule(step, L)

    state = _STATES[variant](poly, variant, rule, x0)
    records = []
    reason = "max_iters"
    for t in range(max_iters):
        x = state.x
        g = obj.grad(x)
        v = poly.lmo(g)
        gap = float(g @ (x - v))
        if not math.isfinite(gap):  # NaN or inf in the gradient
            reason = "nonfinite"
            break
        if gap <= gap_tol:
            reason = "gap_tol"
            break
        d, strong = state.direction(g, v, gap)
        eta = state.step(obj, g, d)
        if eta is None:  # only FWIPW stops here
            reason = state.stop_reason
            break
        f_val = obj.value(x)
        records.append(IterRecord(
            t, f_val, None if fstar is None else f_val - fstar,
            gap, _classify(eta, d.eta_max), d.kind, eta, d.eta_max, d.inner,
            state.count(), strong_gap=strong, gamma=state.gamma,
            x=x.copy() if record_points else None))
        state.update(d, eta, t)
        _check_feasible(poly, state.x, t + 1)
    x = state.x
    g = obj.grad(x)
    return RunTrace(variant, records, reason, x, obj.value(x),
                    float(g @ (x - poly.lmo(g))), fstar)
