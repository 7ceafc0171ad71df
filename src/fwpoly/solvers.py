"""One solver loop for all five variants: FW, AFW, BPFW, IFW, and FWIPW.

The loop owns the gradient, the LMO, the gap stop, the trace columns and the
feasibility check; a small per-variant state supplies the direction, the
step, the strong gap, the support or face dimension, and the update with
its own invariant.  The loop appends each executed step to typed columns:
the iterate value, the optimality gaps, the selected direction kind, the
step and its cap, and the case label used by the counting arguments:

* Case 1: the step stayed strictly below its cap,
* Case 2: the step hit a cap that was at least 1 (full progress available),
* Case 3: the step hit a cap below 1 (a drop step; no guaranteed decrease).

The gradient, the value and the line model come from the objective's
run-local evaluation (``objectives.Evaluation``), advanced after each step
and refreshed at each drop step; a quadratic's carries the rounding of its
tracked y = Qx.  The returned final value and gap are exact evaluations.

Stopping is on the Frank-Wolfe gap, an affine-invariant optimality measure;
a gap that is not finite (a NaN or infinite gradient) stops the run with
terminal reason "nonfinite".  FWIPW also stops, as "stationary", when its
step target is not positive, and as "precision_floor" before a step so
small that every coordinate is already a multiple of it in doubles.
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import repeat

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
from .polytope import PolytopeError, StdFormPolytope, _read_only
from .stepsize import StepRule, target_pow2

CASE_TOL = 1e-12
POINT_TOL = 1e-10

VARIANTS = ("FW", "AFW", "BPFW", "IFW", "FWIPW")

CSV_COLUMNS = ("t", "f_val", "f_gap", "fw_gap", "case", "eta", "step_kind",
               "support_or_face_dim")
# RunTrace's per-step fields, the ones RunTrace.chunks slices
STEP_COLUMNS = ("f_val", "fw_gap", "case", "step_kind", "eta", "eta_max", "inner",
                "support_or_face_dim", "strong_gap", "gamma", "points")
CSV_CHUNK_ROWS = 4096  # steps converted to Python objects at a time (RunTrace.chunks)


@dataclass(frozen=True)
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


@dataclass(frozen=True, eq=False)
class _Records(Sequence):
    """A trace's steps as IterRecords of Python scalars, each built when read."""

    trace: RunTrace

    def __len__(self):
        return len(self.trace.f_val)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[t] for t in range(len(self))[k]]
        tr, t = self.trace, range(len(self))[k]
        f_val = tr.f_val[t].item()
        return IterRecord(
            t, f_val, None if tr.fstar is None else f_val - tr.fstar,
            tr.fw_gap[t].item(), tr.case[t].item(), tr.step_kind[t], tr.eta[t].item(),
            tr.eta_max[t].item(), tr.inner[t].item(), tr.support_or_face_dim[t].item(),
            *(None if c is None else c[t].item() for c in (tr.strong_gap, tr.gamma)),
            None if tr.points is None else tr.points[t])


@dataclass(frozen=True)
class RunTrace:
    """A finished run: row t of each read-only column is step t.  ``strong_gap``
    is None for FW, ``gamma`` for every variant but FWIPW, and ``points``
    (the T x n iterates) for a run without ``record_points``."""

    variant: str
    # "gap_tol" | "max_iters" | "stationary" | "precision_floor" | "nonfinite"
    terminal_reason: str
    x_final: np.ndarray
    f_final: float
    fw_gap_final: float
    fstar: float | None
    f_val: np.ndarray
    fw_gap: np.ndarray
    case: np.ndarray
    step_kind: tuple
    eta: np.ndarray
    eta_max: np.ndarray
    inner: np.ndarray
    support_or_face_dim: np.ndarray
    strong_gap: np.ndarray | None = None
    gamma: np.ndarray | None = None
    points: np.ndarray | None = None

    @property
    def records(self):
        """The steps as a read-only sequence of IterRecords, built on demand."""
        return _Records(self)

    @property
    def f_gap(self):
        """f_val - fstar per step, or None when the optimal value is unknown."""
        return None if self.fstar is None else self.f_val - self.fstar

    def gap_series(self):
        """(t, f_gap) arrays over the executed iterations plus the final point."""
        if self.fstar is None:
            raise ValueError("gap_series needs a known optimal value")
        gaps = np.append(self.f_gap, self.f_final - self.fstar)
        return np.arange(len(gaps), dtype=float), gaps

    def chunks(self):
        """(first step, sub-trace) for every CSV_CHUNK_ROWS steps.  A sub-trace holds
        views of its steps' columns and ends at the value its last step reached, so
        whatever walks a trace's columns can walk them one chunk at a time."""
        for lo in range(0, len(self.f_val), CSV_CHUNK_ROWS):
            hi = lo + CSV_CHUNK_ROWS
            cut = {k: v[lo:hi] for k in STEP_COLUMNS if (v := getattr(self, k)) is not None}
            f_end = self.f_final if hi >= len(self.f_val) else self.f_val[hi].item()
            yield lo, replace(self, f_final=f_end, **cut)

    def steps(self, *names):
        """(t, value per name) for every step, as Python scalars converted a chunk at
        a time (``chunks``).  A name is a step column, "f_gap", or "f_next" for the
        value the step reached; a column the trace lacks gives None."""
        def listed(part, k):
            if k == "f_next":
                return part.f_val[1:].tolist() + [part.f_final]
            col = getattr(part, k)
            return repeat(None) if col is None else col if k == "step_kind" else col.tolist()

        for lo, part in self.chunks():
            yield from zip(range(lo, lo + len(part.f_val)), *(listed(part, k) for k in names))

    def assert_monotone(self):
        for _, a, b in self.steps("f_val", "f_next"):
            if b > a + 1e-10:
                raise AssertionError(f"objective increased: {a!r} -> {b!r}")

    def to_csv(self, path):
        """Write the trace in the fixed 8-column layout, one line per step.

        Floats are written as the ``repr`` of Python floats (the shortest
        string that reads back to the same double), an unknown ``f_gap`` as
        an empty field; lines end in ``\\n``, are unquoted and stream out a step
        at a time (``steps``), so no whole column becomes a list.
        """
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            fh.writelines(
                f"{t},{f!r},{'' if g is None else repr(g)},{w!r},{c},{e!r},{k},{s}\n"
                for t, f, g, w, c, e, k, s in self.steps(*CSV_COLUMNS[1:]))


def _classify(eta, eta_max):
    if abs(eta - eta_max) <= CASE_TOL:
        return 2 if eta_max >= 1.0 else 3
    return 1


class _PointState:
    """FW, and IFW through _InFaceState: the iterate is a bare point.

    The variant's direction rule is fixed by the class, so no iteration
    tests which variant runs.
    """

    gamma = None  # the integer-step target; only FWIPW records one

    def __init__(self, poly, variant, rule, x0):
        self.poly, self.rule = poly, rule
        self.x = np.asarray(x0, dtype=float) if x0 is not None else poly.initial_vertex()
        if not poly.contains(self.x):
            raise PolytopeError("x0 is not in the polytope")

    def direction(self, g, v, gap):
        """(chosen direction, strong gap <g, a - v> or None); gap is <g, x - v>."""
        return fw_direction(self.x, v, gap), None

    def step(self, ev, g, d):
        return self.rule.step(ev, self.x, g, d)

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

    def step(self, ev, g, d):
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
    step, records the iteration, applies the step, checks the iterate is
    feasible, and advances the objective's run-local evaluation.
    """
    variant = variant.upper()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not gap_tol > 0:  # NaN fails too
        raise ValueError(f"gap_tol must be positive, got {gap_tol!r}")
    if not isinstance(max_iters, numbers.Integral):
        raise ValueError(f"max_iters must be a whole number, got {max_iters!r}")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    if variant == "FWIPW" and step != "pow2":
        raise ValueError("FWIPW requires the pow2 step rule")
    if variant != "FWIPW" and step == "pow2":
        raise ValueError("the pow2 step rule is specific to FWIPW")
    if obj.n is not None and obj.n != poly.n:
        raise ValueError(f"objective has dimension {obj.n}, the polytope {poly.n}")
    if step in ("ss", "pow2") and L is None:
        L = curvature_constant(obj, poly)
    rule = StepRule(step, L)

    state = _STATES[variant](poly, variant, rule, x0)
    ev = obj.evaluation(state.x)
    cols = {k: array("d") for k in ("f_val", "fw_gap", "eta", "eta_max", "inner",
                                    "strong_gap", "gamma", "points")}
    cols.update(case=array("q"), support_or_face_dim=array("q"), step_kind=[])
    (add_f, add_gap, add_eta, add_cap, add_inner, add_strong, add_gamma, add_x, add_case,
     add_dim, add_kind) = (c.frombytes if k == "points" else c.append for k, c in cols.items())
    reason = "max_iters"
    for t in range(max_iters):
        x = state.x
        g = ev.gradient()
        v = poly.lmo(g)
        gap = float(g @ (x - v))
        if not math.isfinite(gap):  # NaN or inf in the gradient
            reason = "nonfinite"
            break
        if gap <= gap_tol:
            reason = "gap_tol"
            break
        d, strong = state.direction(g, v, gap)
        eta = state.step(ev, g, d)
        if eta is None:  # only FWIPW stops here
            reason = state.stop_reason
            break
        add_f(ev.f_val())
        add_gap(gap)
        add_eta(eta)
        add_cap(d.eta_max)
        add_inner(d.inner)
        add_case(case := _classify(eta, d.eta_max))
        add_dim(state.count())
        add_kind(d.kind)
        if strong is not None:  # every variant but FW
            add_strong(strong)
        if state.gamma is not None:  # FWIPW
            add_gamma(state.gamma)
        if record_points:
            add_x(x.tobytes())
        state.update(d, eta, t)
        if not poly.contains(state.x):
            raise PolytopeError(f"iterate left the polytope at t={t + 1}")
        ev.advance(state.x, d.vec, eta, refresh=case == 3)
    cols = {k: _read_only(np.frombuffer(c, dtype=c.typecode)) if isinstance(c, array)
            else tuple(c) for k, c in cols.items()}
    cols["points"] = cols["points"].reshape(-1, len(state.x)) if record_points else None
    cols["strong_gap"] = None if variant == "FW" else cols["strong_gap"]
    cols["gamma"] = cols["gamma"] if variant == "FWIPW" else None
    x = state.x
    g = obj.grad(x)
    return RunTrace(variant, reason, x, obj.value(x), float(g @ (x - poly.lmo(g))), fstar,
                    **cols)
