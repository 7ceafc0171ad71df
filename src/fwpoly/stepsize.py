"""Step-size rules: exact line search, short step, and halving targets.

Exact line search is closed-form for every objective: each objective gives
the slope and curvature of a quadratic in the step that has the same
minimizer on [0, eta_max] as the objective along the direction.  Line search
and the short step then take the same clipped Newton step on their quadratic.
The solvers pass their run-local evaluation as the objective, so a
quadratic's line model computes Qd once and keeps it to advance y = Qx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _clipped_step(slope, curv, eta_max):
    """Minimizer min(max(-slope/curv, 0), eta_max) of a convex quadratic, curv > 0."""
    return float(min(max(-slope / curv, 0.0), eta_max))


def line_search(objective, x, g, d, eta_max):
    """Exact step along d within [0, eta_max]; g is the gradient at x."""
    if eta_max <= 0.0:
        return 0.0
    slope, curv = objective.line_model(x, g, d)
    if curv <= 0.0:
        return float(eta_max) if slope < 0.0 else 0.0
    return _clipped_step(slope, curv, eta_max)


def short_step(g, d, L, eta_max):
    """Curvature-matched step min(-<g,d>/L, eta_max), clamped to be nonnegative."""
    if not 0.0 < L < math.inf:
        raise ValueError(f"short_step needs a finite L > 0, got {L!r}")
    return _clipped_step(float(g @ d), L, eta_max)


def target_pow2(gamma, eta_prev):
    """Largest power of two 2**(-k), k >= 0, that is <= min(gamma, eta_prev).

    Returns 0.0 when the target is nonpositive.  Exact: uses the binary
    exponent of the target, so no log/rounding slop.
    """
    target = min(float(gamma), float(eta_prev))
    if target <= 0.0:
        return 0.0
    if target >= 1.0:
        return 1.0
    mant, exp = math.frexp(target)  # target = mant * 2**exp, mant in [0.5, 1)
    return math.ldexp(1.0, exp - 1)  # 2**(exp-1) <= target < 2**exp


@dataclass
class StepRule:
    """Configured step-size policy for the solvers.

    kind: "ls" (line search), "ss" (short step), or "pow2" (halving targets,
    only meaningful for the integer-step solver).  "ss" and "pow2" need the
    curvature constant L.
    """

    kind: str
    L: float | None = None

    def __post_init__(self):
        if self.kind not in ("ls", "ss", "pow2"):
            raise ValueError(f"unknown step rule {self.kind!r}")
        if self.kind in ("ss", "pow2") and (self.L is None or not 0 < self.L < math.inf):
            raise ValueError(f"step rule {self.kind!r} needs a finite L > 0, got {self.L!r}")

    def step(self, objective, x, g, direction):
        if self.kind == "ls":
            return line_search(objective, x, g, direction.vec, direction.eta_max)
        if self.kind == "ss":
            return short_step(g, direction.vec, self.L, direction.eta_max)
        raise ValueError("pow2 steps are computed inside the integer-step solver")
