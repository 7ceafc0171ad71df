"""Step-size rules: exact line search, short step, and halving targets.

Line search is closed-form for quadratics and golden-section otherwise.
The golden-section result is snapped to an endpoint whenever the endpoint
value is at least as good, so that "step hit its cap" is detectable by an
exact comparison downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LS_TOL = 1e-10
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section(phi, lo, hi):
    """Minimize a unimodal function on [lo, hi] to interval width LS_TOL."""
    a, b = float(lo), float(hi)
    h = b - a
    if h <= LS_TOL:
        return 0.5 * (a + b)
    c, d = a + INV_PHI2 * h, a + INV_PHI * h
    yc, yd = phi(c), phi(d)
    while h > LS_TOL:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + INV_PHI2 * h
            yc = phi(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + INV_PHI * h
            yd = phi(d)
    return 0.5 * (a + b)


def line_search(objective, x, g, d, eta_max):
    """Exact step along d within [0, eta_max]; g is the gradient at x.

    Quadratic objectives expose their curvature along d, which gives the
    minimizer in closed form; anything else falls back to golden section
    with endpoint snapping.
    """
    if eta_max <= 0.0:
        return 0.0
    curv = objective.curvature_along(d) if hasattr(objective, "curvature_along") else None
    if curv is not None:
        slope = float(g @ d)
        if curv <= 0.0:
            return float(eta_max) if slope < 0.0 else 0.0
        return float(min(max(-slope / curv, 0.0), eta_max))

    def phi(eta):
        return objective.value(x + eta * d)

    eta = golden_section(phi, 0.0, eta_max)
    best, val = eta, phi(eta)
    # snap to an endpoint when it is at least as good (ties prefer the cap,
    # so step-capped iterations classify correctly)
    if phi(eta_max) <= val + 1e-15:
        best, val = eta_max, phi(eta_max)
    if phi(0.0) < val - 1e-15:
        best = 0.0
    return float(best)


def short_step(g, d, L, eta_max):
    """Curvature-matched step min(-<g,d>/L, eta_max), clamped to be nonnegative."""
    if L <= 0.0:
        raise ValueError("short_step needs L > 0")
    return float(min(max(-float(g @ d) / L, 0.0), eta_max))


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
        if self.kind in ("ss", "pow2") and (self.L is None or self.L <= 0):
            raise ValueError(f"step rule {self.kind!r} needs L > 0")

    def step(self, objective, x, g, direction):
        if self.kind == "ls":
            return line_search(objective, x, g, direction.vec, direction.eta_max)
        if self.kind == "ss":
            return short_step(g, direction.vec, self.L, direction.eta_max)
        raise ValueError("pow2 steps are computed inside the integer-step solver")
