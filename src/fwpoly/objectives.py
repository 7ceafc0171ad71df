"""Smooth convex objectives with certified constants.

Two families cover every experiment in the package:

* Quadratic: f(x) = 0.5 x'Qx + c'x + c0 with Q symmetric positive
  semidefinite.  Smoothness is the top eigenvalue, the line model is the
  objective itself along the direction, and positive-definite instances
  carry an analytic error bound with exponent 1/2.
* PowerDistance: f(x) = ||x - z||^p for p >= 2.  Smoothness depends on the
  domain radius, the line model is ||x - z||^2 along the direction (an
  increasing function of the objective), the error-bound exponent is 1/p,
  and the modulus is certified by sampling.

The module also computes the curvature constant L * diam^2, audits it
against sampled secant curvature, and minimizes objectives over a polytope
exactly (face-wise KKT systems for quadratics, Euclidean projection for
power distances).

A solver asks each objective for a run-local ``evaluation`` of the gradient,
the value and the line model at the current iterate.  The default one
recomputes each from x; a quadratic's keeps y = Qx at one product per step
and recomputes it exactly at each drop step (see ``QuadraticEvaluation``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._hulls import project_to_hull
from .geometry import face_lattice
from .polytope import PolytopeError, _as_matrix, _as_vector, _distinct, _read_only

_PD_TOL = 1e-10


class Objective:
    """Interface: value, gradient, line model and a smoothness constant."""

    n = None  # the dimension, where the objective fixes one

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def line_model(self, x, g, d):
        """(slope, curvature) of a quadratic in eta with the minimizer of
        f(x + eta d) on every [0, eta_max]; g is the gradient at x."""
        raise NotImplementedError

    def smoothness_on(self, poly):
        """Lipschitz constant of the gradient valid on the given polytope."""
        raise NotImplementedError

    def evaluation(self, x):
        """The run-local evaluation a solver starts at x."""
        return Evaluation(self, x)


class Evaluation:
    """Gradient, value and line model at the current iterate of one run.

    This one recomputes each from x through the objective's own methods, so
    a run makes the calls, and gets the bits, of asking the objective
    directly.  ``advance`` moves it to the next iterate x + eta d; ``refresh``
    marks a drop step, which a stateful evaluation recomputes from scratch.
    """

    def __init__(self, obj, x):
        self.obj, self.x = obj, x

    def gradient(self):
        return self.obj.grad(self.x)

    def f_val(self):
        return self.obj.value(self.x)

    def line_model(self, x, g, d):
        return self.obj.line_model(x, g, d)

    def advance(self, x, d, eta, refresh):
        self.x = x


class Quadratic(Objective):
    def __init__(self, Q, c, c0=0.0):
        Q = np.asarray(Q, dtype=float)
        c = np.array(c, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or c.shape != (Q.shape[0],):
            raise ValueError("Quadratic: Q must be square and match c")
        Q, self.c = _as_matrix(Q, len(c), "Quadratic: Q"), _as_vector(c, len(c), "Quadratic: c")
        if not np.allclose(Q, Q.T, atol=1e-10):
            raise ValueError("Quadratic: Q must be symmetric")
        self.Q = _read_only(0.5 * (Q + Q.T))
        self.c0 = float(c0)
        self._eigs = np.linalg.eigvalsh(self.Q)
        if self._eigs[0] < -1e-9 * max(1.0, abs(self._eigs[-1])):
            raise ValueError("Quadratic: Q must be positive semidefinite")

    @property
    def n(self):
        return self.c.size

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.Q @ x + self.c @ x + self.c0)

    def grad(self, x):
        return self.Q @ np.asarray(x, dtype=float) + self.c

    def curvature_along(self, d):
        """Exact second derivative along d."""
        return float(d @ self.Q @ d)

    def product(self, d):
        """Q @ d, as the sum of Q's rows at d's nonzeros when they are few.

        Q is symmetric, so Qd = sum_i d_i Q[i].  Gathering k rows copies
        them and reads them again, about 3kn words against the n^2 of the
        dense product, so rows are gathered when 3k <= n.  For d = e_i the
        result is row i, bit for bit.
        """
        if 3 * np.count_nonzero(d) <= d.size:
            nz = np.flatnonzero(d)
            return d[nz] @ self.Q[nz]
        return self.Q @ d

    def evaluation(self, x):
        return QuadraticEvaluation(self, x)

    def line_model(self, x, g, d):
        """The objective's own slope and curvature along d."""
        return float(g @ d), self.curvature_along(d)

    def smoothness_on(self, poly):
        """The top eigenvalue of Q, which bounds the curvature on any polytope."""
        return float(max(self._eigs[-1], 0.0))

    @property
    def strong_convexity(self):
        return float(max(self._eigs[0], 0.0))

    def __repr__(self):
        return f"Quadratic(n={self.n}, L={self.smoothness_on(None):.6g})"


class QuadraticEvaluation(Evaluation):
    """Keeps y = Qx along a run, at one product Qd per step.

    g = y + c and f = 0.5 x'y + c'x + c0.  The line model (g'd, d'Qd) keeps
    its Qd, and ``advance`` adds eta Qd to y; the short step asks for no line
    model, so ``advance`` takes the product itself.  At the start and at each
    drop step y = Q @ x, so g there is ``Quadratic.grad`` bit for bit.  In
    between, y drifts from Qx by rounding.  FW steps never drop, so an FW
    run is never refreshed and nothing bounds its drift in theory.  Measured:
    max|y - Qx| stayed below 1.8e-14 max|Qx| over the 124,314 steps of the
    benchmark's certified solves (seed 1), among them one FW run of 100,000
    steps with no refresh, the longest measured.  The tests check
    |g - grad f(x)|_inf <= 1e-12 max(1, s) and |f - f(x)| <= 1e-12
    max(1, s max(1, |x|_1)) at every step, s = max|Q| max(1, |x|_1) + max|c|.
    """

    def __init__(self, obj, x):
        self.obj = obj
        self._refresh(x)

    def _refresh(self, x):
        self.x, self.y = x, self.obj.Q @ x
        self.g = self.y + self.obj.c
        self._d = self._qd = None

    def gradient(self):
        return self.g

    def f_val(self):
        x = self.x
        return float(0.5 * (x @ self.y) + self.obj.c @ x + self.obj.c0)

    def line_model(self, x, g, d):
        self._d, self._qd = d, self.obj.product(d)
        return float(g @ d), float(d @ self._qd)

    def advance(self, x, d, eta, refresh):
        if refresh:
            self._refresh(x)
            return
        qd = self._qd if d is self._d else self.obj.product(d)
        self.x, self.y = x, self.y + eta * qd
        self.g = self.y + self.obj.c


class PowerDistance(Objective):
    """f(x) = ||x - center||^p with p >= 2."""

    def __init__(self, center, p):
        self.center = _as_vector(center, np.size(center), "PowerDistance: center")
        self.p = float(p)
        if not self.p >= 2:  # NaN fails too
            raise ValueError("PowerDistance: p must be >= 2")

    @property
    def n(self):
        return self.center.size

    def value(self, x):
        # np.sqrt(r.dot(r)) is what np.linalg.norm computes for a real
        # vector, without its dispatch
        r = np.asarray(x, dtype=float) - self.center
        return float(np.sqrt(r.dot(r)) ** self.p)

    def grad(self, x):
        r = np.asarray(x, dtype=float) - self.center
        nr = np.sqrt(r.dot(r))
        if nr == 0.0:
            return np.zeros_like(r)
        return self.p * nr ** (self.p - 2.0) * r

    def line_model(self, x, g, d):
        """Half the slope and curvature of ||x + eta d - center||^2, which f increases with."""
        r = np.asarray(x, dtype=float) - self.center
        return float(r @ d), float(d @ d)

    def smoothness_on(self, poly):
        V = poly.enumerate_vertices()
        R = float(np.linalg.norm(V - self.center, axis=1).max())
        return self.p * (self.p - 1.0) * R ** (self.p - 2.0)

    def __repr__(self):
        return f"PowerDistance(n={self.n}, p={self.p:g})"


def distance_squared(center):
    """||x - center||^2 as an explicit quadratic (exact line search, L = 2)."""
    center = np.asarray(center, dtype=float)
    n = center.size
    return Quadratic(2.0 * np.eye(n), -2.0 * center, float(center @ center))


# -- curvature ------------------------------------------------------------------


def curvature_constant(obj, poly):
    """Upper bound L * diam(C)^2 on the curvature of obj over the polytope."""
    return obj.smoothness_on(poly) * poly.diameter() ** 2


def audit_curvature(obj, poly):
    """Compare sampled secant curvature against the certified constant.

    Includes every vertex-to-vertex chord at full step, which already
    saturates the bound for isotropic quadratics, so an understated
    constant cannot pass.  Returns (worst_observed, bound, ok).
    """
    rng = np.random.default_rng(0)
    bound = curvature_constant(obj, poly)
    V = poly.enumerate_vertices()
    worst = 0.0

    def secant(x, d, eta):
        base = obj.value(x)
        lin = float(obj.grad(x) @ d)
        return 2.0 * (obj.value(x + eta * d) - base - eta * lin) / eta**2

    for i in range(len(V)):
        for j in range(len(V)):
            if i != j:
                worst = max(worst, secant(V[i], V[j] - V[i], 1.0))
    for _ in range(200):
        x = poly.sample_point(rng)
        v = V[rng.integers(len(V))]
        d = v - x
        if np.linalg.norm(d) < 1e-12:
            continue
        for eta in (0.25, 0.5, 1.0):
            worst = max(worst, secant(x, d, eta))
    return worst, bound, worst <= bound * (1.0 + 1e-9)


# -- exact minimization -----------------------------------------------------------


@dataclass
class MinimizeResult:
    fstar: float
    points: list  # extreme points of the optimal set


def _quadratic_face_min(obj, poly, binding):
    """Stationary point of the quadratic on the affine hull of a face.

    Returns None when the KKT system has no solution there (the face
    minimum then sits on a subface, which is enumerated separately).
    """
    rows = sorted(binding)
    A_eq = np.vstack([poly.A] + [poly.D[rows]]) if rows else poly.A
    b_eq = np.concatenate([poly.b, poly.e[rows]]) if rows else poly.b
    n, m = poly.n, A_eq.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = obj.Q
    if m:
        K[:n, n:] = A_eq.T
        K[n:, :n] = A_eq
    rhs = np.concatenate([-obj.c, b_eq])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    x = sol[:n]
    scale = max(1.0, float(np.abs(rhs).max()))
    if np.linalg.norm(K @ sol - rhs) > 1e-7 * scale:
        return None
    return x


def minimize_quadratic(obj, poly):
    """Global minimum of a convex quadratic over the polytope.

    Solves one equality-constrained KKT system per lattice face and keeps
    the feasible stationary points; every extreme point of the optimal set
    is the unique stationary point on some face, so the collection is
    complete.
    """
    lattice = face_lattice(poly)
    cands = []
    for lat in lattice:
        binding = poly.face_rows(lat.vset)
        x = _quadratic_face_min(obj, poly, binding)
        if x is None or not poly.contains(x):
            continue
        cands.append((obj.value(x), x))
    if not cands:
        raise PolytopeError("minimize_quadratic: no feasible stationary point found")
    fstar = min(v for v, _ in cands)
    span = max(1.0, abs(fstar))
    return MinimizeResult(fstar, _distinct(x for v, x in cands if v <= fstar + 1e-8 * span))


def minimize_power_distance(obj, poly):
    """Project the center onto the polytope; the projection minimizes any power."""
    V = poly.enumerate_vertices()
    dist, lam = project_to_hull(V, obj.center)
    x = lam @ V
    scale = max(1.0, float(np.abs(V).max()))
    if dist <= 1e-10 * scale:
        x = obj.center.copy()
    return MinimizeResult(obj.value(x), [x])


def minimize(obj, poly):
    if isinstance(obj, Quadratic):
        return minimize_quadratic(obj, poly)
    if isinstance(obj, PowerDistance):
        return minimize_power_distance(obj, poly)
    raise NotImplementedError(f"no exact minimizer for {type(obj).__name__}")


# -- error bounds ------------------------------------------------------------------


@dataclass
class HolderCertificate:
    """f(x) - fstar >= mu * dist(x, Xstar)^(1/theta) over the polytope."""

    mu: float
    theta: float
    fstar: float
    points: list
    source: str = "analytic"

    def residual(self, obj, x):
        """Certificate slack at x; negative means the bound is violated."""
        d, _ = project_to_hull(np.asarray(self.points), np.asarray(x, dtype=float))
        return obj.value(x) - self.fstar - self.mu * d ** (1.0 / self.theta)


def _sampled_modulus(obj, poly, res, power):
    rng = np.random.default_rng(0)
    pts = np.asarray(res.points)
    best = np.inf
    for _ in range(400):
        x = poly.sample_point(rng)
        d, _ = project_to_hull(pts, x)
        if d < 1e-6:
            continue
        best = min(best, (obj.value(x) - res.fstar) / d**power)
    if not np.isfinite(best):
        raise PolytopeError("sampled modulus: all samples too close to the optimum")
    return 0.9 * float(best)


def holder_certificate(obj, poly):
    """Certified (mu, theta) for the objective over the polytope.

    Positive-definite quadratics get the analytic pair (lambda_min / 2, 1/2);
    everything else falls back to a sampled modulus shrunk by 10 percent.
    """
    res = minimize(obj, poly)
    if isinstance(obj, Quadratic) and obj.strong_convexity > _PD_TOL:
        return HolderCertificate(0.5 * obj.strong_convexity, 0.5, res.fstar,
                                 res.points, "analytic")
    # theta = 1/p for a power distance, 1/2 for a singular quadratic
    power = obj.p if isinstance(obj, PowerDistance) else 2.0
    return HolderCertificate(_sampled_modulus(obj, poly, res, power), 1.0 / power,
                             res.fstar, res.points, "sampled")


def audit_error_bound(obj, poly, cert):
    """Check the certificate inequality on random feasible points.

    Returns (min_residual, ok); the residual is relative to the local value
    scale so tiny negative roundoff does not fail the audit.
    """
    rng = np.random.default_rng(1)
    worst = np.inf
    for _ in range(400):
        x = poly.sample_point(rng)
        r = cert.residual(obj, x)
        scale = max(1.0, abs(obj.value(x) - cert.fstar))
        worst = min(worst, r / scale)
    return worst, worst >= -1e-8
