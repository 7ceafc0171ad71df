"""Low-level convex hull helpers shared by the polytope and geometry modules.

Everything here works on plain (N, n) arrays of points.  The three jobs are:

* affine hulls (orthonormal tangent basis + normal equations),
* inequality descriptions of convex hulls, degenerate dimensions included,
* Euclidean projection of a point onto a convex hull of points, solved by
  accelerated projected gradient on the simplex of hull coefficients with an
  active-support polish step so the result is accurate to linear-algebra
  precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-9


def affine_hull(points, tol=RANK_TOL):
    """Orthonormal frame of the affine hull of ``points``.

    Returns ``(x0, B, N)`` where ``x0`` is a base point, the columns of
    ``B`` (n x d) span the tangent space and the rows of ``N`` ((n-d) x n)
    span its orthogonal complement, so aff = {x : N @ x = N @ x0}.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    x0 = P[0]
    R = P - x0
    scale = max(1.0, float(np.abs(R).max()))
    _, s, Vt = np.linalg.svd(R, full_matrices=True)
    d = int(np.sum(s > tol * scale))
    B = Vt[:d].T
    N = Vt[d:]
    return x0, B, N


@dataclass
class HullHForm:
    """Inequality description of a convex hull of points.

    The hull is {x : A @ x = b, D @ x >= e}.  ``vertex_index`` lists which
    of the input points are actual vertices of the hull.
    """

    A: np.ndarray
    b: np.ndarray
    D: np.ndarray
    e: np.ndarray
    vertex_index: list

    @property
    def dim(self):
        return self.D.shape[1] - self.A.shape[0] if self.A.size else self.D.shape[1]


def hull_hform(points, tol=RANK_TOL):
    """Facet description of conv(points), handling flat (low-dim) hulls.

    Points are projected onto their affine hull first, so Qhull only ever
    sees full-dimensional input.  Hulls of affine dimension 0 and 1 are
    handled directly.
    """
    from scipy.spatial import ConvexHull

    P = np.atleast_2d(np.asarray(points, dtype=float))
    n = P.shape[1]
    x0, B, N = affine_hull(P, tol)
    d = B.shape[1]
    A = N
    b = N @ x0 if N.size else np.zeros(0)

    if d == 0:
        return HullHForm(A, b, np.zeros((0, n)), np.zeros(0), [0])

    Y = (P - x0) @ B
    if d == 1:
        y = Y[:, 0]
        i_lo, i_hi = int(np.argmin(y)), int(np.argmax(y))
        r = B[:, 0]
        D = np.vstack([r, -r])
        e = np.array([y[i_lo] + r @ x0, -(y[i_hi] + r @ x0)])
        return HullHForm(A, b, D, e, sorted({i_lo, i_hi}))

    hull = ConvexHull(Y)
    # Qhull equations are normal @ y + offset <= 0; map back to ambient
    # coordinates as rows of D @ x >= e, normalized to unit length.
    normals = hull.equations[:, :-1]
    offsets = hull.equations[:, -1]
    D = -(normals @ B.T)
    e = offsets + D @ x0
    norms = np.linalg.norm(D, axis=1)
    keep = norms > tol
    D, e = D[keep] / norms[keep, None], e[keep] / norms[keep]
    return HullHForm(A, b, D, e, sorted(int(i) for i in hull.vertices))


def simplex_projection(v):
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def project_to_hull(points, target, tol=1e-12, max_iter=20000):
    """Project ``target`` onto conv(points).

    Minimizes ||P^T lam - target|| over the simplex of coefficients with
    accelerated projected gradient from a uniform cold start, polished by an
    equality-constrained least-squares solve on the active support whenever
    the support stabilizes.  Returns ``(distance, lam)``.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(target, dtype=float)
    N = P.shape[0]
    if N == 1:
        return float(np.linalg.norm(P[0] - w)), np.ones(1)

    M = P.T  # columns are the points
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(w).max()))
    lipschitz = np.linalg.norm(M, 2) ** 2
    if lipschitz == 0.0:
        return float(np.linalg.norm(w)), np.full(N, 1.0 / N)

    lam = np.full(N, 1.0 / N)
    z = lam.copy()
    t_acc = 1.0
    obj_prev = np.inf

    def polish(lam):
        support = np.flatnonzero(lam > 1e-10)
        if support.size == 0:
            return None
        Ms = M[:, support]
        k = support.size
        # KKT system of: min ||Ms mu - w||^2  s.t.  sum(mu) = 1
        K = np.zeros((k + 1, k + 1))
        K[:k, :k] = Ms.T @ Ms
        K[:k, k] = 1.0
        K[k, :k] = 1.0
        rhs = np.concatenate([Ms.T @ w, [1.0]])
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        mu = sol[:k]
        if mu.min() < -1e-11:
            return None
        mu = np.maximum(mu, 0.0)
        mu /= mu.sum()
        cand = np.zeros(N)
        cand[support] = mu
        resid = M @ cand - w
        # global optimality: no coefficient direction improves the fit
        gain = P @ resid - cand @ (P @ resid)
        if gain.min() >= -1e-11 * scale * max(1.0, np.linalg.norm(resid)):
            return cand
        return None

    best = lam
    best_obj = np.inf
    for it in range(max_iter):
        resid = M @ z - w
        grad = M.T @ resid
        lam_next = simplex_projection(z - grad / lipschitz)
        obj = 0.5 * np.sum((M @ lam_next - w) ** 2)
        if obj < best_obj:
            best_obj, best = obj, lam_next
        # FISTA momentum with restart on non-monotonicity
        if obj > obj_prev:
            t_acc, z = 1.0, lam_next
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
            z = lam_next + ((t_acc - 1.0) / t_next) * (lam_next - lam)
            t_acc = t_next
        move = np.linalg.norm(lam_next - lam)
        lam = lam_next
        obj_prev = obj
        if it % 25 == 24 or move <= tol * scale:
            cand = polish(best)
            if cand is not None:
                return float(np.linalg.norm(M @ cand - w)), cand
        if move <= 1e-16 * scale:
            break
    cand = polish(best)
    if cand is not None:
        return float(np.linalg.norm(M @ cand - w)), cand
    return float(np.linalg.norm(M @ best - w)), best


def hull_distance(points_a, points_b, tol=1e-12):
    """Euclidean distance between conv(points_a) and conv(points_b).

    The Minkowski difference of two hulls of finite point sets is the hull
    of the pairwise differences, so this is one projection of the origin.
    """
    Pa = np.atleast_2d(np.asarray(points_a, dtype=float))
    Pb = np.atleast_2d(np.asarray(points_b, dtype=float))
    diffs = (Pa[:, None, :] - Pb[None, :, :]).reshape(-1, Pa.shape[1])
    dist, _ = project_to_hull(diffs, np.zeros(Pa.shape[1]), tol=tol)
    return dist

