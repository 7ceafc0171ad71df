"""Low-level convex hull helpers shared by the polytope and geometry modules.

Everything here works on plain (N, n) arrays of points.  The three jobs are:

* affine hulls (orthonormal tangent basis + normal equations),
* inequality descriptions of convex hulls, degenerate dimensions included,
* Euclidean projection of a point onto a convex hull of points, solved
  exactly by Wolfe's min-norm-point method on the simplex of hull
  coefficients; a result that fails the global optimality check raises
  PolytopeError instead of being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-9
MAX_CYCLES_PER_POINT = 10


def affine_hull(points):
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
    d = int(np.sum(s > RANK_TOL * scale))
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


def hull_hform(points):
    """Facet description of conv(points), handling flat (low-dim) hulls.

    Points are projected onto their affine hull first, so Qhull only ever
    sees full-dimensional input.  Hulls of affine dimension 0 and 1 are
    handled directly.
    """
    from scipy.spatial import ConvexHull

    P = np.atleast_2d(np.asarray(points, dtype=float))
    n = P.shape[1]
    x0, B, N = affine_hull(P)
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
    keep = norms > RANK_TOL
    D, e = D[keep] / norms[keep, None], e[keep] / norms[keep]
    return HullHForm(A, b, D, e, sorted(int(i) for i in hull.vertices))


def _affine_lsq(M, support, w):
    """Minimizer of ||M[:, support] mu - w|| subject to sum(mu) = 1 (KKT solve)."""
    Ms = M[:, support]
    k = support.size
    K = np.zeros((k + 1, k + 1))
    K[:k, :k] = Ms.T @ Ms
    K[:k, k] = 1.0
    K[k, :k] = 1.0
    rhs = np.concatenate([Ms.T @ w, [1.0]])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:k]


def _gains(P, w, lam, scale):
    """Per-point first-order gains <p_i - x, x - w> at x = P^T lam, and the floor.

    lam is optimal iff no gain is below the floor: moving weight onto any
    point cannot shorten x - w.
    """
    resid = P.T @ lam - w
    Pr = P @ resid
    return Pr - lam @ Pr, -1e-11 * scale * max(1.0, np.linalg.norm(resid))


def _polish(P, w, lam, scale):
    """Re-solve on the support lam > 0; the optimal coefficients, or None."""
    support = np.flatnonzero(lam > 0)
    if support.size == 0:
        return None
    mu = _affine_lsq(P.T, support, w)
    if mu.min() < -1e-11:
        return None
    mu = np.maximum(mu, 0.0)
    mu /= mu.sum()
    cand = np.zeros(P.shape[0])
    cand[support] = mu
    gain, floor = _gains(P, w, cand, scale)
    return cand if gain.min() >= floor else None


def project_to_hull(points, target):
    """Project ``target`` onto conv(points); returns ``(distance, lam)``.

    Wolfe's min-norm-point method (Math. Programming 11, 1976) on the simplex
    of coefficients.  Each major cycle adds the point of smallest gain; each
    minor cycle solves the affine least-squares problem on the support and,
    where a weight comes out non-positive, steps back along the segment until
    that weight is zero and drops it.  The final support is re-solved and
    checked for global optimality: the result is exact to linear-algebra
    precision, or the call raises PolytopeError.

    The check is exact only near unit scale: its floor grows linearly with
    the coordinate scale while the gains it bounds grow quadratically, and
    the bordered KKT matrix of ``_affine_lsq`` loses the sum constraint
    under lstsq's default rcond.  On random hulls with coordinates near 1e3
    some calls raise PolytopeError, and near 1e6 over half do, so the
    facial distances of a polytope far from unit scale can raise.
    """
    from .polytope import PolytopeError

    P = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(target, dtype=float)
    N = P.shape[0]
    M = P.T  # columns are the points
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(w).max()))
    lam = np.zeros(N)
    lam[np.argmin(np.sum((P - w) ** 2, axis=1))] = 1.0
    # the method is finite in exact arithmetic and a minor cycle drops a point
    # that a major cycle added, so the cap on major cycles bounds both and
    # only catches a loop that rounding keeps alive
    cap = MAX_CYCLES_PER_POINT * N
    for _ in range(cap):
        gain, floor = _gains(P, w, lam, scale)
        j = int(np.argmin(gain))
        if gain[j] >= floor or lam[j] > 0:  # optimal, or stalled by rounding
            break
        support = np.union1d(np.flatnonzero(lam > 0), [j])
        mu = _affine_lsq(M, support, w)
        while (mu <= 0).any():  # false once rounding has dropped every weight
            cur = lam[support]
            out = np.flatnonzero(mu <= 0)
            ratios = cur[out] / (cur[out] - mu[out])
            lam[support] = cur + ratios.min() * (mu - cur)
            lam[support[out[np.argmin(ratios)]]] = 0.0
            support = np.flatnonzero(lam > 0)
            mu = _affine_lsq(M, support, w)
        lam[:] = 0.0
        lam[support] = mu
    else:
        raise PolytopeError(f"project_to_hull: no convergence in {cap} cycles")
    cand = _polish(P, w, lam, scale)
    if cand is None:
        raise PolytopeError("project_to_hull: the final support fails the optimality check")
    return float(np.linalg.norm(M @ cand - w)), cand


def hull_distance(points_a, points_b):
    """Euclidean distance between conv(points_a) and conv(points_b).

    The Minkowski difference of two hulls of finite point sets is the hull
    of the pairwise differences, so this is one projection of the origin.
    """
    Pa = np.atleast_2d(np.asarray(points_a, dtype=float))
    Pb = np.atleast_2d(np.asarray(points_b, dtype=float))
    diffs = (Pa[:, None, :] - Pb[None, :, :]).reshape(-1, Pa.shape[1])
    dist, _ = project_to_hull(diffs, np.zeros(Pa.shape[1]))
    return dist

