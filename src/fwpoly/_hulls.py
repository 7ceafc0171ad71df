"""Low-level convex hull helpers shared by the polytope and geometry modules.

Everything here works on plain (N, n) arrays of points.  The three jobs are:

* affine hulls (orthonormal tangent basis + normal equations),
* inequality descriptions of convex hulls, degenerate dimensions included,
  found in numpy (no Qhull): by walking every d-subset of the points, or
  by gift wrapping from facet to facet when the subsets are too many,
* Euclidean projection of a point onto a convex hull of points, solved
  exactly by Wolfe's min-norm-point method on the simplex of hull
  coefficients; a result that fails the global optimality check raises
  PolytopeError instead of being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

RANK_TOL = 1e-9
HULL_WALK_MAX = 2**16  # d-subsets past which hull_hform wraps instead of walking
HULL_CHUNK = 8192  # d-subsets _walk tests at a time
MAX_CYCLES_PER_POINT = 10


def _singular_rank(s):
    """The one rank rule: singular values above RANK_TOL * max(1, the largest), per stack row."""
    if s.ndim > 1:
        return np.sum(s > RANK_TOL * np.maximum(1.0, s[..., :1]), axis=-1)
    return int(np.sum(s > RANK_TOL * max(1.0, s[0]))) if s.size else 0


def _rank(M):
    """Numerical rank of M under _singular_rank (one per matrix of a stack)."""
    return _singular_rank(np.linalg.svd(M, compute_uv=False)) if M.size or M.ndim > 2 else 0


def affine_hull(points):
    """Orthonormal frame of the affine hull of ``points``.

    Returns ``(x0, B, N)`` where ``x0`` is a base point, the columns of
    ``B`` (n x d) span the tangent space and the rows of ``N`` ((n-d) x n)
    span its orthogonal complement, so aff = {x : N @ x = N @ x0}.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    x0 = P[0]
    R = P - x0
    _, s, Vt = np.linalg.svd(R, full_matrices=len(R) < R.shape[1])  # Vt n x n, U no larger than R
    d = _singular_rank(s)
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


def _subsets(m, d):
    """Every d-subset of range(m) as a row, in itertools.combinations order."""
    S = np.arange(m)[:, None]
    for _ in range(d - 1):  # put i before each row whose first entry exceeds i
        start = np.searchsorted(S[:, 0], np.arange(1, m + 1))
        count = len(S) - start
        ends = np.cumsum(count)
        rows = np.arange(ends[-1]) + np.repeat(start - ends + count, count)
        S = np.column_stack([np.repeat(np.arange(m), count), S[rows]])
    return S


def _cofactor_normals(E):
    """Generalised cross products: E[k, j, s] is coordinate k of edge j of subset s."""
    if len(E) == 3:
        (a0, b0), (a1, b1), (a2, b2) = E
        return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    return np.array([(-1) ** k * np.linalg.det(np.delete(E, k, axis=0).T) for k in range(len(E))])


def _walk(Q, tol):
    """Facets of conv(Q) (m distinct points spanning R^d) from every d-subset.

    A subset's plane (cofactor normal about its first point) is kept when all
    points lie on one side of it within tol.  Kept planes through the same
    points make one facet, one row from the subset with the largest normal,
    if that subset is independent.  Returns unit inward normals, offsets and
    the facet-by-point incidence.
    """
    QT, probe = Q.T.copy(), Q[np.r_[Q.argmin(0), Q.argmax(0)]]  # probe: extreme points
    S_all, kept = _subsets(*Q.shape), []  # kept, per chunk: subsets, sizes, normals, incidence
    for lo in range(0, len(S_all), HULL_CHUNK):
        S = S_all[lo:lo + HULL_CHUNK]
        G = np.take(QT, S.T, axis=1)  # G[k, j, s]: coordinate k of point j of subset s
        normals = _cofactor_normals(G[:, 1:] - G[:, :1])
        offset, size = np.einsum("ks,ks->s", G[:, 0], normals), np.linalg.norm(normals, axis=0)
        t, dist = tol * size, probe @ normals - offset  # the probe rejects most subsets cheaply
        live = np.flatnonzero(((dist.min(0) >= -t) | (dist.max(0) <= t)) & (size > 0))
        t, dist = t[live], Q @ np.take(normals, live, axis=1) - offset[live]
        above = dist.min(0) >= -t
        on = np.flatnonzero(above | (dist.max(0) <= t))
        live = live[on]
        unit = np.take(normals, live, axis=1) * (np.where(above[on], 1.0, -1.0) / size[live])
        kept.append((S[live], size[live], unit.T, np.abs(dist[:, on]).T <= t[on, None]))
    S, size, U, inc = (np.concatenate(col) for col in zip(*kept))
    order = np.argsort(-size, kind="stable")  # a group's first subset has its largest normal
    packed = np.packbits(inc[order], axis=1)
    best = np.sort(order[np.unique(packed.view(f"V{packed.shape[1]}"), return_index=True)[1]])
    G = np.take(QT, S[best].T, axis=1)
    best = best[_rank(np.transpose(G[:, 1:] - G[:, :1])) == Q.shape[1] - 1]  # independent: a facet
    return U[best], np.sum(Q[S[best, 0]] * U[best], axis=1), inc[best]


def _turn(Q, c, n, w, tol):
    """Turn the supporting plane {x : n.(x - c) = 0} about the flat through c
    normal to n and w, away from w, until it meets the next point."""
    a, b = (Q - c) @ n, (Q - c) @ w
    up = np.flatnonzero(a > tol)
    j = up[np.argmin(b[up] / a[up])]
    v = a[j] * w - b[j] * n
    return v / np.linalg.norm(v)


def _wrap(Q, tol):
    """Facets of conv(Q) (m distinct points spanning R^d, d >= 2) by gift wrapping.

    The plane x_0 = min turns about its contact set until that set spans a
    facet.  From each facet, hull_hform of its points gives the facet's own
    plane (fitted to all of them) and its ridges; turning the facet's plane
    about each ridge, away from the facet, finds the neighbour across it.  The
    cost follows the facets, not the C(m, d) subsets.  Returns what _walk does.
    """
    from .polytope import PolytopeError

    n, c, spread = np.eye(Q.shape[1])[0], Q[Q[:, 0].argmin()], np.abs(Q).max()
    for _ in range(Q.shape[1]):  # each turn adds a dimension to the contact set
        W = affine_hull(np.vstack([Q[np.abs((Q - c) @ n) <= tol], c + spread * n]))[2]
        if not len(W):  # W: directions normal to n and to the contact set
            break
        n = _turn(Q, c, n, W[0], tol)
    todo, seen, U, off = [(n, c)], set(), [], []
    while todo:
        n, c = todo.pop()
        on = np.abs((Q - c) @ n) <= tol
        if on.tobytes() in seen:
            continue
        F = hull_hform(Q[on])  # F.A: the facet's plane; F.D, F.e: its ridges
        if len(F.A) != 1:
            raise PolytopeError(f"hull_hform: {on.sum()} points on a facet span no hyperplane")
        sign = np.sign(F.A[0] @ n)
        U.append(sign * F.A[0])
        off.append(sign * F.b[0])
        seen.add(on.tobytes())
        ridge_points = Q[on][np.argmin(Q[on] @ F.D.T - F.e, axis=0)]
        todo += [(_turn(Q, r, U[-1], w, tol), r) for w, r in zip(F.D, ridge_points)]
    U, off = np.array(U), np.array(off)
    inc = np.abs(U @ Q.T - off[:, None]) <= tol
    # a facet met through two different point sets was fitted twice: keep one
    keep = np.sort(np.unique(np.packbits(inc, axis=1), axis=0, return_index=True)[1])
    return U[keep], off[keep], inc[keep]


def hull_hform(points):
    """Facet description of conv(points), handling flat (low-dim) hulls.

    Points are projected onto their affine hull (dimension d) first; a single
    point (d = 0) is handled directly.  Exact duplicates are dropped (each maps
    to its first index) and the facets of the m distinct points are found in
    numpy, points within RANK_TOL times their spread of a plane counting as on
    it: by _walk over the C(m, d) subsets when there are at most HULL_WALK_MAX
    of them (every hull the package, its tests and its benchmark build; the
    largest, 73 distinct points in R^3, has 62,196), else by gift wrapping
    (_wrap), whose cost follows the facets.  A point is a vertex when the
    normals of its facets have rank d.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    n = P.shape[1]
    x0, B, N = affine_hull(P)
    d = B.shape[1]
    A = N
    b = N @ x0 if N.size else np.zeros(0)

    if d == 0:
        return HullHForm(A, b, np.zeros((0, n)), np.zeros(0), [0])

    Y = (P - x0) @ B
    first = np.sort(np.unique((Y + 0.0).view(f"V{8 * d}"), return_index=True)[1])  # -0.0 is 0.0
    Q = Y[first]
    tol = RANK_TOL * np.linalg.norm(Q, axis=1).max()  # Q[0] = Y[0] = 0
    walk = d == 1 or comb(len(Q), d) <= HULL_WALK_MAX
    U, off, inc = (_walk if walk else _wrap)(Q, tol)
    D = U @ B.T
    vertex = first[_rank(inc.T[:, :, None] * U) == d]
    return HullHForm(A, b, D, off + D @ x0, vertex.tolist())


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
    dist, _ = project_to_hull(_differences(Pa, Pb), np.zeros(Pa.shape[1]))
    return dist


def _differences(P, Q):
    """The rows p - q of every pair, p from P outermost: len(P) * len(Q) points."""
    return (P[:, None, :] - Q[None, :, :]).reshape(-1, P.shape[1])

