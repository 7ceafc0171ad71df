"""Low-level convex hull helpers shared by the polytope and geometry modules.

Everything here works on plain (N, n) arrays of points.  The three jobs are:

* affine hulls (orthonormal tangent basis + normal equations),
* inequality descriptions of convex hulls, degenerate dimensions included,
  found in numpy (no Qhull): beneath-beyond finds the points on each facet,
  and each facet's row is chosen by the rule of the walk over every
  d-subset of the points, from that facet's widest subsets alone,
* Euclidean projection of a point onto a convex hull of points, solved
  exactly by Wolfe's min-norm-point method on the simplex of hull
  coefficients; a result that fails the global optimality check raises
  PolytopeError instead of being returned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

RANK_TOL = 1e-9
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


def _cofactor_normals(E):
    """Generalised cross products: E[k, j, s] is coordinate k of edge j of subset s."""
    if len(E) == 3:
        (a0, b0), (a1, b1), (a2, b2) = E
        return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    return np.array([(-1) ** k * np.linalg.det(np.delete(E, k, axis=0).T) for k in range(len(E))])


def _gram(Q, S):
    """Squared cofactor-normal sizes of the subsets (rows of S): their edges' Gram determinants."""
    E = Q[S[:, 1:]] - Q[S[:, :1]]
    return np.linalg.det(E @ E.transpose(0, 2, 1))


def _candidates(Q, tol):
    """The points on each facet of conv(Q) (m distinct points spanning R^d), by beneath-beyond.

    A d-simplex starts the hull: the point of least x_0, then each next point
    farthest from the flat of those chosen.  Then the point farthest beyond a
    facet joins: the facets it sees by more than tol go, and cones from their
    horizon ridges to it replace them (Clarkson & Shor 1989).  A point within
    tol of every facet never joins.  Returns one row per distinct final
    plane, marking the points within tol of it, and the points of the final
    facets: every vertex is among them.
    """
    d, simplex = Q.shape[1], [int(Q[:, 0].argmin())]
    R = Q - Q[simplex[0]]  # each point less its projection on the chosen flat
    for _ in range(d):
        simplex.append(int(np.einsum("ij,ij->i", R, R).argmax()))
        u = R[simplex[-1]] / np.linalg.norm(R[simplex[-1]])
        R = R - np.outer(R @ u, u)
    Q = Q - Q[simplex].mean(axis=0)  # the origin is inside: each facet's plane is a.x = 1
    facets = new = [tuple(sorted(simplex[:i] + simplex[i + 1:])) for i in range(d + 1)]
    beyond = np.zeros((len(Q), 0))  # beyond[i, f]: how far point i lies beyond facet f
    while True:
        a = np.linalg.solve(Q[new], np.ones((len(new), d, 1)))[..., 0]
        beyond = np.concatenate([beyond, (Q @ a.T - 1.0) / np.linalg.norm(a, axis=1)], axis=1)
        p, f = divmod(int(beyond.argmax()), beyond.shape[1])
        if beyond[p, f] <= tol:
            break
        seen = beyond[p] > tol
        ridges = Counter(r for s in np.flatnonzero(seen).tolist()
                         for r in combinations(facets[s], d - 1))
        new = [tuple(sorted(r + (p,))) for r, k in ridges.items() if k == 1]  # the horizon
        facets = [f for f, gone in zip(facets, seen.tolist()) if not gone] + new
        beyond = beyond[:, ~seen]
    on = (np.abs(beyond) <= tol).T.copy()  # C order, so each row packs into one void
    packed, joined = np.packbits(on, axis=1), np.bincount(np.ravel(facets), minlength=len(Q)) > 0
    return on[np.unique(packed.view(f"V{packed.shape[1]}"), return_index=True)[1]], joined


def _rows(Q, on, joined, tol):
    """Facet rows of conv(Q) from the points on each facet (the rows of ``on``).

    The walk over every d-subset keeps a subset's plane (its cofactor normal
    about its first point) when all points lie on one side of it within tol.
    Kept planes through the same points make one facet, and its row comes
    from the subset with the largest normal (first in combinations order
    among equals), if that subset is independent.  Here the walk runs on
    each facet's widest subsets alone, those whose squared size is within
    a relative 1e-6 of the facet's largest, and its pick is among them.  A
    subset's size is, up to sign, affine in each of its points, so the
    largest is reached at vertices, and every vertex joined: every d-subset
    of a facet's joined points is tried.  A widest subset holding a point
    that did not join stays widest when that point gives way to a vertex
    around it, so swapping such points in, one at a time, finds the rest.
    The cost grows with C(k, d) for a facet with k joined points, and with
    its widest subsets times its other points.  Returns unit inward
    normals, offsets and incidence, in combinations order of their subsets.
    """
    d = Q.shape[1]
    T = np.array([(f, *s) for f, row in enumerate(on & joined)  # a facet, then a subset of it
                  for s in combinations(np.flatnonzero(row).tolist(), d)], dtype=int)
    gram, cut = _gram(Q, T[:, 1:]), np.zeros(len(on))
    np.maximum.at(cut, T[:, 0], gram * (1 - 1e-6))
    T, extra, n = T[gram > cut[T[:, 0]]], on & ~joined, 0
    while n < len(T) and extra.any():  # swap in a point that did not join, until none is new
        n, (i, x) = len(T), np.nonzero(extra[T[:, 0]])
        new = np.repeat(T[i], d, axis=0)
        new[np.arange(len(new)), np.tile(np.arange(1, d + 1), len(i))] = np.repeat(x, d)
        new[:, 1:].sort(axis=1)
        T = np.vstack([T, new[_gram(Q, new[:, 1:]) > cut[new[:, 0]]]])
        T = T[np.unique(T.view(f"V{T.itemsize * (d + 1)}"), return_index=True)[1]]
    S = T[np.lexsort(T[:, :0:-1].T), 1:]  # in combinations order
    E = (Q[S[:, 1:]] - Q[S[:, :1]]).T  # E[k, j, s]: coordinate k of edge j of subset s
    normals = _cofactor_normals(E)
    size = np.linalg.norm(normals, axis=0)
    t, dist = tol * size, Q @ normals - np.einsum("sk,ks->s", Q[S[:, 0]], normals)
    above = dist.min(0) >= -t
    kept = np.flatnonzero((above | (dist.max(0) <= t)) & (size > 0))
    U = (normals[:, kept] * (np.where(above[kept], 1.0, -1.0) / size[kept])).T
    inc = np.abs(dist[:, kept]).T <= t[kept, None]
    order = np.argsort(-size[kept], kind="stable")  # a facet's first subset has its largest normal
    packed = np.packbits(inc[order], axis=1)
    best = np.sort(order[np.unique(packed.view(f"V{packed.shape[1]}"), return_index=True)[1]])
    best = best[_rank(np.transpose(E[:, :, kept[best]])) == d - 1]  # independent: a facet
    return U[best], np.sum(Q[S[kept[best], 0]] * U[best], axis=1), inc[best]


def hull_hform(points):
    """Facet description of conv(points), handling flat (low-dim) hulls.

    Points are projected onto their affine hull (dimension d) first; a single
    point (d = 0) is handled directly.  Exact duplicates are dropped (each maps
    to its first index) and the facets of the m distinct points are found in
    numpy, points within RANK_TOL times their spread of a plane counting as on
    it.  One path serves every d >= 1: beneath-beyond (_candidates) finds the
    points on each facet, and _rows picks each facet's row by the rule of
    the walk over all C(m, d) subsets, from the facet's widest subsets.  The
    rows equal the walk's bit for bit on every input tried (tests/test_hulls.py
    holds them to it); this is measured, not proved, for points within about
    tol of a plane.  A point is a vertex when the normals of its facets have
    rank d.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    x0, B, N = affine_hull(P)
    d = B.shape[1]
    if d == 0:
        return HullHForm(N, N @ x0, np.zeros((0, P.shape[1])), np.zeros(0), [0])

    Y = (P - x0) @ B
    first = np.sort(np.unique((Y + 0.0).view(f"V{8 * d}"), return_index=True)[1])  # -0.0 is 0.0
    Q = Y[first]
    tol = RANK_TOL * np.linalg.norm(Q, axis=1).max()  # Q[0] = Y[0] = 0
    U, off, inc = _rows(Q, *_candidates(Q, tol), tol)
    D = U @ B.T
    vertex = first[_rank(inc.T[:, :, None] * U) == d]
    return HullHForm(N, N @ x0, D, off + D @ x0, vertex.tolist())


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

