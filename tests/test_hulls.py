"""Facet descriptions and Euclidean projection onto convex hulls of points.

``hull_hform`` must find the facets Qhull finds, one row per distinct plane,
and its rows, offsets and vertices must equal bit for bit those of the walk
over every d-subset of the points (``walk`` below).  Qhull and the walk are
the oracles here, and this is the only module that imports ``scipy.spatial``.
Every projection (Wolfe's method) must be a point of the coefficient simplex
that no coefficient direction improves, and on small hulls its distance must
match a brute-force oracle over every support.
"""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from fwpoly import _hulls, geometry
from fwpoly._hulls import hull_hform, project_to_hull
from fwpoly.instances import named_polytope
from fwpoly.polytope import Box, L1Ball, PolytopeError, VRepPolytope

from test_geometry import PRISM, SPHERE9

SHAPES = ("generic", "duplicated", "collinear", "coplanar")


def random_hull(seed, N, n, shape):
    """N points in R^n: generic, with repeats, on a line or on a plane."""
    rng = np.random.default_rng(seed)
    if shape == "generic":
        return rng.standard_normal((N, n))
    if shape == "duplicated":
        base = rng.standard_normal((max(1, N // 2), n))
        return base[rng.integers(0, len(base), N)]
    k = 1 if shape == "collinear" else 2
    frame = rng.standard_normal((k, n))
    return rng.standard_normal(n) + rng.standard_normal((N, k)) @ frame


def random_target(seed, P, inside):
    """A convex combination of the points, or a point pushed away from them."""
    rng = np.random.default_rng(seed + 1)
    if inside:
        return rng.dirichlet(np.ones(len(P))) @ P
    return P.mean(axis=0) + 3.0 * (1.0 + np.abs(P).max()) * rng.standard_normal(P.shape[1])


def brute_force_distance(P, w):
    """Min over every support of its affine least-squares point, where feasible.

    Written in barycentric form around the support's first point, so it shares
    no code with the projection under test.
    """
    best = np.inf
    for k in range(1, len(P) + 1):
        for S in itertools.combinations(range(len(P)), k):
            Q = P[list(S)] - w
            D = (Q[1:] - Q[0]).T
            mu = np.linalg.lstsq(D, -Q[0], rcond=None)[0] if k > 1 else np.zeros(0)
            lam = np.concatenate([[1.0 - mu.sum()], mu])
            if lam.min() >= -1e-12:
                best = min(best, float(np.linalg.norm(lam @ Q)))
    return best


def assert_optimal(P, w, dist, lam):
    scale = max(1.0, float(np.abs(P).max()), float(np.abs(w).max()))
    assert lam.min() >= 0.0
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)
    resid = lam @ P - w
    assert dist == np.linalg.norm(resid)
    # the polish inequality: moving weight onto any point cannot shorten x - w
    gain = P @ resid - lam @ (P @ resid)
    assert gain.min() >= -1e-11 * scale * max(1.0, dist)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(1, 10), st.sampled_from(SHAPES),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_projection_is_optimal(N, n, shape, inside, seed):
    P = random_hull(seed, N, n, shape)
    w = random_target(seed, P, inside)
    dist, lam = project_to_hull(P, w)
    assert_optimal(P, w, dist, lam)
    if inside:
        assert dist <= 1e-9 * max(1.0, float(np.abs(P).max()))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 10), st.sampled_from(SHAPES),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_distance_matches_brute_force(N, n, shape, inside, seed):
    P = random_hull(seed, N, n, shape)
    w = random_target(seed, P, inside)
    dist, _ = project_to_hull(P, w)
    assert dist == pytest.approx(brute_force_distance(P, w), abs=1e-12)


# the difference set V - V of Simplex(3) (three zero rows) and a target on its
# boundary, from the gauge bisection of TestGaugeBisection seed 0
GAUGE_DIFFS = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0],
                        [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0],
                        [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
GAUGE_TARGET = np.array([-0.5364211130763672, -0.46357888684512827, 0.9999999999214955])


def test_tiny_support_weight_is_kept():
    # the optimal support holds a weight below 1e-10: cutting it rejects a
    # correct answer, so the final re-solve keeps every positive weight
    dist, lam = project_to_hull(GAUGE_DIFFS, GAUGE_TARGET)
    assert_optimal(GAUGE_DIFFS, GAUGE_TARGET, dist, lam)
    assert dist <= 1e-15
    assert 0.0 < lam[lam > 0].min() < 1e-10


def test_rejected_check_raises(monkeypatch):
    monkeypatch.setattr(_hulls, "_polish", lambda P, w, lam, scale: None)
    with pytest.raises(PolytopeError):
        project_to_hull(GAUGE_DIFFS, GAUGE_TARGET)


def test_single_point():
    dist, lam = project_to_hull([[3.0, 4.0]], [0.0, 0.0])
    assert (dist, lam.tolist()) == (5.0, [1.0])


# -- facet enumeration against Qhull --------------------------------------------------


def qhull_hform(P):
    """Qhull's distinct facet planes (D, e) and vertex indices of conv(P).

    Qhull runs on the affine-hull coordinates, as hull_hform's enumeration
    does; a triangulated facet's pieces are one plane, and a repeated point
    is counted at its first index.
    """
    x0, B, _ = _hulls.affine_hull(P)
    hull = ConvexHull((P - x0) @ B)
    D = -(hull.equations[:, :-1] @ B.T)
    e = hull.equations[:, -1] + D @ x0
    norms = np.linalg.norm(D, axis=1)
    planes = []
    for row in np.column_stack([D, e]) / norms[:, None]:
        if not any(np.abs(row - q).max() <= 1e-9 for q in planes):
            planes.append(row)
    first = {}
    for i, p in enumerate(map(tuple, P.tolist())):
        first.setdefault(p, i)
    return np.array(planes), sorted({first[tuple(P[i].tolist())] for i in hull.vertices})


def lattice_with_boundary(rng):
    """Corners of an integer box, some edge midpoints and face centres, and one
    interior point: every coordinate exact, so a point on a facet is on it."""
    hi = 2.0 * rng.integers(1, 4, 3)
    corners = np.array(list(itertools.product(*[(0.0, h) for h in hi])))
    mids = [(a + b) / 2 for a, b in itertools.combinations(corners, 2)
            if np.count_nonzero(a != b) in (1, 2)]
    pick = rng.permutation(len(mids))[:int(rng.integers(1, 8))]
    P = np.vstack([corners, np.array(mids)[pick], hi / 2])
    return P[rng.permutation(len(P))]


def difference_body(V):
    V = np.asarray(V, dtype=float)
    return (V[:, None, :] - V[None, :, :]).reshape(-1, V.shape[1])


CROSS4 = np.vstack([np.eye(4), -np.eye(4)])
FIXED = {"cube3 - cube3": difference_body(named_polytope("cube3").enumerate_vertices()),
         "sphere9 - sphere9": difference_body(SPHERE9),
         "prism": np.asarray(PRISM.enumerate_vertices()),
         # each edge of the 4-D cross-polytope lies on 4 facets, so the
         # midpoints have as many facets as a vertex, of rank 3
         "cross4 and edge midpoints": np.vstack(
             [CROSS4, [(a + b) / 2 for a, b in itertools.combinations(CROSS4, 2) if a @ b == 0]])}


def random_points(kind, seed, n, N):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal((N, n))
    if kind == "flat in R^4":  # a 2- or 3-dimensional slice of R^4
        k = 2 + n % 2
        return rng.standard_normal(4) + rng.standard_normal((N, k)) @ rng.standard_normal((k, 4))
    if kind == "duplicated":
        P = rng.standard_normal((N, n))
        return np.vstack([P, P[rng.integers(0, N, 3)]])[rng.permutation(N + 3)]
    return lattice_with_boundary(rng)


def assert_matches_qhull(P):
    planes, vertices = qhull_hform(P)
    hf = hull_hform(P)
    spread = float(np.abs(P).max())
    mine = np.column_stack([hf.D, hf.e / spread])
    theirs = planes / np.r_[np.ones(planes.shape[1] - 1), spread]
    assert len(mine) == len(theirs)  # one row per facet, not one per Qhull simplex
    for row in mine:
        assert np.abs(theirs - row).max(axis=1).min() <= 1e-12
    assert hf.vertex_index == vertices
    assert np.allclose(hf.A @ P.T, hf.b[:, None], atol=1e-12 * spread)


POINT_SETS = (st.sampled_from(["gaussian", "flat in R^4", "duplicated", "lattice"]),
              st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 12))


@settings(max_examples=50, deadline=None)
@given(*POINT_SETS)
def test_random_point_sets_match_qhull(kind, seed, n, extra):
    assert_matches_qhull(random_points(kind, seed, n, n + 2 + extra))


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_point_sets_match_qhull(name):
    assert_matches_qhull(FIXED[name])


# -- the same bits as the walk over every d-subset --------------------------------------


def walk(Q, tol):
    """Facet rows of conv(Q) (m distinct points spanning R^d) from every d-subset.

    A subset's plane (cofactor normal about its first point) is kept when all
    points lie on one side of it within tol.  Kept planes through the same
    points make one facet, one row from the subset with the largest normal
    (first in combinations order among equals), if that subset is independent.
    """
    S = np.array(list(itertools.combinations(range(len(Q)), Q.shape[1])))
    G = np.take(Q.T, S.T, axis=1)  # G[k, j, s]: coordinate k of point j of subset s
    normals = _hulls._cofactor_normals(G[:, 1:] - G[:, :1])
    size = np.linalg.norm(normals, axis=0)
    t, dist = tol * size, Q @ normals - np.einsum("ks,ks->s", G[:, 0], normals)
    above = dist.min(0) >= -t
    on = np.flatnonzero((above | (dist.max(0) <= t)) & (size > 0))
    U = (normals[:, on] * (np.where(above[on], 1.0, -1.0) / size[on])).T
    inc = np.abs(dist[:, on]).T <= t[on, None]
    order = np.argsort(-size[on], kind="stable")
    packed = np.packbits(inc[order], axis=1)
    best = np.sort(order[np.unique(packed.view(f"V{packed.shape[1]}"), return_index=True)[1]])
    E = G[:, 1:, on[best]] - G[:, :1, on[best]]
    best = best[_hulls._rank(np.transpose(E)) == Q.shape[1] - 1]
    return U[best], np.sum(Q[S[on[best], 0]] * U[best], axis=1), inc[best]


def assert_walks_the_same(P):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_hulls, "_rows", lambda Q, on, joined, tol: walk(Q, tol))
        walked = hull_hform(P)
    hf = hull_hform(P)
    assert hf.D.shape == walked.D.shape and hf.vertex_index == walked.vertex_index
    assert hf.D.tobytes() == walked.D.tobytes() and hf.e.tobytes() == walked.e.tobytes()


@settings(max_examples=50, deadline=None)
@given(*POINT_SETS)
def test_random_point_sets_walk_the_same(kind, seed, n, extra):
    P = random_points(kind, seed, n, n + 2 + extra)  # C(m, d) <= C(21, 4) = 5,985
    assert_walks_the_same(P)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_point_sets_walk_the_same(name):
    assert_walks_the_same(FIXED[name])  # at most C(73, 3) = 62,196 subsets


@pytest.mark.parametrize("k", [-20, 23])
def test_rescaled_points_give_the_same_facets(k):
    # exact powers of two; 2**-43 is left out because affine_hull floors its
    # rank scale at 1, a tolerance ROADMAP item 1 is to make scale with the points
    P = np.random.default_rng(k + 100).standard_normal((30, 3))
    hf, scaled = hull_hform(P), hull_hform(P * 2.0 ** k)
    assert scaled.vertex_index == hf.vertex_index
    assert np.abs(scaled.D - hf.D).max() <= 1e-14
    assert np.abs(scaled.e - 2.0 ** k * hf.e).max() <= 1e-14 * 2.0 ** k * np.abs(hf.e).max()


def test_cube_has_one_row_per_facet():
    cube = VRepPolytope(list(itertools.product((0.0, 1.0), repeat=3)))
    assert cube.D.shape == (6, 3)  # Qhull's triangulation gave 12


def test_collinear_points_give_the_two_end_rows():
    # affine dimension 1 goes through the same walk: 1-subsets are points
    rng = np.random.default_rng(5)
    P = rng.standard_normal(3) + np.outer([0.3, -1.2, 2.0, 0.3, 0.5], rng.standard_normal(3))
    hf = hull_hform(P)
    assert hf.vertex_index == [1, 2] and hf.D.shape == (2, 3)
    slack = P @ hf.D.T - hf.e
    assert slack.min() >= -1e-12 and sorted(np.argmin(slack, axis=0).tolist()) == [1, 2]
    assert np.allclose(hf.D[0], -hf.D[1], atol=1e-15)


def test_many_subsets_take_one_hull_call(monkeypatch):
    calls, hform = [], _hulls.hull_hform

    def counted(points):
        calls.append(len(points))
        return hform(points)

    monkeypatch.setattr(_hulls, "hull_hform", counted)
    P = np.random.default_rng(0).standard_normal((60, 4))
    assert comb(60, 4) > 2**16
    _hulls.hull_hform(P)
    assert calls == [60]  # nothing recurses into the facets' own hulls
    assert_matches_qhull(P)
    # repeated points do not count: 4 distinct points, 4 triples
    hf = hull_hform(np.tile(np.vstack([np.zeros(3), np.eye(3)]), (500, 1)))
    assert (hf.vertex_index, hf.D.shape) == ([0, 1, 2, 3], (4, 3))


def test_face_distance_at_the_centre_of_a_4_cube():
    # the gauge body is {-1, 0, 1}^4: 81 points, C(81, 4) = 1,663,740 subsets
    box = Box(np.zeros(4), np.ones(4))
    x, w = np.full(4, 0.5), np.array([0.3, -0.1, 0.2, 0.05])
    assert geometry.face_distance(box, x + w, x) == pytest.approx(0.3, abs=1e-12)


def test_face_distance_at_the_centre_of_a_5_cube():
    # the gauge body is {-1, 0, 1}^5: each of its 10 facets holds 81 points,
    # C(81, 5) = 25,621,596 5-subsets apiece, and 16 vertices, C(16, 5) = 4,368
    box = Box(np.zeros(5), np.ones(5))
    x, w = np.full(5, 0.5), np.array([0.3, -0.1, 0.2, 0.05, 0.1])
    assert geometry.face_distance(box, x + w, x) == pytest.approx(0.3, abs=1e-12)


def test_face_distance_at_an_interior_point_of_an_l1_ball_in_r7():
    # the gauge body is the l1 ball of radius 2 with its 84 edge midpoints:
    # each of its 128 facets holds 28 points, C(28, 7) = 1,184,040 7-subsets
    # apiece, and 7 vertices; the gauge of w is ||w||_1 / 2
    x, w = np.full(7, 0.01 / 7), np.full(7, 0.09 / 7)
    assert geometry.face_distance(L1Ball(7), x + w, x) == pytest.approx(0.045, abs=1e-12)


def test_face_distance_at_the_vertex_mean_of_14_sphere_points():
    # the gauge body has 183 distinct points in R^3, C(183, 3) = 1,004,731 subsets
    rng = np.random.default_rng(3)
    rng.standard_normal(9 * 4 + 4)  # the draws of 9 sphere points in R^4 before them
    V = rng.standard_normal((14, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    x = V.mean(axis=0)
    y = x + 0.01 * rng.standard_normal(3)
    assert geometry.face_distance(VRepPolytope(V), y, x) == pytest.approx(
        0.010178539783550624, rel=1e-12)


def test_many_collinear_points_give_the_two_end_rows():
    # more than an int16 index holds; a row per end, whatever the count
    P = 0.5 + np.outer(np.linspace(-1.0, 1.0, 40_000), [1.0, 2.0, -1.0])
    hf = hull_hform(P[::-1])
    assert hf.vertex_index == [0, 39_999] and hf.D.shape == (2, 3)
    assert (P @ hf.D.T - hf.e).min() >= -1e-12
