"""The closed-form oracles of Simplex, Box, StdFormPolytope and L1Ball agree
with the generic path over the inequality rows.

The generic path is a plain ``Polytope`` built from the same (A, b, D, e)
description, so every method it runs is the base-class one: dense D x and
D d products and an SVD of the binding rows.  Points are vertices, random
points, and points moved to within about 1e-9 of a bound, where a row's
binding status is decided.  Simplex and Box agree exactly; the L1Ball points
stay off the rounding tie where the closed form and the rows can differ.
The closed-form ``in_face_lmo`` must search the face the rows bind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwpoly.objectives import distance_squared
from fwpoly.polytope import (
    Box,
    L1Ball,
    Polytope,
    TIE_TOL,
    PolytopeError,
    Simplex,
    StdFormPolytope,
    simplex_like_cube,
)
from fwpoly.solvers import solve

# offsets from a bound: on it, within EPS_BIND (binding), just past it
NEAR = (0.0, 2e-10, 7e-10, 1e-9, 1.3e-9, 4e-9)


def generic(poly):
    """The same polytope with none of the subclass's closed forms."""
    return Polytope(*poly.hform(), n=poly.n)


def assert_in_face_lmo_on_generic_face(poly, x, g):
    """in_face_lmo(x, g) is a vertex on the rows' minimal face of x whose
    <g, v> is the face's least, to within tie_argmin's tolerance.

    Values are compared, not vertices: an exact tie may go to another vertex
    of the face.  The vertex list is the closed form's, since the generic
    basis enumeration of an L1Ball's 2^n rows is refused above n = 4.
    """
    base = generic(poly)
    rows = base.binding_rows(x)
    V = poly.enumerate_vertices()
    face = V[[base.binding_rows(w)[rows].all() for w in V]]
    hit = np.flatnonzero((face == poly.in_face_lmo(x, g)).all(axis=1))
    assert hit.size == 1
    vals = face @ g
    assert vals[hit[0]] <= vals.min() + TIE_TOL * np.abs(vals).max()


def assert_same_oracles(poly, x, d, g):
    base = generic(poly)
    for tol in (1e-8, 0.0):
        assert poly.contains(x, tol) == base.contains(x, tol)
    assert np.array_equal(poly.binding_rows(x), base.binding_rows(x))
    try:
        want = base.max_step(x, d)
    except PolytopeError:
        with pytest.raises(PolytopeError):
            poly.max_step(x, d)
    else:
        assert poly.max_step(x, d) == want
    if base.contains(x):
        dim = base.minimal_face(x).dim
        assert poly.face_dim_at(x) == dim
        assert poly.minimal_face(x).dim == dim
        assert_in_face_lmo_on_generic_face(poly, x, g)


def _near_bound(rng, x, lo, hi=None):
    """x with a random subset of coordinates moved to near lo (or hi)."""
    x = x.copy()
    for i in np.flatnonzero(rng.random(x.size) < 0.5):
        off = NEAR[rng.integers(len(NEAR))]
        x[i] = lo[i] + off if hi is None or rng.random() < 0.5 else hi[i] - off
    return x


def _direction(rng, poly, x, kind):
    """Toward a vertex (stays in the affine hull), random, or zero."""
    if kind == 0:
        return poly.lmo(rng.standard_normal(poly.n)) - x
    if kind == 1:
        return rng.standard_normal(poly.n)
    return np.zeros(poly.n)


def _gradient(rng, n):
    """Random, or with entries on a coarse grid, so exact ties come up."""
    g = rng.standard_normal(n)
    return np.round(g) if rng.random() < 0.5 else g


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.integers(0, 2),
       st.integers(0, 2))
def test_simplex_matches_generic(n, seed, point_kind, dir_kind):
    rng = np.random.default_rng(seed)
    poly = Simplex(n)
    if point_kind == 0:
        x = np.eye(n)[rng.integers(n)]
    else:
        x = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.6)
        x = x / x.sum() if x.sum() > 0 else np.eye(n)[0]
        if point_kind == 2:
            x = _near_bound(rng, x, np.zeros(n))
    d = _direction(rng, poly, x, dir_kind)
    assert_same_oracles(poly, x, d, _gradient(rng, n))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 2),
       st.integers(0, 2))
def test_box_matches_generic(n, seed, point_kind, dir_kind):
    rng = np.random.default_rng(seed)
    # bounds at 0 make the offsets in NEAR exact, so x_i - lo_i or hi_i - x_i
    # can land on EPS_BIND itself
    width = rng.uniform(0.5, 3.0, n)
    lo = np.choose(rng.integers(3, size=n), [rng.uniform(-2.0, 1.0, n),
                                             np.zeros(n), -width])
    hi = lo + width
    poly = Box(lo, hi)
    if point_kind == 0:
        x = np.where(rng.random(n) < 0.5, lo, hi)
    else:
        x = rng.uniform(lo, hi)
        if point_kind == 2:
            x = _near_bound(rng, x, lo, hi)
    d = _direction(rng, poly, x, dir_kind)
    assert_same_oracles(poly, x, d, _gradient(rng, n))


STDFORMS = [
    simplex_like_cube(2),
    StdFormPolytope(np.ones((1, 5)), [1.0]),
    StdFormPolytope([[1.0, 2.0, 1.0, 0.0, 3.0], [0.0, 1.0, 2.0, 1.0, 1.0]],
                    [4.0, 3.0]),
    # a segment whose vertex (1, 0, 0) is degenerate: rank A[:, supp] < m
    StdFormPolytope([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]], [1.0, 1.0]),
    # the edge between (1, 0, 0, 0) and (0, 1, 0, 0) has rank A[:, supp] = 1 < |supp|
    StdFormPolytope([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]], [1.0, 1.0]),
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(range(len(STDFORMS))), st.integers(0, 2**32 - 1),
       st.integers(0, 2))
def test_stdform_face_dim_matches_generic(which, seed, point_kind):
    rng = np.random.default_rng(seed)
    poly = STDFORMS[which]
    V = np.asarray(poly.enumerate_vertices())
    if point_kind == 0:
        x = V[rng.integers(len(V))]
    else:
        w = rng.dirichlet(np.ones(len(V)) * 0.3)
        if point_kind == 1:
            # a mix of a random subset of the vertices, so lower faces come up
            w = w * (rng.random(len(V)) < 0.6)
            w[rng.integers(len(V))] += 0.5
        x = (w / w.sum()) @ V
        if point_kind == 2:
            # zero coordinates pushed up to about EPS_BIND
            zero = x <= 1e-12
            x[zero] = np.asarray(NEAR)[rng.integers(len(NEAR), size=zero.sum())]
    want = generic(poly).minimal_face(x).dim
    assert poly.face_dim_at(x) == want
    assert poly.minimal_face(x).dim == want


def test_stdform_dependent_support_columns():
    poly = STDFORMS[-1]
    x = np.array([0.5, 0.5, 0.0, 0.0])
    assert poly.face_dim_at(x) == generic(poly).minimal_face(x).dim == 1


# coordinate sizes and distances to the sphere ||x||_1 = r chosen away from
# the knife edge 2|x_i| = ||x||_1 - r + EPS_BIND, where rounding decides
TINY = (0.0, 1e-10, 3e-10, 4e-10, 7e-10, 2e-9, 1e-6)
L1_OFFSETS = (0.0, -3e-10, 3e-10, -2e-9, -0.2)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_l1ball_face_dim_matches_facet_rows(n, seed, at_vertex):
    rng = np.random.default_rng(seed)
    r = float(rng.uniform(0.5, 2.0))
    poly = L1Ball(n, r)
    if at_vertex:
        x = poly.enumerate_vertices()[rng.integers(2 * n)]
    else:
        big = rng.random(n) < 0.5
        big[rng.integers(n)] = True
        a = np.where(big, 0.0, np.asarray(TINY)[rng.integers(len(TINY), size=n)])
        w = rng.uniform(0.1, 1.0, n) * big
        target = r + L1_OFFSETS[rng.integers(len(L1_OFFSETS))]
        a = a + w * (target - a.sum()) / w.sum()
        x = a * rng.choice([-1.0, 1.0], n)
    want = generic(poly).minimal_face(x).dim
    assert poly.face_dim_at(x) == want
    assert poly.is_vertex(x) == (want == 0)
    assert_in_face_lmo_on_generic_face(poly, x, _gradient(rng, n))


@pytest.mark.parametrize("n", [3, 13])
def test_l1ball_in_face_lmo_searches_the_reported_face(n):
    # |x_1| < 1e-9, yet 2|x_1| = 1.6e-9 exceeds the slack ||x||_1 - (r - 1e-9)
    # = 1e-9, so e_1 spans the face with e_0; at n = 3 the rows say so too
    ball = L1Ball(n)
    x = np.zeros(n)
    x[:2] = [1.0 - 8e-10, 8e-10]
    g = -np.eye(n)[1]
    assert ball.face_dim_at(x) == 1
    assert np.array_equal(ball.in_face_lmo(x, g), np.eye(n)[1])
    if n <= 12:
        assert generic(ball).minimal_face(x).dim == 1
        assert_in_face_lmo_on_generic_face(ball, x, g)


class TestL1BallBeyondFacetRows:
    """L1Ball(13) keeps no facet rows; the closed form still finds its faces."""

    def test_vertices_and_faces(self):
        ball = L1Ball(13)
        assert ball.is_vertex(ball.lmo(np.ones(13)))
        x = np.zeros(13)
        x[[2, 5, 9]] = [0.5, -0.25, 0.25]
        assert ball.face_dim_at(x) == 2
        assert ball.face_dim_at(0.5 * x) == 13

    def test_minimal_face_only_inside(self):
        # no facet rows name a boundary face, so a boundary point raises
        ball = L1Ball(13)
        x = np.zeros(13)
        x[[2, 5, 9]] = [0.5, -0.25, 0.25]
        for y in (ball.lmo(np.ones(13)), x):
            with pytest.raises(PolytopeError):
                ball.minimal_face(y)
        face = ball.minimal_face(0.5 * x)
        assert face.dim == 13 and face.binding == frozenset()

    def test_solvers_start_and_see_faces(self):
        ball = L1Ball(13)
        center = np.zeros(13)
        center[:4] = [1.0, -0.8, 0.6, 0.2]
        obj = distance_squared(center)
        for variant in ("AFW", "BPFW"):
            tr = solve(ball, obj, variant, step="ls", max_iters=50)
            assert tr.records and tr.f_final < obj.value(ball.initial_vertex())
        dims = [r.support_or_face_dim for r in
                solve(ball, obj, "IFW", step="ls", max_iters=50).records]
        assert dims[0] == 0 and max(dims) < 13


class TestContains:
    """The Simplex, StdFormPolytope and Box ``contains`` against the rows.

    Their overrides skip the dense D x product (D is the identity, or
    [I; -I] on a box), so they must give the generic answer everywhere:
    on points whose residual on one row lies within 1e-8 of the tolerance
    on either side, on NaN and infinite coordinates, which fail, and on
    points of the wrong shape, which raise.
    """

    POLYS = [Simplex(1), Simplex(3), Simplex(7), *STDFORMS,
             Box([0.0, -1.0, 2.0], [1.0, 0.5, 2.25]), Box([-3.0], [1e-3])]
    # offsets of a row's residual from the tolerance, inward when positive
    EDGE = (0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-9, -1e-9, 1e-8, -1e-8)
    SPECIAL = (np.nan, np.inf, -np.inf, 1e300, -1e300)

    @staticmethod
    def _row_edges(poly, x, tol, off):
        """Copies of x, each with one row's residual moved to +-(tol - off)."""
        A, b, D, e = poly.hform()
        for k in range(A.shape[0]):
            # along A_k, which only moves the residual of equality row k
            # (and any row parallel to it)
            for side in (1.0, -1.0):
                r = A[k] @ x - b[k]
                yield x + (side * (tol - off) - r) * A[k] / (A[k] @ A[k])
        # along the part of D_i orthogonal to the equality rows, so A x = b holds
        P = np.eye(poly.n) - (np.linalg.pinv(A) @ A if A.size else 0.0)
        for i in range(D.shape[0]):
            u = P @ D[i]
            if u @ D[i] > 1e-9:
                yield x + ((-tol + off) - (D[i] @ x - e[i])) * u / (u @ D[i])

    def _same(self, poly, x, tol):
        got = poly.contains(x, tol)
        assert type(got) is bool
        assert got == generic(poly).contains(x, tol)
        return got

    @pytest.mark.parametrize("which", range(len(POLYS)))
    def test_row_edges(self, which):
        poly = self.POLYS[which]
        center = np.mean(poly.enumerate_vertices(), axis=0)
        seen = set()
        for tol in (1e-8, 0.0, 1e-6):
            for off in self.EDGE:
                for x in self._row_edges(poly, center, tol, off):
                    seen.add(self._same(poly, x, tol))
        # the edges lie on both sides of the test
        assert seen == {True, False}

    # inf * 0 and inf - inf in the row products warn, on either path
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(range(len(POLYS))), st.integers(0, 2**32 - 1),
           st.sampled_from((1e-8, 0.0, 1e-6)), st.integers(0, 2))
    def test_random_points(self, which, seed, tol, kind):
        poly = self.POLYS[which]
        rng = np.random.default_rng(seed)
        x = poly.sample_point(rng)
        if kind == 1:
            # a random row moved to within 1e-8 of the tolerance
            off = float(rng.uniform(-1e-8, 1e-8))
            edges = list(self._row_edges(poly, x, tol, off))
            x = edges[rng.integers(len(edges))]
        elif kind == 2:
            # NaN, an infinity or a huge value in some coordinates
            hit = rng.random(poly.n) < 0.5
            hit[rng.integers(poly.n)] = True
            x[hit] = np.asarray(self.SPECIAL)[rng.integers(len(self.SPECIAL),
                                                           size=hit.sum())]
        got = self._same(poly, x, tol)
        assert self._same(poly, list(x), tol) == got
        if np.isnan(x).any():
            assert not got

    @pytest.mark.parametrize("which", range(len(POLYS)))
    def test_wrong_shape_raises(self, which):
        poly = self.POLYS[which]
        n = poly.n
        for x in (np.zeros(n + 1), np.zeros((n, 1)), np.zeros((1, n)), np.float64(0.5),
                  np.zeros(0), [0.5] * (n + 2)):
            for p in (poly, generic(poly)):
                with pytest.raises(PolytopeError):
                    p.contains(x)
