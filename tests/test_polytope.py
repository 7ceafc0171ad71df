"""Oracle-level tests for the polytope module.

Expected values are frozen from independent derivations: brute-force vertex
scans, per-coordinate ratio tests, and rank computations done by hand.
"""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from fwpoly.geometry import face_lattice, sigma_profile
from fwpoly.objectives import PowerDistance, Quadratic
from fwpoly.polytope import (
    Box,
    Face,
    HFormPolytope,
    L1Ball,
    Polytope,
    PolytopeError,
    Simplex,
    StdFormPolytope,
    VRepPolytope,
    VertexCapExceeded,
    load_polytope,
    simplex_like_cube,
    tie_argmin,
)


def truncated_simplex():
    # {x in R^3 : sum x = 1, 0 <= x <= 0.6}
    return HFormPolytope(
        A=np.ones((1, 3)), b=[1.0],
        D=np.vstack([np.eye(3), -np.eye(3)]),
        e=np.array([0.0, 0.0, 0.0, -0.6, -0.6, -0.6]),
        name="trunc_simplex",
    )


class TestLMO:
    def test_simplex_lmo(self):
        assert np.allclose(Simplex(3).lmo([3.0, 1.0, 2.0]), [0, 1, 0])

    def test_simplex_lmo_tie_lowest_index(self):
        # g = (1, 0, 0): e2 and e3 tie; lowest index wins
        assert np.allclose(Simplex(3).lmo([1.0, 0.0, 0.0]), [0, 1, 0])

    def test_box_lmo(self):
        box = Box([0, 0], [1, 1])
        assert np.allclose(box.lmo([-1.0, -1.0]), [1, 1])
        assert np.allclose(box.lmo([1.0, -2.0]), [0, 1])
        # zero component ties to the lower bound
        assert np.allclose(box.lmo([0.0, 1.0]), [0, 0])

    def test_vrep_lmo_brute_force(self):
        verts = [(0.0, 0.0), (2.0, 0.0), (0.0, 1.0), (2.0, 1.0)]
        poly = VRepPolytope(verts)
        g = np.array([1.0, 0.5])
        brute = min(verts, key=lambda v: g @ np.asarray(v))
        assert np.allclose(poly.lmo(g), brute)
        assert np.allclose(poly.lmo(g), [0.0, 0.0])

    def test_l1ball_lmo(self):
        ball = L1Ball(3, radius=2.0)
        assert np.allclose(ball.lmo([1.0, -3.0, 2.0]), [0, 2.0, 0])
        assert np.allclose(ball.lmo([-1.0, 0.0, 0.0]), [2.0, 0, 0])

    def test_lmo_minimizes_over_vertex_list(self):
        rng = np.random.default_rng(0)
        for poly in [Simplex(4), Box([0, 0, 0], [1, 2, 1]), L1Ball(3), truncated_simplex()]:
            V = np.asarray(poly.enumerate_vertices())
            for _ in range(25):
                g = rng.normal(size=poly.n)
                v = poly.lmo(g)
                assert g @ v <= (V @ g).min() + 1e-12


class TestInFaceLMO:
    def test_simplex_edge(self):
        # face of (0.5, 0.5, 0) excludes the third coordinate, so the
        # attractive g3 = -10 must be ignored
        v = Simplex(3).in_face_lmo([0.5, 0.5, 0.0], [1.0, -1.0, -10.0])
        assert np.allclose(v, [0, 1, 0])

    def test_box_edge(self):
        v = Box([0, 0], [1, 1]).in_face_lmo([0.0, 0.4], [5.0, 1.0])
        assert np.allclose(v, [0.0, 0.0])

    def test_interior_equals_global(self):
        poly = Box([0, 0], [1, 1])
        x = np.array([0.5, 0.5])
        g = np.array([-1.0, 2.0])
        assert np.allclose(poly.in_face_lmo(x, g), poly.lmo(g))

    def test_vertex_face_is_singleton(self):
        poly = Simplex(3)
        v = poly.in_face_lmo([1.0, 0.0, 0.0], [10.0, -5.0, -5.0])
        assert np.allclose(v, [1, 0, 0])

    def test_near_ties_break_to_the_lowest_index(self):
        # <g, v> one ulp apart are tied: the lowest vertex index wins
        # whichever way the rounding fell, as an exact tie does
        up = np.nextafter(-0.5, 0.0)
        x = np.array([0.25, 0.25, 0.5])
        std = StdFormPolytope(np.ones((1, 3)), [1.0])
        exact = std.in_face_lmo(x, [-0.5, -0.5, 1.0]).tolist()
        for g in ([-0.5, up, 1.0], [up, -0.5, 1.0]):
            assert Simplex(3).in_face_lmo(x, g).tolist() == [1.0, 0.0, 0.0]
            assert std.in_face_lmo(x, g).tolist() == exact
            assert L1Ball(3).in_face_lmo([0.5, 0.5, 0.0], g).tolist() == [1.0, 0.0, 0.0]

    def test_matches_restricted_lmo_cross_check(self):
        # in-face LMO must agree with a brute-force LMO over the vertices of
        # the minimal face, across random points and gradients
        rng = np.random.default_rng(1)
        polys = [Simplex(4), Box([0, 0, 0], [1, 1, 1]), truncated_simplex()]
        for poly in polys:
            V = np.asarray(poly.enumerate_vertices())
            for _ in range(40):
                w = rng.dirichlet(np.ones(len(V)))
                # random point on a random face: zero out some weight
                drop = rng.random(len(V)) < 0.5
                if drop.all():
                    drop[rng.integers(len(V))] = False
                w = w * ~drop
                w = w / w.sum()
                x = w @ V
                g = rng.normal(size=poly.n)
                face_idx = poly.face_vertex_index(poly.minimal_face(x).binding)
                brute = min((V[i] for i in face_idx), key=lambda v: g @ v)
                assert g @ poly.in_face_lmo(x, g) <= g @ brute + 1e-10


class TestTieArgmin:
    def test_exact_and_rounding_ties_take_the_lowest_index(self):
        assert tie_argmin([2.0, 1.0, 1.0]) == 1
        assert tie_argmin([2.0, np.nextafter(1.0, 2.0), 1.0]) == 1
        assert tie_argmin([1.0 + 1e-9, 1.0]) == 1

    def test_tolerance_is_relative_to_the_largest_value(self):
        assert tie_argmin([1e6 * (1 + 1e-13), 1e6]) == 0
        assert tie_argmin([-1e6, 3e-7, 1e-7]) == 0
        assert tie_argmin([1e-20 + 1e-30, 1e-20]) == 1
        assert tie_argmin([1e-20 + 1e-33, 1e-20]) == 0
        assert tie_argmin([1e-20 + 1e-30, 1e-20, 1.0]) == 0

    def test_nonfinite_values_fall_back_to_argmin(self):
        assert tie_argmin([1.0, np.nan, 0.5]) == 1
        assert tie_argmin([1.0, -np.inf, 0.5]) == 1


class TestMaxStep:
    def test_box_interior(self):
        assert Box([0, 0], [1, 1]).max_step([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)

    def test_simplex_swap(self):
        eta = Simplex(3).max_step([0.5, 0.5, 0.0], [-1.0, 1.0, 0.0])
        assert eta == pytest.approx(0.5)

    def test_stdform_ratio(self):
        poly = StdFormPolytope(np.ones((1, 3)), [1.0])
        eta = poly.max_step([0.25, 0.25, 0.5], [1.0, 0.0, -1.0])
        assert eta == pytest.approx(0.5)

    def test_degenerate_direction(self):
        assert Simplex(3).max_step([0.5, 0.25, 0.25], np.zeros(3)) == np.inf

    def test_affine_hull_violation(self):
        with pytest.raises(PolytopeError):
            Simplex(3).max_step([0.5, 0.25, 0.25], [1.0, 0.0, 0.0])

    def test_l1ball_breakpoint_walk(self):
        ball = L1Ball(2)
        # from (0.5, 0) along (-1, 0): crosses zero, exits at x = -1
        assert ball.max_step([0.5, 0.0], [-1.0, 0.0]) == pytest.approx(1.5)
        # from (0.5, 0.25) along (0, 1): exits when |x|_1 = 1
        assert ball.max_step([0.5, 0.25], [0.0, 1.0]) == pytest.approx(0.25)

    def test_landing_point_feasible_and_maximal(self):
        rng = np.random.default_rng(2)
        polys = [Simplex(3), Box([0, 0], [2, 1]), truncated_simplex(), L1Ball(3)]
        for poly in polys:
            V = np.asarray(poly.enumerate_vertices())
            for _ in range(30):
                x = rng.dirichlet(np.ones(len(V))) @ V
                y = V[rng.integers(len(V))]
                d = y - x
                if np.linalg.norm(d) < 1e-12:
                    continue
                eta = poly.max_step(x, d)
                assert np.isfinite(eta)
                assert poly.contains(x + eta * d, tol=1e-9)
                assert not poly.contains(x + (eta + 1e-6) * d, tol=1e-12)


class TestMinimalFace:
    def test_simplex_edge_dim(self):
        face = Simplex(4).minimal_face([0.5, 0.5, 0.0, 0.0])
        assert face.dim == 1
        assert face.binding == frozenset({2, 3})

    def test_interior_face_is_whole_polytope(self):
        face = Box([0, 0], [1, 1]).minimal_face([0.3, 0.7])
        assert face.dim == 2
        assert face.binding == frozenset()

    def test_vertex_dim_zero(self):
        assert Simplex(3).minimal_face([1.0, 0.0, 0.0]).dim == 0

    def test_idempotent_monotone(self):
        poly = truncated_simplex()
        rng = np.random.default_rng(3)
        V = np.asarray(poly.enumerate_vertices())
        for _ in range(20):
            x = rng.dirichlet(np.ones(len(V))) @ V
            face = poly.minimal_face(x)
            # any point of the face's vertex hull lies on a weakly smaller face
            sub = np.asarray(poly.face_vertices(face))
            y = rng.dirichlet(np.ones(len(sub))) @ sub
            face_y = poly.minimal_face(y)
            assert face.binding <= face_y.binding
            assert face_y.dim <= face.dim

    def test_outside_point_rejected(self):
        with pytest.raises(PolytopeError):
            Simplex(3).minimal_face([0.5, 0.5, 0.5])

    @pytest.mark.parametrize("oracle", [
        lambda ball, x: ball.face_dim_at(x),
        lambda ball, x: ball.is_vertex(x),
        lambda ball, x: ball.in_face_lmo(x, np.array([1.0, -2.0, 0.5])),
    ], ids=["face_dim_at", "is_vertex", "in_face_lmo"])
    def test_l1ball_below_the_binding_tolerance_raises(self, oracle):
        # radius 1e-10 < EPS_BIND: the centre's slack pins every coordinate,
        # so no vertex names its face
        with pytest.raises(PolytopeError, match="no coordinate is free"):
            oracle(L1Ball(3, 1e-10), np.zeros(3))


CONTAINS_POLYS = pytest.mark.parametrize("poly", [
    Simplex(3),
    Box([0, 0], [1, 1]),
    StdFormPolytope(np.ones((1, 3)), [1.0]),
    VRepPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    L1Ball(3),
], ids=lambda p: type(p).__name__)


class TestContains:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @CONTAINS_POLYS
    def test_rejects_nonfinite(self, poly, bad):
        x = np.mean(poly.enumerate_vertices(), axis=0)
        assert poly.contains(x)
        for i in range(poly.n):
            y = x.copy()
            y[i] = bad
            assert not poly.contains(y)

    @pytest.mark.parametrize("shape", ["short", "long", "scalar", "row"])
    @CONTAINS_POLYS
    def test_rejects_wrong_shape(self, poly, shape):
        # a broadcast point used to pass: Box(0, 1).contains([0.5]) was True
        x = np.mean(poly.enumerate_vertices(), axis=0)
        bad = {"short": x[:1], "long": np.append(x, 0.0), "scalar": x[0],
               "row": x[None, :]}[shape]
        with pytest.raises(PolytopeError):
            poly.contains(bad)


class TestVertexEnumeration:
    def test_truncated_simplex_six_vertices(self):
        V = truncated_simplex().enumerate_vertices()
        assert len(V) == 6
        expected = {tuple(p) for p in itertools.permutations((0.6, 0.4, 0.0))}
        got = {tuple(np.round(v, 9)) for v in V}
        assert got == expected

    def test_box_count_and_order(self):
        V = Box([0, 0], [1, 1]).enumerate_vertices()
        assert [tuple(v) for v in V] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_cap_enforced(self):
        with pytest.raises(VertexCapExceeded):
            Box(np.zeros(8), np.ones(8)).enumerate_vertices(cap=64)

    def test_stdform_simplex(self):
        poly = StdFormPolytope(np.ones((1, 4)), [1.0])
        V = np.asarray(poly.enumerate_vertices())
        assert V.shape == (4, 4)
        assert np.allclose(sorted(V.max(axis=1)), np.ones(4))

    def test_vrep_rejects_interior_point(self):
        with pytest.raises(PolytopeError):
            VRepPolytope([(0, 0), (1, 0), (0, 1), (0.2, 0.2)])

    def test_simplex_like_detection(self):
        assert StdFormPolytope(np.ones((1, 5)), [1.0]).is_simplex_like()
        assert simplex_like_cube(3).is_simplex_like()
        scaled = StdFormPolytope(np.ones((1, 3)), [2.0])
        assert not scaled.is_simplex_like()

    @pytest.mark.parametrize("lo, hi", [
        ([np.nan, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.nan]),
        ([0.0, 0.0], [np.inf, 1.0]),
        ([-np.inf, 0.0], [1.0, 1.0]),
    ])
    def test_box_rejects_non_finite_bounds(self, lo, hi):
        # a NaN bound used to build a box whose lmo returned NaN, and an
        # infinite one a box of infinite diameter
        with pytest.raises(PolytopeError, match="finite"):
            Box(lo, hi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda bad: L1Ball(3, bad), "finite radius", id="l1ball"),
        pytest.param(lambda bad: L1Ball(13, bad), "finite radius", id="l1ball-no-rows"),
        pytest.param(lambda bad: StdFormPolytope([[1, 1, 1]], [bad]), "b has",
                     id="stdform-b"),
        pytest.param(lambda bad: StdFormPolytope([[1, bad, 1]], [1]), "A has",
                     id="stdform-A"),
        pytest.param(lambda bad: HFormPolytope(D=np.eye(2), e=[0, bad]), "e has",
                     id="hform-e"),
        pytest.param(lambda bad: HFormPolytope(D=[[1, 0], [bad, 1]], e=[0, 0]), "D has",
                     id="hform-D"),
        pytest.param(lambda bad: VRepPolytope([[0, 0], [1, bad], [0, 1]]),
                     "nonfinite coordinate", id="vrep"),
    ])
    def test_nonfinite_data_rejected_by_name(self, make, message, bad):
        # a NaN or infinite radius built a ball whose lmo returned NaN or -inf,
        # a NaN right-hand side a standard form with NaN vertices, and the
        # H-form and V-form failed later with unrelated messages
        with pytest.raises(PolytopeError, match=message):
            make(bad)

    def test_hform_dependent_equality_row_rejected(self):
        # the simplex with its equality written twice: the standard form's rule
        with pytest.raises(PolytopeError, match="A must have full row rank"):
            HFormPolytope(A=[[1, 1, 1], [2, 2, 2]], b=[1, 2], D=np.eye(3), e=np.zeros(3))
        # x1 = x2 >= 0 written twice is still named unbounded first, in both forms
        with pytest.raises(PolytopeError, match="unbounded"):
            HFormPolytope(A=[[1, -1], [2, -2]], b=[0, 0], D=np.eye(2), e=np.zeros(2))
        with pytest.raises(PolytopeError, match="stdform: feasible region is unbounded"):
            StdFormPolytope([[1, -1], [2, -2]], [0, 0])
        with pytest.raises(PolytopeError, match="stdform: A must have full row rank"):
            StdFormPolytope([[1, 1, 1], [2, 2, 2]], [1, 2])
        # a lineality space (the x3 axis) is an unbounded region too
        with pytest.raises(PolytopeError, match="hform: feasible region is unbounded"):
            HFormPolytope(D=[[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], e=[0, -1, 0, -1])

    def test_unbounded_stdform_rejected(self):
        # x1 - x2 = 0, x >= 0 is an unbounded ray
        with pytest.raises(PolytopeError):
            StdFormPolytope(np.array([[1.0, -1.0]]), [0.0])

    def test_hform_redundant_row_rejected(self):
        with pytest.raises(PolytopeError):
            HFormPolytope(
                D=np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]]),
                e=[0.0, 0.0, -1.0, -1.0, -10.0],
            )

    @pytest.mark.parametrize("make", [
        lambda: Simplex(3), lambda: Box([0, 0], [1, 2]), lambda: L1Ball(3),
        lambda: VRepPolytope([(0, 0), (1, 0), (0, 1)]), truncated_simplex,
        lambda: StdFormPolytope(np.ones((1, 4)), [1.0]),
    ])
    def test_cached_rows_are_read_only(self, make):
        # every oracle and geometry's memo tables read the cached array and
        # the rows, so a write into either must raise instead of changing
        # them silently
        poly = make()
        V = poly.enumerate_vertices()
        assert type(V) is np.ndarray and V.shape == (len(V), poly.n) and len(V) >= 1
        assert poly.enumerate_vertices() is V
        before = V.copy()
        for arr in (V, *poly.hform(), *poly.vertex_slacks()):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            V[0][0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            V[0, 0] = 5.0
        assert np.array_equal(poly.enumerate_vertices(), before)
        g = np.arange(poly.n, dtype=float)
        for v in (poly.lmo(g), poly.in_face_lmo(poly.lmo(g), g), poly.initial_vertex()):
            v[0] = 7.0  # the oracles hand out writable copies
        assert np.array_equal(poly.enumerate_vertices(), before)

    def test_caller_data_is_copied(self):
        # the polytope and the objectives keep private copies, so a caller who
        # edits the arrays they passed in changes neither a cached table nor
        # an oracle's answer
        lo, hi = np.zeros(2), np.ones(2)
        A, b = np.ones((1, 3)), np.array([1.0])
        D = np.vstack([np.eye(3), -np.eye(3)])
        e = np.array([0.0, 0.0, 0.0, -0.6, -0.6, -0.6])
        c, center = np.array([1.0, -2.0]), np.array([0.25, 0.5])

        def build():
            return (Box(lo, hi), HFormPolytope(A=A, b=b, D=D, e=e),
                    Quadratic(np.eye(2), c), PowerDistance(center, 3))

        def answers(box, trunc, quad, power):
            x2, x3 = np.array([0.0, 0.0]), np.array([0.6, 0.4, 0.0])
            return [box.contains(x2), trunc.contains(x3), box.lmo([1.0, -1.0]),
                    trunc.lmo([1.0, 2.0, 3.0]), *box.vertex_slacks(),
                    *trunc.vertex_slacks(), quad.value(x2), power.value(x2)]

        early, late = build(), build()
        before = answers(*early)
        lo[0], hi[1] = 0.5, 0.25
        A[0, 0], b[0], D[0, 0], e[:] = 5.0, 7.0, 9.0, 3.0
        c[:], center[:] = 0.0, 9.0
        for got in (answers(*early), answers(*late)):
            assert all(np.array_equal(g, w) for g, w in zip(got, before))
        assert before[:2] == [True, True]
        assert early[0].lmo([1.0, -1.0]).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("poly", [Simplex(500), L1Ball(500), Box(np.zeros(500), np.ones(500))],
                             ids=["simplex500", "l1ball500", "box500"])
    def test_over_cap_refused_before_allocating(self, poly):
        tracemalloc.start()
        try:
            with pytest.raises(VertexCapExceeded):
                poly.enumerate_vertices()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert poly._vertices is None


class TestVertexSlackTable:
    POLYS = [lambda: Simplex(3), lambda: Box([0, 0], [1, 2]), lambda: L1Ball(3),
             lambda: VRepPolytope([(0, 0), (1, 0), (0, 1)]), truncated_simplex,
             lambda: StdFormPolytope(np.ones((1, 4)), [1.0])]
    IDS = ["simplex3", "box2", "l1ball3", "vrep3", "truncsimplex", "std4"]

    @pytest.mark.parametrize("make", POLYS, ids=IDS)
    def test_built_once_and_read_only(self, make):
        # every incidence query reads the one table, so none may rebuild it
        # and no caller may write into it
        poly = make()
        slack, binding = poly.vertex_slacks()
        lattice = face_lattice(poly)
        sigma_profile(poly)
        x = poly.sample_point(np.random.default_rng(0))
        poly.in_face_lmo(x, np.arange(poly.n, dtype=float))
        for face in lattice:
            poly.face_vertex_index(poly.face_rows(face.vset))
        again = poly.vertex_slacks()
        assert again[0] is slack and again[1] is binding
        for table, value in ((slack, 1.0), (binding, False)):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = value

    @pytest.mark.parametrize("make", POLYS, ids=IDS)
    def test_matches_the_vertex_rows(self, make):
        # the table is V D^T - e, and each lattice face is exactly the vertex
        # set that its binding rows cut out
        poly = make()
        V = np.asarray(poly.enumerate_vertices())
        slack, binding = poly.vertex_slacks()
        assert np.array_equal(slack, V @ poly.D.T - poly.e)
        assert np.array_equal(binding, slack <= 1e-9)
        for face in face_lattice(poly):
            assert poly.face_vertex_index(poly.face_rows(face.vset)) == sorted(face.vset)


class TestGeometryHelpers:
    def test_is_vertex(self):
        box = Box([0, 0], [1, 1])
        assert box.is_vertex([1.0, 0.0])
        assert not box.is_vertex([0.5, 0.0])

    def test_dim_and_diameter(self):
        assert Simplex(3).dim() == 2
        assert Simplex(3).diameter() == pytest.approx(np.sqrt(2))
        assert Box([0, 0], [2, 1]).diameter() == pytest.approx(np.sqrt(5))
        assert L1Ball(4, 1.5).diameter() == pytest.approx(3.0)
        assert truncated_simplex().dim() == 2

    def test_face_vertices(self):
        poly = truncated_simplex()
        face = poly.minimal_face([0.6, 0.2, 0.2])
        fv = {tuple(np.round(v, 9)) for v in poly.face_vertices(face)}
        assert fv == {(0.6, 0.4, 0.0), (0.6, 0.0, 0.4)}

    def test_initial_vertex_deterministic(self):
        poly = truncated_simplex()
        assert np.allclose(poly.initial_vertex(), poly.initial_vertex())

    def test_simplex_sample_matches_the_vertex_mix(self):
        poly = Simplex(5)
        for seed in range(20):
            base = Polytope.sample_point(poly, np.random.default_rng(seed))
            own = poly.sample_point(np.random.default_rng(seed))
            assert np.array_equal(own, base)

    def test_simplex_sample_beyond_the_vertex_cap(self):
        poly = Simplex(500)
        x = poly.sample_point(np.random.default_rng(0))
        assert x.shape == (500,) and x.min() > 0.0
        assert poly.contains(x)


class TestFileFormat:
    def test_roundtrip_kinds(self, tmp_path):
        cases = {
            "s.poly": "simplex 3\n",
            "b.poly": "box\nlo 0 0\nhi 2 1\n",
            "l.poly": "l1ball 3 1.5\n",
            "v.poly": "vrep\nv 0 0\nv 2 0\nv 0 1\nv 2 1\n",
            "f.poly": "stdform\nA 1 1 1\nb 1\n",
            "h.poly": (
                "hform\nA 1 1 1\nb 1\n"
                "D 1 0 0\nD 0 1 0\nD 0 0 1\nD -1 0 0\nD 0 -1 0\nD 0 0 -1\n"
                "e 0 0 0 -0.6 -0.6 -0.6\n"
            ),
        }
        expected_n = {"s.poly": 3, "b.poly": 2, "l.poly": 3, "v.poly": 2,
                      "f.poly": 3, "h.poly": 3}
        for fname, text in cases.items():
            p = tmp_path / fname
            p.write_text(text)
            poly = load_polytope(p)
            assert poly.n == expected_n[fname]
            poly.enumerate_vertices()

    def test_json_forms(self, tmp_path):
        p = tmp_path / "tri.json"
        p.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
        tri = load_polytope(p)
        assert isinstance(tri, VRepPolytope) and tri.name == "tri.json"
        assert len(tri.enumerate_vertices()) == 3
        p.write_text(json.dumps({
            "name": "trunc", "A": [[1, 1, 1]], "b": [1],
            "D": np.vstack([np.eye(3), -np.eye(3)]).tolist(),
            "e": [0, 0, 0, -0.6, -0.6, -0.6]}))
        trunc = load_polytope(p)
        assert isinstance(trunc, HFormPolytope) and trunc.name == "trunc"
        assert len(trunc.enumerate_vertices()) == 6
        for bad in ({"D": [[1, 0]]}, {"vertices": "abc"}, "{not json"):
            p.write_text(bad if isinstance(bad, str) else json.dumps(bad))
            with pytest.raises(PolytopeError):
                load_polytope(p)

    def test_missing_right_hand_side_rejected(self, tmp_path):
        # rows without their right-hand side are refused when the polytope is
        # built, not later inside the vertex enumeration or a membership test
        D = np.vstack([np.eye(3), -np.eye(3)])
        e = [0, 0, 0, -0.6, -0.6, -0.6]
        with pytest.raises(PolytopeError, match="missing b"):
            HFormPolytope(A=[[1, 1, 1]], b=None, D=D, e=e)
        with pytest.raises(PolytopeError, match="missing b"):
            Polytope(A=[[1, 1, 1]], D=D, e=e)
        with pytest.raises(PolytopeError, match="missing e"):
            Polytope(D=D)
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"A": [[1, 1, 1]], "D": D.tolist(), "e": e}))
        with pytest.raises(PolytopeError, match="missing b"):
            load_polytope(p)
        p = tmp_path / "h.poly"
        p.write_text("hform\nA 1 1 1\n" + "".join(
            "D " + " ".join(map(str, row)) + "\n" for row in D) + "e 0 0 0 -0.6 -0.6 -0.6\n")
        with pytest.raises(PolytopeError, match="missing b"):
            load_polytope(p)

    def test_comments_and_unknown_kind(self, tmp_path):
        p = tmp_path / "c.poly"
        p.write_text("# heading\nsimplex 2  # trailing\n")
        assert load_polytope(p).n == 2
        p.write_text("balloon 3\n")
        with pytest.raises(PolytopeError):
            load_polytope(p)


class TestFaceType:
    def test_face_contains(self):
        f = Face(frozenset({1, 3}), dim=1)
        assert 1 in f and 2 not in f
