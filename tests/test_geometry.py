"""Affine-invariant distances, facial constants, and derived certificates.

Expected values are hand-derived on small polytopes where every quantity
has a closed form; each literal is annotated with its derivation.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwpoly import geometry
from fwpoly._hulls import hull_distance, hull_hform, project_to_hull
from fwpoly.geometry import (
    derive_error_bound,
    estimate_theta,
    face_distance,
    face_lattice,
    facial_lower_bound,
    fit_holder_exponent,
    inner_facial_distance,
    minimal_supports,
    outer_facial_distance,
    phi_lower_bound,
    phibar_lower_bound_std,
    radial_distance,
    relative_boundary_distance,
    sigma_profile,
    vertex_distance,
)
from fwpoly.instances import named_polytope, random_vrep, truncated_simplex
from fwpoly.polytope import (
    Box,
    L1Ball,
    PolytopeError,
    Simplex,
    StdFormPolytope,
    VRepPolytope,
)

from conftest import inv_sigma_bound

S3 = Simplex(3)
CENTROID = np.array([1.0, 1.0, 1.0]) / 3.0
BOX2 = Box(np.zeros(2), np.ones(2))
STD3 = StdFormPolytope(np.ones((1, 3)), np.array([1.0]), name="simplex3std")


def std5():
    return StdFormPolytope(np.ones((1, 5)), np.array([1.0]), name="simplex5std")


# -- point distances ------------------------------------------------------------


class TestRadial:
    def test_half_chord(self):
        # y is halfway from the centroid to e1 along the chord that exits at e1
        y = np.array([2.0 / 3, 1.0 / 6, 1.0 / 6])
        assert radial_distance(S3, y, CENTROID) == pytest.approx(0.5, abs=1e-12)

    def test_vertex_law(self):
        # distance to any vertex y != x is exactly 1
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert radial_distance(S3, e, CENTROID) == pytest.approx(1.0, abs=1e-12)

    def test_zero_law(self):
        assert radial_distance(S3, CENTROID, CENTROID) == 0.0

    def test_box_interior(self):
        x = np.array([0.5, 0.5])
        y = np.array([0.875, 0.5])  # 3/4 of the way to the right facet
        assert radial_distance(BOX2, y, x) == pytest.approx(0.75, abs=1e-12)


class TestVertexDistance:
    def test_quarter_shift_on_edge(self):
        x = np.array([0.5, 0.5, 0.0])
        y = np.array([0.25, 0.75, 0.0])
        # y - x = (1/4)(e2 - e1); no longer chord exists in that direction
        assert vertex_distance(S3, y, x) == pytest.approx(0.25, abs=1e-10)

    def test_between_vertices(self):
        e1, e2 = np.array([1.0, 0, 0]), np.array([0.0, 1, 0])
        assert vertex_distance(S3, e2, e1) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        x = np.array([0.5, 0.5, 0.0])
        assert vertex_distance(S3, x, x) == 0.0


class TestFaceDistance:
    def test_quarter_shift_on_edge(self):
        x = np.array([0.5, 0.5, 0.0])
        y = np.array([0.25, 0.75, 0.0])
        assert face_distance(S3, y, x) == pytest.approx(0.25, abs=1e-10)

    def test_off_face_shift(self):
        # y - x = (1/4)(e3 - e1) with e1 in F(x), e3 opposite
        x = np.array([0.5, 0.5, 0.0])
        y = np.array([0.25, 0.5, 0.25])
        assert face_distance(S3, y, x) == pytest.approx(0.25, abs=1e-10)


class TestOrderingAndZeroLaw:
    @pytest.mark.parametrize("seed", range(4))
    def test_face_le_vertex_le_radial(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            x = S3.sample_point(rng)
            y = S3.sample_point(rng)
            f = face_distance(S3, y, x)
            v = vertex_distance(S3, y, x)
            assert f <= v + 1e-9
            assert v <= 1.0 + 1e-9
            if S3.minimal_face(x).dim == S3.dim():  # radial needs x interior
                r = radial_distance(S3, y, x)
                assert v <= r + 1e-9
                assert r <= 1.0 + 1e-9

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = S3.sample_point(rng)
            y = S3.sample_point(rng)
            d = face_distance(S3, y, x)
            if np.allclose(x, y, atol=1e-13):
                assert d <= 1e-9
            else:
                assert d > 0.0

    def test_truncated_simplex_ordering(self):
        poly = truncated_simplex()
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = poly.sample_point(rng)
            y = poly.sample_point(rng)
            assert face_distance(poly, y, x) <= vertex_distance(poly, y, x) + 1e-9


# -- facial constants -------------------------------------------------------------


class TestFacialDistances:
    def test_box2_vertex_face(self):
        # Fig-style values: distance from (0,0) to the hull of the other
        # three vertices is the diagonal-midpoint distance sqrt(2)/2
        assert inner_facial_distance(BOX2, [0]) == pytest.approx(
            np.sqrt(2) / 2, abs=1e-12)
        assert outer_facial_distance(BOX2, [0]) == pytest.approx(1.0, abs=1e-12)

    def test_box_2x1_vertex_face(self):
        box = Box(np.zeros(2), np.array([2.0, 1.0]))
        # nearest point of hull{(0,1),(2,0),(2,1)} to the origin is (2/5, 4/5)
        assert inner_facial_distance(box, [0]) == pytest.approx(
            2 / np.sqrt(5), abs=1e-12)
        assert outer_facial_distance(box, [0]) == pytest.approx(1.0, abs=1e-12)

    def test_simplex_edge(self):
        # dist(e_i, hull of other two) = ||e1 - (e2+e3)/2|| = sqrt(3/2)
        val = np.sqrt(1.5)
        assert inner_facial_distance(S3, [0, 1]) == pytest.approx(val, abs=1e-12)
        assert outer_facial_distance(S3, [0, 1]) == pytest.approx(val, abs=1e-12)

    def test_pyramidal_width_case(self):
        full = range(3)
        assert inner_facial_distance(S3, full) == pytest.approx(
            np.sqrt(1.5), abs=1e-12)

    def test_lattice_shape(self):
        faces = face_lattice(S3)
        # 3 vertices + 3 edges + the simplex itself
        assert len(faces) == 7
        dims = sorted(f.dim for f in faces)
        assert dims == [0, 0, 0, 1, 1, 1, 2]


@pytest.mark.parametrize("vset", [[0, 3], [1, 2], [0, 99], [-1], []],
                         ids=["diagonal", "antidiagonal", "out-of-range", "negative", "empty"])
def test_non_face_vertex_set_rejected(vset):
    # box2's vertices are (0,0), (0,1), (1,0), (1,1): 0 and 3 span a diagonal
    for fn in (inner_facial_distance, outer_facial_distance, phi_lower_bound,
               facial_lower_bound):
        with pytest.raises(PolytopeError, match="do not form a face"):
            fn(BOX2, vset)
    for face in ([0, 1], range(4)):  # an edge and the whole square are faces
        assert inner_facial_distance(BOX2, face) == pytest.approx(np.sqrt(0.5), abs=1e-12)


class TestSigmaAndLowerBounds:
    def test_sigma_simplex(self):
        assert np.allclose(sigma_profile(S3), 1.0)

    def test_sigma_box(self):
        assert np.allclose(sigma_profile(BOX2), 1.0)

    def test_lower_bound_sound_simplex_edge(self):
        lb = facial_lower_bound(S3, [0, 1])
        assert lb <= inner_facial_distance(S3, [0, 1]) + 1e-9
        assert lb > 0.0
        assert phi_lower_bound(S3, [0, 1]) <= inner_facial_distance(S3, [0, 1]) + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_lower_bound_sound_random(self, seed):
        # three layers: the face-pair bound against the raw hull
        # distance, and the corollary bound against the inner facial distance
        rng = np.random.default_rng(seed)
        poly = random_vrep(rng, n_points=7 + seed, dim=2)
        lattice = face_lattice(poly)
        V = np.asarray(poly.enumerate_vertices())
        full = lattice[-1].vset
        for face in lattice:
            if face.vset == full:
                continue
            rest = sorted(full - face.vset)
            exact_pair = hull_distance(V[sorted(face.vset)], V[rest])
            assert facial_lower_bound(poly, face) <= exact_pair + 1e-9
            exact_phi = inner_facial_distance(poly, face, lattice=lattice)
            assert phi_lower_bound(poly, face, lattice=lattice) <= exact_phi + 1e-9
        # disjoint pairs: the two-sided bound
        for F in lattice:
            for G in lattice:
                if F.vset & G.vset:
                    continue
                exact = hull_distance(V[sorted(F.vset)], V[sorted(G.vset)])
                assert facial_lower_bound(poly, F, other=G) <= exact + 1e-9

    def test_std_shortcut_matches_general(self):
        # the general bound vs the standard-form closed form on simplex-like sets
        for poly in (STD3, std5()):
            lattice = face_lattice(poly)
            for face in lattice:
                if len(face.vset) == poly.n:
                    continue
                gen = facial_lower_bound(poly, face)
                assert gen == pytest.approx(inv_sigma_bound(poly, face.vset), rel=1e-12)

    def test_phibar_bound_sound_std(self):
        lb = phibar_lower_bound_std(STD3, [0, 1])
        assert lb <= outer_facial_distance(STD3, [0, 1]) + 1e-9


# -- one lattice per sweep ---------------------------------------------------------

# nine points of a Fibonacci sphere in R^3, rounded: a simplicial polytope
# with 9 vertices, 21 edges and 14 facets
SPHERE9 = [[0.166, -0.427, 0.889], [-0.668, 0.33, 0.667], [0.86, 0.25, 0.444],
           [-0.506, -0.833, 0.222], [-0.194, 0.981, 0.0], [0.786, -0.577, -0.222],
           [-0.891, -0.097, -0.444], [0.492, 0.56, -0.667], [0.009, -0.458, -0.889]]

# SHA-256 of the reprs of (inner, outer, phi_lower_bound), one line per
# proper face in lattice order, generated before the facial distances were
# memoised on the lattice; simplex5std and sphere9 re-pinned when Wolfe's
# method replaced the gradient projection (within 3 ulp of PARENT_TABLE),
# sphere9 again when numpy facet enumeration replaced Qhull (within 4 ulp), and
# all but cube2std when the projection's affine solve moved to differences
# from its first point (within 2 ulp of the previous pins)
SWEEP_DIGESTS = {
    "cube3": "9d50329739e99bb72ecbf748453613546f0b24126039a27724529f8d580a7498",
    "truncsimplex": "e4b895e70a87a7093d7a8022cc9453e759e6d9b5dbfa8c294b357b1d8cbdd3d4",
    "simplex5std": "a45040d81b0e88e9f19438c2de2519cdb300084fe13f124f3647021547af33d5",
    "cube2std": "bd73772bd6786d276107f43b50749287ba0e06015dfaa476e782f9072ffecdd7",
    "sphere9": "e32c961223d0081ca476daecc0ce2d409939b9e9f39dd79097d22f8c2630d472",
}

PARENT_TABLE = Path(__file__).with_name("shared_lattice_parent.txt")


def sweep_polytope(name):
    if name == "simplex5std":
        return std5()
    if name == "sphere9":
        return VRepPolytope(SPHERE9, name="sphere9")
    return named_polytope(name)


def sweep(poly, lattice):
    """(face, inner, outer, phi_lower_bound) for every proper face."""
    full = lattice[-1].vset
    return [(face,
             inner_facial_distance(poly, face, lattice=lattice),
             outer_facial_distance(poly, face, lattice=lattice),
             phi_lower_bound(poly, face, lattice=lattice))
            for face in lattice if face.vset != full]


def sweep_calls(monkeypatch, poly, lattice):
    """hull_distance calls after one sweep and after a second on the same lattice."""
    calls = []

    def counting(P, Q):
        calls.append(1)
        return hull_distance(P, Q)

    monkeypatch.setattr(geometry, "hull_distance", counting)
    sweep(poly, lattice)
    first = len(calls)
    sweep(poly, lattice)  # every separation a query needs is memoised by now
    return first, len(calls)


class TestSharedLattice:
    @pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
    def test_sweep_digest(self, name):
        poly = sweep_polytope(name)
        rows = sweep(poly, face_lattice(poly))
        # every value within 4 ulp of the gradient projection's
        parent = [line.split() for line in PARENT_TABLE.read_text().splitlines()
                  if line.startswith(name + " ")]
        assert len(rows) == len(parent)
        for (face, *vals), (_, vset, *old) in zip(rows, parent):
            assert ",".join(map(str, sorted(face.vset))) == vset
            for new, ref in zip(vals, map(float, old)):
                assert abs(new - ref) <= 4 * math.ulp(ref)
        text = "".join(" ".join(map(repr, vals)) + "\n" for _, *vals in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_DIGESTS[name]

    # sphere9 is left out: its lattice=None sweep alone takes seconds
    @pytest.mark.parametrize("name", ["cube2std", "cube3", "simplex5std", "truncsimplex"])
    def test_shared_equals_fresh(self, name):
        poly = sweep_polytope(name)
        for face, inner, outer, lower in sweep(poly, face_lattice(poly)):
            assert inner_facial_distance(poly, face) == inner
            assert outer_facial_distance(poly, face) == outer
            assert phi_lower_bound(poly, face) == lower

    def test_cube3_sweep_computes_each_separation_once(self, monkeypatch):
        poly = named_polytope("cube3")
        lattice = face_lattice(poly)
        full = lattice[-1].vset
        proper = [G.vset for G in lattice if G.vset != full]
        pairs = sum(1 for G in proper for H in lattice if not (G & H.vset))
        # outer[G] solves only against the disjoint faces that no other
        # disjoint face contains
        maximal = sum(1 for G in proper for H in lattice if not (G & H.vset)
                      and not any(H.vset < K.vset for K in lattice if not (G & K.vset)))
        assert (pairs, maximal, len(proper)) == (386, 54, 26)
        # each G's maximal disjoint faces lie at one distance, so the screen
        # keeps all 54 outer solves; it skips 6 of the 26 inner ones
        assert sweep_calls(monkeypatch, poly, lattice) == (74, 74)
        assert (len(lattice.inner), len(lattice.outer)) == (20, 26)

    def test_sphere9_sweep_computes_each_separation_at_most_once(self, monkeypatch):
        # unscreened: 290 maximal disjoint pairs and 44 inner separations
        poly = sweep_polytope("sphere9")
        lattice = face_lattice(poly)
        assert sweep_calls(monkeypatch, poly, lattice) == (121, 121)
        assert (len(lattice.inner), len(lattice.outer)) == (30, 44)

    def test_plain_face_list_accepted(self):
        faces = list(face_lattice(BOX2))
        assert inner_facial_distance(BOX2, [0], lattice=faces) == pytest.approx(
            np.sqrt(2) / 2, abs=1e-12)
        assert outer_facial_distance(BOX2, [0], lattice=faces) == pytest.approx(
            1.0, abs=1e-12)

    def test_cube3_sweep_bounds_each_subface_once(self, monkeypatch):
        bounds, sigmas = [], []

        def counting_bound(*args):
            bounds.append(1)
            return one_sided(*args)

        def counting_sigma(poly):
            sigmas.append(1)
            return sigma_profile(poly)

        one_sided = geometry._one_sided_bound
        monkeypatch.setattr(geometry, "_one_sided_bound", counting_bound)
        monkeypatch.setattr(geometry, "sigma_profile", counting_sigma)
        poly = named_polytope("cube3")
        lattice = face_lattice(poly)
        proper = [G for G in lattice if G.vset != lattice[-1].vset]
        sweep(poly, lattice)
        # smallest faces first, so each call misses only on its own face
        assert len(bounds) == len(sigmas) == len(proper) == len(lattice.lower) == 26
        sweep(poly, lattice)  # every bound is memoised by now
        assert len(bounds) == len(sigmas) == 26

    @pytest.mark.parametrize("fn", [inner_facial_distance, outer_facial_distance,
                                    phi_lower_bound])
    def test_foreign_lattice_rejected(self, fn):
        # same face structure, other vertices: the memo must not be reused
        lattice = face_lattice(BOX2)
        inner_facial_distance(BOX2, [0], lattice=lattice)
        other = Box(np.zeros(2), np.array([2.0, 1.0]))
        with pytest.raises(PolytopeError):
            fn(other, [0], lattice=lattice)
        with pytest.raises(PolytopeError):
            fn(S3, [0], lattice=lattice)
        # the same vertices in the same order, other inequality rows: the
        # slack bounds differ, so the lattice must not be shared either
        lattice = face_lattice(S3)
        phi_lower_bound(S3, [0], lattice=lattice)
        other = VRepPolytope(np.eye(3))
        assert np.array_equal(lattice.vertices, np.asarray(other.enumerate_vertices()))
        with pytest.raises(PolytopeError):
            fn(other, [0], lattice=lattice)


# -- per-polytope support and gauge tables --------------------------------------------

TABLE_POLYTOPES = {
    "cube2std": lambda: sweep_polytope("cube2std"),
    "cube3": lambda: sweep_polytope("cube3"),
    "simplex4": lambda: Simplex(4),
    "simplex5std": std5,
    "sphere9": lambda: sweep_polytope("sphere9"),
    "truncsimplex": lambda: sweep_polytope("truncsimplex"),
}
# one object per polytope, shared by every example, so its tables fill up
REUSED = {name: make() for name, make in TABLE_POLYTOPES.items()}
REUSED_LATTICES = {name: face_lattice(poly) for name, poly in REUSED.items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TABLE_POLYTOPES)), st.integers(0, 2**32 - 1))
def test_reused_polytope_equals_fresh(name, seed):
    poly, lattice, fresh = REUSED[name], REUSED_LATTICES[name], TABLE_POLYTOPES[name]
    rng = np.random.default_rng(seed)
    V = np.asarray(poly.enumerate_vertices())
    face = lattice[int(rng.integers(len(lattice)))]
    x = rng.dirichlet(np.ones(len(face.vset))) @ V[sorted(face.vset)]
    y = V[int(rng.integers(len(V)))] if rng.random() < 0.3 else poly.sample_point(rng)
    assert minimal_supports(poly, x) == minimal_supports(fresh(), x)
    assert vertex_distance(poly, y, x) == vertex_distance(fresh(), y, x)
    assert face_distance(poly, y, x) == face_distance(fresh(), y, x)
    assert phi_lower_bound(poly, face, lattice=lattice) == phi_lower_bound(fresh(), face)


def test_minimal_supports_names_the_point_shape():
    # a 2-vector met numpy's matmul error
    with pytest.raises(PolytopeError, match=r"expected a point of shape \(3,\), got shape \(2,\)"):
        minimal_supports(VRepPolytope(np.eye(3)), [0.5, 0.5])


def test_vertex_distance_builds_each_support_gauge_once(monkeypatch):
    builds = []

    def counting(points):
        builds.append(1)
        return hull_hform(points)

    poly = VRepPolytope(SPHERE9, name="sphere9")
    monkeypatch.setattr(geometry, "hull_hform", counting)
    rng = np.random.default_rng(0)
    xs = [poly.sample_point(rng) for _ in range(6)]
    supports, evaluated = set(), 0
    for x in xs + xs:  # the second pass finds every gauge built
        found = minimal_supports(poly, x)
        supports.update(found)
        evaluated += len(found)
        vertex_distance(poly, poly.sample_point(rng), x)
    assert len(builds) == len(supports) < evaluated


# -- solves that cannot change a result are skipped -------------------------------------


def sphere(seed, n):
    """n Gaussian points on the unit sphere: every one a vertex, in general position."""
    P = np.random.default_rng(seed).standard_normal((n, 3))
    return VRepPolytope(P / np.linalg.norm(P, axis=1, keepdims=True), name=f"sphere{n}")


# a flat triangular prism: a bottom vertex's maximal disjoint faces are the
# top triangle (at height 0.5) and the far square (at 0.866), of other sizes
PRISM = VRepPolytope([[0, 0, z] for z in (0, 0.5)] + [[1, 0, z] for z in (0, 0.5)]
                     + [[0.5, 0.75 ** 0.5, z] for z in (0, 0.5)], name="prism")


@pytest.mark.parametrize("poly", [named_polytope("cube3"), PRISM, sphere(0, 7),
                                  sphere(1, 8), sphere(2, 9)], ids=lambda p: p.name)
def test_outer_distance_equals_min_over_every_disjoint_face(poly):
    lattice = face_lattice(poly)
    V, full = lattice.vertices, lattice[-1].vset
    brute = {G.vset: min(hull_distance(V[sorted(G.vset)], V[sorted(H.vset)])
                         for H in lattice if not (G.vset & H.vset))
             for G in lattice if G.vset != full}
    for face in lattice:
        if face.vset != full:
            want = min(d for G, d in brute.items() if G <= face.vset)
            got = outer_facial_distance(poly, face, lattice=lattice)
            assert abs(got - want) <= 4 * math.ulp(want)
    for G, want in brute.items():  # and each subface's memoised separation
        assert abs(lattice.outer[G] - want) <= 4 * math.ulp(want)


# the oracle below projects every pair the screen may skip
ORACLE_CASES = {name: (lambda name=name: sweep_polytope(name)) for name in SWEEP_DIGESTS}
for _name, _hi in (("box2", (1.0, 1.0)), ("box_2x1", (2.0, 1.0))):  # acceptance c01
    ORACLE_CASES[_name] = lambda hi=_hi: Box(np.zeros(2), np.array(hi))
for _seed, (_m, _dim) in enumerate([(7, 3), (8, 3), (9, 3), (6, 4), (7, 4)]):
    ORACLE_CASES[f"random{_m}_R{_dim}"] = (
        lambda seed=_seed, m=_m, dim=_dim: random_vrep(np.random.default_rng(seed), m, dim))


def unscreened_sweep(lattice):
    """(inner, outer) of every proper face: every subface, every maximal disjoint H."""
    V = lattice.vertices
    full = frozenset(range(len(V)))
    proper = [G.vset for G in lattice if G.vset != full]
    inner = {G: hull_distance(V[sorted(G)], V[sorted(full - G)]) for G in proper}
    outer = {}
    for G in proper:
        disjoint = [H.vset for H in lattice if not G & H.vset]
        outer[G] = min(hull_distance(V[sorted(G)], V[sorted(H)]) for H in disjoint
                       if not any(H < K for K in disjoint))
    return [(min(inner[G] for G in proper if G <= F), min(outer[G] for G in proper if G <= F))
            for F in proper]


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_screened_sweep_equals_unscreened_oracle(name):
    poly = ORACLE_CASES[name]()
    lattice = face_lattice(poly)
    want = unscreened_sweep(face_lattice(poly))
    assert [(inner, outer) for _, inner, outer, _ in sweep(poly, lattice)] == want


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_apart_bounds_every_pair_distance(name):
    poly = ORACLE_CASES[name]()
    lattice = face_lattice(poly)
    V = lattice.vertices
    full = frozenset(range(len(V)))
    for G in (F.vset for F in lattice if F.vset != full):
        others = [full - G] + [H.vset for H in lattice if not G & H.vset]
        rows = np.array([[v in H for v in range(len(V))] for H in others])
        for H, bound in zip(others, geometry._apart(lattice, G, rows)):
            # where a row normal realises the distance, the two round apart
            # by up to 2 ulp here, far inside the screen's 1e-9 margin
            dist = hull_distance(V[sorted(G)], V[sorted(H)])
            assert 0.0 <= bound <= dist + 4 * math.ulp(dist)


def supports_unscreened(poly, x):
    """minimal_supports by one lstsq per table row, not the batched solve.

    Each row S solves x - V_S[0] on the differences V_S[1:] - V_S[0]; the
    first weight is 1 less the others' sum.
    """
    V = poly.enumerate_vertices()
    x = np.asarray(x, dtype=float)
    found = []
    for S in geometry._support_table(poly)[1]:
        if any(set(m) <= set(S) for m in found):
            continue
        D, r = (V[list(S[1:])] - V[S[0]]).T, x - V[S[0]]
        mu = np.linalg.lstsq(D, r, rcond=None)[0]
        if np.linalg.norm(D @ mu - r) > 1e-9 * np.abs(V - V[0]).max():
            continue
        if np.append(1.0 - mu.sum(), mu).min() >= geometry.SUPPORT_MARGIN:
            found.append(S)
    if not found:
        raise PolytopeError("minimal_supports: the point has no vertex support")
    return found


# P = conv{0, e1, e2, e3, (1, 1, 0.3)} and its images z = A x + b, with
# A = s U diag(1, sqrt(kappa), kappa) W; an image keeps P's vertex order
P_ITEM1 = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0.3]], dtype=float)


def item1_image(kappa, s):
    rng = np.random.default_rng(0)
    U, W = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    A = s * U @ np.diag([1.0, np.sqrt(kappa), kappa]) @ W
    b = s * rng.standard_normal(3)
    return VRepPolytope(P_ITEM1 @ A.T + b, name=f"item1({kappa:g},{s:g})"), A, b


def test_ill_conditioned_image_keeps_its_supports():
    # the kappa = 1e3, s = 1e7 image keeps P's supports; a sum-to-one row
    # beside its coordinate rows lost them to (1,2,3) and (1,3,4)
    poly, A, b = item1_image(1e3, 1e7)
    x = A @ np.array([0.2, 0.2, 0.2]) + b
    assert minimal_supports(poly, x) == supports_unscreened(poly, x) == [
        (0, 3, 4), (0, 1, 2, 3)]


@pytest.mark.parametrize("image", [lambda: item1_image(1e3, 1e7),
                                   lambda: (VRepPolytope(P_ITEM1 + 2.0**20), np.eye(3), 2.0**20)],
                         ids=["item1(1e3,1e7)", "item1+2^20"])
def test_vertex_distance_on_an_image_equals_p(image):
    # both returned 1.0 while the support solve carried a sum-to-one row
    poly, A, b = image()
    x, y = A @ np.array([0.2, 0.2, 0.2]) + b, A @ np.array([0.6, 0.1, 0.1]) + b
    assert vertex_distance(VRepPolytope(P_ITEM1), [0.6, 0.1, 0.1], [0.2, 0.2, 0.2]) == 0.5
    assert vertex_distance(poly, y, x) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("make", [lambda: sphere(3, 9), lambda: item1_image(1e3, 1e7)[0]],
                         ids=["sphere9_3", "item1(1e3,1e7)"])
def test_supports_are_decided_without_lstsq(monkeypatch, make):
    """One batched solve over a fresh support table decides every row."""
    x = make().enumerate_vertices().mean(axis=0)
    poly, calls, lstsq = make(), [], np.linalg.lstsq
    assert poly._supports is None  # so the call below builds the table too
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
    assert minimal_supports(poly, x)
    assert calls == []


# polytope and the lattice whose vertex sets name its faces: an image of P
# keeps P's vertex order, so it takes P's lattice
SCREEN_CASES = {name: (poly, REUSED_LATTICES[name]) for name, poly in REUSED.items()}
for seed, n in enumerate((7, 8, 9)):
    SCREEN_CASES[f"sphere{n}_{seed}"] = sphere(seed, n), face_lattice(sphere(seed, n))
ITEM1 = VRepPolytope(P_ITEM1, name="item1")
SCREEN_CASES["item1"] = ITEM1, face_lattice(ITEM1)
for kappa, s in [(1.0, 1.0), (1e3, 1.0), (1e3, 1e7)]:
    SCREEN_CASES[f"item1({kappa:g},{s:g})"] = item1_image(kappa, s)[0], SCREEN_CASES["item1"][1]


def _supports_or_error(fn, poly, x):
    try:
        return fn(poly, x)
    except PolytopeError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SCREEN_CASES)), st.integers(0, 2**32 - 1))
def test_screened_supports_equal_unscreened(name, seed):
    """Random, vertex, edge and facet points; lattices of images come from P."""
    poly, lattice = SCREEN_CASES[name]
    rng = np.random.default_rng(seed)
    V = np.asarray(poly.enumerate_vertices())
    top = max(face.dim for face in lattice)
    points = [rng.dirichlet(np.ones(len(V))) @ V]
    for dim in (0, 1, top - 1):
        faces = [face for face in lattice if face.dim == dim]
        face = faces[int(rng.integers(len(faces)))]
        points.append(rng.dirichlet(np.ones(len(face.vset))) @ V[sorted(face.vset)])
    for x in points:
        assert (_supports_or_error(minimal_supports, poly, x)
                == _supports_or_error(supports_unscreened, poly, x))


# -- gauge cross-check ---------------------------------------------------------------


def gauge_by_bisection(poly, inner_points, w, width=1e-12, member_tol=1e-10):
    """Reference gauge evaluation: bisection on gamma with hull-membership checks.

    Slow but independent of the facet description; the oracle that
    cross-checks the ratio-test path below.
    """
    V = np.asarray(poly.enumerate_vertices())
    U = np.atleast_2d(np.asarray(inner_points, dtype=float))
    diffs = (V[:, None, :] - U[None, :, :]).reshape(-1, poly.n)
    w = np.asarray(w, dtype=float)
    if np.linalg.norm(w) < 1e-14:
        return 0.0
    scale = max(1.0, float(np.abs(diffs).max()))

    def feasible(gamma):
        dist, _ = project_to_hull(diffs, w / gamma)
        return dist <= member_tol * scale

    lo, hi = 0.0, 1.0
    if not feasible(1.0):
        raise PolytopeError("gauge_by_bisection: gamma = 1 must be feasible")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestGaugeBisection:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_ratio_test(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            x = S3.sample_point(rng)
            y = S3.sample_point(rng)
            if np.allclose(x, y):
                continue
            fast = face_distance(S3, y, x)
            slow = gauge_by_bisection(
                S3, np.asarray(S3.face_vertices(S3.minimal_face(x))), y - x)
            assert fast == pytest.approx(slow, abs=1e-8)


# -- derived error bounds -------------------------------------------------------------


class TestDerivedCertificates:
    def test_radial_centroid(self):
        # mu~ = mu * dist(x*, relative boundary)^2 = 1 * 1/6 for the centroid
        d = relative_boundary_distance(S3, CENTROID)
        assert d == pytest.approx(np.sqrt(1.0 / 6), abs=1e-12)
        cert = derive_error_bound(S3, 1.0, 0.5, [CENTROID], "radial")
        assert cert.valid
        assert cert.mu == pytest.approx(1.0 / 6, abs=1e-10)
        assert cert.theta == 0.5

    def test_radial_invalid_on_boundary(self):
        x = np.array([0.5, 0.5, 0.0])
        cert = derive_error_bound(S3, 1.0, 0.5, [x], "radial")
        assert not cert.valid

    def test_radial_refused_without_facet_rows(self):
        # L1Ball(13) keeps no facet rows, yet its boundary lies 1/sqrt(13)
        # from the centre: no infinite radial certificate may come out
        with pytest.raises(PolytopeError, match="no facet rows"):
            derive_error_bound(L1Ball(13), 1.0, 0.5, [np.zeros(13)], "radial")
        # a single point has no boundary at all
        point = VRepPolytope([[0.5, 0.5]])
        assert relative_boundary_distance(point, [0.5, 0.5]) == np.inf

    def test_vertex_uses_inner_facial(self):
        x = np.array([0.5, 0.5, 0.0])
        cert = derive_error_bound(S3, 1.0, 0.5, [x], "vertex")
        # optimal face is the edge {0,1}: Phi = sqrt(3/2), mu~ = Phi^2 = 1.5
        assert cert.valid
        assert cert.mu == pytest.approx(1.5, abs=1e-10)

    def test_face_uses_outer_facial(self):
        x = np.array([0.5, 0.5, 0.0])
        cert = derive_error_bound(S3, 1.0, 0.5, [x], "face")
        assert cert.mu == pytest.approx(1.5, abs=1e-10)

    @pytest.mark.parametrize("kind", ["vertex", "face"])
    def test_optimum_outside_refused(self, kind):
        # the coordinates sum to 1.5: no face of S3 holds this point, yet its
        # binding rows alone used to give a valid certificate with mu = 1.5
        with pytest.raises(PolytopeError, match="not in the polytope"):
            derive_error_bound(S3, 1.0, 0.5, [[0.5, 0.5, 0.5]], kind)

    def test_simplex_support_kind(self):
        x = np.array([0.5, 0.5, 0.0])
        cert = derive_error_bound(STD3, 1.0, 0.5, [x], "simplex")
        assert cert.valid and cert.mu > 0.0

    @pytest.mark.parametrize("x", [[0.5, 0.5, -7.0], [3.0, 0.0, 0.0]])
    def test_simplex_optimum_outside_refused(self, x):
        # the support-size count alone gave these a valid certificate, mu = 1.0
        with pytest.raises(PolytopeError, match="not in the polytope"):
            derive_error_bound(STD3, 1.0, 0.5, [x], "simplex")


# -- exponent estimation ----------------------------------------------------------------


class TestExponentFit:
    def test_synthetic_exact_power(self):
        gaps = np.geomspace(1.0, 1e-8, 60)
        dists = gaps ** 0.25  # theta = 1/4 by construction
        mu, theta = fit_holder_exponent(gaps, dists)
        assert theta == pytest.approx(0.25, abs=1e-3)
        assert mu == pytest.approx(1.0, rel=1e-6)

    def test_estimate_theta_on_run(self):
        from fwpoly.instances import interior_quadratic
        from fwpoly.solvers import solve

        inst = interior_quadratic()
        tr = solve(inst.poly, inst.obj, "FW", step="ss", L=inst.L,
                   max_iters=300, gap_tol=1e-12, fstar=inst.fstar,
                   record_points=True)
        mu, theta = estimate_theta(tr, inst.poly, inst.xstar_points, kind="radial")
        assert theta == pytest.approx(0.5, abs=0.1)
        assert mu > 0.0
