"""Affine-invariant distances, facial constants, and derived certificates.

Expected values are hand-derived on small polytopes where every quantity
has a closed form; each literal is annotated with its derivation.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from fwpoly import geometry
from fwpoly._hulls import hull_distance, project_to_hull
from fwpoly.geometry import (
    derive_error_bound,
    estimate_theta,
    face_distance,
    face_lattice,
    facial_lower_bound,
    fit_holder_exponent,
    inner_facial_distance,
    outer_facial_distance,
    phi_lower_bound,
    phi_lower_bound_std,
    phibar_lower_bound_std,
    radial_distance,
    relative_boundary_distance,
    sigma_profile,
    vertex_distance,
)
from fwpoly.instances import named_polytope, random_vrep, truncated_simplex
from fwpoly.polytope import Box, PolytopeError, Simplex, StdFormPolytope, VRepPolytope

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
        # standard-form shortcut vs the generic formula on simplex-like sets
        for poly in (STD3, std5()):
            lattice = face_lattice(poly)
            for face in lattice:
                if len(face.vset) == poly.n:
                    continue
                gen = facial_lower_bound(poly, face)
                shc = phi_lower_bound_std(poly, face)
                assert shc == pytest.approx(gen, rel=1e-9)

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
# method replaced the gradient projection (within 3 ulp of PARENT_TABLE)
SWEEP_DIGESTS = {
    "cube3": "c5525a15ea75ba62c0653fe8d82690ca02b1ee572c11c25e11a8dfb78f877275",
    "truncsimplex": "7790571b5619100d4ca168d67c66419f2536a6da4130e182d244d22cf7db0bbd",
    "simplex5std": "95c184cc1ed2d463aedafed851d3936e52ebb73c0f134fae5c07a801d67297e3",
    "cube2std": "bd73772bd6786d276107f43b50749287ba0e06015dfaa476e782f9072ffecdd7",
    "sphere9": "f03a3061eed27e8643ebd5c172260fafe83fc9521f5d94589b9abbef95860555",
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
        calls = []

        def counting(P, Q):
            calls.append(1)
            return hull_distance(P, Q)

        monkeypatch.setattr(geometry, "hull_distance", counting)
        poly = named_polytope("cube3")
        lattice = face_lattice(poly)
        full = lattice[-1].vset
        proper = [G.vset for G in lattice if G.vset != full]
        pairs = sum(1 for G in proper for H in lattice if not (G & H.vset))
        assert (pairs, len(proper)) == (386, 26)
        sweep(poly, lattice)
        assert len(calls) == pairs + len(proper)
        sweep(poly, lattice)  # every separation is memoised by now
        assert len(calls) == pairs + len(proper)

    def test_plain_face_list_accepted(self):
        faces = list(face_lattice(BOX2))
        assert inner_facial_distance(BOX2, [0], lattice=faces) == pytest.approx(
            np.sqrt(2) / 2, abs=1e-12)
        assert outer_facial_distance(BOX2, [0], lattice=faces) == pytest.approx(
            1.0, abs=1e-12)

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

    def test_simplex_support_kind(self):
        x = np.array([0.5, 0.5, 0.0])
        cert = derive_error_bound(STD3, 1.0, 0.5, [x], "simplex")
        assert cert.valid and cert.mu > 0.0


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
