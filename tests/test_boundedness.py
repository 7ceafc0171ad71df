"""Standard-form and H-form polytopes are proved bounded when they are built.

``_gordan_certificate`` proves the recession cone {d : A d = 0, D d >= 0}
is {0}; ``_recession_ray`` enumerates the cone's extreme rays only where the
certificate fails.  An LP is the reference here: wherever the certificate
says "bounded", the LP must find no recession direction, and the ray test
must agree with it everywhere.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fwpoly import instances, polytope
from fwpoly._hulls import _rank, hull_hform
from fwpoly.polytope import (
    HFormPolytope,
    PolytopeError,
    StdFormPolytope,
    VertexCapExceeded,
    _gordan_certificate,
    _recession_ray,
    simplex_like_cube,
)

from test_geometry import SPHERE9

SRC = Path(__file__).resolve().parents[1] / "src"

# bounded, but the projection of the all-ones vector onto range(A^T) has a
# negative entry, so only the ray test can tell
NO_CERTIFICATE = np.array([[3.0, 3.0, 0.0, 4.0, -2.0], [2.0, 3.0, 4.0, 1.0, 0.0]])

# x, y >= 0, x + y >= 1, x <= 5 holds every (0, t) with t >= 1
PLANTED_RAY = {"D": [[1, 0], [0, 1], [1, 1], [-1, 0]], "e": [0, 0, 1, -5]}


def _recession_lp(A, D):
    """True when an LP finds d != 0 with A d = 0 and D d >= 0: the region is unbounded.

    It maximizes 1^T D d over A d = 0, 0 <= D d <= 1, so an optimum above
    1e-9 is a recession direction.  With D = I this is the LP over
    {d : A d = 0, 0 <= d <= 1}.
    """
    p = D.shape[0]
    res = linprog(
        c=-D.sum(axis=0),
        A_ub=np.vstack([-D, D]), b_ub=np.concatenate([np.zeros(p), np.ones(p)]),
        A_eq=A if A.size else None, b_eq=np.zeros(A.shape[0]) if A.size else None,
        bounds=(None, None), method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun > 1e-9


def lp_verdict(A, D):
    """The LP's answer (True: unbounded), checked against the certificate's and the rays'."""
    unbounded = _recession_lp(A, D)
    assert not (_gordan_certificate(A, D) and unbounded)
    assert _recession_ray(A, D) == unbounded
    return unbounded


def test_unbounded_hform_rejected_before_its_rows_are_checked(monkeypatch):
    # it used to construct and answer contains([0, 100]) True beside
    # lmo([0, -1]) = (0, 1)
    def validate(self):
        raise AssertionError("row checks ran on an unbounded region")

    monkeypatch.setattr(HFormPolytope, "_validate_rows", validate)
    with pytest.raises(PolytopeError, match="unbounded"):
        HFormPolytope(**PLANTED_RAY)


def test_bounded_stdform_without_certificate_is_decided_by_its_rays(monkeypatch):
    calls = []

    def spy(A, D):
        calls.append(A)
        return _recession_ray(A, D)

    monkeypatch.setattr(polytope, "_recession_ray", spy)
    assert not _gordan_certificate(NO_CERTIFICATE, np.eye(5))
    assert not lp_verdict(NO_CERTIFICATE, np.eye(5))
    poly = StdFormPolytope(NO_CERTIFICATE, NO_CERTIFICATE @ np.ones(5))
    assert len(calls) == 1
    assert poly.contains(np.ones(5)) and len(poly.enumerate_vertices()) >= 2


def test_ray_enumeration_past_the_cap_is_refused(monkeypatch):
    # k = 5 - 2 = 3 null-space coordinates: C(5, 2) = 10 subsets of the rows
    monkeypatch.setattr(polytope, "_BASIS_ENUM_CAP", 9)
    with pytest.raises(VertexCapExceeded, match="over 10 subsets"):
        StdFormPolytope(NO_CERTIFICATE, NO_CERTIFICATE @ np.ones(5))


def test_built_polytopes_need_no_lp(monkeypatch):
    # every standard- and H-form polytope the package and its tests build
    # has a certificate, so none of them enumerates rays
    monkeypatch.setattr("fwpoly.polytope._recession_ray", None)
    polys = [instances.named_polytope(name)
             for name in ("simplex3std", "simplex5std", "truncsimplex", "cube2std")]
    polys += [simplex_like_cube(3), instances.truncated_simplex(0.5),
              HFormPolytope(D=np.vstack([np.eye(3), -np.eye(3)]), e=[0, 0, 0, -1, -2, -1]),
              StdFormPolytope([[1.0, 2.0, 1.0, 0.0, 3.0], [0.0, 1.0, 2.0, 1.0, 1.0]],
                              [4.0, 3.0]),
              StdFormPolytope([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]], [1.0, 1.0])]
    for poly in polys:
        assert _gordan_certificate(poly.A, poly.D), poly.name


def test_certified_build_imports_no_lp():
    # fwpoly runs with scipy unimportable: the certified instances, a V-rep
    # polytope's facets and gauges, the ray test on a bounded and on an
    # unbounded region all stay in numpy
    code = ("import sys\nsys.modules['scipy'] = None\nimport numpy as np\n"
            "from fwpoly import geometry, instances\n"
            "from fwpoly.polytope import HFormPolytope, PolytopeError, StdFormPolytope, "
            "VRepPolytope\n"
            "for make in instances.ALL_CERTIFIED:\n    make()\n"
            f"poly = VRepPolytope({SPHERE9!r})\n"
            "V = poly.enumerate_vertices()\n"
            "x, y = V.mean(axis=0), 0.5 * (V[0] + V[1])\n"
            "geometry.vertex_distance(poly, y, x)\ngeometry.face_distance(poly, y, x)\n"
            f"A = np.array({NO_CERTIFICATE.tolist()!r})\n"
            "StdFormPolytope(A, A @ np.ones(5))\n"
            f"try:\n    HFormPolytope(**{PLANTED_RAY!r})\n"
            "    sys.exit('an unbounded H-form was built')\n"
            "except PolytopeError:\n    pass\n"
            "print(sorted(m for m, mod in sys.modules.items()\n"
            "             if m.startswith('scipy') and mod is not None))\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def _planted_ray(rng, n):
    """A nonzero integer direction with a coordinate equal to 1, and that coordinate."""
    d = rng.integers(-2, 3, n)
    j = int(rng.integers(n))
    d[j] = 1
    return d.astype(float), j


def _orthogonal_rows(rng, m, d, j):
    """Integer rows a with a @ d == 0 exactly: coordinate j absorbs the rest."""
    A = rng.integers(-3, 4, (m, len(d))).astype(float)
    A[:, j] = 0.0
    A[:, j] = -(A @ d)
    return A


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
def test_stdform_with_a_planted_ray_is_rejected(seed, n):
    rng = np.random.default_rng(seed)
    d, j = _planted_ray(rng, n)
    d = np.abs(d)  # a ray of {x >= 0}
    m = int(rng.integers(1, n))
    A = _orthogonal_rows(rng, m, d, j)
    assume(_rank(A) == m)
    assert lp_verdict(A, np.eye(n))
    with pytest.raises(PolytopeError, match="unbounded"):
        StdFormPolytope(A, A @ rng.integers(0, 3, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.booleans())
@example(0, 2, True)  # A = [[0, -0]]: the ray test works in null(A), not on [A; 1^T D]
def test_hform_with_a_planted_ray_is_rejected(seed, n, equality):
    rng = np.random.default_rng(seed)
    d, j = _planted_ray(rng, n)
    D = rng.integers(-3, 4, (n + int(rng.integers(1, 5)), n)).astype(float)
    D[D @ d < 0] *= -1.0  # every row now grows or stays along d
    A = _orthogonal_rows(rng, 1, d, j) if equality else np.zeros((0, n))
    assume(_rank(np.vstack([A, D])) == n)
    assert lp_verdict(A, D)
    x0 = rng.integers(-2, 3, n).astype(float)
    with pytest.raises(PolytopeError, match="unbounded"):
        HFormPolytope(A if equality else None, A @ x0 if equality else None,
                      D, D @ x0 - rng.integers(1, 3, len(D)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(0, 3))
def test_hull_facets_accepted_and_dropping_one_is_judged_by_the_lp(seed, n, extra):
    rng = np.random.default_rng(seed)
    hf = hull_hform(rng.standard_normal((n + 1 + extra, n)))
    assert not lp_verdict(hf.A, hf.D)
    HFormPolytope(D=hf.D, e=hf.e)
    drop = int(rng.integers(len(hf.D)))
    D, e = np.delete(hf.D, drop, axis=0), np.delete(hf.e, drop)
    if lp_verdict(hf.A, D):
        with pytest.raises(PolytopeError, match="unbounded"):
            HFormPolytope(D=D, e=e)
