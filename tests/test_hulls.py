"""Euclidean projection onto the convex hull of points (Wolfe's method).

Every result must be a point of the coefficient simplex that no coefficient
direction improves, and on small hulls its distance must match a
brute-force oracle over every support.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwpoly import _hulls
from fwpoly._hulls import project_to_hull
from fwpoly.polytope import PolytopeError

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
