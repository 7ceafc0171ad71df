"""Tests for active-set weight bookkeeping."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwpoly.active_set import (
    AWAY_STEP,
    FW_STEP,
    PAIRWISE_SWAP,
    ActiveSet,
    ActiveSetError,
)
from fwpoly.polytope import Box, Simplex


def simplex_set(weights):
    n = len(weights)
    V = np.eye(n)
    return ActiveSet([V[i] for i in range(n)], weights)


class TestConstruction:
    def test_from_vertex(self):
        aset = ActiveSet.from_vertex(Simplex(3), np.array([1.0, 0.0, 0.0]))
        assert aset.support_size() == 1
        assert np.allclose(aset.point, [1, 0, 0])

    def test_from_vertex_rejects_non_vertex(self):
        with pytest.raises(ActiveSetError):
            ActiveSet.from_vertex(Box([0, 0], [1, 1]), np.array([0.5, 0.5]))

    def test_interning_merges_near_duplicates(self):
        v = np.array([1.0, 0.0])
        aset = ActiveSet([v, v + 1e-14], [0.5, 0.5])
        assert aset.support_size() == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ActiveSetError):
            simplex_set([0.5, 0.2, 0.1])

    def test_empty_support_rejected(self):
        for vertices, weights in (([], []), ([np.ones(2)], [0.0])):
            with pytest.raises(ActiveSetError, match="empty support"):
                ActiveSet(vertices, weights)


class TestSelectors:
    def test_away_and_local_fw(self):
        aset = simplex_set([0.2, 0.3, 0.5])
        a, z = aset.away_and_local_fw(np.array([1.0, 3.0, 2.0]))
        assert np.allclose(a, [0, 1, 0])
        assert np.allclose(z, [1, 0, 0])

    def test_tie_breaks_deterministic(self):
        aset = simplex_set([0.5, 0.5])
        a, z = aset.away_and_local_fw(np.array([1.0, 1.0]))
        a2, z2 = aset.away_and_local_fw(np.array([1.0, 1.0]))
        assert np.allclose(a, a2) and np.allclose(z, z2)

    def test_max_step_for(self):
        aset = simplex_set([0.25, 0.75])
        a = np.array([1.0, 0.0])
        assert aset.max_step_for(FW_STEP) == 1.0
        assert aset.max_step_for(AWAY_STEP, a) == pytest.approx(1.0 / 3.0)
        assert aset.max_step_for(PAIRWISE_SWAP, a) == pytest.approx(0.25)

    def test_away_cap_for_singleton(self):
        aset = simplex_set([1.0])
        assert aset.max_step_for(AWAY_STEP, np.array([1.0])) == 1e6


class TestUpdates:
    def test_fw_step_weights(self):
        aset = simplex_set([0.5, 0.5, 0.0])
        v = np.array([0.0, 0.0, 1.0])
        aset.apply_step(FW_STEP, v, 0.2)
        assert aset.weight_of(v) == pytest.approx(0.2)
        assert aset.weight_of([1, 0, 0]) == pytest.approx(0.4)
        assert np.allclose(aset.point, [0.4, 0.4, 0.2])

    def test_fw_full_step_resets_support(self):
        aset = simplex_set([0.5, 0.5])
        v = np.array([0.0, 1.0])
        aset.apply_step(FW_STEP, v, 1.0)
        assert aset.support_size() == 1
        assert np.allclose(aset.point, v)

    def test_away_step_weights(self):
        aset = simplex_set([0.25, 0.75])
        a = np.array([1.0, 0.0])
        aset.apply_step(AWAY_STEP, a, 0.2)
        # lam_a: 1.2 * 0.25 - 0.2 = 0.1; other: 1.2 * 0.75 = 0.9
        assert aset.weight_of(a) == pytest.approx(0.1)
        assert aset.weight_of([0, 1]) == pytest.approx(0.9)

    def test_away_drop_removes_vertex(self):
        aset = simplex_set([0.25, 0.75])
        a = np.array([1.0, 0.0])
        eta = aset.max_step_for(AWAY_STEP, a)
        aset.apply_step(AWAY_STEP, a, eta)
        assert aset.support_size() == 1
        assert aset.weight_of(a) == 0.0
        assert np.allclose(aset.point, [0, 1])

    def test_pairwise_swap_moves_mass(self):
        aset = simplex_set([0.25, 0.5, 0.25])
        a = np.array([0.0, 1.0, 0.0])
        z = np.array([0.0, 0.0, 1.0])
        aset.apply_step(PAIRWISE_SWAP, (a, z), 0.1)
        assert aset.weight_of(a) == pytest.approx(0.4)
        assert aset.weight_of(z) == pytest.approx(0.35)
        assert aset.weight_of([1, 0, 0]) == pytest.approx(0.25)

    def test_pairwise_drop_is_exact(self):
        aset = simplex_set([0.25, 0.75])
        a = np.array([0.0, 1.0])
        z = np.array([1.0, 0.0])
        aset.apply_step(PAIRWISE_SWAP, (a, z), 0.75)
        assert aset.support_size() == 1
        assert np.allclose(aset.point, [1, 0])

    def test_step_beyond_cap_rejected(self):
        aset = simplex_set([0.25, 0.75])
        with pytest.raises(ActiveSetError):
            aset.apply_step(PAIRWISE_SWAP,
                            (np.array([1.0, 0.0]), np.array([0.0, 1.0])), 0.5)

    def test_snapshot_stable(self):
        aset = simplex_set([0.25, 0.75])
        assert aset.snapshot() == simplex_set([0.25, 0.75]).snapshot()
        assert ":" in aset.snapshot()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["fw", "away", "bpfw"]),
                          st.floats(0.0, 1.0)), min_size=1, max_size=40),
       st.integers(0, 2**32 - 1))
def test_random_walks_keep_invariants(steps, seed):
    """Weights stay a convex combination and the cache matches x + eta*d."""
    rng = np.random.default_rng(seed)
    poly = Simplex(4)
    V = np.asarray(poly.enumerate_vertices())
    aset = ActiveSet.from_vertex(poly, V[0])
    for kind, frac in steps:
        x = aset.point
        g = rng.normal(size=4)
        a, z = aset.away_and_local_fw(g)
        if kind == "fw":
            v = poly.lmo(g)
            payload, d = v, v - x
        elif kind == "away":
            payload, d = a, x - a
        else:
            payload, d = (a, z), z - a
        cap = aset.max_step_for(
            {"fw": FW_STEP, "away": AWAY_STEP, "bpfw": PAIRWISE_SWAP}[kind],
            a if kind != "fw" else None)
        eta = frac * min(cap, 1e3)
        new_point = aset.apply_step(
            {"fw": FW_STEP, "away": AWAY_STEP, "bpfw": PAIRWISE_SWAP}[kind],
            payload, eta)
        # convex combination over current support reproduces x + eta d
        assert np.allclose(new_point, x + eta * d, atol=1e-10)
        weights = [w for _, w in aset.items()]
        assert min(weights) > 0
        assert abs(sum(weights) - 1.0) < 1e-9
        assert poly.contains(new_point, tol=1e-8)


# A fixed walk on the corners of the unit cube.  The gradient (1, 1, 0) ties
# <g, v> among four corners at either end, so every selection below is a
# tie broken by vertex key; the weights are not dyadic, so the snapshots
# also pin the order in which the renormalising total is accumulated.
PINNED_WALK = [(FW_STEP, 0, 0.5), (FW_STEP, 6, 0.3), (FW_STEP, 3, 0.2),
               (FW_STEP, 4, 0.1), (AWAY_STEP, None, 0.25),
               (PAIRWISE_SWAP, None, 0.5), (FW_STEP, 1, 1.0 / 3.0),
               (AWAY_STEP, None, 1.0), (PAIRWISE_SWAP, None, 1.0),
               (FW_STEP, 5, 0.7), (AWAY_STEP, None, 0.6), (FW_STEP, 7, 0.4),
               (PAIRWISE_SWAP, None, 0.9)]
PINNED_SELECTIONS = [
    ((1, 1, 1), (1, 1, 1)), ((1, 1, 1), (0, 0, 0)), ((1, 1, 0), (0, 0, 0)),
    ((1, 1, 0), (0, 0, 0)), ((1, 1, 0), (0, 0, 0)), ((1, 1, 0), (0, 0, 0)),
    ((1, 1, 0), (0, 0, 0)), ((1, 1, 0), (0, 0, 0)), ((1, 1, 1), (0, 0, 0)),
    ((0, 1, 1), (0, 0, 0)), ((0, 1, 1), (0, 0, 0)), ((0, 1, 1), (0, 0, 0)),
    ((1, 1, 1), (0, 0, 0)),
]
PINNED_FINAL_SNAPSHOT = """\
0.4406105853889759 : 0.0 0.0 0.0
0.06503850826680861 : 0.0 0.0 1.0
0.009762264313759329 : 0.0 1.0 1.0
0.013903640287649392 : 1.0 0.0 0.0
0.4306850017428066 : 1.0 0.0 1.0
0.03999999999999997 : 1.0 1.0 1.0"""
PINNED_TRANSCRIPT_SHA256 = (
    "f0720fc973658d0dbde1130b65cbadf25483c10730dbd3ab79633196bd3bb7a3")


def test_pinned_walk_with_ties():
    box = Box(np.zeros(3), np.ones(3))
    V = box.enumerate_vertices()
    g = np.array([1.0, 1.0, 0.0])
    aset = ActiveSet.from_vertex(box, V[7])
    selections, lines = [], []
    for kind, target, frac in PINNED_WALK:
        a, z = aset.away_and_local_fw(g)
        selections.append((tuple(a.astype(int)), tuple(z.astype(int))))
        lines.append(f"away {a.tolist()} local {z.tolist()}")
        if kind == FW_STEP:
            payload, eta = V[target], frac
        else:
            payload = a if kind == AWAY_STEP else (a, z)
            eta = frac * aset.max_step_for(kind, a)
        aset.apply_step(kind, payload, eta)
        lines += [f"{kind} {eta!r}", aset.snapshot()]
    assert selections == PINNED_SELECTIONS
    assert aset.snapshot() == PINNED_FINAL_SNAPSHOT
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_TRANSCRIPT_SHA256
