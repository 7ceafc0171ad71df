"""Tests for active-set weight bookkeeping."""

import hashlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwpoly.active_set import (
    KIND_AWAY,
    KIND_BPFW,
    KIND_FW,
    ActiveSet,
    ActiveSetError,
)
from fwpoly.polytope import Box, Simplex, StdFormPolytope


def simplex_set(weights):
    n = len(weights)
    V = np.eye(n)
    return ActiveSet([V[i] for i in range(n)], weights)


def _row_of(aset, v):
    """The support row that holds vertex v."""
    return [row.tolist() for row, _ in aset.items()].index(list(v))


class TestConstruction:
    def test_from_vertex(self):
        aset = ActiveSet.from_vertex(Simplex(3), np.array([1.0, 0.0, 0.0]))
        assert aset.support_size() == 1
        assert np.allclose(aset.point, [1, 0, 0])

    def test_from_vertex_rejects_non_vertex(self):
        with pytest.raises(ActiveSetError):
            ActiveSet.from_vertex(Box([0, 0], [1, 1]), np.array([0.5, 0.5]))

    def test_identity_is_exact(self):
        """Equal coordinates merge with summed weight; nearby ones stay apart."""
        v = np.array([1.0, 0.0])
        aset = ActiveSet([v, v.copy()], [0.25, 0.75])
        assert aset.support_size() == 1 and aset.weight_of(v) == 1.0
        aset = ActiveSet([np.array([-0.0, 1.0]), np.array([0.0, 1.0])], [0.5, 0.5])
        assert aset.support_size() == 1 and aset.weight_of([0.0, 1.0]) == 1.0
        aset = ActiveSet([v, v + 1e-14], [0.5, 0.5])
        assert aset.support_size() == 2
        assert aset.weight_of(v) == 0.5 and aset.weight_of(v + 1e-14) == 0.5

    def test_tiny_box_corners_stay_distinct(self):
        box = Box([0.0, 0.0], [1e-13, 1e-13])
        aset = ActiveSet(box.enumerate_vertices(), [0.25] * 4)
        assert aset.support_size() == 4
        assert np.array_equal(aset.point, [5e-14, 5e-14])

    def test_from_vertex_stores_the_polytope_coordinates(self):
        poly = Simplex(3)
        aset = ActiveSet.from_vertex(poly, np.array([1e-12, 1e-12, 1.0 - 2e-12]))
        assert np.array_equal(aset.point, [0.0, 0.0, 1.0])
        aset.apply_step(KIND_FW, poly.lmo(np.array([1.0, 1.0, 0.0])), 0.5)
        assert aset.support_size() == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ActiveSetError):
            simplex_set([0.5, 0.2, 0.1])

    def test_empty_support_rejected(self):
        for vertices, weights in (([], []), ([np.ones(2)], [0.0])):
            with pytest.raises(ActiveSetError, match="empty support"):
                ActiveSet(vertices, weights)

    def test_nan_weight_rejected(self):
        with pytest.raises(ActiveSetError, match="weight nan is negative or not a number"):
            ActiveSet(list(np.eye(2)), [np.nan, 1.0])

    def test_one_weight_per_vertex(self):
        with pytest.raises(ActiveSetError, match="2 vertices but 1 weights"):
            ActiveSet(list(np.eye(2)), [1.0])
        with pytest.raises(ActiveSetError, match="1 vertices but 2 weights"):
            ActiveSet([np.ones(2)], [1.0, 0.0])


class TestSelectors:
    def test_away_and_local_fw(self):
        aset = simplex_set([0.2, 0.3, 0.5])
        i, j = aset.away_and_local_fw(np.array([1.0, 3.0, 2.0]))
        assert np.allclose(aset.vertex(i), [0, 1, 0])
        assert np.allclose(aset.vertex(j), [1, 0, 0])

    def test_tie_breaks_deterministic(self):
        aset = simplex_set([0.5, 0.5])
        a, z = aset.away_and_local_fw(np.array([1.0, 1.0]))
        a2, z2 = aset.away_and_local_fw(np.array([1.0, 1.0]))
        assert np.allclose(aset.vertex(a), aset.vertex(a2))
        assert np.allclose(aset.vertex(z), aset.vertex(z2))

    def test_near_ties_break_to_the_earliest_joined_row(self):
        # e_0, e_2, e_1 join in that order, so e_0 is row 0 although e_1 has
        # the smaller coordinates; values one ulp apart are tied, so e_0
        # wins whichever way rounding fell
        E = np.eye(3)
        aset = ActiveSet([E[0], E[2], E[1]], [0.3, 0.4, 0.3])
        assert [aset.vertex(k).tolist() for k in range(3)] == \
            [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        up = np.nextafter(0.7, 1.0)
        for g in ([up, 0.7, -0.2], [0.7, up, -0.2]):
            i, _ = aset.away_and_local_fw(np.array(g))
            assert i == 0
        for g in ([-0.2, np.nextafter(-0.2, 0.0), 0.9], [np.nextafter(-0.2, 0.0), -0.2, 0.9]):
            _, j = aset.away_and_local_fw(np.array(g))
            assert j == 0

    def test_values_beyond_the_tie_tolerance_are_ordered(self):
        aset = simplex_set([0.3, 0.3, 0.4])
        i, j = aset.away_and_local_fw(np.array([0.7 + 1e-9, 0.7, 0.0]))
        assert aset.vertex(i).tolist() == [1.0, 0.0, 0.0]
        i, j = aset.away_and_local_fw(np.array([0.7, 0.7 + 1e-9, 0.0]))
        assert aset.vertex(i).tolist() == [0.0, 1.0, 0.0]

    def test_vertex_is_a_copy(self):
        aset = simplex_set([0.25, 0.75])
        before = aset.snapshot()
        aset.vertex(0)[:] = 7.0
        assert aset.snapshot() == before

    def test_cap(self):
        aset = simplex_set([0.25, 0.75])
        a = _row_of(aset, [1.0, 0.0])
        with pytest.raises(ActiveSetError, match="exceeds cap 1.0"):
            aset.apply_step(KIND_FW, np.array([0.0, 1.0]), 1.5)
        assert aset.cap(KIND_AWAY, a) == pytest.approx(1.0 / 3.0)
        assert aset.cap(KIND_BPFW, a) == pytest.approx(0.25)

    def test_away_cap_for_singleton(self):
        aset = simplex_set([1.0])
        assert aset.cap(KIND_AWAY, 0) == 1e6


class TestUpdates:
    def test_fw_step_weights(self):
        aset = simplex_set([0.5, 0.5, 0.0])
        v = np.array([0.0, 0.0, 1.0])
        aset.apply_step(KIND_FW, v, 0.2)
        assert aset.weight_of(v) == pytest.approx(0.2)
        assert aset.weight_of([1, 0, 0]) == pytest.approx(0.4)
        assert np.allclose(aset.point, [0.4, 0.4, 0.2])

    def test_fw_full_step_resets_support(self):
        aset = simplex_set([0.5, 0.5])
        v = np.array([0.0, 1.0])
        aset.apply_step(KIND_FW, v, 1.0)
        assert aset.support_size() == 1
        assert np.allclose(aset.point, v)

    def test_away_step_weights(self):
        aset = simplex_set([0.25, 0.75])
        a = np.array([1.0, 0.0])
        aset.apply_step(KIND_AWAY, (_row_of(aset, a), 0), 0.2)
        # lam_a: 1.2 * 0.25 - 0.2 = 0.1; other: 1.2 * 0.75 = 0.9
        assert aset.weight_of(a) == pytest.approx(0.1)
        assert aset.weight_of([0, 1]) == pytest.approx(0.9)

    def test_away_drop_removes_vertex(self):
        aset = simplex_set([0.25, 0.75])
        a = np.array([1.0, 0.0])
        i = _row_of(aset, a)
        eta = aset.cap(KIND_AWAY, i)
        aset.apply_step(KIND_AWAY, (i, i), eta)
        assert aset.support_size() == 1
        assert aset.weight_of(a) == 0.0
        assert np.allclose(aset.point, [0, 1])

    def test_pairwise_swap_moves_mass(self):
        aset = simplex_set([0.25, 0.5, 0.25])
        a = np.array([0.0, 1.0, 0.0])
        z = np.array([0.0, 0.0, 1.0])
        aset.apply_step(KIND_BPFW, (_row_of(aset, a), _row_of(aset, z)), 0.1)
        assert aset.weight_of(a) == pytest.approx(0.4)
        assert aset.weight_of(z) == pytest.approx(0.35)
        assert aset.weight_of([1, 0, 0]) == pytest.approx(0.25)

    def test_pairwise_drop_is_exact(self):
        aset = simplex_set([0.25, 0.75])
        a = np.array([0.0, 1.0])
        z = np.array([1.0, 0.0])
        aset.apply_step(KIND_BPFW, (_row_of(aset, a), _row_of(aset, z)), 0.75)
        assert aset.support_size() == 1
        assert np.allclose(aset.point, [1, 0])

    def test_step_beyond_cap_rejected(self):
        aset = simplex_set([0.25, 0.75])
        with pytest.raises(ActiveSetError):
            aset.apply_step(KIND_BPFW, (_row_of(aset, [1.0, 0.0]),
                                        _row_of(aset, [0.0, 1.0])), 0.5)

    @pytest.mark.parametrize("kind", [KIND_FW, KIND_AWAY, KIND_BPFW])
    def test_nan_step_rejected_by_name(self, kind):
        aset = simplex_set([0.25, 0.75])
        before = aset.snapshot()
        payload = np.array([1.0, 0.0]) if kind == KIND_FW else (0, 1)
        with pytest.raises(ActiveSetError, match=f"{kind} step nan is negative or not a number"):
            aset.apply_step(kind, payload, np.nan)
        assert aset.snapshot() == before

    def test_unknown_step_kind_rejected(self):
        aset = simplex_set([0.25, 0.75])
        with pytest.raises(ActiveSetError, match="unknown step kind 'swap'"):
            aset.apply_step("swap", (0, 1), 0.1)
        with pytest.raises(ActiveSetError, match="unknown step kind 'swap'"):
            aset.cap("swap", 0)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_rows_outside_the_support_rejected(self, bad):
        """Negative rows too: numpy would wrap them to the last row."""
        aset = simplex_set([0.25, 0.75])
        before = aset.snapshot()
        for kind in (KIND_AWAY, KIND_BPFW):
            for rows in ((bad, 0), (0, bad)):
                with pytest.raises(ActiveSetError, match="outside the support of 2"):
                    aset.apply_step(kind, rows, 0.1)
            with pytest.raises(ActiveSetError, match="outside the support of 2"):
                aset.cap(kind, bad)
        with pytest.raises(ActiveSetError, match="outside the support of 2"):
            aset.vertex(bad)
        assert aset.snapshot() == before

    def test_snapshot_stable(self):
        aset = simplex_set([0.25, 0.75])
        assert aset.snapshot() == simplex_set([0.25, 0.75]).snapshot()
        assert ":" in aset.snapshot()


@lru_cache(maxsize=None)
def _walk_polytope(name, scale):
    if name == "box":
        return Box(np.zeros(3), scale * np.array([1.0, 2.0, 3.0]))
    if name == "scaled_simplex":
        # the simplex scaled by s: {x >= 0, sum(x) = s}
        return StdFormPolytope(np.ones((1, 4)), [scale])
    return Simplex(4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["fw", "away", "bpfw"]),
                          st.floats(0.0, 1.0)), min_size=1, max_size=40),
       st.integers(0, 2**32 - 1),
       st.sampled_from([("simplex", 1.0), ("box", 1e-13), ("box", 1.0),
                        ("box", 1e7), ("scaled_simplex", 1e-13),
                        ("scaled_simplex", 1.0), ("scaled_simplex", 1e7)]))
def test_random_walks_keep_invariants(steps, seed, case):
    """Weights stay a convex combination and the cache matches x + eta*d.

    The rows stay distinct and in the order the vertices joined, checked
    against the joins the walk makes, at every scale, down to a box whose
    corners differ by 1e-13.
    """
    rng = np.random.default_rng(seed)
    name, scale = case
    poly = _walk_polytope(name, scale)
    n = poly.n
    aset = ActiveSet([poly.lmo(rng.normal(size=n))], [1.0])
    joined = [tuple(aset.vertex(0).tolist())]  # the support, in joining order
    for kind, frac in steps:
        x = aset.point
        g = rng.normal(size=n)
        i, j = aset.away_and_local_fw(g)
        a, z = aset.vertex(i), aset.vertex(j)
        if kind == "fw":
            v = poly.lmo(g)
            payload, d = v, v - x
        elif kind == "away":
            payload, d = (i, j), x - a
        else:
            payload, d = (i, j), z - a
        step_kind = {"fw": KIND_FW, "away": KIND_AWAY, "bpfw": KIND_BPFW}[kind]
        cap = 1.0 if kind == "fw" else aset.cap(step_kind, i)
        eta = frac * min(cap, 1e3)
        new_point = aset.apply_step(step_kind, payload, eta)
        # convex combination over current support reproduces x + eta d
        assert np.allclose(new_point, x + eta * d, rtol=0.0, atol=1e-10 * scale)
        if kind == "fw":
            # a full step restarts the support; a new vertex joins last
            if eta >= 1.0:
                joined = []
            if tuple(v.tolist()) not in joined:
                joined.append(tuple(v.tolist()))
        rows = [tuple(v.tolist()) for v, _ in aset.items()]
        assert len(set(rows)) == len(rows)
        assert rows == [r for r in joined if r in rows]
        joined = rows
        weights = [w for _, w in aset.items()]
        assert min(weights) > 0
        assert abs(sum(weights) - 1.0) < 1e-9
        assert poly.contains(new_point, tol=1e-8 * scale)


# A fixed walk on the corners of the unit cube.  The gradient (1, 1, 0) ties
# <g, v> among four corners at either end, so every selection below is a
# tie broken by joining order; the weights are not dyadic, so the snapshots
# also pin the order in which the renormalising total is accumulated.
PINNED_WALK = [("fw", 0, 0.5), ("fw", 6, 0.3), ("fw", 3, 0.2),
               ("fw", 4, 0.1), ("away", None, 0.25),
               ("bpfw", None, 0.5), ("fw", 1, 1.0 / 3.0),
               ("away", None, 1.0), ("bpfw", None, 1.0),
               ("fw", 5, 0.7), ("away", None, 0.6), ("fw", 7, 0.4),
               ("bpfw", None, 0.9)]
PINNED_SELECTIONS = [
    ((1, 1, 1), (1, 1, 1)), ((1, 1, 1), (0, 0, 0)), ((1, 1, 1), (0, 0, 0)),
    ((1, 1, 1), (0, 0, 0)), ((1, 1, 1), (0, 0, 0)), ((1, 1, 1), (0, 0, 0)),
    ((1, 1, 1), (0, 0, 0)), ((1, 1, 1), (0, 0, 0)), ((1, 1, 0), (0, 0, 0)),
    ((0, 1, 1), (0, 0, 0)), ((0, 1, 1), (0, 0, 0)), ((0, 1, 1), (0, 0, 0)),
    ((1, 1, 1), (0, 0, 0)),
]
PINNED_FINAL_SNAPSHOT = """\
0.43909694047955744 : 0.0 0.0 0.0
0.009997545928238384 : 0.0 1.0 1.0
0.0142476176230407 : 1.0 0.0 0.0
0.06570417991389914 : 0.0 0.0 1.0
0.4309537160552644 : 1.0 0.0 1.0
0.03999999999999998 : 1.0 1.0 1.0"""
PINNED_TRANSCRIPT_SHA256 = (
    "07d8395638711c8f2ac66824f910a8ba4a6df507d81a5d758e90fb2a8a2ac2b7")


def test_pinned_walk_with_ties():
    box = Box(np.zeros(3), np.ones(3))
    V = box.enumerate_vertices()
    g = np.array([1.0, 1.0, 0.0])
    aset = ActiveSet.from_vertex(box, V[7])
    # the transcript keeps the walk's own lowercase labels
    step_kind = {"fw": KIND_FW, "away": KIND_AWAY, "bpfw": KIND_BPFW}
    selections, lines = [], []
    for kind, target, frac in PINNED_WALK:
        i, j = aset.away_and_local_fw(g)
        a, z = aset.vertex(i), aset.vertex(j)
        selections.append((tuple(a.astype(int)), tuple(z.astype(int))))
        lines.append(f"away {a.tolist()} local {z.tolist()}")
        if kind == "fw":
            payload, eta = V[target], frac
        else:
            payload, eta = (i, j), frac * aset.cap(step_kind[kind], i)
        aset.apply_step(step_kind[kind], payload, eta)
        lines += [f"{kind} {eta!r}", aset.snapshot()]
    assert selections == PINNED_SELECTIONS
    assert aset.snapshot() == PINNED_FINAL_SNAPSHOT
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_TRANSCRIPT_SHA256
