"""Candidate direction construction and the selection rule."""

import numpy as np
import pytest

from fwpoly.active_set import KIND_AWAY, KIND_BPFW, ActiveSet
from fwpoly.directions import (
    Direction,
    candidates_afw,
    candidates_bpfw,
    candidates_ifw,
    pairwise_direction,
    select,
)
from fwpoly.polytope import Simplex

S3 = Simplex(3)
E = np.eye(3)


def two_vertex_set(lam=0.3):
    # x = lam*e0 + (1-lam)*e1
    return ActiveSet([E[0], E[1]], [lam, 1.0 - lam])


class TestAwayCandidates:
    def test_shapes_and_kinds(self):
        aset = two_vertex_set()
        g = np.array([1.0, 0.0, -1.0])  # lmo -> e2, away -> e0
        v = S3.lmo(g)
        fw, away = candidates_afw(aset, g, v, float(g @ (aset.point - v)))
        assert fw.kind == "FW" and away.kind == "Away"
        x = aset.point
        assert np.allclose(fw.vec, E[2] - x)
        assert np.allclose(away.vec, x - E[0])
        assert fw.eta_max == 1.0
        # away cap = lam/(1-lam)
        assert away.eta_max == pytest.approx(0.3 / 0.7)
        assert away.inner == pytest.approx(g @ away.vec)
        assert np.array_equal(aset.vertex(away.payload[0]), E[0])

    def test_away_max_step_matches_weight(self):
        aset = two_vertex_set(0.5)
        i = [row.tolist() for row, _ in aset.items()].index(E[0].tolist())
        assert aset.cap(KIND_AWAY, i) == pytest.approx(1.0)
        assert aset.cap(KIND_BPFW, i) == pytest.approx(0.5)


class TestSwapCandidates:
    def test_swap_vector(self):
        aset = two_vertex_set(0.3)
        g = np.array([1.0, -1.0, 5.0])  # on support: away=e0, local fw=e1
        v = S3.lmo(g)
        fw, swap = candidates_bpfw(aset, g, v, float(g @ (aset.point - v)))
        assert swap.kind == "BPFW"
        assert np.allclose(swap.vec, E[1] - E[0])
        assert swap.eta_max == pytest.approx(0.3)  # weight transferred off e0
        i, j = swap.payload
        assert np.allclose(aset.vertex(i), E[0]) and np.allclose(aset.vertex(j), E[1])


class TestInFaceCandidates:
    def test_three_candidates_on_edge(self):
        x = np.array([0.3, 0.7, 0.0])  # relative interior of edge {e0,e1}
        g = np.array([1.0, -1.0, 5.0])
        v = S3.lmo(g)
        cands = candidates_ifw(S3, x, g, v, float(g @ (x - v)))
        kinds = [c.kind for c in cands]
        assert kinds == ["FW", "InAway", "InBPFW"]
        fw, inaway, inswap = cands
        # face is the edge: in-face lmo of -g picks e0, of g picks e1
        assert np.allclose(inaway.vec, x - E[0])
        assert np.allclose(inswap.vec, E[1] - E[0])
        # ratio test along x - e0 exits at the far end of the edge
        assert inaway.eta_max == pytest.approx(0.3 / 0.7, abs=1e-9)
        assert inswap.eta_max == pytest.approx(0.3, abs=1e-9)

    def test_fw_cap_snaps_to_one(self):
        x = np.array([0.3, 0.7, 0.0])
        g = np.array([5.0, 5.0, -1.0])
        v = S3.lmo(g)
        cands = candidates_ifw(S3, x, g, v, float(g @ (x - v)))
        assert cands[0].eta_max == 1.0

    def test_vertex_degenerate_directions(self):
        # at a vertex the in-face candidates are zero vectors with cap 1
        x = E[0].copy()
        g = np.array([0.0, 1.0, 2.0])
        v = S3.lmo(g)
        cands = candidates_ifw(S3, x, g, v, float(g @ (x - v)))
        assert np.allclose(cands[1].vec, 0.0)
        assert cands[1].eta_max == 1.0
        assert cands[1].inner == 0.0


class TestPairwise:
    def test_vector_and_payload(self):
        x = np.array([0.3, 0.7, 0.0])
        g = np.array([1.0, -1.0, -2.0])  # global lmo e2, in-face away e0
        d = pairwise_direction(S3, x, g, S3.lmo(g))
        assert d.kind == "PW"
        assert np.allclose(d.vec, E[2] - E[0])
        assert d.eta_max == np.inf
        a, v = d.payload
        assert np.allclose(a, E[0]) and np.allclose(v, E[2])


class TestSelect:
    def test_most_negative_wins(self):
        a = Direction("FW", np.zeros(2), 1.0, -1.0)
        b = Direction("Away", np.zeros(2), 1.0, -2.0)
        assert select([a, b]) is b

    def test_tie_prefers_global(self):
        a = Direction("Away", np.zeros(2), 1.0, -1.0)
        b = Direction("FW", np.zeros(2), 1.0, -1.0)
        c = Direction("BPFW", np.zeros(2), 1.0, -1.0)
        assert select([a, b, c]) is b

    def test_tie_prefers_away_over_swap(self):
        a = Direction("BPFW", np.zeros(2), 1.0, -1.0)
        b = Direction("Away", np.zeros(2), 1.0, -1.0)
        assert select([a, b]) is b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select([])
