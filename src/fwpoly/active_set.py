"""Active-set bookkeeping: the iterate as a convex combination of vertices.

The solvers that move weight between vertices (away-step and blended
pairwise) track the iterate as x = sum_v lam_v * v over a support of
vertices with strictly positive weights.  The support is held in arrays:
one row per vertex, its key, its weight, and the sequence number at which
it joined the support.

A move is named by its direction kind, KIND_FW, KIND_AWAY or KIND_BPFW.
Away steps and pairwise swaps move weight between support vertices, so they
name them by row: ``away_and_local_fw`` returns the rows (i, j), and ``cap``
and ``apply_step`` take them back.  Only an FW step names its vertex by
coordinates, since the LMO vertex may not be in the support yet.

A vertex is identified by its exact coordinates: the key is the tuple of
its floats, so two rows merge only when they are equal (-0.0 equals 0.0).
No rounding is needed because every vertex comes from the polytope's own
oracles, which return the same bits for the same vertex: ``lmo`` and
``in_face_lmo`` build e_i, lo/hi or +-r e_i in closed form or copy a row of
the read-only ``enumerate_vertices()`` array, and ``from_vertex`` replaces a
caller's start point by the polytope's own coordinates for that vertex.

Rows stay sorted by key, which is exact lexicographic order, so every
reduction over the support runs in a fixed order: the point and the away /
local-FW selection go in key order, the renormalising total in joining
order.  Weights below EPS_WEIGHT are pruned after every update, and the
cached point is recomputed from scratch each step so no drift accumulates.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .polytope import ETA_CAP, tie_argmin

EPS_WEIGHT = 1e-12

KIND_FW = "FW"
KIND_AWAY = "Away"
KIND_BPFW = "BPFW"


class ActiveSetError(ValueError):
    """Invalid weight state or step request."""


def _key(v):
    return tuple(np.asarray(v, dtype=float).tolist())


class ActiveSet:
    """Convex-combination representation of an iterate.

    ``_rows`` (k x n), ``_keys``, ``_weights`` and ``_born`` describe the k
    support vertices in key order.
    """

    def __init__(self, vertices, weights):
        vertices = [np.asarray(v, dtype=float) for v in vertices]
        self._keys = []
        self._rows = np.zeros((0, vertices[0].size if vertices else 0))
        self._weights = np.zeros(0)
        self._born = np.zeros(0, dtype=np.int64)
        self._next = 0
        for v, w in zip(vertices, weights):
            if w < -EPS_WEIGHT:
                raise ActiveSetError(f"negative weight {w}")
            if w > EPS_WEIGHT:
                self._add(v, float(w))
        if not self._keys:
            raise ActiveSetError("empty support")
        total = self._total()
        if abs(total - 1.0) > 1e-9:
            raise ActiveSetError(f"weights sum to {total}, expected 1")
        self._weights /= total
        self._refresh_point()

    @classmethod
    def from_vertex(cls, poly, v):
        """Singleton active set at a vertex of the polytope.

        The row holds the polytope's own coordinates for the vertex, as its
        oracles return them, not the caller's (which may be typed decimals).
        """
        if not poly.is_vertex(v):
            raise ActiveSetError("from_vertex: the point is not a vertex")
        return cls([poly.in_face_lmo(v, np.zeros(poly.n))], [1.0])

    # -- support arrays -----------------------------------------------------

    def _locate(self, k):
        """(row, present): where the vertex with key k is, or would go, in key order."""
        i = bisect_left(self._keys, k)
        return i, i < len(self._keys) and self._keys[i] == k

    def _add(self, v, w):
        """Add w to the weight of v, which joins the support if absent."""
        k = _key(v)
        i, present = self._locate(k)
        if present:
            self._weights[i] += w
            return
        self._keys.insert(i, k)
        rows, weights, born = self._rows, self._weights, self._born
        row = np.asarray(v, dtype=float)[None]
        self._rows = np.concatenate((rows[:i], row, rows[i:]))
        self._weights = np.concatenate((weights[:i], [w], weights[i:]))
        self._born = np.concatenate((born[:i], [self._next], born[i:]))
        self._next += 1

    def _total(self):
        """Sum of the weights, accumulated in the order the vertices joined."""
        return sum(self._weights[np.argsort(self._born)].tolist())

    def _refresh_point(self):
        self._point = (self._weights[:, None] * self._rows).sum(axis=0)

    # -- views ------------------------------------------------------------

    @property
    def point(self):
        return self._point.copy()

    def support_size(self):
        return len(self._keys)

    def items(self):
        """(vertex row, weight) pairs in key order."""
        return zip(self._rows, self._weights.tolist())

    def weight_of(self, v):
        i, present = self._locate(_key(v))
        return float(self._weights[i]) if present else 0.0

    def snapshot(self):
        """Text snapshot of the support, stable across runs."""
        lines = []
        for v, w in self.items():
            coords = " ".join(repr(float(c)) for c in v)
            lines.append(f"{repr(float(w))} : {coords}")
        return "\n".join(lines)

    # -- oracles on the support --------------------------------------------

    def away_and_local_fw(self, g):
        """Rows (i, j) of the away and local FW vertices: argmax / argmin of <g, v>.

        Values within TIE_TOL of the best (``tie_argmin``) are tied, and
        ties break to the smallest vertex key.  An exact line search along
        e_s - e_a leaves <g, e_s> = <g, e_a> in exact arithmetic; this keeps
        the next selection off their last bits.
        """
        vals = self._rows @ np.asarray(g, dtype=float)
        return tie_argmin(-vals), tie_argmin(vals)

    def vertex(self, i):
        """A copy of support row i."""
        return self._rows[self._row(i)].copy()

    def _row(self, i):
        if not 0 <= i < len(self._keys):
            raise ActiveSetError(f"row {i} is outside the support of {len(self._keys)}")
        return i

    def cap(self, kind, i):
        """Largest step of an away step or a swap off support row i."""
        if kind not in (KIND_AWAY, KIND_BPFW):
            raise ActiveSetError(f"unknown step kind {kind!r}")
        lam = float(self._weights[self._row(i)])
        if kind == KIND_BPFW:
            return lam
        if lam >= 1.0 - 1e-15:
            return ETA_CAP
        return min(lam / (1.0 - lam), ETA_CAP)

    # -- update -------------------------------------------------------------

    def apply_step(self, kind, payload, eta):
        """Apply one weight update; returns the new cached point.

        payload: KIND_FW -> the LMO vertex v; KIND_AWAY and KIND_BPFW -> the
        rows (i, j) of the away and local FW vertices.
        """
        if eta < 0:
            raise ActiveSetError(f"negative step {eta}")
        if kind == KIND_FW:
            cap = 1.0
        else:
            cap = self.cap(kind, payload[0])
            i, j = payload[0], self._row(payload[1])
        if eta > cap * (1.0 + 1e-9) + 1e-15:
            raise ActiveSetError(f"step {eta} exceeds cap {cap} for {kind}")

        if kind == KIND_FW:
            if eta >= 1.0:
                # full step: the support collapses to the target vertex
                self.__init__([payload], [1.0])
                return self.point
            self._weights *= 1.0 - eta
            self._add(payload, eta)  # keyed: the LMO vertex may be new to the support
        elif kind == KIND_AWAY:
            self._weights *= 1.0 + eta
            self._weights[i] -= eta
        else:
            self._weights[i] -= eta
            self._weights[j] += eta

        self._prune_and_renormalize()
        self._refresh_point()
        return self.point

    def _prune_and_renormalize(self):
        negative = self._weights < -1e-10
        if negative.any():
            raise ActiveSetError(f"weight went negative: {self._weights[negative].min()}")
        keep = self._weights > EPS_WEIGHT
        if not keep.any():
            raise ActiveSetError("support emptied out")
        if not keep.all():
            self._keys = [k for k, ok in zip(self._keys, keep.tolist()) if ok]
            self._rows = self._rows[keep]
            self._weights = self._weights[keep]
            self._born = self._born[keep]
        total = self._total()
        if abs(total - 1.0) > 1e-8:
            raise ActiveSetError(f"weights drifted to {total}")
        self._weights /= total
