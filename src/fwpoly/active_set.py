"""Active-set bookkeeping: the iterate as a convex combination of vertices.

The solvers that move weight between vertices (away-step and blended
pairwise) track the iterate as x = sum_v lam_v * v over a support of
vertices with strictly positive weights.  The support is held in arrays:
one row per vertex, its key (the coordinates rounded to 12 decimals, which
is how a vertex is identified), its weight, and the sequence number at
which it joined the support.  Rows stay sorted by key, so every reduction
over the support runs in a fixed order: the point and the away / local-FW
selection go in key order, the renormalising total in joining order.
Weights below EPS_WEIGHT are pruned after every update, and the cached
point is recomputed from scratch each step so no drift accumulates.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .polytope import ETA_CAP

EPS_WEIGHT = 1e-12
KEY_DECIMALS = 12

FW_STEP = "fw"
AWAY_STEP = "away"
PAIRWISE_SWAP = "bpfw"


class ActiveSetError(ValueError):
    """Invalid weight state or step request."""


def _key(v):
    return tuple((np.round(np.asarray(v, dtype=float), KEY_DECIMALS) + 0.0).tolist())


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
            if w <= EPS_WEIGHT:
                continue
            k = _key(v)
            i = self._find(k)
            if i is None:
                self._insert(k, v, float(w))
            else:
                # a repeated vertex keeps the latest coordinates
                self._rows[i] = v
                self._weights[i] += float(w)
        if not self._keys:
            raise ActiveSetError("empty support")
        total = self._total()
        if abs(total - 1.0) > 1e-9:
            raise ActiveSetError(f"weights sum to {total}, expected 1")
        self._weights /= total
        self._refresh_point()

    @classmethod
    def from_vertex(cls, poly, v):
        """Singleton active set at a vertex of the polytope."""
        if not poly.is_vertex(v):
            raise ActiveSetError("from_vertex: the point is not a vertex")
        return cls([v], [1.0])

    # -- support arrays -----------------------------------------------------

    def _find(self, k):
        """Row of the vertex with key k, or None."""
        i = bisect_left(self._keys, k)
        return i if i < len(self._keys) and self._keys[i] == k else None

    def _insert(self, k, v, w):
        """Add a vertex with key k and weight w at its place in key order."""
        i = bisect_left(self._keys, k)
        self._keys.insert(i, k)
        self._rows = np.insert(self._rows, i, np.asarray(v, dtype=float), axis=0)
        self._weights = np.insert(self._weights, i, w)
        self._born = np.insert(self._born, i, self._next)
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
        i = self._find(_key(v))
        return 0.0 if i is None else float(self._weights[i])

    def snapshot(self):
        """Text snapshot of the support, stable across runs."""
        lines = []
        for v, w in self.items():
            coords = " ".join(repr(float(c)) for c in v)
            lines.append(f"{repr(float(w))} : {coords}")
        return "\n".join(lines)

    # -- oracles on the support --------------------------------------------

    def away_and_local_fw(self, g):
        """(away vertex, local FW vertex): argmax / argmin of <g, v> over the support.

        Ties break deterministically to the smallest vertex key.
        """
        vals = self._rows @ np.asarray(g, dtype=float)
        return (self._rows[int(np.argmax(vals))].copy(),
                self._rows[int(np.argmin(vals))].copy())

    def max_step_for(self, kind, away=None):
        """Largest step the weight update allows for the given move kind."""
        if kind == FW_STEP:
            return 1.0
        lam = self.weight_of(away)
        if lam <= 0.0:
            raise ActiveSetError("away vertex is not in the support")
        if kind == AWAY_STEP:
            if lam >= 1.0 - 1e-15:
                return ETA_CAP
            return min(lam / (1.0 - lam), ETA_CAP)
        if kind == PAIRWISE_SWAP:
            return lam
        raise ActiveSetError(f"unknown step kind {kind!r}")

    # -- update -------------------------------------------------------------

    def _add(self, v, eta):
        """Add eta to the weight of v, which joins the support if absent."""
        k = _key(v)
        i = self._find(k)
        if i is None:
            self._insert(k, v, eta)
        else:
            self._weights[i] += eta

    def apply_step(self, kind, payload, eta):
        """Apply one weight update; returns the new cached point.

        payload: FW -> target vertex v; away -> away vertex a;
        pairwise swap -> (away vertex a, local vertex z).
        """
        if eta < 0:
            raise ActiveSetError(f"negative step {eta}")
        cap = self.max_step_for(kind, payload if kind == AWAY_STEP
                                else payload[0] if kind == PAIRWISE_SWAP else None)
        if eta > cap * (1.0 + 1e-9) + 1e-15:
            raise ActiveSetError(f"step {eta} exceeds cap {cap} for {kind}")

        if kind == FW_STEP:
            if eta >= 1.0:
                # full step: the support collapses to the target vertex
                self.__init__([payload], [1.0])
                return self.point
            self._weights *= 1.0 - eta
            self._add(payload, eta)
        elif kind == AWAY_STEP:
            self._weights *= 1.0 + eta
            self._weights[self._find(_key(payload))] -= eta
        elif kind == PAIRWISE_SWAP:
            a, z = payload
            self._weights[self._find(_key(a))] -= eta
            self._add(z, eta)
        else:
            raise ActiveSetError(f"unknown step kind {kind!r}")

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
