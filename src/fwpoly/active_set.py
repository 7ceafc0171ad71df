"""Active-set bookkeeping: the iterate as a convex combination of vertices.

The solvers that move weight between vertices (away-step and blended
pairwise) track the iterate as x = sum_v lam_v * v over a support of
vertices with strictly positive weights.  Vertices are interned by rounding
their coordinates to 12 decimals, weights below EPS_WEIGHT are pruned after
every update, and the cached point is recomputed from scratch each step so
no drift accumulates.
"""

from __future__ import annotations

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

    Weights live in a dict keyed by interned vertex coordinates; iteration
    order over the support is sorted by key so every reduction over the
    support is deterministic.
    """

    def __init__(self, vertices, weights):
        self._points = {}
        self._weights = {}
        for v, w in zip(vertices, weights):
            if w < -EPS_WEIGHT:
                raise ActiveSetError(f"negative weight {w}")
            if w <= EPS_WEIGHT:
                continue
            k = _key(v)
            self._points[k] = np.asarray(v, dtype=float).copy()
            self._weights[k] = self._weights.get(k, 0.0) + float(w)
        if not self._weights:
            raise ActiveSetError("empty support")
        total = sum(self._weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ActiveSetError(f"weights sum to {total}, expected 1")
        for k in self._weights:
            self._weights[k] /= total
        self._refresh_point()

    @classmethod
    def from_vertex(cls, poly, v):
        """Singleton active set at a vertex of the polytope."""
        if not poly.is_vertex(v):
            raise ActiveSetError("from_vertex: the point is not a vertex")
        return cls([v], [1.0])

    # -- views ------------------------------------------------------------

    def _refresh_point(self):
        keys = self.support_keys()
        self._point = sum(self._weights[k] * self._points[k] for k in keys)

    @property
    def point(self):
        return self._point.copy()

    def support_keys(self):
        return sorted(self._weights)

    def support_size(self):
        return len(self._weights)

    def __len__(self):
        return len(self._weights)

    def items(self):
        for k in self.support_keys():
            yield self._points[k], self._weights[k]

    def weight_of(self, v):
        return self._weights.get(_key(v), 0.0)

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

        Ties break deterministically by the sorted vertex key.
        """
        g = np.asarray(g, dtype=float)
        keys = self.support_keys()
        vals = [g @ self._points[k] for k in keys]
        a = self._points[keys[int(np.argmax(vals))]].copy()
        z = self._points[keys[int(np.argmin(vals))]].copy()
        return a, z

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
            v = payload
            if eta >= 1.0:
                # full step: the support collapses to the target vertex
                self._points = {_key(v): np.asarray(v, dtype=float).copy()}
                self._weights = {_key(v): 1.0}
                self._refresh_point()
                return self.point
            for k in list(self._weights):
                self._weights[k] *= 1.0 - eta
            kv = _key(v)
            self._points.setdefault(kv, np.asarray(v, dtype=float).copy())
            self._weights[kv] = self._weights.get(kv, 0.0) + eta
        elif kind == AWAY_STEP:
            ka = _key(payload)
            for k in list(self._weights):
                self._weights[k] *= 1.0 + eta
            self._weights[ka] -= eta
        elif kind == PAIRWISE_SWAP:
            a, z = payload
            ka, kz = _key(a), _key(z)
            self._weights[ka] -= eta
            self._points.setdefault(kz, np.asarray(z, dtype=float).copy())
            self._weights[kz] = self._weights.get(kz, 0.0) + eta
        else:
            raise ActiveSetError(f"unknown step kind {kind!r}")

        self._prune_and_renormalize()
        self._refresh_point()
        return self.point

    def _prune_and_renormalize(self):
        for k, w in list(self._weights.items()):
            if w < -1e-10:
                raise ActiveSetError(f"weight went negative: {w}")
            if w <= EPS_WEIGHT:
                del self._weights[k]
                del self._points[k]
        if not self._weights:
            raise ActiveSetError("support emptied out")
        total = sum(self._weights.values())
        if abs(total - 1.0) > 1e-8:
            raise ActiveSetError(f"weights drifted to {total}")
        for k in self._weights:
            self._weights[k] /= total
