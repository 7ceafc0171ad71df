"""Active-set bookkeeping: the iterate as a convex combination of vertices.

The solvers that move weight between vertices (away-step and blended
pairwise) track the iterate as x = sum_v lam_v * v over a support of
vertices with strictly positive weights.  The support is held in arrays,
one row per vertex and its weight, in the order the vertices joined.

A move is named by its direction kind, KIND_FW, KIND_AWAY or KIND_BPFW.
Away steps and pairwise swaps move weight between support vertices, so they
name them by row: ``away_and_local_fw`` returns the rows (i, j), and ``cap``
and ``apply_step`` take them back.  Only an FW step names its vertex by
coordinates, since the LMO vertex may not be in the support yet.

A vertex is identified by its exact coordinates: two rows merge only when
every float is equal (-0.0 equals 0.0).  No rounding is needed because
every vertex comes from the polytope's own oracles, which return the same
bits for the same vertex: ``lmo`` and ``in_face_lmo`` build e_i, lo/hi or
+-r e_i in closed form or copy a row of ``enumerate_vertices()``, and
``from_vertex`` stores the polytope's own coordinates for a start vertex.

A new vertex is appended and pruning keeps the order, so every reduction
over the support (the point, the renormalising total, the away / local-FW
selection) runs in joining order, which depends only on the run's path and
so is kept by any affine image of the problem.  Weights below EPS_WEIGHT
are pruned after every update, and the point is recomputed each step.
"""

from __future__ import annotations

import numpy as np

from .polytope import ETA_CAP, tie_argmin

EPS_WEIGHT = 1e-12

KIND_FW = "FW"
KIND_AWAY = "Away"
KIND_BPFW = "BPFW"


class ActiveSetError(ValueError):
    """Invalid weight state or step request."""


class ActiveSet:
    """Convex-combination representation of an iterate.

    ``_rows`` (k x n) and ``_weights`` describe the k support vertices in the
    order they joined.
    """

    def __init__(self, vertices, weights):
        vertices = [np.asarray(v, dtype=float) for v in vertices]
        if len(weights) != len(vertices):
            raise ActiveSetError(f"{len(vertices)} vertices but {len(weights)} weights")
        self._rows = np.zeros((0, vertices[0].size if vertices else 0))
        self._weights = np.zeros(0)
        for v, w in zip(vertices, weights):
            if not w >= -EPS_WEIGHT:
                raise ActiveSetError(f"weight {w} is negative or not a number")
            if w > EPS_WEIGHT:
                self._add(v, float(w))
        if not self._weights.size:
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

    def _find(self, v):
        """The row holding vertex v, or None: every coordinate equal."""
        rows = np.flatnonzero((self._rows == np.asarray(v, dtype=float)).all(axis=1))
        return int(rows[0]) if rows.size else None

    def _add(self, v, w):
        """Add w to the weight of v, which joins the support last if absent."""
        i = self._find(v)
        if i is not None:
            self._weights[i] += w
            return
        self._rows = np.vstack((self._rows, v))
        self._weights = np.append(self._weights, w)

    def _total(self):
        """Sum of the weights, accumulated in the order the vertices joined."""
        return sum(self._weights.tolist())

    def _refresh_point(self):
        self._point = (self._weights[:, None] * self._rows).sum(axis=0)

    # -- views ------------------------------------------------------------

    @property
    def point(self):
        return self._point.copy()

    def support_size(self):
        return self._weights.size

    def items(self):
        """(vertex row, weight) pairs in the order the vertices joined."""
        return zip(self._rows, self._weights.tolist())

    def weight_of(self, v):
        i = self._find(v)
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
        """Rows (i, j) of the away and local FW vertices: argmax / argmin of <g, v>.

        Values within TIE_TOL of the best (``tie_argmin``) are tied, and
        ties break to the lowest row: the vertex that joined first.  An
        exact line search along e_s - e_a leaves <g, e_s> = <g, e_a> in
        exact arithmetic; this keeps the next selection off their last bits.
        """
        vals = self._rows @ np.asarray(g, dtype=float)
        return tie_argmin(-vals), tie_argmin(vals)

    def vertex(self, i):
        """A copy of support row i."""
        return self._rows[self._row(i)].copy()

    def _row(self, i):
        if not 0 <= i < self._weights.size:
            raise ActiveSetError(f"row {i} is outside the support of {self._weights.size}")
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
        if not eta >= 0:
            raise ActiveSetError(f"{kind} step {eta} is negative or not a number")
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
            self._add(payload, eta)  # looked up: the LMO vertex may be new to the support
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
            self._rows = self._rows[keep]
            self._weights = self._weights[keep]
        total = self._total()
        if abs(total - 1.0) > 1e-8:
            raise ActiveSetError(f"weights drifted to {total}")
        self._weights /= total
