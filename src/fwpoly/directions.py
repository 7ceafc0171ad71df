"""Candidate descent directions and the selection rule.

Each solver builds a small set of candidate directions per iteration:

* the global step toward the LMO vertex (always has maximum step 1),
* the away step off the worst support/face vertex,
* the pairwise swap from the worst vertex to the best one.

A direction's kind is the only step vocabulary: the active set applies an
"FW", "Away" or "BPFW" direction by its kind and payload.  The active-set
candidates carry the support rows (i, j) of their away and local FW
vertices; the in-face and pairwise candidates carry vertices.

``select`` picks the candidate with the most negative inner product against
the gradient; exact ties prefer the global step, then the away step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .active_set import KIND_AWAY, KIND_BPFW, KIND_FW

KIND_IN_AWAY = "InAway"
KIND_IN_BPFW = "InBPFW"
KIND_PW = "PW"

_TIE_ORDER = {KIND_FW: 0, KIND_AWAY: 1, KIND_IN_AWAY: 1, KIND_BPFW: 2,
              KIND_IN_BPFW: 2, KIND_PW: 3}


@dataclass
class Direction:
    """A candidate move: d = vec, feasible steps [0, eta_max]."""

    kind: str
    vec: np.ndarray
    eta_max: float
    inner: float  # <grad, vec>
    payload: object = field(default=None, repr=False)


def fw_direction(x, v, gap):
    """The global step toward the LMO vertex v, where gap = <g, x - v>.

    v - x is exactly -(x - v) in floating point, so <g, v - x> is -gap
    bit for bit and needs no second product.
    """
    return Direction(KIND_FW, v - x, 1.0, -gap, payload=v)


def _support_candidates(aset, g, v, gap, kind):
    """The global step and an away step or pairwise swap off the support."""
    x = aset.point
    i, j = aset.away_and_local_fw(g)
    a = aset.vertex(i)
    vec = x - a if kind == KIND_AWAY else aset.vertex(j) - a
    return [fw_direction(x, v, gap),
            Direction(kind, vec, aset.cap(kind, i), float(g @ vec), payload=(i, j))]


def candidates_afw(aset, g, v, gap):
    """Global step and away step for the away-step solver."""
    return _support_candidates(aset, g, v, gap, KIND_AWAY)


def candidates_bpfw(aset, g, v, gap):
    """Global step and the support-local pairwise swap."""
    return _support_candidates(aset, g, v, gap, KIND_BPFW)


def candidates_ifw(poly, x, g, v, gap):
    """Global, in-face away, and in-face pairwise candidates.

    The global step has cap 1, as in the other solvers: by convexity
    x + eta (v - x) stays in the polytope for every eta in [0, 1].  The
    in-face candidates take their maximum steps from the polytope's ratio
    test; a degenerate direction (x already a vertex of its face) gets the
    conventional cap of 1.
    """
    g = np.asarray(g, dtype=float)
    a = poly.in_face_lmo(x, -g)
    z = poly.in_face_lmo(x, g)
    out = [fw_direction(x, v, gap)]
    for kind, vec, payload in ((KIND_IN_AWAY, x - a, a), (KIND_IN_BPFW, z - a, (a, z))):
        eta = poly.max_step(x, vec)
        if not np.isfinite(eta):
            eta = 1.0
        out.append(Direction(kind, vec, float(eta), float(g @ vec), payload=payload))
    return out


def pairwise_direction(poly, x, g, v):
    """The in-face pairwise direction d = v - a used by the integer-step solver."""
    g = np.asarray(g, dtype=float)
    a = poly.in_face_lmo(x, -g)
    vec = v - a
    return Direction(KIND_PW, vec, np.inf, float(g @ vec), payload=(a, v))


def select(cands):
    """Most-negative inner product wins; exact ties prefer the global step."""
    if not cands:
        raise ValueError("select: no candidates")
    return min(cands, key=lambda d: (d.inner, _TIE_ORDER[d.kind]))
