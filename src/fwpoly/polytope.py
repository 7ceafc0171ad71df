"""Polytope representations and the oracle layer used by all solvers.

Every polytope carries an inequality description {x : A x = b, D x >= e}
plus, where available, closed-form shortcuts for the linear minimization
oracle, in-face minimization, maximum feasible step, and vertex enumeration.

Conventions shared across the package:

* all points are 1-d float numpy arrays,
* inequality rows within EPS_BIND of equality count as binding, and the
  inequality slacks D x - e and rates D d come from ``_slack`` and ``_rate``,
  which Simplex, Box and StdFormPolytope compute in O(n) without the dense
  rows,
* which rows bind at which vertex is read from one table per polytope,
  ``vertex_slacks()``, and from nowhere else,
* LMO ties break toward the lowest vertex index (vertex lists keep a fixed
  deterministic order),
* max_step returns ``inf`` for directions of norm below EPS_DIRECTION, and
  callers that need a finite cap replace it by 1.0.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from math import comb

import numpy as np

from ._hulls import hull_hform

EPS_BIND = 1e-9
EPS_DIRECTION = 1e-14
ETA_CAP = 1e6
V_MAX = 64
FACE_LATTICE_MAX = 4096
_BASIS_ENUM_CAP = 200_000


class PolytopeError(ValueError):
    """Invalid polytope data or an oracle precondition violation."""


class VertexCapExceeded(PolytopeError):
    """Vertex enumeration would exceed the configured cap."""


def _as_matrix(M, n):
    if M is None:
        return np.zeros((0, n))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return np.zeros((0, n))
    if M.shape[1] != n:
        raise PolytopeError(f"expected {n} columns, got {M.shape[1]}")
    return M


def _rank(M):
    """Numerical rank: singular values above 1e-9 times max(1, the largest)."""
    if not M.size:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > 1e-9 * max(1.0, s[0])))


def _as_point(x, n):
    """x as a float array, which must have shape (n,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise PolytopeError(f"expected a point of shape ({n},), got shape {x.shape}")
    return x


def _as_vector(v, k, name):
    if v is None:
        if k:
            raise PolytopeError(f"missing {name}: {k} rows need a right-hand side")
        return np.zeros(0)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size != k:
        raise PolytopeError(f"expected length {k}, got {v.size}")
    return v


def _read_only(rows):
    """The given arrays, each made read-only: a cached vertex list or table."""
    for v in rows:
        v.setflags(write=False)
    return rows


def _basis_vertices(name, rows, size, solve):
    """The distinct points that ``solve`` finds over the size-subsets of rows.

    ``solve`` maps a subset, a list of row indices in combinations order, to
    a vertex or None.  Both basis enumerations share this: the subset-count
    cap, the dedup at 9 decimals (the first point found is kept), the order
    by coordinates rounded to 12 decimals and the empty-set error.
    """
    count = comb(rows, size)
    if count > _BASIS_ENUM_CAP:
        raise VertexCapExceeded(f"{name}: basis enumeration over {count} subsets refused")
    seen = {}
    for subset in itertools.combinations(range(rows), size):
        x = solve(list(subset))
        if x is not None:
            seen.setdefault(tuple(np.round(x, 9) + 0.0), x)
    verts = sorted(seen.values(), key=lambda v: tuple(np.round(v, 12)))
    if not verts:
        raise PolytopeError(f"{name}: no vertices found (empty polytope?)")
    return verts


@dataclass(frozen=True)
class Face:
    """A face of a polytope, identified by its binding inequality rows."""

    binding: frozenset
    dim: int

    def __contains__(self, row):
        return row in self.binding


class Polytope:
    """Bounded polytope with equality rows A x = b and inequalities D x >= e.

    The base class implements every oracle generically from the inequality
    description and a cached vertex list; structured subclasses override the
    hot paths with closed forms.  The cached rows are read-only, since every
    oracle and the memo tables below read them.  ``vertex_slacks()`` is the
    vertex-facet incidence, built on first use.  ``_supports`` and
    ``_gauges`` are the support and gauge tables that ``geometry`` fills on
    first use and that live as long as the polytope.
    """

    def __init__(self, A=None, b=None, D=None, e=None, n=None, name="polytope"):
        if n is None:
            for M in (D, A):
                if M is not None:
                    n = np.atleast_2d(np.asarray(M, dtype=float)).shape[1]
                    break
        if n is None:
            raise PolytopeError("cannot infer the ambient dimension")
        self.n = int(n)
        self.A = _as_matrix(A, self.n)
        self.b = _as_vector(b, self.A.shape[0], "b")
        self.D = _as_matrix(D, self.n)
        self.e = _as_vector(e, self.D.shape[0], "e")
        self.name = name
        self._vertices = None
        self._slacks = None
        self._dim = None
        self._supports = None
        self._gauges = {}

    # -- description ---------------------------------------------------

    def hform(self):
        """The (A, b, D, e) inequality description."""
        return self.A, self.b, self.D, self.e

    def dim(self):
        """Dimension of the polytope (affine dimension of its vertex set)."""
        if self._dim is None:
            V = self.enumerate_vertices()
            self._dim = _rank(np.asarray(V) - V[0])
        return self._dim

    def diameter(self):
        V = np.asarray(self.enumerate_vertices())
        d2 = np.sum((V[:, None, :] - V[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))

    # -- membership and faces -------------------------------------------

    def _slack(self, x):
        """Inequality slacks D x - e."""
        return self.D @ x - self.e

    def _rate(self, d):
        """Rates D d at which the slacks change along d."""
        return self.D @ d

    def contains(self, x, tol=1e-8):
        # written so that a NaN residual or slack fails the test
        x = _as_point(x, self.n)
        if self.A.size and not np.abs(self.A @ x - self.b).max() <= tol:
            return False
        if self.D.size and not self._slack(x).min() >= -tol:
            return False
        return True

    def binding_rows(self, x):
        """Boolean mask of inequality rows binding at x."""
        return self._slack(np.asarray(x, dtype=float)) <= EPS_BIND

    def minimal_face(self, x):
        """Smallest face of the polytope containing x."""
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise PolytopeError("minimal_face: point is not in the polytope")
        binding = frozenset(int(i) for i in np.flatnonzero(self.binding_rows(x)))
        return Face(binding, self.face_dim(binding))

    def face_dim(self, binding):
        """Dimension of the face cut out by the given binding inequality rows."""
        return self.n - _rank(np.vstack([self.A, self.D[sorted(binding)]]))

    def face_dim_at(self, x):
        """Dimension of the minimal face of x, which must lie in the polytope.

        Here it is ``minimal_face(x).dim`` without the membership check.
        Simplex and Box give it exactly in closed form; StdFormPolytope and
        L1Ball give closed forms that can differ from the SVD of the rows
        only where rounding decides whether a row binds, and on an L1Ball
        with no facet rows (n > 12) only this method sees the faces.
        """
        return self.face_dim(np.flatnonzero(self.binding_rows(x)))

    def vertex_slacks(self):
        """The vertex slack table V D^T - e and its binding mask, slack <= EPS_BIND.

        Row j holds the slacks of vertex j against the inequality rows.  The
        mask is the one place that decides which rows bind at which vertex:
        every face query on vertices reads it.  Both arrays are read-only,
        built on first use and kept as long as the vertex list.
        """
        if self._slacks is None:
            slack = np.asarray(self.enumerate_vertices()) @ self.D.T - self.e
            self._slacks = _read_only((slack, slack <= EPS_BIND))
        return self._slacks

    def face_vertex_index(self, binding):
        """Indices of the polytope vertices lying on the given face."""
        _, bind = self.vertex_slacks()
        return np.flatnonzero(bind[:, sorted(binding)].all(axis=1)).tolist()

    def face_rows(self, vset):
        """Rows binding on every vertex in vset: the canonical binding set of its face."""
        _, bind = self.vertex_slacks()
        return frozenset(np.flatnonzero(bind[sorted(vset)].all(axis=0)).tolist())

    def face_vertices(self, face):
        binding = face.binding if isinstance(face, Face) else frozenset(face)
        V = self.enumerate_vertices()
        return [V[i] for i in self.face_vertex_index(binding)]

    def is_vertex(self, x):
        return self.contains(x) and self.face_dim_at(x) == 0

    # -- oracles ---------------------------------------------------------

    def lmo(self, g):
        """A vertex minimizing <g, v>; ties break to the lowest index."""
        V = np.asarray(self.enumerate_vertices())
        return V[int(np.argmin(V @ np.asarray(g, dtype=float)))].copy()

    def in_face_lmo(self, x, g):
        """A vertex of the minimal face of x minimizing <g, v>."""
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise PolytopeError("in_face_lmo: point is not in the polytope")
        on_face = self.vertex_slacks()[1][:, self.binding_rows(x)].all(axis=1)
        if not on_face.any():
            raise PolytopeError("in_face_lmo: face has no vertices")
        V = np.asarray(self.enumerate_vertices())[on_face]
        return V[int(np.argmin(V @ np.asarray(g, dtype=float)))].copy()

    def max_step(self, x, d):
        """Largest eta >= 0 with x + eta*d still in the polytope.

        Ratio test over the inequality rows.  Directions must stay in the
        affine hull (A d = 0); near-zero directions give ``inf``.
        """
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        nd = np.linalg.norm(d)
        if nd < EPS_DIRECTION:
            return np.inf
        if self.A.size and np.abs(self.A @ d).max() > 1e-8 * max(1.0, nd):
            raise PolytopeError("max_step: direction leaves the affine hull")
        if not self.D.size:
            return np.inf
        slack = self._slack(x)
        rate = self._rate(d)
        shrink = rate < -EPS_DIRECTION * max(1.0, nd)
        if not shrink.any():
            return np.inf
        ratios = slack[shrink] / (-rate[shrink])
        return float(max(ratios.min(), 0.0))

    # -- vertices ---------------------------------------------------------

    def enumerate_vertices(self, cap=V_MAX):
        """All vertices, in a fixed deterministic order (cached)."""
        if self._vertices is None:
            self._vertices = _read_only(self._enumerate_vertices_impl(cap))
        if len(self._vertices) > cap:
            raise VertexCapExceeded(
                f"{self.name}: {len(self._vertices)} vertices exceed cap {cap}"
            )
        return self._vertices

    def _enumerate_vertices_impl(self, cap):
        m = np.linalg.matrix_rank(self.A) if self.A.size else 0
        if self.n < m:
            raise PolytopeError("over-determined equality system")

        def solve(rows):
            M = np.vstack([self.A, self.D[rows]]) if self.A.size else self.D[rows]
            if M.shape[0] != self.n or np.linalg.matrix_rank(M) < self.n:
                return None
            try:
                x = np.linalg.solve(M, np.concatenate([self.b, self.e[rows]]))
            except np.linalg.LinAlgError:
                return None
            return x if self.contains(x, tol=1e-8) else None

        return _basis_vertices(self.name, self.D.shape[0], self.n - m, solve)

    def initial_vertex(self):
        """Deterministic starting vertex for the solvers."""
        return self.lmo(np.ones(self.n))

    def sample_point(self, rng):
        """Random point of the polytope (Dirichlet mix of the vertices)."""
        V = np.asarray(self.enumerate_vertices())
        return rng.dirichlet(np.ones(len(V))) @ V

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} n={self.n}>"


class Simplex(Polytope):
    """Probability simplex {x >= 0, sum(x) = 1} in R^n."""

    def __init__(self, n, name=None):
        if n < 1:
            raise PolytopeError("simplex needs n >= 1")
        super().__init__(
            A=np.ones((1, n)), b=[1.0], D=np.eye(n), e=np.zeros(n),
            n=n, name=name or f"simplex{n}",
        )

    def _slack(self, x):
        return x - self.e  # D is the identity

    def _rate(self, d):
        return d

    def contains(self, x, tol=1e-8):
        # the generic test with D x - e = x and the single row sum(x) = 1
        x = _as_point(x, self.n)
        return bool(abs((self.A @ x)[0] - 1.0) <= tol and x.min() >= -tol)

    def face_dim_at(self, x):
        # each zero coordinate is a binding row; sum(x) = 1 pins one more
        return max(int(np.count_nonzero(np.asarray(x, dtype=float) > EPS_BIND)) - 1, 0)

    def lmo(self, g):
        v = np.zeros(self.n)
        v[int(np.asarray(g, dtype=float).argmin())] = 1.0
        return v

    def in_face_lmo(self, x, g):
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise PolytopeError("in_face_lmo: point is not in the polytope")
        free = np.flatnonzero(x > EPS_BIND)
        g = np.asarray(g, dtype=float)
        v = np.zeros(self.n)
        v[free[int(np.argmin(g[free]))]] = 1.0
        return v

    def _enumerate_vertices_impl(self, cap):
        return [np.eye(self.n)[i] for i in range(self.n)]

    def sample_point(self, rng):
        # the base method's Dirichlet mix of the identity rows, bit for bit,
        # without enumerating more than the vertex cap
        return rng.dirichlet(np.ones(self.n))

    def diameter(self):
        return float(np.sqrt(2.0)) if self.n > 1 else 0.0

    def dim(self):
        return self.n - 1


class Box(Polytope):
    """Axis-aligned box {lo <= x <= hi}."""

    def __init__(self, lo, hi, name=None):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or (hi <= lo).any():
            raise PolytopeError("box needs lo < hi componentwise")
        n = lo.size
        super().__init__(
            D=np.vstack([np.eye(n), -np.eye(n)]),
            e=np.concatenate([lo, -hi]),
            n=n, name=name or f"box{n}",
        )
        self.lo, self.hi = lo, hi

    def _slack(self, x):
        # D = [I; -I] and e = [lo; -hi], so -x - (-hi) is exactly hi - x
        return np.concatenate([x - self.lo, self.hi - x])

    def _rate(self, d):
        return np.concatenate([d, -d])

    def contains(self, x, tol=1e-8):
        # the generic test on the two halves of _slack, each NaN-safe
        x = _as_point(x, self.n)
        return bool((x - self.lo).min() >= -tol and (self.hi - x).min() >= -tol)

    def face_dim_at(self, x):
        # a coordinate at either bound is pinned; the free ones span the face
        x = np.asarray(x, dtype=float)
        return int(np.count_nonzero((x - self.lo > EPS_BIND) & (self.hi - x > EPS_BIND)))

    def lmo(self, g):
        g = np.asarray(g, dtype=float)
        # ties (g_i == 0) go to the lower bound: lexicographically smallest
        return np.where(g < 0, self.hi, self.lo).astype(float)

    def in_face_lmo(self, x, g):
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise PolytopeError("in_face_lmo: point is not in the polytope")
        g = np.asarray(g, dtype=float)
        v = np.where(g < 0, self.hi, self.lo).astype(float)
        at_lo = x - self.lo <= EPS_BIND
        at_hi = self.hi - x <= EPS_BIND
        v[at_lo] = self.lo[at_lo]
        v[at_hi] = self.hi[at_hi]
        return v

    def _enumerate_vertices_impl(self, cap):
        if 2**self.n > max(cap, V_MAX):
            raise VertexCapExceeded(f"box{self.n} has {2**self.n} vertices")
        corners = [
            np.where(np.array(bits), self.hi, self.lo).astype(float)
            for bits in itertools.product([0, 1], repeat=self.n)
        ]
        return sorted(corners, key=lambda v: tuple(np.round(v, 12)))

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def dim(self):
        return self.n

    def sample_point(self, rng):
        return rng.uniform(self.lo, self.hi)


class L1Ball(Polytope):
    """Cross-polytope {||x||_1 <= r}.

    The facet description has 2^n rows, so it is only materialized for small
    n; the oracles below use closed forms that work in any dimension.
    """

    _HFORM_MAX_N = 12

    def __init__(self, n, radius=1.0, name=None):
        if radius <= 0:
            raise PolytopeError("l1 ball needs radius > 0")
        if n <= self._HFORM_MAX_N:
            signs = np.array(list(itertools.product([1.0, -1.0], repeat=n)))
            D, e = -signs, np.full(2**n, -radius)
        else:
            D, e = None, None
        super().__init__(D=D, e=e, n=n, name=name or f"l1ball{n}")
        self.radius = float(radius)

    def contains(self, x, tol=1e-8):
        return float(np.abs(_as_point(x, self.n)).sum()) <= self.radius + tol

    def face_dim_at(self, x):
        """Closed form that agrees with the facet rows where they exist.

        A facet row s binds when <s, x> >= r - EPS_BIND.  With slack
        ||x||_1 - (r - EPS_BIND) >= 0, flipping the sign of coordinate i costs
        2|x_i|, so the rows pin exactly the coordinates with 2|x_i| <= slack
        and the face has dimension |supp| - 1 over the rest; inside the ball
        no row binds and the face is the whole ball.
        """
        a = np.abs(np.asarray(x, dtype=float))
        slack = a.sum() - (self.radius - EPS_BIND)
        if slack < 0.0:
            return self.n
        return max(int(np.count_nonzero(2.0 * a > slack)) - 1, 0)

    def minimal_face(self, x):
        """The facet-row face; above n = 12 only an interior point has one.

        With no facet rows, a boundary face has no binding set to name it, so
        a boundary point raises instead of reporting the whole ball.
        """
        face = super().minimal_face(x)
        if not self.D.size and np.abs(np.asarray(x, dtype=float)).sum() >= self.radius - EPS_BIND:
            raise PolytopeError(
                f"minimal_face: {self.name} keeps no facet rows to name a boundary face")
        return face

    def lmo(self, g):
        g = np.asarray(g, dtype=float)
        vals = np.concatenate([self.radius * g, -self.radius * g])
        i = int(np.argmin(vals))
        v = np.zeros(self.n)
        v[i % self.n] = self.radius if i < self.n else -self.radius
        return v

    def in_face_lmo(self, x, g):
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise PolytopeError("in_face_lmo: point is not in the polytope")
        if np.abs(x).sum() < self.radius - EPS_BIND:
            return self.lmo(g)
        g = np.asarray(g, dtype=float)
        support = np.flatnonzero(np.abs(x) > EPS_BIND)
        vals = np.sign(x[support]) * self.radius * g[support]
        i = support[int(np.argmin(vals))]
        v = np.zeros(self.n)
        v[i] = np.sign(x[i]) * self.radius
        return v

    def max_step(self, x, d):
        """Exact breakpoint walk of the piecewise-linear map eta -> ||x + eta d||_1."""
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        if np.linalg.norm(d) < EPS_DIRECTION:
            return np.inf

        def phi(eta):
            return float(np.abs(x + eta * d).sum())

        breaks = sorted({float(-xi / di) for xi, di in zip(x, d)
                         if abs(di) > EPS_DIRECTION and -xi / di > 0})
        eta_prev, phi_prev = 0.0, phi(0.0)
        for eta_b in breaks + [breaks[-1] + 1.0 if breaks else 1.0]:
            phi_b = phi(eta_b)
            if phi_b > self.radius + 1e-15:
                slope = (phi_b - phi_prev) / (eta_b - eta_prev)
                return eta_prev + max(self.radius - phi_prev, 0.0) / slope
            eta_prev, phi_prev = eta_b, phi_b
        tail = float(np.abs(d).sum())
        return eta_prev + max(self.radius - phi_prev, 0.0) / tail

    def _enumerate_vertices_impl(self, cap):
        out = []
        for i in range(self.n):
            v = np.zeros(self.n)
            v[i] = self.radius
            out.append(v.copy())
            v[i] = -self.radius
            out.append(v.copy())
        return out

    def diameter(self):
        return 2.0 * self.radius

    def dim(self):
        return self.n


class VRepPolytope(Polytope):
    """Polytope given by an explicit vertex list (order preserved)."""

    def __init__(self, vertices, name="vrep"):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        if V.shape[0] < 1:
            raise PolytopeError("vrep needs at least one point")
        hf = hull_hform(V)
        if len(hf.vertex_index) != V.shape[0]:
            inner = sorted(set(range(V.shape[0])) - set(hf.vertex_index))
            raise PolytopeError(
                f"vrep: points at indices {inner} are convex combinations of the others"
            )
        super().__init__(A=hf.A, b=hf.b, D=hf.D, e=hf.e, n=V.shape[1], name=name)
        self._vertices = _read_only([V[i].copy() for i in range(V.shape[0])])


class StdFormPolytope(Polytope):
    """Standard-form polytope {x : A x = b, x >= 0}."""

    def __init__(self, A, b, name="stdform"):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        m, n = A.shape
        if np.linalg.matrix_rank(A) < m:
            raise PolytopeError("stdform: A must have full row rank")
        super().__init__(A=A, b=b, D=np.eye(n), e=np.zeros(n), n=n, name=name)
        self.m = m
        if self._has_recession_direction():
            raise PolytopeError("stdform: feasible region is unbounded")

    def _has_recession_direction(self):
        # nonzero d >= 0 with A d = 0 certifies unboundedness
        from scipy.optimize import linprog

        res = linprog(
            c=-np.ones(self.n),
            A_eq=self.A, b_eq=np.zeros(self.m),
            bounds=[(0.0, 1.0)] * self.n,
            method="highs",
        )
        return res.status == 0 and -res.fun > 1e-9

    def _slack(self, x):
        return x - self.e  # D is the identity

    def _rate(self, d):
        return d

    def face_dim_at(self, x):
        # the binding rows x_i >= 0 pin the zero coordinates; A pins the rest
        supp = np.asarray(x, dtype=float) > EPS_BIND
        return int(supp.sum()) - _rank(self.A[:, supp])

    def _enumerate_vertices_impl(self, cap):
        def solve(cols):
            B = self.A[:, cols]
            if np.linalg.matrix_rank(B) < self.m:
                return None
            try:
                xb = np.linalg.solve(B, self.b)
            except np.linalg.LinAlgError:
                return None
            if xb.min() < -1e-9:
                return None
            x = np.zeros(self.n)
            x[cols] = np.maximum(xb, 0.0)
            return x

        return _basis_vertices(self.name, self.n, self.m, solve)

    def is_simplex_like(self):
        """True when every vertex has 0/1 coordinates (to within 1e-9)."""
        V = np.asarray(self.enumerate_vertices())
        return bool(np.all(np.minimum(np.abs(V), np.abs(V - 1.0)) <= 1e-9))


class HFormPolytope(Polytope):
    """General bounded polytope {x : A x = b, D x >= e}."""

    def __init__(self, A=None, b=None, D=None, e=None, name="hform"):
        super().__init__(A=A, b=b, D=D, e=e, name=name)
        if not self.D.size:
            raise PolytopeError("hform needs at least one inequality row")
        rows = np.vstack([self.A, self.D]) if self.A.size else self.D
        if np.linalg.matrix_rank(rows) < self.n:
            raise PolytopeError("hform: lineality space is nontrivial (unbounded)")
        self._validate_rows()

    def _validate_rows(self):
        _, bind = self.vertex_slacks()
        never_binding = np.flatnonzero(~bind.any(axis=0))
        always_binding = np.flatnonzero(bind.all(axis=0))
        if never_binding.size:
            raise PolytopeError(
                f"hform rows {never_binding.tolist()} are never binding (redundant)"
            )
        if always_binding.size:
            raise PolytopeError(
                f"hform rows {always_binding.tolist()} are implicit equalities"
            )


def simplex_like_cube(n, name=None):
    """The cube [0,1]^n in standard form via slack variables (0/1 vertices)."""
    A = np.hstack([np.eye(n), np.eye(n)])
    b = np.ones(n)
    return StdFormPolytope(A, b, name=name or f"cube{n}_std")


# -- file format -----------------------------------------------------------


def _from_json(path, text):
    """A polytope from JSON text: {"vertices"} or {"A","b","D","e"}, plus "name"."""
    try:
        data = json.loads(text)
        name = data.get("name", os.path.basename(path))
        if "vertices" in data:
            return VRepPolytope(data["vertices"], name=name)
        return HFormPolytope(data.get("A"), data.get("b"), data["D"], data["e"], name=name)
    except (KeyError, TypeError, ValueError) as exc:
        raise PolytopeError(f"{path}: malformed polytope JSON: {exc}") from exc


def load_polytope(path):
    """Read a polytope file, either JSON or the keyword text format.

    A file whose text starts with "{" is JSON: {"vertices": [[...], ...]}
    (V-form) or {"A","b","D","e"} (H-form, equalities optional), plus an
    optional "name".  Any other file is the keyword text format: the first
    non-comment line names the kind (simplex, box, l1ball, vrep, stdform,
    hform); following lines carry the payload, one keyword per line.  See the
    README for the grammar.  A file that is not UTF-8 text or whose payload
    does not parse raises PolytopeError.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            return _from_json(path, text)
        return _from_keywords(path, text)
    except PolytopeError:
        raise
    except (ValueError, IndexError) as exc:  # UnicodeDecodeError is a ValueError
        raise PolytopeError(f"{path}: malformed polytope file: {exc}") from exc


def _from_keywords(path, text):
    """A polytope from the keyword text format."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows:
        raise PolytopeError(f"{path}: empty polytope file")
    kind, *head = rows[0]
    body = rows[1:]

    def collect(key):
        return [list(map(float, r[1:])) for r in body if r[0] == key]

    def scalar(key, default=None):
        vals = collect(key)
        if not vals:
            if default is None:
                raise PolytopeError(f"{path}: missing '{key}'")
            return default
        return vals[0][0]

    if kind == "simplex":
        n = int(head[0]) if head else int(scalar("n"))
        return Simplex(n)
    if kind == "box":
        lo, hi = collect("lo"), collect("hi")
        if lo and hi:
            return Box(lo[0], hi[0])
        n = int(head[0]) if head else int(scalar("n"))
        return Box(np.zeros(n), np.ones(n))
    if kind == "l1ball":
        n = int(head[0]) if head else int(scalar("n"))
        r = float(head[1]) if len(head) > 1 else scalar("radius", 1.0)
        return L1Ball(n, r)
    if kind == "vrep":
        V = collect("v")
        if not V:
            raise PolytopeError(f"{path}: vrep needs 'v' rows")
        return VRepPolytope(V)
    if kind == "stdform":
        A, b = collect("A"), collect("b")
        if not A or not b:
            raise PolytopeError(f"{path}: stdform needs 'A' rows and a 'b' row")
        return StdFormPolytope(A, np.ravel(b))
    if kind == "hform":
        A, b = collect("A"), collect("b")
        D, e = collect("D"), collect("e")
        if not D or not e:
            raise PolytopeError(f"{path}: hform needs 'D' rows and an 'e' row")
        return HFormPolytope(
            A=A or None, b=np.ravel(b) if b else None, D=D, e=np.ravel(e)
        )
    raise PolytopeError(f"{path}: unknown polytope kind {kind!r}")
