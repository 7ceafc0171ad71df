"""Polytope representations and the oracle layer used by all solvers.

Every polytope carries an inequality description {x : A x = b, D x >= e}
plus, where available, closed-form shortcuts for the linear minimization
oracle, in-face minimization, maximum feasible step, and vertex enumeration.

Conventions shared across the package:

* all points are 1-d float numpy arrays,
* the inequality slacks D x - e and rates D d come from ``_slack`` and
  ``_rate``, which Simplex, Box and StdFormPolytope compute in O(n) without
  the dense rows,
* which rows bind is decided in one place per polytope: at a point, slack
  <= EPS_BIND in ``binding_rows(x)`` (an L1Ball, with no rows above n = 12,
  uses ``_face_coords``), which ``face_dim_at``, ``minimal_face`` and
  ``in_face_lmo`` read; at the vertices, the table ``vertex_slacks()``,
* the data is frozen at construction: A, b, D, e are read-only private
  copies, and ``enumerate_vertices()`` is one read-only (k, n) array in a
  fixed deterministic order, so nothing cached from them can go stale,
* LMO ties break toward the lowest vertex index; ``in_face_lmo`` counts
  values within TIE_TOL of the best as tied (``tie_argmin``), so a tie that
  exact arithmetic makes is not broken by the last bits of the gradient,
* max_step returns ``inf`` for directions of norm below EPS_DIRECTION, and
  callers that need a finite cap replace it by 1.0.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from ._hulls import _differences, _rank, _singular_rank, hull_hform

EPS_BIND = 1e-9
EPS_DIRECTION = 1e-14
FEAS_TOL = 1e-8
ETA_CAP = 1e6
V_MAX = 64
TIE_TOL = 1e-12
FACE_LATTICE_MAX = 4096
_BASIS_ENUM_CAP = 200_000


class PolytopeError(ValueError):
    """Invalid polytope data or an oracle precondition violation."""


class VertexCapExceeded(PolytopeError):
    """Vertex enumeration would exceed the configured cap."""


def _as_matrix(M, n, name):
    """M as a read-only private finite float copy with n columns; None gives no rows."""
    M = np.zeros((0, n)) if M is None else np.atleast_2d(np.array(M, dtype=float))
    if M.size == 0:
        M = np.zeros((0, n))
    if M.shape[1] != n:
        raise PolytopeError(f"expected {n} columns, got {M.shape[1]}")
    if not np.isfinite(M).all():
        raise PolytopeError(f"{name} has a nonfinite entry")
    return _read_only(M)


def _as_point(x, n):
    """x as a float array, which must have shape (n,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise PolytopeError(f"expected a point of shape ({n},), got shape {x.shape}")
    return x


def _as_vector(v, k, name):
    """v as a read-only private finite float copy of length k."""
    if v is None and k:
        raise PolytopeError(f"missing {name}: {k} rows need a right-hand side")
    v = np.atleast_1d(np.array([] if v is None else v, dtype=float))
    if v.size != k:
        raise PolytopeError(f"expected length {k}, got {v.size}")
    if not np.isfinite(v).all():
        raise PolytopeError(f"{name} has a nonfinite entry")
    return _read_only(v)


def tie_argmin(vals):
    """The lowest index whose value is within TIE_TOL of the minimum.

    The tolerance is relative to the largest |value|, the scale at which a
    gradient's rounding moves them, so values that differ only by rounding
    count as tied and the lowest index wins, as an exact tie does under
    ``np.argmin``.  Nonfinite values fall back to ``np.argmin``.
    """
    vals = np.asarray(vals, dtype=float)
    lo = float(vals.min())
    cut = lo + TIE_TOL * max(-lo, float(vals.max()))
    if not isfinite(cut):
        return int(np.argmin(vals))
    return int((vals <= cut).argmax())


def _point_in(poly, x, op):
    """x as a float array, which must lie in poly; op names the caller."""
    x = np.asarray(x, dtype=float)
    if not poly.contains(x):
        raise PolytopeError(f"{op}: point is not in the polytope")
    return x


def _identity_rows(self, x):
    """``_slack`` and ``_rate`` where D is the identity and e = 0: x - 0 is x bit for bit."""
    return x


def _read_only(a):
    """The array a, made read-only: frozen problem data or a cached table."""
    a.setflags(write=False)
    return a


def _basis_vertices(name, rows, size, solve):
    """The distinct points that ``solve`` finds over the size-subsets of rows.

    ``solve`` maps a subset, a list of row indices in combinations order, to
    a vertex or None.  Both basis enumerations share this: the subset-count
    cap, the dedup by ``_distinct``, and the order by coordinates rounded to
    12 decimals into the rows of one array, empty when no subset gives a vertex.
    """
    count = comb(rows, size)
    if count > _BASIS_ENUM_CAP:
        raise VertexCapExceeded(f"{name}: basis enumeration over {count} subsets refused")
    found = (solve(list(subset)) for subset in itertools.combinations(range(rows), size))
    return np.array(sorted(_distinct(x for x in found if x is not None),
                           key=lambda v: tuple(np.round(v, 12))))


def _distinct(points):
    """The points in order, keeping the first of those equal at 9 decimals."""
    seen = {}
    for x in points:
        seen.setdefault(tuple(np.round(x, 9) + 0.0), x)
    return list(seen.values())


def _null_basis(A, n):
    """(N, kappa(A)) for n columns, both as ``_gordan_certificate`` defines them."""
    if not A.size:
        return np.eye(n), 1.0
    _, s, Vt = np.linalg.svd(A)
    rank = _singular_rank(s)
    return Vt[rank:].T, (s[0] / s[rank - 1] if rank else 1.0)


def _gordan_certificate(A, D):
    """True when a y > 0 with D^T y in range(A^T) proves {d : A d = 0, D d >= 0} = {0}.

    N is an orthonormal basis of null(A), its rank by ``_singular_rank``, and
    M = D N, so the cone is {N u : M u >= 0}.  y = 1 - M lstsq(M, 1) is the
    projection of the all-ones vector onto null(M^T), and r = M^T y is what
    rounding leaves of zero.  For u in the cone, M u >= 0 and y > 0 give

        min(y) sigma_min(M) |u| <= min(y) |M u|_1 <= y^T M u = r^T u <= |r| |u|,

    so min(y) sigma_min(M) > |r| forces u = 0 (Gordan's theorem; Schrijver,
    Theory of Linear and Integer Programming, 1986, section 7.8).  The test
    asks for |r| plus the rounding margin 4 (n + p) eps kappa(A) |D|_F |y|,
    with p rows in D, eps the float spacing at 1 and kappa(A) the ratio of
    A's largest to its smallest nonzero singular value (1 without equality
    rows): the computed N spans null(A) to within an angle of order
    n eps kappa(A), and the rounding of M, of r and of sigma_min(M) moves
    each side by at most order (n + p) eps |D|_F |y|.  False proves nothing:
    some bounded regions have no such y (``_recession_ray`` decides them).
    """
    n = D.shape[1]
    N, kappa = _null_basis(A, n)
    M = D @ N
    p, k = M.shape
    if k == 0:
        return True  # A d = 0 only at d = 0
    if p < k:
        return False  # M u = 0 for some u != 0: a line
    z, _, _, sv = np.linalg.lstsq(M, np.ones(p), rcond=None)
    y = 1.0 - M @ z
    eps = np.finfo(float).eps
    margin = 4 * (n + p) * eps * kappa * np.linalg.norm(D) * np.linalg.norm(y)
    return bool(y.min() * sv[-1] > np.linalg.norm(M.T @ y) + margin)


def _recession_ray(A, D):
    """True when {d : A d = 0, D d >= 0} holds a d != 0: the region is unbounded.

    With N and M = D N as in ``_gordan_certificate``, the cone is
    {N u : M u >= 0}.  If M has rank below its k columns, the cone holds a
    line.  Otherwise it is pointed, 1^T M u > 0 on every u != 0 in it, and
    it is {0} exactly when its cut {u : M u >= 0, 1^T M u = 1} is empty: the
    cut is a polytope whose vertices are the cone's extreme rays
    (Minkowski-Weyl; Schrijver, Theory of Linear and Integer Programming,
    1986, section 8).  The basis enumeration looks for them over the
    C(p, k - 1) subsets of the p rows of M.  Where 1^T M vanishes the cut
    is empty without enumerating.
    """
    M = D @ _null_basis(A, D.shape[1])[0]
    p, k = M.shape
    if _rank(M) < k:
        return True
    c = M.sum(axis=0)[None]
    if not _rank(c):
        return False
    cut = Polytope(A=c, b=[1.0], D=M, e=np.zeros(p), n=k, name="recession cone")
    return len(cut._enumerate_vertices_impl()) > 0


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
    description and the cached vertex array; structured subclasses override
    the hot paths with closed forms.  The rows and the vertex array are
    read-only, since every oracle and the memo tables below read them.
    ``vertex_slacks()`` is the vertex-facet incidence, built on first use.
    ``_supports`` and ``_gauges`` are the support and gauge tables that
    ``geometry`` fills on first use and that live as long as the polytope.
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
        self.A = _as_matrix(A, self.n, "A")
        self.b = _as_vector(b, self.A.shape[0], "b")
        self.D = _as_matrix(D, self.n, "D")
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

    def _check_hform(self, kind):
        """The H-form construction rule: raise unless {d : A d = 0, D d >= 0} = {0},
        then unless A has full row rank.

        ``_gordan_certificate`` proves boundedness with a rounding margin; where
        it finds no certificate, ``_recession_ray`` looks for an extreme ray, and
        a line (a lineality space) is such a ray too.
        """
        if not _gordan_certificate(self.A, self.D) and _recession_ray(self.A, self.D):
            raise PolytopeError(f"{kind}: feasible region is unbounded")
        if _rank(self.A) < self.A.shape[0]:
            raise PolytopeError(f"{kind}: A must have full row rank")

    def dim(self):
        """Dimension of the polytope (affine dimension of its vertex set)."""
        if self._dim is None:
            V = self.enumerate_vertices()
            self._dim = _rank(V - V[0])
        return self._dim

    def diameter(self):
        V = self.enumerate_vertices()
        return float(np.sqrt(np.sum(_differences(V, V) ** 2, axis=-1).max()))

    # -- membership and faces -------------------------------------------

    def _slack(self, x):
        """Inequality slacks D x - e."""
        return self.D @ x - self.e

    def _rate(self, d):
        """Rates D d at which the slacks change along d."""
        return self.D @ d

    def contains(self, x, tol=FEAS_TOL):
        # written so that a NaN residual or slack fails the test
        x = _as_point(x, self.n)
        if self.A.size and not np.abs(self.A @ x - self.b).max() <= tol:
            return False
        if self.D.size and not self._slack(x).min() >= -tol:
            return False
        return True

    def binding_rows(self, x):
        """Boolean mask of the inequality rows binding at x: slack <= EPS_BIND."""
        return self._slack(np.asarray(x, dtype=float)) <= EPS_BIND

    def minimal_face(self, x):
        """Smallest face of the polytope containing x."""
        x = _point_in(self, x, "minimal_face")
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
        only where rounding decides whether a row binds.
        """
        return self.face_dim(np.flatnonzero(self.binding_rows(x)))

    def vertex_slacks(self):
        """The vertex slack table V D^T - e and its binding mask, slack <= EPS_BIND.

        Row j holds the slacks of vertex j against the inequality rows.  The
        mask is the one place that decides which rows bind at which vertex:
        every face query on vertices reads it.  Both arrays are read-only,
        built on first use and kept as long as the vertex array.
        """
        if self._slacks is None:
            slack = _read_only(self.enumerate_vertices() @ self.D.T - self.e)
            self._slacks = slack, _read_only(slack <= EPS_BIND)
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
        """The vertices on a face (a Face or its binding rows), one per row."""
        binding = face.binding if isinstance(face, Face) else frozenset(face)
        return self.enumerate_vertices()[self.face_vertex_index(binding)]

    def is_vertex(self, x):
        return self.contains(x) and self.face_dim_at(x) == 0

    # -- oracles ---------------------------------------------------------

    def lmo(self, g):
        """A vertex minimizing <g, v>; ties break to the lowest index."""
        V = self.enumerate_vertices()
        return V[int(np.argmin(V @ np.asarray(g, dtype=float)))].copy()

    def in_face_lmo(self, x, g):
        """A vertex of the minimal face of x minimizing <g, v>."""
        x = _point_in(self, x, "in_face_lmo")
        on_face = self.vertex_slacks()[1][:, self.binding_rows(x)].all(axis=1)
        if not on_face.any():
            raise PolytopeError("in_face_lmo: face has no vertices")
        V = self.enumerate_vertices()[on_face]
        return V[tie_argmin(V @ np.asarray(g, dtype=float))].copy()

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
        """All vertices as one read-only (k, n) array, in a fixed order (cached)."""
        if self._vertices is None:
            V = self._enumerate_vertices_impl()
            if not len(V):
                raise PolytopeError(f"{self.name}: no vertices found (empty polytope?)")
            self._vertices = _read_only(V)
        if len(self._vertices) > cap:
            raise VertexCapExceeded(
                f"{self.name}: {len(self._vertices)} vertices exceed cap {cap}"
            )
        return self._vertices

    def _enumerate_vertices_impl(self):
        m = _rank(self.A)
        if self.n < m:
            raise PolytopeError("over-determined equality system")

        def solve(rows):
            M = np.vstack([self.A, self.D[rows]]) if self.A.size else self.D[rows]
            if M.shape[0] != self.n or _rank(M) < self.n:
                return None
            try:
                x = np.linalg.solve(M, np.concatenate([self.b, self.e[rows]]))
            except np.linalg.LinAlgError:
                return None
            return x if self.contains(x) else None

        return _basis_vertices(self.name, self.D.shape[0], self.n - m, solve)

    def initial_vertex(self):
        """Deterministic starting vertex for the solvers."""
        return self.lmo(np.ones(self.n))

    def sample_point(self, rng):
        """Random point of the polytope (Dirichlet mix of the vertices)."""
        V = self.enumerate_vertices()
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

    _slack = _rate = _identity_rows

    def contains(self, x, tol=FEAS_TOL):
        # the generic test with D x - e = x and the single row sum(x) = 1
        x = _as_point(x, self.n)
        return bool(abs((self.A @ x)[0] - 1.0) <= tol and x.min() >= -tol)

    def face_dim_at(self, x):
        # each binding row pins a coordinate; sum(x) = 1 pins one more
        return max(self.n - int(np.count_nonzero(self.binding_rows(x))) - 1, 0)

    def lmo(self, g):
        v = np.zeros(self.n)
        v[int(np.asarray(g, dtype=float).argmin())] = 1.0
        return v

    def in_face_lmo(self, x, g):
        x = _point_in(self, x, "in_face_lmo")
        free = np.flatnonzero(~self.binding_rows(x))
        g = np.asarray(g, dtype=float)
        v = np.zeros(self.n)
        v[free[tie_argmin(g[free])]] = 1.0
        return v

    def _enumerate_vertices_impl(self):
        if self.n > V_MAX:
            raise VertexCapExceeded(f"{self.name}: {self.n} vertices exceed cap {V_MAX}")
        return np.eye(self.n)

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
        lo = _read_only(np.atleast_1d(np.array(lo, dtype=float)))
        hi = _read_only(np.atleast_1d(np.array(hi, dtype=float)))
        if (lo.size < 1 or lo.shape != hi.shape or not np.isfinite([lo, hi]).all()
                or (hi <= lo).any()):
            raise PolytopeError("box needs n >= 1 and finite lo < hi componentwise")
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

    def contains(self, x, tol=FEAS_TOL):
        # the generic test on the two halves of _slack, each NaN-safe
        x = _as_point(x, self.n)
        return bool((x - self.lo).min() >= -tol and (self.hi - x).min() >= -tol)

    def face_dim_at(self, x):
        # a coordinate at either bound is pinned; the free ones span the face
        bind = self.binding_rows(x)
        return self.n - int(np.count_nonzero(bind[:self.n] | bind[self.n:]))

    def lmo(self, g):
        g = np.asarray(g, dtype=float)
        # ties (g_i == 0) go to the lower bound: lexicographically smallest
        return np.where(g < 0, self.hi, self.lo).astype(float)

    def in_face_lmo(self, x, g):
        x = _point_in(self, x, "in_face_lmo")
        v = self.lmo(g)
        bind = self.binding_rows(x)
        at_lo, at_hi = bind[:self.n], bind[self.n:]
        v[at_lo] = self.lo[at_lo]
        v[at_hi] = self.hi[at_hi]
        return v

    def _enumerate_vertices_impl(self):
        if 2**self.n > V_MAX:
            raise VertexCapExceeded(f"{self.name}: {2**self.n} vertices exceed cap {V_MAX}")
        corners = np.where(list(itertools.product([0, 1], repeat=self.n)), self.hi, self.lo)
        return np.array(sorted(corners, key=lambda v: tuple(np.round(v, 12))))

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
        if n < 1 or not 0 < radius < np.inf:
            raise PolytopeError("l1 ball needs n >= 1 and a finite radius > 0")
        if n <= self._HFORM_MAX_N:
            signs = np.array(list(itertools.product([1.0, -1.0], repeat=n)))
            D, e = -signs, np.full(2**n, -radius)
        else:
            D, e = None, None
        super().__init__(D=D, e=e, n=n, name=name or f"l1ball{n}")
        self.radius = float(radius)

    def contains(self, x, tol=FEAS_TOL):
        return float(np.abs(_as_point(x, self.n)).sum()) <= self.radius + tol

    def _face_coords(self, x):
        """The ball's binding rule: a mask of the coordinates free on x's face.

        A facet row s binds when <s, x> >= r - EPS_BIND.  With slack
        ||x||_1 - (r - EPS_BIND) >= 0, flipping the sign of coordinate i costs
        2|x_i|, so the rows pin exactly the coordinates with 2|x_i| <= slack;
        with negative slack no row binds, and None marks the interior.  With no
        coordinate free (radius below EPS_BIND, or x far outside) it raises.
        """
        a = np.abs(np.asarray(x, dtype=float))
        slack = a.sum() - (self.radius - EPS_BIND)
        if slack < 0.0:
            return None
        free = 2.0 * a > slack
        if not free.any():
            raise PolytopeError(f"{self.name}: no coordinate is free at {x}")
        return free

    def face_dim_at(self, x):
        free = self._face_coords(x)
        return self.n if free is None else max(int(np.count_nonzero(free)) - 1, 0)

    def minimal_face(self, x):
        """The facet-row face; above n = 12 only an interior point has one.

        With no facet rows, a boundary face has no binding set to name it, so
        a boundary point raises instead of reporting the whole ball.
        """
        face = super().minimal_face(x)
        if not self.D.size and self._face_coords(x) is not None:
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
        x = _point_in(self, x, "in_face_lmo")
        free = self._face_coords(x)
        if free is None:
            return self.lmo(g)
        g = np.asarray(g, dtype=float)
        support = np.flatnonzero(free)
        vals = np.sign(x[support]) * self.radius * g[support]
        i = support[tie_argmin(vals)]
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

    def _enumerate_vertices_impl(self):
        if 2 * self.n > V_MAX:
            raise VertexCapExceeded(f"{self.name}: {2 * self.n} vertices exceed cap {V_MAX}")
        i = np.arange(self.n)
        V = np.zeros((2 * self.n, self.n))
        V[2 * i, i] = self.radius
        V[2 * i + 1, i] = -self.radius
        return V

    def diameter(self):
        return 2.0 * self.radius

    def dim(self):
        return self.n


class VRepPolytope(Polytope):
    """Polytope given by its vertices, one per row (order preserved)."""

    def __init__(self, vertices, name="vrep"):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        if V.shape[0] < 1:
            raise PolytopeError("vrep needs at least one point")
        if not np.isfinite(V).all():
            raise PolytopeError("vrep: a point has a nonfinite coordinate")
        hf = hull_hform(V)
        if len(hf.vertex_index) != V.shape[0]:
            inner = sorted(set(range(V.shape[0])) - set(hf.vertex_index))
            raise PolytopeError(
                f"vrep: points at indices {inner} are convex combinations of the others"
            )
        super().__init__(A=hf.A, b=hf.b, D=hf.D, e=hf.e, n=V.shape[1], name=name)
        self._vertices = _read_only(V.copy())


class StdFormPolytope(Polytope):
    """Standard-form polytope {x : A x = b, x >= 0}.

    Construction proves the region bounded and A of full row rank
    (``Polytope._check_hform`` with D = I).
    """

    def __init__(self, A, b, name="stdform"):
        n = np.atleast_2d(np.asarray(A, dtype=float)).shape[1]
        super().__init__(A=A, b=b, D=np.eye(n), e=np.zeros(n), n=n, name=name)
        self.m = self.A.shape[0]
        self._check_hform("stdform")

    _slack = _rate = _identity_rows

    def face_dim_at(self, x):
        # the binding rows x_i >= 0 pin their coordinates; A pins the rest
        supp = ~self.binding_rows(x)
        return int(supp.sum()) - _rank(self.A[:, supp])

    def _enumerate_vertices_impl(self):
        def solve(cols):
            B = self.A[:, cols]
            if _rank(B) < self.m:
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
        V = self.enumerate_vertices()
        return bool(np.all(np.minimum(np.abs(V), np.abs(V - 1.0)) <= 1e-9))


class HFormPolytope(Polytope):
    """General bounded polytope {x : A x = b, D x >= e}.

    Construction proves the region bounded and A of full row rank
    (``Polytope._check_hform``) before it checks the rows of D: none may be
    redundant or an implicit equality.
    """

    def __init__(self, A=None, b=None, D=None, e=None, name="hform"):
        super().__init__(A=A, b=b, D=D, e=e, name=name)
        if not self.D.size:
            raise PolytopeError("hform needs at least one inequality row")
        self._check_hform("hform")
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


def simplex_like_cube(n):
    """The cube [0,1]^n in standard form via slack variables (0/1 vertices)."""
    A = np.hstack([np.eye(n), np.eye(n)])
    b = np.ones(n)
    return StdFormPolytope(A, b, name=f"cube{n}_std")


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

    def size():
        n = float(head[0]) if head else scalar("n")
        if not n.is_integer():
            raise PolytopeError(f"{path}: n must be a whole number, got {n:g}")
        return int(n)

    if kind == "simplex":
        return Simplex(size())
    if kind == "box":
        lo, hi = collect("lo"), collect("hi")
        if lo and hi:
            return Box(lo[0], hi[0])
        n = size()
        return Box(np.zeros(n), np.ones(n))
    if kind == "l1ball":
        n = size()
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
