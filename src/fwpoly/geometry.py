"""Affine-invariant distances and facial geometry of polytopes.

Three point-to-optimum distances drive the convergence analysis:

* radial: how far x must travel past y before leaving the polytope,
* vertex: the worst case over supports S of x of writing y - x as a
  scaled difference gamma * (v - u) with v in C and u in conv(S),
* face: the same with u restricted to the minimal face of x.

They always satisfy face <= vertex <= radial <= 1 and vanish only at y = x.
What they compute from the polytope alone (its vertex supports and gauge
facets) is kept in tables on the polytope, filled on first use, and one
batched solve over the support table decides every candidate support.

The facial distances of a face F are the inner one (min over subfaces G of
the distance from G to the hull of the remaining vertices) and the outer one
(min over disjoint face pairs).  Each is a min over subfaces G of a
separation that depends on G alone, so a FaceLattice memoises those per G:
one lattice passed to a sweep over faces computes each subface's separation
once.  The outer separation of G solves only against the maximal faces
disjoint from G, as no face is nearer to G than one containing it: the same
min in exact arithmetic, at most an ulp or so apart in floating point.  Both
distances admit computable lower bounds from the per-row slack profile
sigma, which the lattice memoises per G the same way; those bounds and the
resulting error-bound certificates live here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from ._hulls import _differences, _rank, hull_distance, hull_hform
from .polytope import (
    EPS_BIND,
    EPS_DIRECTION,
    FACE_LATTICE_MAX,
    Face,
    PolytopeError,
    StdFormPolytope,
    _as_point,
    _null_basis,
    _point_in,
)

VERTEX_DIST_VMAX = 16
SUPPORT_MARGIN = 1e-10


# -- point distances ----------------------------------------------------------


def _check_pair(poly, y, x):
    x = _point_in(poly, x, "distance")
    return _point_in(poly, y, "distance"), x


def radial_distance(poly, y, x):
    """Reciprocal of the ray-shoot factor from x through y.

    Equals 1 whenever y is a vertex distinct from x, and 0 only at y = x.
    """
    y, x = _check_pair(poly, y, x)
    w = y - x
    if np.linalg.norm(w) < EPS_DIRECTION:
        return 0.0
    t = poly.max_step(x, w)
    if not np.isfinite(t):
        raise PolytopeError("radial_distance: unbounded ray (invalid polytope)")
    return min(1.0, 1.0 / max(t, 1.0))


def _difference_hform(poly, idx):
    """Facet description of K = C - conv(V[idx]), for a sorted vertex-index tuple.

    K is the hull of the pairwise differences of vertices.  The polytope's
    gauge table keeps it per idx for as long as the polytope lives.  A miss
    calls hull_hform through this module, so a wrapper installed on
    ``geometry.hull_hform`` sees every build.
    """
    hf = poly._gauges.get(idx)
    if hf is None:
        V = poly.enumerate_vertices()
        hf = poly._gauges[idx] = hull_hform(_differences(V, V[list(idx)]))
    return hf


def _gauge(hf, w):
    """Gauge of w with respect to K, the set hf describes.

    K contains the origin, so gauge(w) = 1 / max{t : t*w in K}, computed by
    one exact ratio test against the facet description of K.
    """
    rate = hf.D @ w
    slack = -hf.e  # slack of the origin
    shrink = rate < -1e-12 * np.linalg.norm(w)
    if not shrink.any():
        return 0.0
    t = float((np.maximum(slack[shrink], 0.0) / (-rate[shrink])).min())
    # callers guarantee w = y - x with y in C, so t >= 1 up to roundoff
    return min(1.0, 1.0 / max(t, 1.0))


def face_distance(poly, y, x):
    """Gauge of y - x with respect to C minus the minimal face of x."""
    y, x = _check_pair(poly, y, x)
    if np.linalg.norm(y - x) < EPS_DIRECTION:
        return 0.0
    idx = tuple(poly.face_vertex_index(poly.minimal_face(x).binding))
    return _gauge(_difference_hform(poly, idx), y - x)


def _support_table(poly):
    """The vertices, the support table and its batched form, built on first use.

    The table lists the affinely independent vertex subsets S of size at
    most dim+1, in itertools.combinations order, each with its bordered
    matrix [V_S^T; 1].  The batched form stacks those matrices and their
    pseudo-inverses, both zero-padded to dim+1, with a mask of the unpadded
    weights.
    """
    V = poly.enumerate_vertices(cap=VERTEX_DIST_VMAX)
    if poly._supports is None:
        table = []
        for size in range(1, poly.dim() + 2):
            for S in itertools.combinations(range(len(V)), size):
                M = np.vstack([V[list(S)].T, np.ones(size)])
                if _rank(M) == size:
                    table.append((S, M))
        Ms = np.zeros((len(table), poly.n + 1, poly.dim() + 1))
        pinv = np.zeros(Ms.transpose(0, 2, 1).shape)
        mask = np.zeros(pinv.shape[:2], dtype=bool)
        for i, (S, M) in enumerate(table):
            U, s, Wt = np.linalg.svd(M, full_matrices=False)
            Ms[i, :, :len(S)], pinv[i, :len(S)], mask[i, :len(S)] = M, (Wt.T / s) @ U.T, True
        poly._supports = table, (Ms, pinv, mask)
    return V, *poly._supports


def minimal_supports(poly, x):
    """Inclusion-minimal vertex supports that represent x with positive weights.

    Minimal supports are affinely independent, so they have at most dim+1
    vertices and their barycentric coordinates are unique: each candidate
    subset's least-squares weights and residual decide membership.  The
    candidates come from the support table, built on the first call and
    kept on the polytope for as long as it lives; one batched product with
    its pseudo-inverses solves them all.
    """
    V, table, (Ms, pinv, mask) = _support_table(poly)
    tol = 1e-9 * max(1.0, float(np.abs(V).max()))
    rhs = np.append(_as_point(x, poly.n), 1.0)
    lam = pinv @ rhs  # padding adds zero weights, masked out of the minimum
    res = np.linalg.norm((Ms @ lam[:, :, None])[:, :, 0] - rhs, axis=1)
    ok = (res <= tol) & (np.where(mask, lam, np.inf).min(axis=1) >= SUPPORT_MARGIN)
    found = []
    for i in np.flatnonzero(ok):
        S = table[i][0]
        if not any(set(m) <= set(S) for m in found):
            found.append(S)
    if not found:
        raise PolytopeError("minimal_supports: the point has no vertex support")
    return found


def vertex_distance(poly, y, x):
    """Worst-case scaled-difference distance over the supports of x.

    The maximum over all supports equals the maximum over inclusion-minimal
    ones, because enlarging the support can only shrink the inner gauge.
    Each support's gauge facets are built once per polytope and kept on it.
    """
    y, x = _check_pair(poly, y, x)
    w = y - x
    if np.linalg.norm(w) < EPS_DIRECTION:
        return 0.0
    best = 0.0
    for S in minimal_supports(poly, x):
        best = max(best, _gauge(_difference_hform(poly, S), w))
    return best


def distance_for(kind):
    """The set distance of a kind: "radial", "vertex" or "face".

    The map is built from the module globals at each call, so a wrapper
    installed on a module attribute (as the benchmark tracer does) sees
    every call made through it.
    """
    fns = {"radial": radial_distance, "vertex": vertex_distance, "face": face_distance}
    if kind not in fns:
        raise ValueError(f"unknown distance kind {kind!r}")
    return fns[kind]


# -- face lattice --------------------------------------------------------------


@dataclass(frozen=True)
class LatticeFace:
    """A nonempty face, as the set of polytope-vertex indices it contains."""

    vset: frozenset
    dim: int


class FaceLattice(list):
    """The nonempty faces of a polytope, smallest first, as LatticeFaces.

    A list, so indexing, iteration and len work as usual.  It records the
    vertex array and the inequality rows (D, e) of the polytope it was built
    from, and memoises per subface G, keyed by vertex set, what the facial
    distances and their bound minimise: ``inner[G]`` = dist(G, hull of the
    other vertices), ``outer[G]`` = min over faces H sharing no vertex with
    G of dist(G, H), solved for maximal such H only, and ``lower[G]`` =
    the slack-profile bound on ``inner[G]``, which also depends on the
    rows.  Each is filled on first use and lives as long as the lattice.
    """

    def __init__(self, faces, poly):
        super().__init__(faces)
        self.vertices = poly.enumerate_vertices()
        self.rows = (poly.D, poly.e)
        self.inner = {}
        self.outer = {}
        self.lower = {}


def _lattice_of(poly, lattice):
    """The lattice given for poly, built when None and checked otherwise.

    A plain list of faces gets a fresh memo.  A FaceLattice built from other
    vertices would index the wrong points, and one built from other rows
    would hand back their slack bounds, so either raises.
    """
    if lattice is None:
        return face_lattice(poly)
    if not isinstance(lattice, FaceLattice):
        return FaceLattice(lattice, poly)
    D, e = lattice.rows
    if not (np.array_equal(lattice.vertices, poly.enumerate_vertices())
            and np.array_equal(D, poly.D) and np.array_equal(e, poly.e)):
        raise PolytopeError("face lattice was built from another polytope")
    return lattice


def face_lattice(poly):
    """All nonempty faces of the polytope, from facet-vertex incidence.

    Every face is an intersection of facets, so closing the full vertex set
    under single-facet intersections enumerates the lattice.
    """
    V = poly.enumerate_vertices()
    if not poly.D.size:
        raise PolytopeError("face_lattice needs an inequality description")
    incidence = [frozenset(np.flatnonzero(rows).tolist()) for rows in poly.vertex_slacks()[1].T]
    full = frozenset(range(len(V)))
    seen = {full}
    queue = [full]
    while queue:
        fset = queue.pop()
        for inc in incidence:
            child = fset & inc
            if child and child not in seen:
                if len(seen) >= FACE_LATTICE_MAX:
                    raise PolytopeError(f"face lattice exceeds {FACE_LATTICE_MAX} faces")
                seen.add(child)
                queue.append(child)
    ordered = sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))
    return FaceLattice([LatticeFace(s, _rank(V[sorted(s)] - V[min(s)])) for s in ordered],
                       poly)


def face_vertex_set(poly, face):
    """Normalize a face argument to a frozenset of vertex indices.

    Accepts a Face (binding rows), an iterable of vertex indices, or a
    LatticeFace.  Vertex indices must name a face: a non-empty set of
    in-range indices that equals the vertex set its common binding rows cut
    out, so a diagonal of a square is refused.
    """
    if isinstance(face, LatticeFace):
        return face.vset
    if isinstance(face, Face):
        return frozenset(poly.face_vertex_index(face.binding))
    vset = frozenset(int(i) for i in face)
    if not (vset and 0 <= min(vset) and max(vset) < len(poly.enumerate_vertices())
            and vset == frozenset(poly.face_vertex_index(poly.face_rows(vset)))):
        raise PolytopeError(f"vertices {sorted(vset)} do not form a face of {poly.name}")
    return vset


def minimal_face_of_set(poly, points):
    """Smallest face of the polytope containing all the given points."""
    points = [_point_in(poly, p, "minimal_face_of_set") for p in np.atleast_2d(points)]
    rows = np.all([poly.binding_rows(p) for p in points], axis=0)
    binding = frozenset(np.flatnonzero(rows).tolist())
    return Face(binding, poly.face_dim(binding))


# -- facial distances ----------------------------------------------------------


def _subface_min(poly, face, lattice, memo, separation, what):
    """Min over the proper subfaces G of F of separation(poly, lattice, G).

    Each G's separation depends on G alone, so it is memoised in the
    lattice table named by ``memo`` ("inner", "outer" or "lower") and
    computed only on a miss.  The whole polytope is no candidate: no vertex
    lies outside it and no face is disjoint from it.  With no admissible G
    this raises ``what``.
    """
    lattice = _lattice_of(poly, lattice)
    table = getattr(lattice, memo)
    fset = face_vertex_set(poly, face)
    full = frozenset(range(len(lattice.vertices)))
    best = np.inf
    for G in lattice:
        if G.vset <= fset and G.vset != full:
            sep = table.get(G.vset)
            if sep is None:
                sep = table[G.vset] = separation(poly, lattice, G.vset)
            best = min(best, sep)
    if not np.isfinite(best):
        raise PolytopeError(what)
    return float(best)


def _hull_separation(poly, lattice, G):
    V = lattice.vertices
    return hull_distance(V[sorted(G)], V[sorted(frozenset(range(len(V))) - G)])


def _disjoint_separation(poly, lattice, G):
    """Min of dist(G, H) over the maximal faces H disjoint from G.

    H inside H' gives dist(G, H') <= dist(G, H).  The lattice runs smallest
    first, so walking it from the end meets every container of H before H.
    """
    V = lattice.vertices
    maximal = []
    for H in reversed(lattice):
        if not (G & H.vset or any(H.vset <= K for K in maximal)):
            maximal.append(H.vset)
    VG = V[sorted(G)]
    return min((hull_distance(VG, V[sorted(H)]) for H in maximal), default=np.inf)


def inner_facial_distance(poly, face, lattice=None):
    """Min over subfaces G of dist(G, hull of the vertices outside G).

    For F = C this is the pyramidal width of the vertex set; for proper F
    every subface of F competes.
    """
    return _subface_min(poly, face, lattice, "inner", _hull_separation,
                        "inner_facial_distance: no admissible subface")


def outer_facial_distance(poly, face, lattice=None):
    """Min distance between a face of F and a disjoint face of C.

    Faces are disjoint exactly when they share no vertex, so the pair scan
    runs on vertex sets.
    """
    return _subface_min(poly, face, lattice, "outer", _disjoint_separation,
                        "outer_facial_distance: no disjoint face pair")


# -- slack profile and lower bounds ---------------------------------------------


def sigma_profile(poly):
    """Per-row minimal strictly positive slack over the vertices."""
    slack, binding = poly.vertex_slacks()
    if not poly.D.size:
        raise PolytopeError("sigma_profile needs inequality rows")
    every = np.flatnonzero(binding.all(axis=0))
    if every.size:
        raise PolytopeError(f"sigma_profile: row {every[0]} binds every vertex")
    return np.where(binding, np.inf, slack).min(axis=0)


def independent_binding_sets(poly, binding):
    """Maximal linearly independent subsets of the binding rows."""
    idx = sorted(binding)
    if not idx:
        raise PolytopeError("independent_binding_sets: empty binding set")
    Dsub = poly.D[idx]
    r = _rank(Dsub)
    if comb(len(idx), r) > 20000:
        raise PolytopeError("independent_binding_sets: too many subsets")
    out = []
    for S in itertools.combinations(idx, r):
        if _rank(poly.D[list(S)]) == r:
            out.append(tuple(S))
    return out


def facial_lower_bound(poly, face, other=None):
    """Slack-profile lower bound on facial distances.

    With ``other`` omitted: a lower bound on the distance from the face to
    the hull of the vertices outside it.  With ``other`` given: a lower
    bound on the distance between the two (disjoint) faces.
    """
    sigma = sigma_profile(poly)
    fset = face_vertex_set(poly, face)
    I_F = poly.face_rows(fset)
    if other is None:
        return _one_sided_bound(poly, I_F, frozenset(), sigma)
    gset = face_vertex_set(poly, other)
    if fset & gset:
        raise PolytopeError("facial_lower_bound: faces must be disjoint")
    I_G = poly.face_rows(gset)
    return max(
        _one_sided_bound(poly, I_F, I_G, sigma),
        _one_sided_bound(poly, I_G, I_F, sigma),
    )


def _one_sided_bound(poly, binding, exclude, sigma):
    best = 0.0
    for I in independent_binding_sets(poly, binding):
        rows = [i for i in I if i not in exclude]
        if not rows:
            continue
        combo = (poly.D[rows] / sigma[rows, None]).sum(axis=0)
        denom = float(np.linalg.norm(combo))
        if denom > 0:
            best = max(best, 1.0 / denom)
    return best


def phi_lower_bound(poly, face, lattice=None):
    """Corollary-level lower bound on the inner facial distance.

    The inner facial distance minimizes over subfaces of F, so its bound
    does too: min over proper subfaces G of F of the slack-profile bound on
    dist(G, hull of the other vertices).  facial_lower_bound alone bounds
    only the distance for F itself, which can exceed the inner distance.
    Each subface's bound is memoised in the lattice's ``lower``.
    """
    return _subface_min(poly, face, lattice, "lower", _slack_bound,
                        "phi_lower_bound: no admissible subface")


def _slack_bound(poly, lattice, G):
    return _one_sided_bound(poly, poly.face_rows(G), frozenset(), sigma_profile(poly))


def phibar_lower_bound_std(poly, face):
    """Standard-form lower bound on the outer facial distance.

    The outer distance minimizes over pairs (G, H) with G a subface of F
    and H a face disjoint from G, so only terms uniform over those pairs
    are admissible.  Two survive the pairwise bound:

    - vertex term: the rows a subface G binds are a subset of the rows
      I_v of each of its vertices, and removing rows never grows the norm,
      so the worst single-vertex value min_{v in F} 1/||sigma^-1 on I_v||
      undercuts every G-side bound;
    - complement term: H's binding rows outside I_G always include rows
      outside I_F (if they did not, G would satisfy all of H's bindings
      and sit inside H, contradicting disjointness), giving the uniform
      value 1/||sigma^-1 on the complement of I_F||.

    For a vertex face both reduce to the familiar pair of closed forms.
    Taking 1/||sigma^-1 on I_F|| directly is NOT sound here for faces of
    dimension >= 1: on the five-vertex simplex facet {e0..e3} the split
    G={e0,e1,e2}, H={e3,e4} realizes distance sqrt(5/6) < 1.
    """
    if not isinstance(poly, StdFormPolytope):
        raise PolytopeError("phibar_lower_bound_std needs a standard-form polytope")
    sigma = sigma_profile(poly)
    fset = face_vertex_set(poly, face)
    vals = []
    vert_vals = []
    for j in sorted(fset):
        I_v = poly.face_rows([j])
        if not I_v:
            continue
        vert_vals.append(_one_sided_bound(poly, I_v, frozenset(), sigma))
    if vert_vals:
        vals.append(min(vert_vals))
    comp = frozenset(range(poly.n)) - poly.face_rows(fset)
    if comp:
        vals.append(_one_sided_bound(poly, comp, frozenset(), sigma))
    if not vals:
        raise PolytopeError("phibar_lower_bound_std: degenerate face")
    return max(vals)


# -- error-bound certificates -----------------------------------------------------


def relative_boundary_distance(poly, x):
    """Distance from x to the relative boundary, via per-facet slacks.

    Each inequality row is projected onto the tangent space of the affine
    hull; the minimum normalized slack is the exact distance for points in
    the relative interior.  Without inequality rows only a single point has
    no boundary; any larger polytope raises, as its boundary is not kept.
    """
    x = _point_in(poly, x, "relative_boundary_distance")
    if not poly.D.size:
        if poly.dim():
            raise PolytopeError(
                f"relative_boundary_distance: {poly.name} keeps no facet rows")
        return np.inf
    Tan, _ = _null_basis(poly.A, poly.n)  # orthonormal tangent basis of the affine hull
    slack = poly.D @ x - poly.e
    best = np.inf
    for i in range(poly.D.shape[0]):
        norm_t = np.linalg.norm(poly.D[i] @ Tan)
        if norm_t > 1e-12:
            best = min(best, max(slack[i], 0.0) / norm_t)
    return float(best)


@dataclass
class ErrorBoundCert:
    """A Holder error bound (mu, theta) measured in one of the set distances."""

    mu: float
    theta: float
    kind: str
    detail: str = ""

    @property
    def valid(self):
        return self.mu > 0.0


def derive_error_bound(poly, mu, theta, xstar_points, kind):
    """Convert a norm error bound into a set-distance error bound.

    kind: "radial" (needs the optimum in the relative interior), "vertex"
    (scales by the inner facial distance of the optimal face), "face"
    (outer facial distance), or "simplex" (closed form for standard-form
    polytopes with 0/1 vertices).
    """
    pts = np.atleast_2d(np.asarray(xstar_points, dtype=float))
    if kind == "radial":
        d = min(relative_boundary_distance(poly, p) for p in pts)
        if d <= EPS_BIND:
            return ErrorBoundCert(0.0, theta, kind,
                                  "optimum touches the relative boundary")
        return ErrorBoundCert(mu * d ** (1.0 / theta), theta, kind,
                              f"boundary distance {d}")
    if kind in ("vertex", "face"):
        face = minimal_face_of_set(poly, pts)
        if kind == "vertex":
            phi = inner_facial_distance(poly, face)
        else:
            phi = outer_facial_distance(poly, face)
        return ErrorBoundCert(mu * phi ** (1.0 / theta), theta, kind,
                              f"facial distance {phi}")
    if kind == "simplex":
        if not (isinstance(poly, StdFormPolytope) and poly.is_simplex_like()):
            raise PolytopeError("simplex certificates need a 0/1 standard-form polytope")
        pts = [_point_in(poly, p, "simplex certificate") for p in pts]
        card = int(max(np.count_nonzero(~poly.binding_rows(p)) for p in pts))
        if card == 0 or card >= poly.n:
            raise PolytopeError("simplex certificate: degenerate support size")
        expo = 1.0 / (2.0 * theta)
        val = max(mu / card**expo, mu / (poly.n - card) ** expo)
        return ErrorBoundCert(val, theta, kind, f"support size {card}")
    raise ValueError(f"unknown certificate kind {kind!r}")


def fit_holder_exponent(gaps, dists):
    """Least-squares fit of log(dist) = theta*log(gap) - theta*log(mu).

    Returns (mu_fit, theta_fit).  Needs at least 5 usable points and
    nonconstant gaps.
    """
    gaps = np.asarray(gaps, dtype=float)
    dists = np.asarray(dists, dtype=float)
    ok = (gaps > 0) & (dists > 0)
    if ok.sum() < 5:
        raise ValueError("fit_holder_exponent: need at least 5 usable points")
    lg, ld = np.log(gaps[ok]), np.log(dists[ok])
    if lg.max() - lg.min() < 1e-9:
        raise ValueError("fit_holder_exponent: gaps are constant")
    theta, intercept = np.polyfit(lg, ld, 1)
    if theta <= 0:
        raise ValueError("fit_holder_exponent: nonpositive fitted exponent")
    mu = float(np.exp(-intercept / theta))
    return mu, float(theta)


def estimate_theta(trace, poly, xstar_points, kind="radial"):
    """Fit (mu, theta) from a recorded run with known optimal points.

    The trace must have been recorded with points and a known optimal value;
    distances from the optimum to each row of ``trace.points`` are measured
    with the requested set distance.
    """
    pts = np.atleast_2d(np.asarray(xstar_points, dtype=float))
    dist_fn = distance_for(kind)
    if trace.points is None or trace.fstar is None or len(trace.points) < 5:
        raise ValueError("estimate_theta: trace needs points and at least 5 records")
    return fit_holder_exponent(trace.f_gap, [min(dist_fn(poly, p, x) for p in pts)
                                             for x in trace.points])
