"""Certified benchmark instances: a polytope, an objective, and constants.

Each factory returns an Instance bundling the exact optimal value and
optimal points, the norm error-bound certificate (mu, theta), the curvature
constant, and the derived set-distance error bounds that the convergence
theory consumes.  All of them are small enough for the exact facial-geometry
machinery.

Some instances pin a start point.  Two reasons: the short step on a squared
distance lands exactly on the optimum when the first chord passes through it
(a one-iteration run carries no rate information), and the active-set rate
guarantees assume a single-vertex initial support.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._hulls import hull_hform
from .geometry import derive_error_bound
from .objectives import (
    HolderCertificate,
    Objective,
    PowerDistance,
    Quadratic,
    curvature_constant,
    distance_squared,
    holder_certificate,
)
from .polytope import (
    Box,
    HFormPolytope,
    Polytope,
    Simplex,
    StdFormPolytope,
    VRepPolytope,
    simplex_like_cube,
)


@dataclass
class Instance:
    name: str
    poly: Polytope
    obj: Objective
    cert: HolderCertificate  # norm error bound (mu, theta) with fstar/points
    L: float  # curvature constant: smoothness times squared diameter
    derived: dict  # distance kind -> ErrorBoundCert
    x0: np.ndarray | None = None  # pinned start; None means default vertex

    @property
    def fstar(self):
        return self.cert.fstar

    @property
    def xstar_points(self):
        return self.cert.points


def _certify(name, poly, obj, kinds, x0=None):
    cert = holder_certificate(obj, poly)
    L = curvature_constant(obj, poly)
    derived = {
        kind: derive_error_bound(poly, cert.mu, cert.theta, cert.points, kind)
        for kind in kinds
    }
    return Instance(name, poly, obj, cert, L, derived, x0)


@lru_cache(maxsize=None)
def interior_quadratic():
    """Squared distance to an interior point of the probability simplex.

    The optimum sits in the relative interior, so the radial certificate is
    positive: the vanilla solver converges linearly here.
    """
    poly = Simplex(3)
    obj = distance_squared(np.array([0.2, 0.3, 0.5]))
    return _certify("interior_quadratic", poly, obj,
                    ("radial", "vertex", "face"))


@lru_cache(maxsize=None)
def fw_segment():
    """Squared distance to an interior point of a 1-simplex.

    On a segment every search direction is parallel to the single edge, so
    the vanilla-solver rate bound is nearly tight here; this is the instance
    whose envelope breaks decisively when the growth constant is inflated.
    Starts at (0.1, 0.9): from a vertex the first short step is exact.
    """
    poly = Simplex(2)
    obj = distance_squared(np.array([0.58, 0.42]))
    return _certify("fw_segment", poly, obj, ("radial",),
                    x0=np.array([0.1, 0.9]))


@lru_cache(maxsize=None)
def fw_power4():
    """Fourth-power distance to an interior point (exponent certificate 1/4).

    Quartic growth flattens the objective near the optimum; the fitted decay
    exponent of the vanilla solver doubles relative to the quadratic case.
    """
    poly = Simplex(2)
    obj = PowerDistance(np.array([0.58, 0.42]), 4)
    return _certify("fw_power4", poly, obj, ("radial",))


@lru_cache(maxsize=None)
def wolfe_edge():
    """Anisotropic quadratic whose optimum lies inside an edge of the simplex.

    The classic setting where the vanilla solver zigzags at rate 1/t while
    the active-set and in-face variants converge linearly.  The optimum is
    (0.6, 0.4, 0); the gradient there is (-1, -1, -0.5), minimized over the
    simplex exactly on that edge.  Starts at the third vertex so runs must
    first shed the off-edge coordinate; the linear offset is tuned so the
    first line-search step stays strictly inside the simplex (a saturating
    first step would land on the optimal edge and end the zigzag).
    """
    poly = Simplex(3)
    obj = Quadratic(np.diag([2.0, 3.0, 6.0]), np.array([-2.2, -2.2, -0.5]))
    return _certify("wolfe_edge", poly, obj, ("vertex", "face"),
                    x0=np.array([0.0, 0.0, 1.0]))


@lru_cache(maxsize=None)
def edge_mid_std():
    """Edge-midpoint quadratic on the standard-form simplex (m = 1).

    Optimum (0.5, 0.5, 0) in the relative interior of a facet of the
    feasible set; exercises the standard-form corollary path of the in-face
    solver.  Mildly anisotropic so the first in-face step is not exact.
    """
    poly = StdFormPolytope(np.ones((1, 3)), np.array([1.0]), name="simplex3std")
    obj = Quadratic(np.diag([2.0, 2.0, 3.0]), np.array([-2.0, -2.0, 1.0]))
    return _certify("edge_mid_std", poly, obj, ("vertex", "face", "simplex"))


@lru_cache(maxsize=None)
def fwipw_mid():
    """Squared distance to an edge midpoint on the standard-form simplex.

    The integer-step solver's certificate here is strong relative to the
    curvature, which is what makes its inflated-growth negative control
    fail by many orders of magnitude.
    """
    poly = StdFormPolytope(np.ones((1, 3)), np.array([1.0]), name="simplex3std")
    obj = distance_squared(np.array([0.5, 0.5, 0.0]))
    return _certify("fwipw_mid", poly, obj, ("face", "simplex"))


@lru_cache(maxsize=None)
def fwipw_simplex5():
    """Simplex-like instance for the integer-step solver.

    Squared distance to a point supported on three of five coordinates; the
    optimal face is proper, and the support-size certificate applies.
    """
    poly = StdFormPolytope(np.ones((1, 5)), np.array([1.0]), name="simplex5std")
    c = np.array([1.0 / 3, 1.0 / 3, 1.0 / 3, 0.0, 0.0])
    obj = distance_squared(c)
    return _certify("fwipw_simplex5", poly, obj, ("face", "simplex"))


def truncated_simplex(cap=0.6):
    """{x : sum x = 1, 0 <= x_i <= cap} in R^3; six vertices, no 0/1 structure."""
    n = 3
    D = np.vstack([np.eye(n), -np.eye(n)])
    e = np.concatenate([np.zeros(n), -cap * np.ones(n)])
    return HFormPolytope(np.ones((1, n)), np.array([1.0]), D, e,
                         name=f"truncated_simplex({cap:g})")


ALL_CERTIFIED = (interior_quadratic, fw_segment, fw_power4, wolfe_edge,
                 edge_mid_std, fwipw_mid, fwipw_simplex5)


# -- CLI registries ---------------------------------------------------------------


def named_polytope(name):
    builders = {
        "simplex2": lambda: Simplex(2),
        "simplex3": lambda: Simplex(3),
        "simplex4": lambda: Simplex(4),
        "box2": lambda: Box(np.zeros(2), np.ones(2)),
        "box_2x1": lambda: Box(np.zeros(2), np.array([2.0, 1.0])),
        "cube3": lambda: Box(np.zeros(3), np.ones(3)),
        "simplex3std": lambda: StdFormPolytope(np.ones((1, 3)), np.array([1.0]),
                                               name="simplex3std"),
        "simplex5std": lambda: fwipw_simplex5().poly,
        "truncsimplex": truncated_simplex,
        "cube2std": lambda: simplex_like_cube(2),
        "wolfe1": lambda: wolfe_edge().poly,
    }
    if name not in builders:
        raise KeyError(name)
    return builders[name]()


def named_objective(name):
    """Objectives reachable by name from the command line."""
    if name == "wolfe1":
        return wolfe_edge().obj
    if name == "interior1":
        return interior_quadratic().obj
    if name == "power4":
        return fw_power4().obj
    raise KeyError(name)


def random_vrep(rng, n_points=8, dim=2):
    """Random V-rep polytope for property tests: hull of Gaussian points."""
    pts = rng.standard_normal((n_points, dim))
    hf = hull_hform(pts)
    return VRepPolytope(pts[sorted(hf.vertex_index)])
