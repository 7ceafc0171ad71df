"""Affine invariance of the active-set variants.

P = conv{0, e1, e2, e3, (1, 1, 0.3)} with f = 1/2 x'diag(1, 2, 3)x + c'x,
whose minimiser (0.5, 0.4, 0.05) is interior, and its images z = Ax + b
with A = s U diag(1, sqrt(kappa), kappa) W and the objective carried over,
so that h(Ax + b) = f(x).  An affine map keeps the FW gap and every <g, v>
difference, so a run on an image should take P's steps.

The comparison stops at t = 60.  Past it BPFW-ls still leaves P, at t = 70:
at t = 69 P's two largest <g, v> on the support, 0 and 6.9e-17, are not
within ``tie_argmin``'s tolerance, TIE_TOL times the largest |<g, v>|
(3.9e-17), so the away vertex is the second; on the image they are tied
and the first wins.  A tie test on the scale of the terms of <g, v>, not of
the largest value, would close that; it is a separate fix.
"""

import numpy as np
import pytest

from fwpoly.objectives import Quadratic
from fwpoly.polytope import VRepPolytope
from fwpoly.solvers import solve

V = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0.3]], dtype=float)
Q = np.diag([1.0, 2.0, 3.0])
C = -Q @ np.array([0.5, 0.4, 0.05])
T_COMPARED = 60


def _image(kappa, s):
    """P's image under z = Ax + b and the quadratic h with h(Ax + b) = f(x)."""
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    W = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    A = s * U @ np.diag([1.0, np.sqrt(kappa), kappa]) @ W
    b = s * rng.normal(size=3)
    M = np.linalg.inv(A)
    Qz = M.T @ Q @ M
    Qz = 0.5 * (Qz + Qz.T)
    cz = M.T @ C - Qz @ b
    return VRepPolytope(V @ A.T + b), Quadratic(Qz, cz, 0.5 * b @ Qz @ b - (M.T @ C) @ b)


def _run(poly, obj, variant):
    return solve(poly, obj, variant, step="ls", gap_tol=1e-12, max_iters=300,
                 x0=poly.enumerate_vertices()[0])


@pytest.mark.parametrize("kappa, s", [(1.0, 1.0), (1.0, 1e-6), (1e3, 1.0)])
@pytest.mark.parametrize("variant", ["AFW", "BPFW"])
def test_images_take_the_same_steps(variant, kappa, s):
    ref = _run(VRepPolytope(V), Quadratic(Q, C), variant)
    tr = _run(*_image(kappa, s), variant)
    assert len(ref.records) > T_COMPARED and len(tr.records) > T_COMPARED
    T = T_COMPARED
    assert tr.case[:T].tolist() == ref.case[:T].tolist()
    assert tr.step_kind[:T] == ref.step_kind[:T]
    assert tr.support_or_face_dim[:T].tolist() == ref.support_or_face_dim[:T].tolist()
    rel = np.abs(tr.fw_gap[:T] - ref.fw_gap[:T]) / ref.fw_gap[:T]
    assert rel.max() <= 1e-9
