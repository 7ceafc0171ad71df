"""Objective values, curvature constants, exact minimizers, certificates."""

import numpy as np
import pytest

from fwpoly.objectives import (
    PowerDistance,
    Quadratic,
    audit_curvature,
    audit_error_bound,
    curvature_constant,
    distance_squared,
    holder_certificate,
    minimize,
)
from fwpoly.polytope import Box, Simplex

S3 = Simplex(3)


class TestBasics:
    def test_distance_squared_value(self):
        c = np.array([0.2, 0.3, 0.5])
        obj = distance_squared(c)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = S3.sample_point(rng)
            assert obj.value(x) == pytest.approx(np.sum((x - c) ** 2), abs=1e-12)
            assert np.allclose(obj.grad(x), 2 * (x - c), atol=1e-12)

    def test_quadratic_gradient_consistency(self):
        Q = np.array([[2.0, 0.5], [0.5, 3.0]])
        obj = Quadratic(Q, np.array([-1.0, 0.5]))
        x = np.array([0.3, 0.7])
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
            assert obj.grad(x)[i] == pytest.approx(fd, abs=1e-5)

    def test_power_distance_value(self):
        c = np.array([0.5, 0.5])
        obj = PowerDistance(c, 4)
        x = np.array([0.9, 0.1])
        assert obj.value(x) == pytest.approx(np.linalg.norm(x - c) ** 4, rel=1e-12)

    # each built before, and [[nan]] was called "not symmetric"
    @pytest.mark.parametrize("build, message", [
        (lambda: Quadratic(np.eye(1), [np.inf]), "Quadratic: c has a nonfinite entry"),
        (lambda: Quadratic([[np.nan]], [0.0]), "Quadratic: Q has a nonfinite entry"),
        (lambda: PowerDistance([np.nan, 0.0], 2), "PowerDistance: center has a nonfinite entry"),
    ], ids=["quadratic c", "quadratic Q", "power distance centre"])
    def test_nonfinite_data_rejected_by_name(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestCurvature:
    def test_identity_quadratic_on_simplex(self):
        # smoothness 1, squared diameter 2
        obj = Quadratic(np.eye(3), np.zeros(3))
        assert curvature_constant(obj, S3) == pytest.approx(2.0, abs=1e-12)

    def test_distance_squared_on_simplex(self):
        obj = distance_squared(np.array([1.0, 1.0, 1.0]) / 3)
        assert curvature_constant(obj, S3) == pytest.approx(4.0, abs=1e-12)

    def test_audit_passes(self):
        obj = Quadratic(np.diag([2.0, 3.0, 6.0]), np.array([-2.2, -2.2, -0.5]))
        worst, bound, ok = audit_curvature(obj, S3)
        assert ok
        assert worst <= bound * (1 + 1e-9)

    def test_audit_halved_constant_fails(self):
        # understating L by half must be caught: full-diameter chords of an
        # isotropic quadratic meet the constant with equality
        obj = distance_squared(np.array([1.0, 1.0, 1.0]) / 3)
        worst, bound, _ = audit_curvature(obj, S3)
        assert worst > 0.5 * bound * (1 + 1e-9)

    def test_power4_audit(self):
        obj = PowerDistance(np.array([0.3, 0.3, 0.4]), 4)
        _, _, ok = audit_curvature(obj, S3)
        assert ok


class TestMinimize:
    def test_edge_optimum_quadratic(self):
        obj = Quadratic(np.diag([2.0, 3.0, 6.0]), np.array([-2.2, -2.2, -0.5]))
        res = minimize(obj, S3)
        assert res.fstar == pytest.approx(-1.6, abs=1e-12)
        assert len(res.points) == 1
        assert np.allclose(res.points[0], [0.6, 0.4, 0.0], atol=1e-10)

    def test_interior_optimum(self):
        c = np.array([0.2, 0.3, 0.5])
        res = minimize(distance_squared(c), S3)
        assert res.fstar == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(res.points[0], c, atol=1e-10)

    def test_power_distance_feasible_center(self):
        c = np.array([0.25, 0.25, 0.5])
        res = minimize(PowerDistance(c, 4), S3)
        assert res.fstar == pytest.approx(0.0, abs=1e-12)

    def test_box_corner_optimum(self):
        box = Box(np.zeros(2), np.ones(2))
        obj = Quadratic(np.eye(2), np.array([-5.0, -5.0]))
        res = minimize(obj, box)
        assert np.allclose(res.points[0], [1.0, 1.0], atol=1e-10)


class TestCertificates:
    def test_analytic_quadratic(self):
        cert = holder_certificate(distance_squared(np.array([0.2, 0.3, 0.5])), S3)
        assert cert.theta == 0.5
        assert cert.mu == pytest.approx(1.0, abs=1e-12)
        assert cert.source == "analytic"

    def test_power4_sampled(self):
        obj = PowerDistance(np.array([0.58, 0.42]), 4)
        cert = holder_certificate(obj, Simplex(2))
        assert cert.theta == 0.25
        assert 0.0 < cert.mu
        assert cert.source == "sampled"

    def test_error_bound_audit_ok(self):
        obj = distance_squared(np.array([0.2, 0.3, 0.5]))
        cert = holder_certificate(obj, S3)
        worst, ok = audit_error_bound(obj, S3, cert)
        assert ok

    def test_error_bound_audit_catches_inflation(self):
        # the analytic modulus of a squared distance is tight, so scaling it
        # up by 10x must produce violated samples
        import dataclasses

        obj = distance_squared(np.array([0.2, 0.3, 0.5]))
        cert = holder_certificate(obj, S3)
        bad = dataclasses.replace(cert, mu=10.0 * cert.mu)
        _, ok = audit_error_bound(obj, S3, bad)
        assert not ok

    def test_wolfe_certificate_values(self):
        obj = Quadratic(np.diag([2.0, 3.0, 6.0]), np.array([-2.2, -2.2, -0.5]))
        cert = holder_certificate(obj, S3)
        # lambda_min / 2 = 1
        assert cert.mu == pytest.approx(1.0, abs=1e-12)
        assert cert.fstar == pytest.approx(-1.6, abs=1e-12)
