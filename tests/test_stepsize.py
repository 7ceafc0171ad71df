"""Line search, short step, and power-of-two step target."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fwpoly.objectives import distance_squared, quadratic
from fwpoly.stepsize import StepRule, golden_section, line_search, short_step, target_pow2


class TestGoldenSection:
    def test_parabola(self):
        eta = golden_section(lambda t: (t - 0.3) ** 2, 0.0, 1.0)
        assert eta == pytest.approx(0.3, abs=1e-8)

    def test_monotone_decreasing_hits_right_end(self):
        eta = golden_section(lambda t: -t, 0.0, 1.0)
        assert eta == pytest.approx(1.0, abs=1e-8)


class TestLineSearch:
    def test_closed_form_quadratic(self):
        obj = distance_squared(np.array([0.5, 0.5]))
        x = np.array([1.0, 0.0])
        d = np.array([-1.0, 1.0])
        # phi(eta) = |x + eta d - c|^2, minimized at eta = 0.5
        eta = line_search(obj, x, obj.grad(x), d, eta_max=1.0)
        assert eta == pytest.approx(0.5, abs=1e-12)

    def test_clips_at_eta_max(self):
        obj = distance_squared(np.array([2.0, 2.0]))
        x = np.zeros(2)
        d = np.array([1.0, 1.0])
        eta = line_search(obj, x, obj.grad(x), d, eta_max=0.25)
        assert eta == 0.25

    def test_zero_when_ascent(self):
        obj = distance_squared(np.zeros(2))
        x = np.array([0.5, 0.5])
        d = np.array([1.0, 1.0])
        assert line_search(obj, x, obj.grad(x), d, eta_max=1.0) == 0.0

    def test_nonquadratic_endpoint_snap(self):
        from fwpoly.objectives import power_distance

        obj = power_distance(np.array([2.0, 2.0]), 4)
        x = np.zeros(2)
        d = np.array([1.0, 1.0])
        # objective still decreasing at the cap; must return the cap exactly
        assert line_search(obj, x, obj.grad(x), d, eta_max=1.0) == 1.0


class TestShortStep:
    def test_interior_value(self):
        g = np.array([1.0, -1.0])
        d = np.array([-1.0, 1.0])
        # -<g,d>/L = 2/4
        assert short_step(g, d, L=4.0, eta_max=1.0) == pytest.approx(0.5)

    def test_clip(self):
        g = np.array([-10.0])
        d = np.array([1.0])
        assert short_step(g, d, L=1.0, eta_max=0.3) == 0.3

    def test_requires_positive_curvature(self):
        with pytest.raises(ValueError):
            short_step(np.array([1.0]), np.array([-1.0]), L=0.0, eta_max=1.0)


class _Curved:
    """A model objective whose curvature along any direction is ``curv``."""

    def __init__(self, curv):
        self.curv = curv

    def curvature_along(self, d):
        return self.curv


SLOPES = st.floats(-1e6, 1e6, allow_nan=False)
CURVS = st.one_of(st.floats(-10.0, 0.0), st.floats(1e-12, 1e6))
CAPS = st.floats(0.0, 4.0)


class TestStepsAreBuiltinFloats:
    """Steps are Python floats equal to the old np.clip expressions.

    The trace CSV writes ``repr(eta)``, and the repr of a numpy scalar is
    not the repr of a float, so the type matters as much as the value.
    """

    @given(SLOPES, CURVS, CAPS, st.booleans())
    @example(-3.0, 1.0, 0.25, True)  # target 3 above the cap
    @example(-3.0, -1.0, 0.5, True)  # concave along d: full cap
    @example(2.0, 0.0, 0.5, True)  # flat and ascending: no step
    @example(0.0, 1.0, 1.0, False)  # -0.0 target
    def test_line_search(self, slope, curv, cap, as_numpy):
        eta_max = np.float64(cap) if as_numpy else cap
        eta = line_search(_Curved(curv), np.zeros(1), np.array([slope]),
                          np.array([1.0]), eta_max)
        assert type(eta) is float
        if eta_max <= 0.0:
            old = 0.0
        elif curv <= 0.0:
            old = eta_max if slope < 0.0 else 0.0
        else:
            old = float(np.clip(-slope / curv, 0.0, eta_max))
        assert eta == old
        assert math.copysign(1.0, eta) == math.copysign(1.0, old)

    @given(st.lists(SLOPES, min_size=1, max_size=4), st.floats(1e-6, 1e6), CAPS,
           st.booleans())
    @example([-3.0], 1.0, 0.25, True)  # target 3 above the cap
    @example([2.0, -1.0], 1.0, 1.0, True)  # ascent: no step
    def test_short_step(self, gs, L, cap, as_numpy):
        eta_max = np.float64(cap) if as_numpy else cap
        g = np.array(gs)
        d = np.linspace(-1.0, 1.0, len(gs)) + 0.5
        eta = short_step(g, d, L, eta_max)
        assert type(eta) is float
        old = float(np.clip(-float(np.asarray(g) @ np.asarray(d)) / L, 0.0, eta_max))
        assert eta == old
        assert math.copysign(1.0, eta) == math.copysign(1.0, old)


class TestTargetPow2:
    def test_exact_powers(self):
        assert target_pow2(0.25, 1.0) == 0.25
        assert target_pow2(0.5, 0.25) == 0.25

    def test_rounds_down(self):
        assert target_pow2(0.3, 1.0) == 0.25
        assert target_pow2(0.9, 1.0) == 0.5

    def test_capped_by_previous(self):
        assert target_pow2(0.9, 0.125) == 0.125

    def test_unit_and_degenerate(self):
        assert target_pow2(1.5, 1.0) == 1.0
        assert target_pow2(0.0, 1.0) == 0.0
        assert target_pow2(-1.0, 1.0) == 0.0

    def test_result_is_power_of_two(self):
        rng = np.random.default_rng(3)
        prev = 1.0
        for _ in range(200):
            gamma = float(rng.uniform(0, 2))
            eta = target_pow2(gamma, prev)
            if eta > 0:
                m, _ = math.frexp(eta)
                assert m == 0.5
                assert eta <= min(gamma, prev) * (1 + 1e-15)
                prev = eta


class TestStepRule:
    def test_ss_needs_constant(self):
        with pytest.raises(ValueError):
            StepRule("ss")

    def test_pow2_step_not_direct(self):
        from fwpoly.directions import Direction

        rule = StepRule("pow2", L=2.0)
        d = Direction("FW", np.ones(2), 1.0, -1.0)
        with pytest.raises(ValueError):
            rule.step(quadratic(np.eye(2), np.zeros(2)), np.zeros(2), np.ones(2), d)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StepRule("fixed")
