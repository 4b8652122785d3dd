import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from platenull.control import f_weight, f_weight_prime, g_vector, mu_zero


class TestFWeight:
    def test_vanishes_at_endpoints(self):
        for T in (0.5, 2.0, 64.0):
            assert f_weight(0.0, T) == 0.0
            assert f_weight(T, T) == 0.0

    @pytest.mark.parametrize("T", [2.0**-9, 0.3, 1.0, 2.0, 64.0])
    def test_unit_integral(self, T):
        integral = quad(f_weight, 0.0, T, args=(T,), epsabs=1e-14, epsrel=1e-13)[0]
        assert abs(integral - 1.0) <= 1e-12

    def test_midpoint_value(self):
        assert f_weight(1.0, 2.0) == pytest.approx(0.75, rel=1e-15)

    def test_symmetric_about_midpoint_exact(self):
        # dyadic points where T - t is exactly representable
        T = 2.0
        for t in (0.0, 0.25, 0.5, 1.0, 1.75):
            assert f_weight(t, T) == f_weight(T - t, T)

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_symmetric_about_midpoint(self, T, frac):
        # up to the rounding of T - t itself
        t = frac * T
        assert f_weight(t, T) == pytest.approx(f_weight(T - t, T), rel=1e-9,
                                               abs=1e-15)

    def test_rejects_outside_window(self):
        with pytest.raises(ValueError):
            f_weight(-0.1, 2.0)
        with pytest.raises(ValueError):
            f_weight(2.1, 2.0)


class TestFWeightPrime:
    def test_zero_at_midpoint(self):
        assert f_weight_prime(1.0, 2.0) == 0.0

    def test_endpoint_slopes(self):
        T = 3.0
        assert f_weight_prime(0.0, T) == pytest.approx(6.0 / T**2, rel=1e-15)
        assert f_weight_prime(T, T) == pytest.approx(-6.0 / T**2, rel=1e-15)

    def test_central_difference(self):
        # derivative against a second-order difference oracle
        rng = np.random.default_rng(3)
        T, eps = 2.0, 1e-6
        for t in rng.uniform(eps, T - eps, size=20):
            fd = (f_weight(t + eps, T) - f_weight(t - eps, T)) / (2 * eps)
            assert abs(fd - f_weight_prime(t, T)) <= 1e-8


class TestMuZero:
    def test_zero_state(self):
        z = np.zeros(6)
        np.testing.assert_array_equal(mu_zero(z, z, 2.5, 0.7, 2.0), z)

    def test_vanishes_at_endpoints_regardless_of_state(self):
        rng = np.random.default_rng(5)
        vh, wh = rng.standard_normal(6), rng.standard_normal(6)
        np.testing.assert_array_equal(mu_zero(vh, wh, 2.5, 0.0, 2.0), np.zeros(6))
        np.testing.assert_array_equal(mu_zero(vh, wh, 2.5, 2.0, 2.0), np.zeros(6))

    def test_unit_vector_value(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        got = mu_zero(e1, e1, 2.5, 1.0, 2.0)
        np.testing.assert_allclose(got, -2.625 * e1, rtol=1e-14)

    @given(st.floats(min_value=-10, max_value=10))
    def test_linear_in_state(self, scale):
        vh = np.array([1.0, -2.0])
        wh = np.array([0.5, 3.0])
        got = mu_zero(scale * vh, scale * wh, 2.5, 0.5, 2.0)
        np.testing.assert_allclose(got, scale * mu_zero(vh, wh, 2.5, 0.5, 2.0),
                                   atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mu_zero(np.zeros(3), np.zeros(4), 2.5, 0.5, 2.0)


class TestGVector:
    def test_constant_trajectory(self):
        c = np.array([2.0, -1.0])
        got = g_vector(c, c, 0.1, 0.5, 2.0)
        np.testing.assert_allclose(got, c * f_weight_prime(0.5, 2.0), rtol=1e-14)

    def test_zero(self):
        z = np.zeros(3)
        np.testing.assert_array_equal(g_vector(z, z, 0.1, 0.5, 2.0), z)

    def test_first_order_in_dt(self):
        # single decaying mode: the discrete G approaches v' f + v f' at order 1
        T, t = 2.0, 0.6
        phi = np.array([1.0, 0.5, -0.25])

        def vh(s):
            return math.exp(-4.0 * s) * phi

        exact = (-4.0 * math.exp(-4.0 * t) * f_weight(t, T)
                 + math.exp(-4.0 * t) * f_weight_prime(t, T)) * phi
        errs = []
        for dt in (0.1, 0.05, 0.025):
            got = g_vector(vh(t + dt), vh(t), dt, t, T)
            errs.append(np.linalg.norm(got - exact))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            g_vector(np.zeros(3), np.zeros(4), 0.1, 0.5, 2.0)
        with pytest.raises(ValueError):
            g_vector(np.zeros(3), np.zeros(3), 0.0, 0.5, 2.0)
