import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from platenull.core import StatePair, euclidean_sq
from platenull.fdm import FdGrid, FdmStepper, build_dn, dn_eigenvalues
from platenull.fem import FemStepper, build_fem_space
from platenull.spectral import Mode, evaluate_modal_sum, exact_test_solution, modal_evolve

RHO = 2.5  # sqrt(rho^2 - 4) = 3/2, the benchmark damping


class TestModalEvolve:
    def test_initial_time(self):
        mode = Mode(m=1, n=2, alpha0=0.3, beta0=-0.7)
        alpha, beta = modal_evolve(mode, RHO, 0.0)
        assert alpha == pytest.approx(0.3, abs=1e-14)
        assert beta == pytest.approx(-0.7, abs=1e-14)

    def test_satisfies_modal_ode(self):
        # finite-difference derivative against the 2x2 generator
        mode = Mode(m=2, n=2, alpha0=0.2, beta0=1.1)
        lam = mode.lam
        M = np.array([[0.0, lam], [-lam, -RHO * lam]])
        eps = 1e-6
        for t in (0.05, 0.3, 1.0):
            y_plus = np.array(modal_evolve(mode, RHO, t + eps))
            y_minus = np.array(modal_evolve(mode, RHO, t - eps))
            deriv = (y_plus - y_minus) / (2 * eps)
            y = np.array(modal_evolve(mode, RHO, t))
            np.testing.assert_allclose(deriv, M @ y, rtol=1e-5, atol=1e-7)

    def test_benchmark_coefficients(self):
        # lambda = 8, beta0 = 3/2: the closed-form exponential pair
        mode = Mode(m=2, n=2, alpha0=0.0, beta0=1.5)
        for t in (0.0, 0.1, 0.5, 1.7):
            alpha, beta = modal_evolve(mode, RHO, t)
            assert alpha == pytest.approx(math.exp(-4 * t) - math.exp(-16 * t),
                                          abs=1e-13)
            assert beta == pytest.approx(2 * math.exp(-16 * t) - 0.5 * math.exp(-4 * t),
                                         abs=1e-13)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            modal_evolve(Mode(m=1, n=1, alpha0=0.0, beta0=1.0), RHO, -0.1)

    @pytest.mark.parametrize("rho", [2.0, 1.5])
    def test_matches_dop853_at_double_or_complex_rates(self, rho):
        mode = Mode(m=1, n=2, alpha0=0.3, beta0=-0.7)
        generator = mode.lam * np.array([[0.0, 1.0], [-1.0, -rho]])
        ts = (0.1, 0.5, 1.0, 2.0)
        ref = solve_ivp(lambda t, y: generator @ y, (0.0, ts[-1]), [0.3, -0.7],
                        method="DOP853", rtol=1e-13, atol=1e-16, t_eval=ts)
        for k, t in enumerate(ts):
            np.testing.assert_allclose(modal_evolve(mode, rho, t), ref.y[:, k], rtol=0,
                                       atol=1e-12)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_or_nan_rho(self, rho):
        with pytest.raises(ValueError, match="finite and positive"):
            modal_evolve(Mode(m=1, n=1, alpha0=0.0, beta0=1.0), rho, 0.5)

    @pytest.mark.parametrize("a", [0.0, math.nan, math.inf])
    def test_mode_rejects_bad_side(self, a):
        with pytest.raises(ValueError, match="finite and positive"):
            Mode(m=1, n=1, alpha0=0.0, beta0=1.0, a=a)


class TestExactTestSolution:
    def test_initial_data(self):
        x, y = 0.7, 1.2
        v, w = exact_test_solution(x, y, 0.0)
        assert v == pytest.approx(0.0, abs=1e-15)
        assert w == pytest.approx(1.5 * math.sin(2 * x) * math.sin(2 * y), rel=1e-14)

    def test_boundary_trace_vanishes(self):
        for t in (0.0, 0.4, 2.0):
            for x in (0.0, math.pi):
                v, w = exact_test_solution(x, 0.9, t)
                assert v == pytest.approx(0.0, abs=1e-15)
                assert w == pytest.approx(0.0, abs=1e-15)

    def test_quarter_point_value(self):
        v, _ = exact_test_solution(math.pi / 4, math.pi / 4, 0.25)
        assert v == pytest.approx(math.exp(-1) - math.exp(-4), rel=1e-14)
        assert v == pytest.approx(0.349564, abs=1e-6)

    def test_array_input(self):
        x = np.linspace(0, math.pi, 7)
        v, w = exact_test_solution(x, x, 0.3)
        assert v.shape == x.shape
        assert w.shape == x.shape

    def test_array_of_times_stacks_the_scalar_calls_bitwise(self):
        x, y = np.linspace(0.1, 3.0, 9), np.linspace(3.1, 0.2, 9)
        dt = 0.1
        levels = np.arange(3, 11)
        v, w = exact_test_solution(x, y, dt * levels)
        assert v.shape == w.shape == (9, len(levels))
        for c, level in enumerate(levels.tolist()):
            ve, we = exact_test_solution(x, y, level * dt)
            assert np.array_equal(v[:, c], ve) and np.array_equal(w[:, c], we)


class TestEvaluateModalSum:
    def test_empty_sum(self):
        v, w = evaluate_modal_sum([], RHO, 0.3, 0.4, 1.0)
        assert v == pytest.approx(0.0) and w == pytest.approx(0.0)

    def test_matches_exact_test_solution(self):
        # beta0 = (a/2) * amplitude for a pure product-sine datum
        mode = Mode(m=2, n=2, alpha0=0.0, beta0=(math.pi / 2) * 1.5)
        rng = np.random.default_rng(13)
        xs = rng.uniform(0, math.pi, 25)
        ys = rng.uniform(0, math.pi, 25)
        for t in (0.0, 0.2, 1.0):
            v, w = evaluate_modal_sum([mode], RHO, xs, ys, t)
            ve, we = exact_test_solution(xs, ys, t)
            np.testing.assert_allclose(v, ve, atol=1e-12)
            np.testing.assert_allclose(w, we, atol=1e-12)

    def test_superposition(self):
        m1 = Mode(m=1, n=1, alpha0=0.4, beta0=0.1)
        m2 = Mode(m=2, n=3, alpha0=-0.2, beta0=0.9)
        x, y, t = 0.5, 1.1, 0.35
        v12, w12 = evaluate_modal_sum([m1, m2], RHO, x, y, t)
        v1, w1 = evaluate_modal_sum([m1], RHO, x, y, t)
        v2, w2 = evaluate_modal_sum([m2], RHO, x, y, t)
        assert v12 == pytest.approx(v1 + v2, rel=1e-13)
        assert w12 == pytest.approx(w1 + w2, rel=1e-13)

    def test_general_side_length(self):
        # lambda scales with (pi/a)^2
        mode = Mode(m=2, n=2, alpha0=0.0, beta0=1.0, a=2 * math.pi)
        assert mode.lam == pytest.approx(2.0, rel=1e-15)


class TestSchemesAgainstClosedForm:
    """Both implicit schemes converge to the modal solution for rho below, at and above 2.

    rho < 2 runs the split step's complex factors and rho = 2 its double root.
    The benchmark datum (0, 1.5 sin 2x sin 2y) is one more mode, at its rho.
    The state error at t = 1/2 is measured relative to the initial state.
    """

    MIXED = Mode(m=1, n=2, alpha0=0.4 * math.pi / 2, beta0=-0.9 * math.pi / 2)
    BENCHMARK = Mode(m=2, n=2, alpha0=0.0, beta0=1.5 * math.pi / 2)
    CASES = pytest.mark.parametrize(
        "rho,mode", [(1.5, MIXED), (2.0, MIXED), (2.5, MIXED), (RHO, BENCHMARK)],
        ids=["1.5", "2.0", "2.5", "benchmark"])

    def relative_errors(self, rho, mode, discretize):
        errs = []
        for n, dt in ((8, 0.02), (16, 0.01), (32, 0.005)):
            x, y, stepper, sq_norm = discretize(n, dt)
            state = StatePair(*evaluate_modal_sum([mode], rho, x, y, 0.0))
            initial = sq_norm(state.v) + sq_norm(state.w)
            for _ in range(round(0.5 / dt)):
                state = stepper.step(state)
            ve, we = evaluate_modal_sum([mode], rho, x, y, 0.5)
            errs.append(math.sqrt((sq_norm(state.v - ve) + sq_norm(state.w - we)) / initial))
        return errs

    @CASES
    def test_fem_in_mass_norm(self, rho, mode):
        def discretize(n, dt):
            space = build_fem_space(n, math.pi)
            x, y = space.points()
            return x, y, FemStepper(space, dt, rho), space.mass_sq_norm

        errs = self.relative_errors(rho, mode, discretize)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 5e-3

    @CASES
    def test_fdm_in_euclidean_norm(self, rho, mode):
        def discretize(n, dt):
            grid = FdGrid(n=n, a=math.pi)
            x, y = grid.points()
            return x, y, FdmStepper(build_dn(grid), dt, rho, dn_eigenvalues(grid)), euclidean_sq

        errs = self.relative_errors(rho, mode, discretize)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 5e-3
