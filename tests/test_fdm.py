import math

import numpy as np
import pytest
import scipy.sparse as sp

from platenull.control import kalman_check
from platenull.core import StatePair
from platenull.fdm import (FdGrid, FdmStepper, build_dn, dn_eigenvalue,
                           fdm_control_at_step, fdm_scheme, run_fdm_null_control,
                           sample_on_grid)
from platenull.linalg import BlockSolver, SpdFactorization
from platenull.spectral import exact_test_solution

RHO = 2.5


def stencil_dn(grid: FdGrid) -> np.ndarray:
    """Independent dense assembly straight from the 5-point stencil."""
    n, h = grid.n, grid.h
    A = np.zeros((grid.N, grid.N))
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            r = grid.index(i, j)
            A[r, r] = 4.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 1 <= ii <= n and 1 <= jj <= n:
                    A[r, grid.index(ii, jj)] = -1.0
    return A / h**2


class TestGrid:
    def test_mesh_width(self):
        g = FdGrid(n=6, a=2.0)
        assert g.h * (g.n + 1) == pytest.approx(2.0, rel=1e-15)
        assert g.N == 36

    def test_index_bijection(self):
        g = FdGrid(n=5, a=1.0)
        seen = {g.index(i, j) for j in range(1, 6) for i in range(1, 6)}
        assert seen == set(range(25))
        assert g.index(2, 3) == 2 * 5 + 1  # x index runs fastest

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_side(self, a):
        with pytest.raises(ValueError, match="finite and positive"):
            FdGrid(n=4, a=a)

    def test_index_bounds(self):
        g = FdGrid(n=3, a=1.0)
        with pytest.raises(IndexError):
            g.index(0, 1)
        with pytest.raises(IndexError):
            g.index(1, 4)


class TestBuildDn:
    def test_single_point(self):
        g = FdGrid(n=1, a=1.0)
        D = build_dn(g).toarray()
        np.testing.assert_allclose(D, [[4.0 / g.h**2]], rtol=1e-15)

    def test_two_by_two_pattern(self):
        g = FdGrid(n=2, a=1.0)
        F = np.array([[4.0, -1.0], [-1.0, 4.0]])
        eye = np.eye(2)
        expected = np.block([[F, -eye], [-eye, F]]) / g.h**2
        np.testing.assert_allclose(build_dn(g).toarray(), expected, rtol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 16])
    def test_matches_stencil_assembly(self, n):
        g = FdGrid(n=n, a=np.pi)
        np.testing.assert_allclose(build_dn(g).toarray(), stencil_dn(g),
                                   rtol=0, atol=1e-12 / g.h**2)

    def test_symmetry(self):
        D = build_dn(FdGrid(n=7, a=3.0))
        assert abs(D - D.T).max() == 0.0


class TestEigenvalues:
    def test_fundamental_closed_form(self):
        g = FdGrid(n=3, a=np.pi)
        expected = (16.0 / np.pi**2) * (4.0 - 2.0 * math.sqrt(2.0))
        assert dn_eigenvalue(1, 1, g) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.8993, abs=1e-4)

    def test_single_point_grid(self):
        g = FdGrid(n=1, a=1.0)
        assert dn_eigenvalue(1, 1, g) == pytest.approx(4.0 / g.h**2, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_against_dense_eigensolver(self, n):
        g = FdGrid(n=n, a=np.pi)
        dense = np.sort(np.linalg.eigvalsh(build_dn(g).toarray()))
        formula = np.sort([dn_eigenvalue(i, j, g)
                           for i in range(1, n + 1) for j in range(1, n + 1)])
        np.testing.assert_allclose(dense, formula, atol=1e-10 * dense[-1])

    def test_smallest_eigenvalue_limit(self):
        # 8 sin^2(h pi / 2a) / h^2 -> 2 pi^2 / a^2, monotonically from below
        lams = [dn_eigenvalue(1, 1, FdGrid(n=n, a=np.pi)) for n in (4, 8, 16, 32, 64)]
        assert all(l1 < l2 for l1, l2 in zip(lams, lams[1:]))
        assert lams[-1] == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_sine_samples_are_eigenvectors(self, n):
        g = FdGrid(n=n, a=np.pi)
        D = build_dn(g)
        for i, j in ((1, 1), (1, 2), (n, n)):
            if i > n or j > n:
                continue
            vec = sample_on_grid(
                lambda x, y, i=i, j=j: (2 / g.a) * np.sin(i * np.pi * x / g.a)
                * np.sin(j * np.pi * y / g.a), g)
            lam = dn_eigenvalue(i, j, g)
            np.testing.assert_allclose(D @ vec, lam * vec, atol=1e-10 * lam)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            dn_eigenvalue(0, 1, FdGrid(n=3, a=1.0))


class TestSampleOnGrid:
    def test_zero_and_one(self):
        g = FdGrid(n=2, a=1.0)
        np.testing.assert_array_equal(sample_on_grid(lambda x, y: 0.0 * x, g),
                                      np.zeros(4))
        np.testing.assert_array_equal(sample_on_grid(lambda x, y: 1.0 + 0 * x, g),
                                      np.ones(4))

    def test_node_placement(self):
        g = FdGrid(n=3, a=np.pi)
        vec = sample_on_grid(lambda x, y: np.sin(2 * x) * np.sin(2 * y), g)
        # x_2 = pi/2, so sin(2 x_2) = sin(pi) = 0
        assert vec[g.index(2, 2)] == pytest.approx(0.0, abs=1e-15)
        assert vec[g.index(1, 1)] == pytest.approx(math.sin(math.pi / 2) ** 2, rel=1e-14)


class TestSteps:
    def setup_method(self):
        self.grid = FdGrid(n=6, a=np.pi)
        self.dn = build_dn(self.grid)
        self.dt = 0.1

    def test_zero_fixed_point(self):
        z = np.zeros(self.grid.N)
        out = FdmStepper(self.dn, self.dt, RHO).step(StatePair(v=z, w=z))
        np.testing.assert_array_equal(out.v, z)
        np.testing.assert_array_equal(out.w, z)

    def test_defining_equations_residual(self):
        rng = np.random.default_rng(21)
        s = StatePair(v=rng.standard_normal(self.grid.N),
                      w=rng.standard_normal(self.grid.N))
        out = FdmStepper(self.dn, self.dt, RHO).step(s)
        r1 = out.v - self.dt * (self.dn @ out.w) - s.v
        r2 = out.w + self.dt * (self.dn @ (out.v + RHO * out.w)) - s.w
        scale = np.linalg.norm(np.concatenate([s.v, s.w]))
        assert np.linalg.norm(r1) <= 1e-10 * scale
        assert np.linalg.norm(r2) <= 1e-10 * scale

    def test_single_mode_invariance(self):
        g = FdGrid(n=8, a=np.pi)
        dn = build_dn(g)
        phi = sample_on_grid(lambda x, y: np.sin(2 * x) * np.sin(2 * y), g)
        out = FdmStepper(dn, 0.05, RHO).step(StatePair(v=np.zeros(g.N), w=phi))
        for comp in (out.v, out.w):
            coef = (comp @ phi) / (phi @ phi)
            np.testing.assert_allclose(comp, coef * phi, atol=1e-12)

    def test_energy_nonincreasing(self):
        rng = np.random.default_rng(22)
        stepper = FdmStepper(self.dn, self.dt, RHO)
        for _ in range(25):
            s = StatePair(v=rng.standard_normal(self.grid.N),
                          w=rng.standard_normal(self.grid.N))
            out = stepper.step(s)
            assert (out.v @ out.v + out.w @ out.w) <= (s.v @ s.v + s.w @ s.w)

    def test_zero_control_matches_homogeneous_bitwise(self):
        rng = np.random.default_rng(23)
        s = StatePair(v=rng.standard_normal(self.grid.N),
                      w=rng.standard_normal(self.grid.N))
        stepper = FdmStepper(self.dn, self.dt, RHO)
        hom = stepper.step(s)
        ctl = stepper.step(s, np.zeros(self.grid.N))
        np.testing.assert_array_equal(hom.v, ctl.v)
        np.testing.assert_array_equal(hom.w, ctl.w)

    @pytest.mark.parametrize("dt,rho", [
        (0.0, RHO), (-0.1, RHO), (np.nan, RHO), (np.inf, RHO),
        (0.1, 0.0), (0.1, -1.0), (0.1, np.nan), (0.1, np.inf),
    ])
    def test_rejects_nonpositive_or_nonfinite_dt_or_rho(self, dt, rho):
        # ValueError, not the LinAlgError ("solver failure") a NaN factor would raise
        with pytest.raises(ValueError, match="finite and positive") as caught:
            FdmStepper(self.dn, dt, rho)
        assert not isinstance(caught.value, np.linalg.LinAlgError)

    def test_controlled_step_against_block_solver(self):
        # one step from rest under u = e1, cross-checked with the generic solver
        N = self.grid.N
        u = np.zeros(N)
        u[0] = 1.0
        out = FdmStepper(self.dn, self.dt, RHO).step(
            StatePair(v=np.zeros(N), w=np.zeros(N)), u)
        eye = sp.identity(N, format="csr")
        x1, x2 = BlockSolver(eye, -self.dt * self.dn, self.dt * self.dn,
                             eye + RHO * self.dt * self.dn).solve(np.zeros(N), self.dt * u)
        np.testing.assert_allclose(out.v, x1, atol=1e-12)
        np.testing.assert_allclose(out.w, x2, atol=1e-12)


class TestControlAtStep:
    def test_zero_homogeneous_state(self):
        g = FdGrid(n=4, a=np.pi)
        solver = SpdFactorization(build_dn(g).tocsc())
        z = np.zeros(g.N)
        u = fdm_control_at_step(z, z, z, 0.5, 0.1, 2.0, RHO, solver)
        np.testing.assert_array_equal(u, z)

    def test_terminal_time_closed_form(self):
        # f_T(T) = 0, so u(T) = -D^{-1}(vh * f_T'(T)) with f_T'(T) = -6/T^2
        g = FdGrid(n=4, a=np.pi)
        dn = build_dn(g)
        solver = SpdFactorization(dn.tocsc())
        rng = np.random.default_rng(31)
        vh = rng.standard_normal(g.N)
        wh = rng.standard_normal(g.N)
        T, dt = 2.0, 0.1
        u = fdm_control_at_step(vh, vh, wh, T, dt, T, RHO, solver)
        expected = solver.solve(vh * (6.0 / T**2))
        np.testing.assert_allclose(u, expected, atol=1e-12)


def modal_null_control_oracle(n, a, T, m, twin):
    """Independent 2x2 reduction of the single-mode benchmark run.

    The test datum is a grid eigenvector, so every operation of the run
    stays in its span; this recursion reproduces the whole trajectory with
    dense 2x2 arithmetic.
    """
    grid = FdGrid(n=n, a=a)
    lam = dn_eigenvalue(2, 2, grid)
    dt = T / m
    M = lam * np.array([[0.0, 1.0], [-1.0, -RHO]])
    step = np.linalg.inv(np.eye(2) - dt * M)
    y0 = np.array([0.0, 1.5])
    if twin == "discrete":
        levels = [y0]
        for _ in range(m + 1):
            levels.append(step @ levels[-1])
    else:
        levels = [np.array([math.exp(-4 * t) - math.exp(-16 * t),
                            2 * math.exp(-16 * t) - 0.5 * math.exp(-4 * t)])
                  for t in (dt * k for k in range(m + 2))]
    y = y0.copy()
    u_sq = 0.0
    for j in range(m):
        t1 = (j + 1) * dt
        f = 6 * t1 * (T - t1) / T**3
        fp = 6 * (T - 2 * t1) / T**3
        a1, b1 = levels[j + 1]
        a2 = levels[j + 2][0]
        u = -(RHO * a1 + b1) * f - ((a2 - a1) / dt * f + a1 * fp) / lam
        u_sq += dt * u * u
        y = step @ (y + dt * np.array([0.0, u]))
    phi_sq = ((n + 1) / 2.0) ** 2  # squared Euclidean norm of the mode sample
    return (y @ y) * phi_sq, math.sqrt(u_sq * phi_sq)


class TestNullControlRun:
    @pytest.mark.parametrize("twin", ["discrete", "exact"])
    def test_matches_modal_oracle(self, twin):
        n, T, m = 8, 1.0, 8
        grid = FdGrid(n=n, a=np.pi)
        x, y = grid.points()
        twin_arg = twin if twin == "discrete" else \
            (lambda t: exact_test_solution(x, y, t))
        report, controls, state = run_fdm_null_control(
            grid, T / m, RHO, T, lambda x, y: 0.0 * x,
            lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y), twin=twin_arg)
        energy_expect, unorm_expect = modal_null_control_oracle(n, np.pi, T, m, twin)
        assert report.terminal_energy == pytest.approx(energy_expect, rel=1e-10)
        assert report.control_norm == pytest.approx(unorm_expect, rel=1e-10)
        assert len(controls) == m
        phi = np.sin(2 * x) * np.sin(2 * y)
        coef = (state.v @ phi) / (phi @ phi)
        np.testing.assert_allclose(state.v, coef * phi, atol=1e-12)

    def test_mixed_mode_steering_improves_with_dt(self):
        # terminal energy of the steered state vanishes as the time grid refines
        w0 = lambda x, y: (np.sin(x) * np.sin(y)  # noqa: E731
                           + 0.5 * np.sin(2 * x) * np.sin(3 * y))
        energies = []
        for m in (8, 16, 32):
            report, _, _ = run_fdm_null_control(FdGrid(n=8, a=np.pi), 1.0 / m, RHO, 1.0,
                                                lambda x, y: 0.0 * x, w0)
            energies.append(report.terminal_energy)
        # roughly O(dt^2): at least a factor 3 per halving
        assert energies[0] / energies[1] >= 3.0
        assert energies[1] / energies[2] >= 3.0

    def test_warns_outside_guaranteed_step_regime(self):
        with pytest.warns(RuntimeWarning, match="1/rho"):  # dt = 1 >= 1/rho
            run_fdm_null_control(FdGrid(n=4, a=np.pi), 1.0, RHO, 2.0,
                                 lambda x, y: 0.0 * x, lambda x, y: 0.0 * x)

    def test_zero_data_gives_zero_control(self):
        report, controls, state = run_fdm_null_control(
            FdGrid(n=4, a=np.pi), 0.25, RHO, 1.0, lambda x, y: 0.0 * x, lambda x, y: 0.0 * x)
        assert report.terminal_energy == 0.0
        assert report.control_norm == 0.0
        np.testing.assert_array_equal(controls, np.zeros_like(controls))

    def test_weighted_norms_scale(self):
        run = (FdGrid(n=4, a=np.pi), 0.25, RHO, 1.0, lambda x, y: 0.0 * x,
               lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y))
        plain, _, _ = run_fdm_null_control(*run)
        weighted, _, _ = run_fdm_null_control(*run, weighted=True)
        h = np.pi / 5
        assert weighted.terminal_energy == pytest.approx(
            plain.terminal_energy * h**2, rel=1e-12)
        assert weighted.control_norm == pytest.approx(
            plain.control_norm * h, rel=1e-12)

    def test_doubling_data_doubles_controls(self):
        grid = FdGrid(n=6, a=np.pi)
        w0 = lambda x, y: np.sin(x) * np.sin(2 * y)  # noqa: E731
        _, u1, _ = run_fdm_null_control(grid, 0.2, RHO, 1.0, lambda x, y: 0.0 * x, w0)
        _, u2, _ = run_fdm_null_control(
            grid, 0.2, RHO, 1.0, lambda x, y: 0.0 * x, lambda x, y: 2.0 * w0(x, y))
        np.testing.assert_allclose(u2, 2.0 * u1, atol=1e-10 * np.abs(u1).max())


    def test_large_grid_factors_directly(self, monkeypatch):
        # n = 101 (N = 10,201) used to fall over to CG
        def no_cg(*args, **kwargs):
            raise AssertionError("scipy.sparse.linalg.cg was called")
        monkeypatch.setattr("scipy.sparse.linalg.cg", no_cg)
        grid = FdGrid(n=101, a=np.pi)
        scheme = fdm_scheme(grid, 0.25, RHO)
        w0 = sample_on_grid(lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y), grid)
        state = scheme.stepper.step(StatePair(v=np.zeros(grid.N), w=w0))
        z = scheme.mu_basis(state.v)
        assert np.all(np.isfinite(z)) and np.linalg.norm(z) > 0


class TestHomogeneousConvergence:
    def test_simultaneous_refinement_to_exact_solution(self):
        # max-norm error at t = 1 shrinks as (n, dt) refine together
        errs = []
        for n, dt in ((8, 0.02), (16, 0.01), (32, 0.005)):
            grid = FdGrid(n=n, a=np.pi)
            dn = build_dn(grid)
            x, y = grid.points()
            v = np.zeros(grid.N)
            w = 1.5 * np.sin(2 * x) * np.sin(2 * y)
            stepper = FdmStepper(dn, dt, RHO)
            state = StatePair(v=v, w=w)
            for _ in range(round(1.0 / dt)):
                state = stepper.step(state)
            ve, we = exact_test_solution(x, y, 1.0)
            errs.append(max(np.abs(state.v - ve).max(), np.abs(state.w - we).max()))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 5e-3


class TestKalman:
    def test_small_grid_identity(self):
        grid = FdGrid(n=2, a=np.pi)
        diag = kalman_check(sp.identity(grid.N), build_dn(grid), RHO)
        assert diag.identity_error <= 1e-10
        assert diag.full_rank

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_inverse_norm_formula_and_bound(self, n):
        grid = FdGrid(n=n, a=np.pi)
        diag = kalman_check(sp.identity(grid.N), build_dn(grid), RHO)
        assert diag.operator_inv_norm == pytest.approx(
            1.0 / dn_eigenvalue(1, 1, grid), rel=1e-14)
        # uniformly bounded by a^2/(2 pi^2) up to a refinement margin
        assert diag.operator_inv_norm <= (np.pi**2 / (2 * np.pi**2)) * 1.05

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_full_rank(self, n):
        grid = FdGrid(n=n, a=np.pi)
        diag = kalman_check(sp.identity(grid.N), build_dn(grid), RHO)
        assert diag.rank == diag.dim == 2 * n * n

    def test_dense_cap(self):
        with pytest.raises(ValueError):
            grid = FdGrid(n=40, a=np.pi)
            kalman_check(sp.identity(grid.N), build_dn(grid), RHO)
