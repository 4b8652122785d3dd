import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from platenull.bench import SweepConfig, run_sweep
from platenull.control import kalman_check
from platenull.core import StatePair
from platenull.fdm import (FdGrid, FdmStepper, build_dn, dn_eigenvalue, dn_eigenvalues,
                           fdm_control_at_step, fdm_scheme, run_fdm_null_control)
from platenull.linalg import SineSolver, SpdFactorization
from platenull.march import Scheme, march, sample
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
            vec = sample(
                lambda x, y, i=i, j=j: (2 / g.a) * np.sin(i * np.pi * x / g.a)
                * np.sin(j * np.pi * y / g.a), *g.points())
            lam = dn_eigenvalue(i, j, g)
            np.testing.assert_allclose(D @ vec, lam * vec, atol=1e-10 * lam)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            dn_eigenvalue(0, 1, FdGrid(n=3, a=1.0))


class TestSampleOnGrid:
    def test_zero_and_one(self):
        g = FdGrid(n=2, a=1.0)
        np.testing.assert_array_equal(sample(lambda x, y: 0.0 * x, *g.points()),
                                      np.zeros(4))
        np.testing.assert_array_equal(sample(lambda x, y: 1.0 + 0 * x, *g.points()),
                                      np.ones(4))

    def test_node_placement(self):
        g = FdGrid(n=3, a=np.pi)
        vec = sample(lambda x, y: np.sin(2 * x) * np.sin(2 * y), *g.points())
        # x_2 = pi/2, so sin(2 x_2) = sin(pi) = 0
        assert vec[g.index(2, 2)] == pytest.approx(0.0, abs=1e-15)
        assert vec[g.index(1, 1)] == pytest.approx(math.sin(math.pi / 2) ** 2, rel=1e-14)


class TestSteps:
    def test_single_mode_invariance(self):
        g = FdGrid(n=8, a=np.pi)
        dn = build_dn(g)
        phi = sample(lambda x, y: np.sin(2 * x) * np.sin(2 * y), *g.points())
        out = FdmStepper(dn, 0.05, RHO, dn_eigenvalues(g)).step(StatePair(v=np.zeros(g.N), w=phi))
        for comp in (out.v, out.w):
            coef = (comp @ phi) / (phi @ phi)
            np.testing.assert_allclose(comp, coef * phi, atol=1e-12)


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

    def test_weighted_norms_scale(self):
        config = SweepConfig(scheme="fdm", n=4, rho=RHO, side=np.pi, dt=0.25, t_list=(1.0,))
        (plain,) = run_sweep(config).rows
        (weighted,) = run_sweep(replace(config, weighted=True)).rows
        h = np.pi / 5
        assert weighted.energy == pytest.approx(plain.energy * h**2, rel=1e-12)
        assert weighted.unorm == pytest.approx(plain.unorm * h, rel=1e-12)

    def test_large_grid_factors_directly(self, monkeypatch):
        # n = 101 (N = 10,201) used to fall over to CG
        def no_cg(*args, **kwargs):
            raise AssertionError("scipy.sparse.linalg.cg was called")
        monkeypatch.setattr("scipy.sparse.linalg.cg", no_cg)
        grid = FdGrid(n=101, a=np.pi)
        scheme = fdm_scheme(grid, 0.25, RHO)
        w0 = sample(lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y), *grid.points())
        state = scheme.stepper.step(StatePair(v=np.zeros(grid.N), w=w0))
        z = scheme.mu_basis(state.v)
        assert np.all(np.isfinite(z)) and np.linalg.norm(z) > 0

    @pytest.mark.parametrize("n,dt,horizons", [(32, 0.2, [2.0, 4.0]), (101, 0.25, [1.0])])
    def test_sweep_matches_factored_stiffness(self, n, dt, horizons, use_fdm_block_step):
        # Both marches step by the block LU: the refined sine step's rounding moves
        # with its input, by up to 1.5e-12 in energy at n = 101 (see the next test)
        grid = FdGrid(n=n, a=np.pi)
        v0 = np.zeros(grid.N)
        w0 = sample(lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y), *grid.points())
        sine = fdm_scheme(grid, dt, RHO)
        assert isinstance(sine.stepper, use_fdm_block_step)
        assert isinstance(sine.mu_basis.__self__, SineSolver)
        factored = SpdFactorization(build_dn(grid).tocsc())
        sparse = Scheme(stepper=sine.stepper, mass=sine.mass, mu_basis=factored.solve,
                        sq_norms=sine.sq_norms)
        got = march(sine, v0, w0, horizons)
        want = march(sparse, v0, w0, horizons)
        for (r, _, _), (ref, _, _) in zip(got, want):
            assert r.control_norm == pytest.approx(ref.control_norm, rel=1e-12)
            assert r.terminal_energy == pytest.approx(ref.terminal_energy, rel=1e-12)

    @pytest.mark.parametrize("scale", [1 - 1e-15, 1 + 1e-15, 1 + 2e-15])
    def test_energy_sensitivity_to_the_forcing(self, scale):
        # fdm101-dt0.25 with every control scaled by 1 +- 1e-15 or so: the energy
        # moved by at most 1.6e-12 on one BLAS thread and on two
        grid = FdGrid(n=101, a=np.pi)
        v0 = np.zeros(grid.N)
        w0 = sample(lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y), *grid.points())
        scheme = fdm_scheme(grid, 0.25, RHO)
        step = scheme.stepper.step

        class Scaled:
            dt, rho = scheme.stepper.dt, scheme.stepper.rho

            def step(self, state, u=None):
                return step(state, None if u is None else scale * u)

        (want, _, _), = march(scheme, v0, w0, [1.0])
        (got, _, _), = march(replace(scheme, stepper=Scaled()), v0, w0, [1.0])
        assert got.terminal_energy == pytest.approx(want.terminal_energy, rel=1e-11)


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
