"""The contract both schemes keep, checked once for each.

FDM is FEM with the (mass, stiffness) pair (M, S) = (I, D).  One step of
either scheme solves the block system

    [[M, -dt S], [dt S, M + rho dt S]] [v+; w+] = [M v; M (w + dt u)],

and both library runs take (discretization, dt, rho, T, v0, w0, *, twin).
Every test here runs on both schemes, through ``fdm_scheme``/``fem_scheme``
and the two runs.
"""

import inspect
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp

from platenull.control import kalman_check
from platenull.core import StatePair, energy
from platenull.fdm import FdGrid, build_dn, fdm_scheme, run_fdm_null_control
from platenull.fem import build_fem_space, fem_scheme, run_fem_null_control
from platenull.linalg import BlockSolver

RHO = 2.5
DT = 0.1


def zero(x, y):
    return 0.0 * x


class Case(NamedTuple):
    discretize: Callable  # n -> FdGrid or FemSpace of (0, pi)^2
    pair: Callable        # discretization -> (M, S)
    scheme: Callable      # fdm_scheme or fem_scheme
    run: Callable         # run_fdm_null_control or run_fem_null_control


CASES = {
    "fdm": Case(lambda n: FdGrid(n=n, a=math.pi),
                lambda grid: (sp.identity(grid.N, format="csr"), build_dn(grid)),
                fdm_scheme, run_fdm_null_control),
    "fem": Case(lambda n: build_fem_space(n, math.pi),
                lambda space: (space.M, space.S),
                fem_scheme, run_fem_null_control),
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


def random_state(N, k, seed):
    rng = np.random.default_rng(seed)
    return StatePair(v=rng.standard_normal((N, k)), w=rng.standard_normal((N, k)))


def grid_step(scheme, state, u=None):
    """The scheme's step on node values, through ``scheme.basis`` where it has one."""
    basis = scheme.basis or (lambda x: x)
    out = scheme.stepper.step(StatePair(v=basis(state.v), w=basis(state.w)),
                              None if u is None else basis(u))
    return StatePair(v=basis(out.v), w=basis(out.w))


def test_runs_share_one_signature():
    fdm_params = list(inspect.signature(run_fdm_null_control).parameters.values())
    fem_params = list(inspect.signature(run_fem_null_control).parameters.values())
    assert fdm_params[1:] == fem_params[1:]


class TestStep:
    def built(self, case, n=6):
        disc = case.discretize(n)
        return case.pair(disc), case.scheme(disc, DT, RHO)

    def test_zero_fixed_point(self, case):
        (M, _), scheme = self.built(case)
        z = np.zeros(M.shape[0])
        out = scheme.stepper.step(StatePair(v=z, w=z))
        np.testing.assert_array_equal(out.v, z)
        np.testing.assert_array_equal(out.w, z)

    @pytest.mark.parametrize("controlled", [False, True], ids=["homogeneous", "controlled"])
    def test_solves_the_block_system(self, case, controlled):
        (M, S), scheme = self.built(case)
        s = random_state(M.shape[0], 3, seed=21)
        u = np.random.default_rng(22).standard_normal(s.v.shape) if controlled else None
        out = grid_step(scheme, s, u)
        forcing = M @ (s.w if u is None else s.w + DT * u)
        r1 = M @ out.v - DT * (S @ out.w) - M @ s.v
        r2 = DT * (S @ out.v) + M @ out.w + RHO * DT * (S @ out.w) - forcing
        scale = np.linalg.norm(np.concatenate([M @ s.v, forcing]))
        assert np.linalg.norm(np.concatenate([r1, r2])) <= 1e-10 * scale

    def test_controlled_step_matches_block_solver(self, case):
        (M, S), scheme = self.built(case)
        s = random_state(M.shape[0], 3, seed=23)
        u = np.random.default_rng(24).standard_normal(s.v.shape)
        out = grid_step(scheme, s, u)
        v, w = BlockSolver(M, -DT * S, DT * S, M + RHO * DT * S).solve(
            M @ s.v, M @ (s.w + DT * u))
        scale = np.linalg.norm(np.concatenate([v, w]))
        assert np.linalg.norm(out.v - v) <= 1e-12 * scale
        assert np.linalg.norm(out.w - w) <= 1e-12 * scale

    def test_zero_control_matches_homogeneous_bitwise(self, case):
        (M, _), scheme = self.built(case)
        hom = ctl = random_state(M.shape[0], 1, seed=25)
        for _ in range(5):
            hom = scheme.stepper.step(hom)
            ctl = scheme.stepper.step(ctl, np.zeros(ctl.v.shape))
            np.testing.assert_array_equal(hom.v, ctl.v)
            np.testing.assert_array_equal(hom.w, ctl.w)

    def test_energy_nonincreasing(self, case):
        # in the scheme's own norm: Euclidean for FDM, mass-weighted for FEM
        (M, _), scheme = self.built(case)
        s = random_state(M.shape[0], 25, seed=26)
        out = scheme.stepper.step(s)
        assert np.all(energy(out, scheme.sq_norms) <= energy(s, scheme.sq_norms))

    def test_warns_when_dt_reaches_one_over_rho(self, case):
        with pytest.warns(RuntimeWarning, match="1/rho"):  # dt = 1/2 >= 1/rho
            case.scheme(case.discretize(4), 0.5, RHO)

    @pytest.mark.parametrize("dt,rho", [
        (0.0, RHO), (-0.1, RHO), (np.nan, RHO), (np.inf, RHO),
        (0.1, 0.0), (0.1, -1.0), (0.1, np.nan), (0.1, np.inf),
    ])
    def test_rejects_nonpositive_or_nonfinite_dt_or_rho(self, case, dt, rho):
        # ValueError, not the LinAlgError ("solver failure") a NaN factor would raise
        with pytest.raises(ValueError, match="finite and positive") as caught:
            case.scheme(case.discretize(4), dt, rho)
        assert not isinstance(caught.value, np.linalg.LinAlgError)


class TestRun:
    def test_zero_data_gives_zero_control(self, case):
        report, controls, _ = case.run(case.discretize(4), 0.25, RHO, 1.0, zero, zero)
        assert report.terminal_energy == 0.0
        assert report.control_norm == 0.0
        np.testing.assert_array_equal(controls, np.zeros_like(controls))

    def test_control_linear_in_data(self, case):
        disc = case.discretize(6)
        w0 = lambda x, y: np.sin(x) * np.sin(2 * y)  # noqa: E731
        _, u1, _ = case.run(disc, 0.2, RHO, 1.0, zero, w0)
        _, u2, _ = case.run(disc, 0.2, RHO, 1.0, zero, lambda x, y: 2.0 * w0(x, y))
        np.testing.assert_allclose(u2, 2.0 * u1, atol=1e-10 * np.abs(u1).max())


@pytest.mark.parametrize("n", [2, 4, 8])
def test_kalman_identity_and_rank(case, n):
    diag = kalman_check(*case.pair(case.discretize(n)), RHO)
    assert diag.identity_error <= 1e-10
    assert diag.rank == diag.dim == 2 * n * n
