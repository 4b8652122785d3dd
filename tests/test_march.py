"""The control the march emits, against a dense evaluation of mu0 + mu1'.

The reference steps the homogeneous twin with dense numpy solves of the
scheme's step matrix (or samples the closed-form twin) and evaluates

    u^{j+1} = -(rho v_h + w_h) f_T - K^{-1} B [(v_h^{j+2} - v_h^{j+1})/dt f_T + v_h^{j+1} f_T']

at t_{j+1}, with (K, B) = (D, I) for FDM and (S, M) for FEM.  The march and
both one-horizon drivers reject a horizon T that is not a finite positive
multiple (>= 2) of dt.  A closed-form twin is sampled and solved in blocks of
levels, and the controls of the running horizons are one rank-2 product.
"""

import dataclasses
import math

import numpy as np
import pytest

from platenull import fdm, fem
from platenull import march as march_module
from platenull.bench import SweepConfig, resolve_initial_data, run_single
from platenull.control import f_weight, f_weight_prime
from platenull.march import march, steps_for
from platenull.spectral import exact_test_solution

RHO = 2.5
DT = 0.125
T = 1.0
STEPS = 8
DATA = "sin(x)*sin(2*y);x*(pi-x)*y*(pi-y)"


def dense_space(scheme, n):
    """(K, B, node coordinates) as dense arrays; the step matrix is
    [[B, -dt K], [dt K, B + rho dt K]] acting on B-weighted right-hand sides."""
    if scheme == "fdm":
        grid = fdm.FdGrid(n=n, a=math.pi)
        return fdm.build_dn(grid).toarray(), np.eye(grid.N), np.column_stack(grid.points())
    space = fem.build_fem_space(n, math.pi)
    return space.S.toarray(), space.M.toarray(), np.column_stack(space.points())


def dense_twin(config, K, B, nodes):
    """Homogeneous levels (v_h^j, w_h^j), j = 0..STEPS+1."""
    x, y = nodes.T
    if config.twin == "exact":
        return [exact_test_solution(x, y, j * DT) for j in range(STEPS + 2)]
    N = len(B)
    step = np.block([[B, -DT * K], [DT * K, B + RHO * DT * K]])
    levels = [tuple(np.asarray(f(x, y), dtype=float) + np.zeros(N)
                    for f in resolve_initial_data(config.init))]
    for _ in range(STEPS + 1):
        v, w = levels[-1]
        x_next = np.linalg.solve(step, np.concatenate([B @ v, B @ w]))
        levels.append((x_next[:N], x_next[N:]))
    return levels


def reference_controls(config, with_f_prime=True):
    """Controls u^1..u^STEPS of the horizon T, shape (STEPS, N)."""
    K, B, nodes = dense_space(config.scheme, config.n)
    twin = dense_twin(config, K, B, nodes)
    controls = []
    for j in range(STEPS):
        t = (j + 1) * DT
        (vh, wh), (vh_ahead, _) = twin[j + 1], twin[j + 2]
        G = (vh_ahead - vh) / DT * f_weight(t, T)
        if with_f_prime:
            G = G + vh * f_weight_prime(t, T)
        controls.append(-(RHO * vh + wh) * f_weight(t, T) - np.linalg.solve(K, B @ G))
    return np.array(controls)


CASES = [(scheme, twin, n) for scheme in ("fdm", "fem")
         for twin in ("discrete", "exact") for n in (4, 6, 8)]


@pytest.mark.parametrize("scheme,twin,n", CASES)
def test_emitted_control_matches_dense_recipe(scheme, twin, n, monkeypatch):
    # closed-form levels come in blocks of 3, so the 8 steps cross block boundaries
    monkeypatch.setattr(march_module, "_TWIN_BLOCK_ENTRIES", 3 * n * n)
    config = SweepConfig(scheme=scheme, n=n, rho=RHO, side=math.pi, dt=DT, t_list=(T,),
                         init=DATA if twin == "discrete" else "test-problem", twin=twin)
    _, controls, _ = run_single(config, T)
    want = reference_controls(config)
    assert controls.shape == want.shape
    scale = np.max(np.abs(want))
    assert np.max(np.abs(controls - want)) <= 1e-10 * scale
    # the comparison resolves the f_T' term: dropping it misses by far more
    without = reference_controls(config, with_f_prime=False)
    assert np.max(np.abs(without - want)) >= 1e-3 * scale


ZERO = lambda x, y: 0.0 * x  # noqa: E731
RUNS = {
    "march": lambda T: march(fdm.fdm_scheme(fdm.FdGrid(n=4, a=math.pi), DT, RHO),
                             np.zeros(16), np.ones(16), [T]),
    "fdm": lambda T: fdm.run_fdm_null_control(fdm.FdGrid(n=4, a=math.pi), DT, RHO, T,
                                              ZERO, ZERO),
    "fem": lambda T: fem.run_fem_null_control(fem.build_fem_space(4, math.pi), DT, RHO, T,
                                              ZERO, ZERO),
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_rejects_non_finite_or_non_positive_horizon(run, horizon):
    with pytest.raises(ValueError, match="T must be finite and positive"):
        run(horizon)


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
@pytest.mark.parametrize("horizon", [DT, 2.5 * DT])
def test_rejects_horizon_off_the_step_grid(run, horizon):
    # a horizon needs at least two steps and must land on the step grid
    with pytest.raises(ValueError, match="integer multiple"):
        run(horizon)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt", [1e-300, np.float64(1e-300)], ids=["float", "float64"])
def test_rejects_a_step_count_that_overflows(dt):
    with pytest.raises(ValueError, match="overflows"):
        steps_for(1e10, dt)


def exact_twin(grid):
    x, y = grid.points()
    return lambda t: exact_test_solution(x, y, t)


def test_exact_twin_is_solved_a_block_at_a_time(monkeypatch):
    grid = fdm.FdGrid(n=4, a=math.pi)
    L = 5
    monkeypatch.setattr(march_module, "_TWIN_BLOCK_ENTRIES", L * grid.N)
    scheme = fdm.fdm_scheme(grid, DT, RHO)
    times, solved = [], []

    def twin(t):
        times.append(np.array(t))
        return exact_twin(grid)(t)

    def mu_basis(b):
        solved.append(b.shape)
        return scheme.mu_basis(b)

    horizons = [0.25, 0.5, 1.0, 2.0]
    M = steps_for(max(horizons), DT)
    counted = march(dataclasses.replace(scheme, mu_basis=mu_basis),
                    np.zeros(grid.N), np.ones(grid.N), horizons, twin=twin)
    assert len(solved) == len(times) == math.ceil(M / L)
    assert all(len(t) <= L for t in times) and all(shape[1] <= L for shape in solved)
    # levels 1..M, each once, and never level M + 1
    np.testing.assert_array_equal(np.concatenate(times), DT * np.arange(1, M + 1))
    plain = march(scheme, np.zeros(grid.N), np.ones(grid.N), horizons, twin=exact_twin(grid))
    for (got, _, _), (want, _, _) in zip(counted, plain):
        assert got.control_norm == pytest.approx(want.control_norm, rel=1e-14)
        assert got.terminal_energy == pytest.approx(want.terminal_energy, rel=1e-12)


def test_rejects_a_twin_that_is_not_a_block_of_levels():
    # a twin callable maps an array of L times to (N, L) blocks, not one time to (N,)
    grid = fdm.FdGrid(n=4, a=math.pi)
    with pytest.raises(ValueError, match=r"\(N, L\) = \(16, 8\)"):
        march(fdm.fdm_scheme(grid, DT, RHO), np.zeros(grid.N), np.ones(grid.N), [1.0],
              twin=lambda t: tuple(u[:, 0] for u in exact_twin(grid)(t)))


def test_controls_are_the_rank_two_product():
    # u = -(a f_T + z f_T') column by column, a = rho v_h + w_h + (z^{j+2} - z^{j+1})/dt;
    # the running horizons fall from 6 to 1, so every k from 6 to 1 is checked
    horizons = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    grid = fdm.FdGrid(n=4, a=math.pi)
    scheme = fdm.fdm_scheme(grid, DT, RHO)
    runs = march(scheme, np.zeros(grid.N), np.ones(grid.N), horizons,
                 twin=exact_twin(grid), keep_controls=True)
    M = steps_for(max(horizons), DT)
    v, w = exact_twin(grid)(DT * np.arange(1, M + 1))
    z = np.column_stack([scheme.mu_basis(v[:, level]) for level in range(M)])
    for j in range(M):
        ahead = min(j + 1, M - 1)  # level M + 1 is never formed; f_T(T) = 0 there
        a = RHO * v[:, j] + w[:, j] + (z[:, ahead] - z[:, j]) / DT
        running = [c for c, T in enumerate(horizons) if steps_for(T, DT) > j]
        T = np.array([horizons[c] for c in running])
        t = np.minimum((j + 1) * DT, T)
        want = -(np.outer(a, f_weight(t, T)) + np.outer(z[:, j], f_weight_prime(t, T)))
        got = np.column_stack([runs[c][1][j] for c in running])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))
