"""The n=32 FDM benchmark tables against their one-mode scalar recurrence.

The datum (0, 1.5 sin 2x sin 2y) samples to one DST-I mode of the grid,
an eigenvector of D with eigenvalue lam = lam_{2,2}, and every level of the
twin, every control and every controlled state stay multiples of it.  So
the whole table is a scalar recurrence in the mode's amplitude, the FDM
step with lam in place of D,

    w+ = (w + dt u - dt lam v) / (1 + rho dt lam + (dt lam)^2),  v+ = v + dt lam w+,

with the march's control recipe and z = v / lam for K^{-1} B v.  The
closed-form twin (``--twin exact``) is the same mode, with the amplitudes
e^-4t - e^-16t and 2 e^-16t - e^-4t / 2 at every level t.  A squared grid
norm is the squared amplitude times ||phi||^2 = (n+1)^2 / 4, phi the
sampled mode.  Run in 40-digit arithmetic, the recurrence agrees with this
float64 one to 1.2e-14 in energy and 1.4e-15 in control norm on these tables.
"""

import math

import pytest

from platenull.bench import SweepConfig, run_sweep
from platenull.control import f_weight, f_weight_prime
from platenull.fdm import FdGrid, dn_eigenvalue

N, RHO, AMPLITUDE = 32, 2.5, 1.5
GROWING = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
SHRINKING = tuple(2.0 ** -k for k in range(4, 10))
TABLES = {  # id: (dt, horizons, twin), as the benchmark runs them
    "fdm32-dt0.2": (0.2, GROWING, "discrete"),
    "fdm32-exact-dt0.2": (0.2, GROWING, "exact"),
    "fdm32-exact-dt0.1": (0.1, GROWING, "exact"),
    "fdm32-exact-blowup": (1.0 / 1536.0, SHRINKING, "exact"),
}


def mode_march(lam, dt, rho, T, v0, w0, twin="discrete"):
    """(terminal energy, control norm) of one horizon, in the mode's amplitude."""

    def step(v, w, u=0.0):
        w_next = (w + dt * u - dt * lam * v) / (1.0 + rho * dt * lam + (dt * lam) ** 2)
        return v + dt * lam * w_next, w_next

    def exact(t):
        e4, e16 = math.exp(-4.0 * t), math.exp(-16.0 * t)
        return e4 - e16, 2.0 * e16 - 0.5 * e4

    m = max(2, round(T / dt))
    twin_levels = [(v0, w0)]
    for level in range(1, m + 2):
        twin_levels.append(step(*twin_levels[-1]) if twin == "discrete" else exact(dt * level))
    v, w, sq_controls = v0, w0, 0.0
    for j in range(m):
        t = min(dt * (j + 1), T)
        (vh, wh), (vh_ahead, _) = twin_levels[j + 1], twin_levels[j + 2]
        a = rho * vh + wh + (vh_ahead / lam - vh / lam) / dt
        u = -(a * f_weight(t, T) + vh / lam * f_weight_prime(t, T))
        sq_controls += u * u
        v, w = step(v, w, u)
    return v * v + w * w, math.sqrt(dt * sq_controls)


@pytest.mark.parametrize("table", list(TABLES))
def test_fdm32_table_matches_the_mode_recurrence(table):
    dt, horizons, twin = TABLES[table]
    grid = FdGrid(n=N, a=math.pi)
    rows = run_sweep(SweepConfig(scheme="fdm", n=N, rho=RHO, side=math.pi, dt=dt,
                                 t_list=horizons, twin=twin)).rows
    lam, mode_sq = dn_eigenvalue(2, 2, grid), (N + 1) ** 2 / 4
    for row in rows:
        energy, unorm = mode_march(lam, dt, RHO, row.T, 0.0, AMPLITUDE, twin)
        energy, unorm = mode_sq * energy, math.sqrt(mode_sq) * unorm
        if max(energy, row.energy) > 1e-30:
            assert row.energy == pytest.approx(energy, rel=1e-12, abs=0.0), row.T
        assert row.unorm == pytest.approx(unorm, rel=1e-14, abs=0.0), row.T
