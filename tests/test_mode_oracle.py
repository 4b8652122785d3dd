"""The FDM table fdm32-dt0.2 against its one-mode scalar recurrence.

The datum (0, 1.5 sin 2x sin 2y) samples to one DST-I mode of the grid,
an eigenvector of D with eigenvalue lam = lam_{2,2}, and every level of the
twin, every control and every controlled state stay multiples of it.  So
the whole table is a scalar recurrence in the mode's amplitude, the FDM
step with lam in place of D,

    w+ = (w + dt u - dt lam v) / (1 + rho dt lam + (dt lam)^2),  v+ = v + dt lam w+,

with the march's control recipe and z = v / lam for K^{-1} B v.  A squared
grid norm is the squared amplitude times ||phi||^2 = (n+1)^2 / 4, phi the
sampled mode.  Run in 40-digit arithmetic, the recurrence agrees with this
float64 one to 7.2e-15 in energy and 3.5e-16 in control norm on every row.
"""

import math

import pytest

from platenull.bench import SweepConfig, run_sweep
from platenull.control import f_weight, f_weight_prime
from platenull.fdm import FdGrid, dn_eigenvalue

N, RHO, DT, AMPLITUDE = 32, 2.5, 0.2, 1.5
HORIZONS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def mode_march(lam, dt, rho, T, v0, w0):
    """(terminal energy, control norm) of one horizon, in the mode's amplitude."""

    def step(v, w, u=0.0):
        w_next = (w + dt * u - dt * lam * v) / (1.0 + rho * dt * lam + (dt * lam) ** 2)
        return v + dt * lam * w_next, w_next

    m = max(2, round(T / dt))
    twin = [(v0, w0)]
    for _ in range(m + 1):
        twin.append(step(*twin[-1]))
    v, w, sq_controls = v0, w0, 0.0
    for j in range(m):
        t = min(dt * (j + 1), T)
        (vh, wh), (vh_ahead, _) = twin[j + 1], twin[j + 2]
        a = rho * vh + wh + (vh_ahead / lam - vh / lam) / dt
        u = -(a * f_weight(t, T) + vh / lam * f_weight_prime(t, T))
        sq_controls += u * u
        v, w = step(v, w, u)
    return v * v + w * w, math.sqrt(dt * sq_controls)


def test_fdm32_dt02_matches_the_mode_recurrence():
    grid = FdGrid(n=N, a=math.pi)
    table = run_sweep(SweepConfig(scheme="fdm", n=N, rho=RHO, side=math.pi, dt=DT,
                                  t_list=HORIZONS))
    lam, mode_sq = dn_eigenvalue(2, 2, grid), (N + 1) ** 2 / 4
    for row in table.rows:
        energy, unorm = mode_march(lam, DT, RHO, row.T, 0.0, AMPLITUDE)
        energy, unorm = mode_sq * energy, math.sqrt(mode_sq) * unorm
        if max(energy, row.energy) > 1e-30:
            assert row.energy == pytest.approx(energy, rel=1e-12, abs=0.0), row.T
        assert row.unorm == pytest.approx(unorm, rel=1e-14, abs=0.0), row.T
