"""Acceptance suite: one test per criterion, one printed verdict line each.

Conventions fixed across the suite: rho = 5/2, domain (0, pi)^2, benchmark
initial datum (0, 1.5 sin 2x sin 2y).  The finite-difference table runs feed
the control from the closed-form homogeneous solution (the benchmark's
stated trajectory source); the finite-element runs use the implicitly
stepped twin.

The datum is a single mode, so the continuous control it defines has a
closed form (``_closed_form_unorm``): the limit both schemes converge to.
Wherever that closed form applies it is the oracle.  The published benchmark
numbers are kept below and printed next to each verdict for comparison; the
terminal-energy clauses of criteria 1 and 4 still pin them, because no
closed form speaks to those columns.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from platenull.bench import (SweepConfig, fit_loglog_slope, run_property_checks,
                             run_sweep)
from platenull.control import f_weight, f_weight_prime
from platenull.core import StatePair, rate_sequence
from platenull.fdm import FdGrid, FdmStepper, build_dn, dn_eigenvalues
from platenull.march import sample
from platenull.spectral import exact_test_solution

RHO = 2.5
SIDE = math.pi

# Published reference rates and values, keyed by scheme and time step.  They
# are printed next to each verdict.  Criteria 2, 3 and 5 check against the
# closed form instead: for this datum it rules out the published T=2 norm,
# the published first dt=0.1 rate (it moves away from the limit as dt
# shrinks) and the published blow-up exponent -3/2, which is the worst case
# over all data while a datum with v0 = 0 gives T^(-1/2).
FDM_COARSE_RATES = (1.879, 1.937, 1.968, 1.984, 1.992)        # dt = 0.2
FDM_COARSE_ENERGY_T2 = 4.7354e-06
FDM_FINE_RATES = (1.923, 1.961, 1.980, 1.990, 1.995)          # dt = 0.1
FDM_FINE_UNORM_T2 = 3.6379
FEM_COARSE_RATES = (1.838, 1.923, 1.962, 1.981, 1.991)        # dt = 0.2
FEM_COARSE_ENERGY_RATES = (1.876, 1.962, 1.981, 1.991, 1.995)
FEM_FINE_RATES = (1.854, 1.929, 1.966, 1.983, 1.992)          # dt = 0.1
FEM_FINE_ENERGY_RATES = (1.927, 1.981, 1.991, 1.995, 1.998)
FDM_BLOWUP_FINAL_RATE = -1.701                                # dt = 1/1536
FEM_BLOWUP_FINAL_RATE = -1.51
FDM_BLOWUP_SLOPE_BRACKET = (-1.8, -1.2)
FEM_BLOWUP_SLOPE_BRACKET = (-1.9, -1.0)

GROWING_T = tuple(2.0**k for k in range(1, 7))      # 2 .. 64
SHRINKING_T = tuple(2.0**-k for k in range(4, 10))  # 2^-4 .. 2^-9
BLOWUP_DT = 1.0 / 1536.0


def _verdict(name: str, clauses: list[tuple[str, bool, str]]) -> None:
    ok = all(passed for _, passed, _ in clauses)
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}")
    for label, passed, detail in clauses:
        print(f"    {'ok  ' if passed else 'FAIL'} {label}: {detail}")
    assert ok, f"{name}: " + "; ".join(
        f"{label} failed ({detail})" for label, passed, detail in clauses if not passed)


def _rates(table, column):
    return [getattr(r, column) for r in table.rows[1:]]


def _fmt_rates(rates) -> str:
    return ", ".join(f"{r:.3f}" for r in rates)


# Closed-form oracle.  The benchmark datum is the single mode sin 2x sin 2y,
# whose Laplacian eigenvalue is 8.  Writing a(t), b(t) for its v and w
# coefficients, a' = 8 b, so mu0 = -(rho a + b) f_T and
# mu1' = -(a' f_T + a f_T') / 8 add up to the continuous control below.
MODE_LAMBDA = 8.0


def _closed_form_control(t: float, T: float) -> float:
    """Coefficient of sin 2x sin 2y in the continuous control at time t."""
    v, w = exact_test_solution(SIDE / 4, SIDE / 4, t)  # the mode equals 1 there
    a, b = float(v), float(w)
    return -((RHO * a + 2.0 * b) * f_weight(t, T)
             + a * f_weight_prime(t, T) / MODE_LAMBDA)


def _closed_form_unorm(T: float) -> float:
    """L2(0, T) norm of the continuous control's coefficient."""
    square, _ = quad(lambda t: _closed_form_control(t, T) ** 2, 0.0, T, limit=200)
    return math.sqrt(square)


def _closed_form_blowup() -> tuple[list[float], float]:
    """Closed-form rates over SHRINKING_T and the slope over its three smallest T."""
    unorms = [_closed_form_unorm(T) for T in SHRINKING_T]
    slope = fit_loglog_slope(list(zip(SHRINKING_T[-3:], unorms[-3:])))
    return rate_sequence(unorms), slope


@pytest.mark.parametrize("T", [2.0, SHRINKING_T[-1]])
def test_closed_form_control_steers_mode_to_zero(T):
    """The oracle is a null control: the modal ODE driven by it ends at rest."""
    def rhs(t, y):
        u = _closed_form_control(min(t, T), T)
        return [MODE_LAMBDA * y[1], -MODE_LAMBDA * (y[0] + RHO * y[1]) + u]

    sol = solve_ivp(rhs, (0.0, T), [0.0, 1.5], rtol=1e-10, atol=1e-12)
    assert sol.success
    assert np.abs(sol.y[:, -1]).max() <= 1e-8


def test_criterion_1_fdm_coarse_dt_reproduction():
    config = SweepConfig(scheme="fdm", n=32, rho=RHO, side=SIDE, dt=0.2,
                         t_list=GROWING_T, twin="exact")
    start = time.perf_counter()
    table = run_sweep(config)
    elapsed = (time.perf_counter() - start) / len(GROWING_T)

    clauses = []
    rates = _rates(table, "unorm_rate")
    gaps = [abs(r - ref) for r, ref in zip(rates, FDM_COARSE_RATES)]
    clauses.append(("control-norm rates within +-0.05 of the dt=0.2 reference",
                    all(g <= 0.05 for g in gaps),
                    "rates " + ", ".join(f"{r:.3f}" for r in rates)
                    + f"; max gap {max(gaps):.3f}"
                    + f"; first norm {table.rows[0].unorm:.4f}"))
    e2 = table.rows[0].energy
    clauses.append(("terminal energy at T=2 within 20% of 4.7354E-06",
                    abs(e2 - FDM_COARSE_ENERGY_T2) <= 0.2 * FDM_COARSE_ENERGY_T2,
                    f"measured {e2:.4E}"))
    tail = [r.energy for r in table.rows[1:]]
    clauses.append(("terminal energy <= 1e-6 for T >= 4",
                    all(e <= 1e-6 for e in tail),
                    "max " + f"{max(tail):.2E}"))
    clauses.append(("runtime seconds-per-T",
                    elapsed < 30.0, f"{elapsed:.2f} s per terminal time"))
    _verdict("criterion 1 (FDM, dt=0.2, T=2..64)", clauses)


def test_criterion_2_fdm_fine_dt_reproduction():
    config = SweepConfig(scheme="fdm", n=32, rho=RHO, side=SIDE, dt=0.1,
                         t_list=GROWING_T, twin="exact")
    table = run_sweep(config)
    coarse = run_sweep(replace(config, dt=0.2, t_list=GROWING_T[:1]))
    # the FDM control norm is Euclidean over grid values: scale by the mode's
    mode = sample(lambda x, y: np.sin(2 * x) * np.sin(2 * y), *FdGrid(n=32, a=SIDE).points())
    u2_ref = _closed_form_unorm(GROWING_T[0]) * float(np.linalg.norm(mode))
    rates_ref = rate_sequence([_closed_form_unorm(T) for T in GROWING_T])

    clauses = []
    u2 = table.rows[0].unorm
    clauses.append((f"first control norm within 10% of the closed form {u2_ref:.4f}",
                    abs(u2 - u2_ref) <= 0.1 * u2_ref,
                    f"measured {u2:.4f}; published {FDM_FINE_UNORM_T2:.4f}"))
    rates = _rates(table, "unorm_rate")
    gaps = [abs(r - ref) for r, ref in zip(rates, rates_ref)]
    clauses.append(("control-norm rates within +-0.05 of the closed-form rates",
                    all(g <= 0.05 for g in gaps),
                    f"rates {_fmt_rates(rates)}; closed form {_fmt_rates(rates_ref)}"
                    f"; max gap {max(gaps):.3f}; published {_fmt_rates(FDM_FINE_RATES)}"))
    gap_coarse = abs(coarse.rows[0].unorm - u2_ref)
    gap_fine = abs(u2 - u2_ref)
    clauses.append(("T=2 gap to the closed form at least halves from dt=0.2 to dt=0.1",
                    gap_fine <= 0.5 * gap_coarse,
                    f"gap {gap_coarse:.4f} -> {gap_fine:.4f}"))
    _verdict("criterion 2 (FDM, dt=0.1, T=2..64)", clauses)


def test_criterion_3_fdm_blowup():
    config = SweepConfig(scheme="fdm", n=32, rho=RHO, side=SIDE, dt=BLOWUP_DT,
                         t_list=SHRINKING_T, twin="exact")
    table = run_sweep(config)

    rates_ref, slope_ref = _closed_form_blowup()
    half_width = (FDM_BLOWUP_SLOPE_BRACKET[1] - FDM_BLOWUP_SLOPE_BRACKET[0]) / 2

    clauses = []
    rates = _rates(table, "unorm_rate")
    clauses.append(("all control-norm rates negative",
                    all(r < 0 for r in rates),
                    f"rates {_fmt_rates(rates)}; closed form {_fmt_rates(rates_ref)}"))
    clauses.append((f"rate at smallest T within +-0.3 of the closed form {rates_ref[-1]:.3f}",
                    abs(rates[-1] - rates_ref[-1]) <= 0.3,
                    f"final rate {rates[-1]:.3f}; published {FDM_BLOWUP_FINAL_RATE}"))
    points = [(r.T, r.unorm) for r in table.rows[-3:]]
    slope = fit_loglog_slope(points)
    clauses.append((f"log-log slope over three smallest T within +-{half_width:.2f} of the "
                    f"closed form {slope_ref:.3f}",
                    abs(slope - slope_ref) <= half_width,
                    f"slope {slope:.3f}; published bracket {list(FDM_BLOWUP_SLOPE_BRACKET)}"))
    _verdict("criterion 3 (FDM blow-up, dt=1/1536)", clauses)


# structured-mesh resolution comparable to the published 3338-node benchmark mesh
FEM_N = 57


@pytest.mark.parametrize("dt,rates_ref,energy_rates_ref", [
    (0.2, FEM_COARSE_RATES, FEM_COARSE_ENERGY_RATES),
    (0.1, FEM_FINE_RATES, FEM_FINE_ENERGY_RATES),
])
def test_criterion_4_fem_rate_reproduction(dt, rates_ref, energy_rates_ref):
    config = SweepConfig(scheme="fem", n=FEM_N, rho=RHO, side=SIDE, dt=dt,
                         t_list=GROWING_T)
    table = run_sweep(config)

    clauses = []
    rates = _rates(table, "unorm_rate")
    gaps = [abs(r - ref) for r, ref in zip(rates, rates_ref)]
    clauses.append((f"control-norm rates within +-0.1 of the dt={dt} reference",
                    all(g <= 0.1 for g in gaps),
                    "rates " + ", ".join(f"{r:.3f}" for r in rates)
                    + f"; max gap {max(gaps):.3f}"))
    erates = _rates(table, "energy_rate")
    egaps = [abs(r - ref) for r, ref in zip(erates, energy_rates_ref)]
    clauses.append((f"terminal-energy rates within +-0.1 of the dt={dt} reference",
                    all(g <= 0.1 for g in egaps),
                    "rates " + ", ".join(f"{r:.2f}" for r in erates)
                    + f"; max gap {max(egaps):.2f}"))
    _verdict(f"criterion 4 (FEM, dt={dt}, T=2..64)", clauses)


def test_criterion_5_fem_blowup():
    config = SweepConfig(scheme="fem", n=FEM_N, rho=RHO, side=SIDE, dt=BLOWUP_DT,
                         t_list=SHRINKING_T)
    table = run_sweep(config)

    rates_ref, slope_ref = _closed_form_blowup()
    half_width = (FEM_BLOWUP_SLOPE_BRACKET[1] - FEM_BLOWUP_SLOPE_BRACKET[0]) / 2

    clauses = []
    rates = _rates(table, "unorm_rate")
    clauses.append(("control-norm rates negative for all T <= 2^-4",
                    all(r < 0 for r in rates),
                    f"rates {_fmt_rates(rates)}; closed form {_fmt_rates(rates_ref)}"))
    clauses.append((f"final rate within +-0.4 of the closed form {rates_ref[-1]:.3f}",
                    abs(rates[-1] - rates_ref[-1]) <= 0.4,
                    f"final rate {rates[-1]:.3f}; published {FEM_BLOWUP_FINAL_RATE}"))
    points = [(r.T, r.unorm) for r in table.rows[-3:]]
    slope = fit_loglog_slope(points)
    clauses.append((f"log-log slope over three smallest T within +-{half_width:.2f} of the "
                    f"closed form {slope_ref:.3f}",
                    abs(slope - slope_ref) <= half_width,
                    f"slope {slope:.3f}; published bracket {list(FEM_BLOWUP_SLOPE_BRACKET)}"))
    _verdict("criterion 5 (FEM blow-up, dt=1/1536)", clauses)


def _fdm_homogeneous_max_error(n: int, dt: float, t_end: float) -> float:
    grid = FdGrid(n=n, a=SIDE)
    x, y = grid.points()
    state = StatePair(v=np.zeros(grid.N),
                      w=sample(lambda x, y: 1.5 * np.sin(2 * x)
                               * np.sin(2 * y), *grid.points()))
    stepper = FdmStepper(build_dn(grid), dt, RHO, dn_eigenvalues(grid))
    for _ in range(round(t_end / dt)):
        state = stepper.step(state)
    ve, we = exact_test_solution(x, y, t_end)
    return float(max(np.abs(state.v - ve).max(), np.abs(state.w - we).max()))


def test_criterion_6_oracle_equivalence():
    err_coarse = _fdm_homogeneous_max_error(32, 0.01, 1.0)
    err_anchor = _fdm_homogeneous_max_error(32, 0.005, 1.0)
    err_fine = _fdm_homogeneous_max_error(32, 0.0025, 1.0)

    clauses = []
    clauses.append(("grid max-norm error at t=1 <= 5e-3 (n=32, dt=0.005)",
                    err_anchor <= 5e-3, f"error {err_anchor:.3E}"))
    ratio = err_coarse / err_anchor
    clauses.append(("halving dt (0.01 -> 0.005) reduces the error by [1.7, 2.3]",
                    1.7 <= ratio <= 2.3, f"factor {ratio:.3f}"))
    clauses.append(("error keeps decreasing at dt=0.0025",
                    err_fine < err_anchor,
                    f"{err_fine:.3E} < {err_anchor:.3E} "
                    f"(factor {err_anchor / err_fine:.2f}, floor set by the "
                    "fixed n=32 spatial error)"))
    _verdict("criterion 6 (homogeneous run vs closed-form solution)", clauses)


def test_criterion_7_property_suite():
    results = run_property_checks()
    clauses = [(r.name, r.passed, r.detail) for r in results]
    _verdict("criterion 7 (property suite)", clauses)
