"""The run loop of both schemes: every horizon of a sweep in one lockstep march.

The step matrix and the stiffness factorization depend on dt, not on the
horizon T = m dt, and every horizon is fed the same homogeneous twin, so one
march serves a whole sweep.  Column c of the controlled state carries
horizon c; at step j every horizon with m_c > j advances in one
multi-column implicit step, with the discrete twin, two levels ahead, as
one more column under zero control.  The control is u^{j+1} = mu0 + mu1',
and G = v_h' f_T + v_h f_T' is linear in v_h with weights that depend only
on T, so one stiffness solve per twin level serves every horizon: with
z^j = K^{-1} B v_h^j (K, B = S, M for FEM and D, I for FDM),

    mu1'_T(t_{j+1}) = -[f_T (z^{j+2} - z^{j+1})/dt + f_T' z^{j+1}].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .control import f_weight, f_weight_prime
from .core import RunReport, StatePair, check_finite_positive, energy

__all__ = ["Scheme", "InitialDatum", "TwinSource", "steps_for", "march"]

# A function f(x, y) of the node coordinates.
InitialDatum = Callable[[np.ndarray, np.ndarray], np.ndarray]

# "discrete" steps the homogeneous system with the run's own stepper; a
# callable t -> (v_h, w_h) supplies samples of a known homogeneous solution.
TwinSource = str | Callable[[float], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Scheme:
    """What the march needs of one discretization at one dt."""

    stepper: object  # FdmStepper or FemStepper: dt, rho, step on (N,) or (N, k) blocks
    mu_basis: Callable[[np.ndarray], np.ndarray]  # v -> K^{-1} B v
    sq_norms: Callable[[np.ndarray], np.ndarray]  # squared state norm of every column


def steps_for(T: float, dt: float) -> int:
    """Number of steps m with m dt = T; T must be a multiple (>= 2) of dt."""
    check_finite_positive("T", T)
    m = max(2, round(T / dt))
    if abs(m * dt - T) > 1e-9 * T:
        raise ValueError(f"T = {T} is not an integer multiple (>= 2) of dt = {dt}")
    return m


def march(scheme: Scheme, v0: np.ndarray, w0: np.ndarray, horizons: Sequence[float], *,
          twin: TwinSource = "discrete", keep_controls: bool = False,
          ) -> list[tuple[RunReport, np.ndarray | None, StatePair]]:
    """Steer (v0, w0) toward zero over every horizon T in ``horizons`` at once.

    Returns, in the order of ``horizons``, the run report, the controls
    (with ``keep_controls``, else None) and the terminal state.  The controls
    of a horizon with m steps are an (m, N) array whose row j is u^{j+1}.
    """
    if not (np.all(np.isfinite(v0)) and np.all(np.isfinite(w0))):
        raise ValueError("initial data must be finite at every node")
    discrete = twin == "discrete"
    if not (discrete or callable(twin)):
        raise ValueError(f"twin must be 'discrete' or a callable, got {twin!r}")
    dt, rho = scheme.stepper.dt, scheme.stepper.rho
    order = sorted(range(len(horizons)), key=lambda c: horizons[c], reverse=True)
    T = np.array([horizons[c] for c in order], dtype=float)
    m = np.array([steps_for(Tc, dt) for Tc in T])
    N, K, M = len(v0), len(T), int(m[0])

    if discrete:  # twin levels j + 1 (here) and j + 2 (ahead), for j = 0
        here = scheme.stepper.step(StatePair(v=v0, w=w0))
        ahead = scheme.stepper.step(here)
        here, ahead = (here.v, here.w), (ahead.v, ahead.w)
    else:
        here, ahead = twin(dt), twin(2 * dt)
    z_here, z_ahead = scheme.mu_basis(here[0]), scheme.mu_basis(ahead[0])

    # columns: the riding twin (discrete only), then the horizons, longest
    # first, so the horizons still running at step j are a prefix
    off = int(discrete)
    V = np.empty((N, off + K), order="F")
    W = np.empty((N, off + K), order="F")
    V[:, off:], W[:, off:] = v0[:, None], w0[:, None]
    if discrete:
        V[:, 0], W[:, 0] = ahead
    sq_controls = np.zeros(K)
    kept = np.empty((K, M, N)) if keep_controls else None

    for j in range(M):
        k = int(np.count_nonzero(m > j))
        t = np.minimum((j + 1) * dt, T[:k])  # t_{m_c} is T_c, however m_c dt rounds
        f, fp = f_weight(t, T[:k]), f_weight_prime(t, T[:k])
        vh, wh = here
        U = np.zeros((N, off + k), order="F")
        U[:, off:] = -(np.outer(rho * vh + wh + (z_ahead - z_here) / dt, f)
                       + np.outer(z_here, fp))
        sq_controls[:k] += scheme.sq_norms(U[:, off:])
        if keep_controls:
            kept[:k, j] = U[:, off:].T
        # the twin rides while a later step needs its level j + 3 <= M
        lo = 0 if discrete and j + 3 <= M else off
        hi = off + k
        state = scheme.stepper.step(StatePair(v=V[:, lo:hi], w=W[:, lo:hi]), U[:, lo:])
        V[:, lo:hi], W[:, lo:hi] = state.v, state.w
        here, z_here = ahead, z_ahead
        if j + 2 < M:  # level M + 1 would only meet f_T(T) = 0 at the last step
            ahead = (V[:, 0].copy(), W[:, 0].copy()) if discrete else twin((j + 3) * dt)
            z_ahead = scheme.mu_basis(ahead[0])

    energies = energy(StatePair(v=V[:, off:], w=W[:, off:]), scheme.sq_norms)
    results: list = [None] * K
    for c, idx in enumerate(order):
        report = RunReport(terminal_energy=float(energies[c]),
                           control_norm=math.sqrt(dt * float(sq_controls[c])))
        controls = kept[c, :m[c]] if keep_controls else None
        terminal = StatePair(v=V[:, off + c].copy(), w=W[:, off + c].copy())
        results[idx] = (report, controls, terminal)
    return results
