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

So the controls of all running horizons are one rank-2 product [a z] W_j,
a = rho v_h + w_h + (z^{j+2} - z^{j+1})/dt and z = z^{j+1}, with the
weights W = -[f; f'] of every step formed before the march.  A closed-form
twin is sampled, and its stiffness solve run, a block of levels at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .control import f_weight, f_weight_prime
from .core import RunReport, StatePair, check_finite_positive, energy

__all__ = ["Scheme", "InitialDatum", "sample", "TwinSource", "steps_for", "march"]

# A function f(x, y) of the node coordinates.
InitialDatum = Callable[[np.ndarray, np.ndarray], np.ndarray]


def sample(f: InitialDatum, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values of f at the nodes (x, y), one float per node.

    Numpy warnings are off: a non-finite sample is reported by the march.
    """
    with np.errstate(all="ignore"):
        return np.asarray(f(x, y), dtype=float) + np.zeros(len(x))


# "discrete" steps the homogeneous system with the run's own stepper; a
# callable supplies samples of a known homogeneous solution: given a 1-D
# array of L times it returns (v_h, w_h) as (N, L) blocks, column l at t[l].
TwinSource = str | Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

# The march forms the times t (M, K) and the weights (M, 2, off + K) of every
# step before its loop, so it takes at most this many step-columns M (off + K):
# 2^24, 256 MiB of weights.
_MAX_STEP_COLUMNS = 1 << 24

# A closed-form twin is sampled, and its stiffness solve run, at most this
# many node values per block: 2^14 / N levels (16 at n = 32), at least one.
_TWIN_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class Scheme:
    """What the march needs of one discretization at one dt.

    ``basis``, if given, maps node values to the coordinates the other members act
    on, and back (it is its own inverse, as the FDM sine transform is): the march
    applies it to the data and twin blocks, and to the terminal states and controls.
    """

    stepper: object  # FdmStepper or FemStepper: dt, rho, step on (N,) or (N, k) blocks
    mass: Callable[[np.ndarray], np.ndarray]      # v -> B v
    mu_basis: Callable[[np.ndarray], np.ndarray]  # B v -> K^{-1} B v
    sq_norms: Callable[[np.ndarray], np.ndarray]  # squared state norm of every column
    basis: Callable[[np.ndarray], np.ndarray] | None = None


def steps_for(T: float, dt: float) -> int:
    """Number of steps m with m dt = T; T must be a multiple (>= 2) of dt."""
    check_finite_positive("T", T)
    ratio = float(T) / float(dt)  # a Python float: inf on overflow, with no numpy warning
    if not math.isfinite(ratio):
        raise ValueError(f"T / dt = {T} / {dt} overflows: too many steps")
    m = max(2, round(ratio))
    if abs(m * dt - T) > 1e-9 * T:
        raise ValueError(f"T = {T} is not an integer multiple (>= 2) of dt = {dt}")
    return m


def _columns(state: StatePair, cols: int | slice) -> StatePair:
    """The columns ``cols`` of a block state and of its carried product, as new C-order arrays."""
    return StatePair(*(None if x is None else np.ascontiguousarray(x[:, cols])
                       for x in (state.v, state.w, state.msv)))


def _twin_levels(scheme: Scheme, basis: Callable, twin: Callable, dt: float, M: int, N: int):
    """Levels 1..M of a closed-form twin, each as (StatePair, K^{-1} B v_h).

    Each block of levels is one call of ``twin`` and one ``mu_basis`` solve.
    """
    L = max(1, _TWIN_BLOCK_ENTRIES // N)
    for first in range(1, M + 1, L):
        times = dt * np.arange(first, min(first + L, M + 1))
        v, w = twin(times)
        if np.shape(v) != (N, len(times)) or np.shape(w) != (N, len(times)):
            raise ValueError(f"twin must map L times to (N, L) = ({N}, {len(times)}) "
                             f"blocks (v_h, w_h), got {np.shape(v)} and {np.shape(w)}")
        v, w = basis(v), basis(w)
        z = scheme.mu_basis(scheme.mass(v))
        for c in range(v.shape[1]):
            yield StatePair(v=v[:, c], w=w[:, c]), z[:, c]


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
    basis = scheme.basis or (lambda x: x)
    v0, w0 = basis(v0), basis(w0)
    discrete = twin == "discrete"
    if not (discrete or callable(twin)):
        raise ValueError(f"twin must be 'discrete' or a callable, got {twin!r}")
    dt, rho = scheme.stepper.dt, scheme.stepper.rho
    order = sorted(range(len(horizons)), key=lambda c: horizons[c], reverse=True)
    T = np.array([horizons[c] for c in order], dtype=float)
    m = np.array([steps_for(Tc, dt) for Tc in T])
    N, K, M = len(v0), len(T), int(m[0])
    off = int(discrete)  # the discrete twin rides as column 0 of the stepped block
    if M * (off + K) > _MAX_STEP_COLUMNS:
        raise ValueError(f"{M} steps of {off + K} columns exceed the march's limit of "
                         f"{_MAX_STEP_COLUMNS} step-columns: use a larger dt or fewer T")
    # u^{j+1} = [a z] @ weights[j] for columns lo:hi, a zero column first for the twin;
    # t_{m_c} is T_c, however m_c dt rounds
    t = np.minimum(dt * np.arange(1, M + 1)[:, None], T)
    weights = np.zeros((M, 2, off + K))
    weights[:, 0, off:], weights[:, 1, off:] = -f_weight(t, T), -f_weight_prime(t, T)

    def with_z(level: StatePair) -> tuple[StatePair, np.ndarray]:
        """A twin level and its K^{-1} B v, with B v from the step's carried product if any."""
        return level, scheme.mu_basis(scheme.mass(level.v) if level.msv is None
                                      else level.msv[:N])

    if discrete:  # twin levels j + 1 (here) and j + 2 (ahead), for j = 0
        here = scheme.stepper.step(StatePair(v=v0, w=w0))
        (here, z_here), (ahead, z_ahead) = with_z(here), with_z(scheme.stepper.step(here))
    else:
        levels = _twin_levels(scheme, basis, twin, dt, M, N)
        (here, z_here), (ahead, z_ahead) = next(levels), next(levels)

    # The running columns are the riding twin (discrete only), then the
    # horizons still running, longest first.  They are held as C-contiguous
    # blocks with their carried [M v; S v], which are re-packed only when a
    # column stops running; a finished horizon's state moves to V_end, W_end.
    V, W = (np.repeat(x[:, None], off + K, axis=1) for x in (v0, w0))
    if discrete:
        V[:, 0], W[:, 0] = ahead.v, ahead.w
    state, held = StatePair(v=V, w=W), (0, off + K)
    V_end, W_end = np.empty((N, K)), np.empty((N, K))
    sq_controls = np.zeros(K)
    kept = np.empty((K, M, N)) if keep_controls else None
    az = np.empty((2, N))

    for j in range(M):
        k = int(np.count_nonzero(m > j))
        # the twin rides while a later step needs its level j + 3 <= M
        lo, hi = (0 if discrete and j + 3 <= M else off), off + k
        if (lo, hi) != held:
            V_end[:, hi - off:held[1] - off] = state.v[:, hi - held[0]:]
            W_end[:, hi - off:held[1] - off] = state.w[:, hi - held[0]:]
            state, held = _columns(state, slice(lo - held[0], hi - held[0])), (lo, hi)
        az[0], az[1] = rho * here.v + here.w + (z_ahead - z_here) / dt, z_here
        U = az.T @ weights[j, :, lo:hi]
        controls = U[:, off - lo:]
        sq_controls[:k] += scheme.sq_norms(controls)
        if keep_controls:
            kept[:k, j] = controls.T
        state = scheme.stepper.step(state, U)
        here, z_here = ahead, z_ahead
        if j + 2 < M:  # level M + 1 would only meet f_T(T) = 0 at the last step
            ahead, z_ahead = with_z(_columns(state, 0)) if discrete else next(levels)
    V_end[:, :held[1] - off], W_end[:, :held[1] - off] = state.v, state.w

    energies = energy(StatePair(v=V_end, w=W_end), scheme.sq_norms)
    V_end, W_end = basis(V_end), basis(W_end)
    results: list = [None] * K
    for c, idx in enumerate(order):
        report = RunReport(terminal_energy=float(energies[c]),
                           control_norm=math.sqrt(dt * float(sq_controls[c])))
        controls = basis(kept[c, :m[c]].T).T if keep_controls else None
        terminal = StatePair(v=V_end[:, c].copy(), w=W_end[:, c].copy())
        results[idx] = (report, controls, terminal)
    return results
