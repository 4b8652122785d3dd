"""Shared configuration, state and reporting types used by both schemes.

Everything here is plain data.  Instances are treated as immutable after
construction and may be shared freely across concurrent runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PlateParams",
    "TimeGrid",
    "StatePair",
    "ControlTrajectory",
    "RunReport",
    "KalmanDiagnostics",
    "KALMAN_DENSE_CAP",
    "make_time_grid",
    "check_finite_positive",
    "warn_coarse_step",
    "energy",
    "euclidean_sq",
    "rate_sequence",
]


@dataclass(frozen=True)
class PlateParams:
    """Physical and discretization configuration of one run.

    rho : structural damping coefficient, rho > 0.
    a   : side length of the square domain (0, a)^2.
    T   : terminal (steering) time.
    m   : number of time steps, so dt = T/m.
    n   : interior resolution per axis (FDM grid points, FEM mesh nodes).
    """

    rho: float
    a: float
    T: float
    m: int
    n: int

    def __post_init__(self) -> None:
        for name in ("rho", "a", "T"):
            check_finite_positive(name, getattr(self, name))
        if self.m < 2:
            raise ValueError(f"need at least 2 time steps, got {self.m}")
        if self.n < 2:
            raise ValueError(f"need interior resolution >= 2, got {self.n}")

    @property
    def dt(self) -> float:
        return self.T / self.m


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j*dt, j = 0..m."""

    dt: float
    nodes: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.nodes) - 1

    @property
    def T(self) -> float:
        return float(self.nodes[-1])


def make_time_grid(T: float, m: int) -> TimeGrid:
    """Uniform time grid with m steps on [0, T]."""
    check_finite_positive("T", T)
    if m < 2:
        raise ValueError(f"need at least 2 time steps, got {m}")
    dt = T / m
    nodes = dt * np.arange(m + 1)
    nodes.flags.writeable = False
    return TimeGrid(dt=dt, nodes=nodes)


@dataclass(frozen=True)
class StatePair:
    """Coefficients (v, w) at one time level: (N,) vectors, or (N, k) blocks of k states."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        if self.v.shape != self.w.shape or self.v.ndim not in (1, 2):
            raise ValueError(
                f"v and w must be equal-shape (N,) or (N, k) arrays, "
                f"got {self.v.shape} and {self.w.shape}")


@dataclass(frozen=True)
class ControlTrajectory:
    """The sequence of discrete controls u^{j+1}, j = 0..m-1, on its time grid."""

    controls: np.ndarray  # shape (m, N); row j is the control applied at t_{j+1}
    grid: TimeGrid

    def __post_init__(self) -> None:
        if len(self.controls) != self.grid.m:
            raise ValueError(
                f"expected {self.grid.m} controls, got {len(self.controls)}")


@dataclass(frozen=True)
class RunReport:
    """Per-run summary: terminal energy, control norm, configuration echo."""

    terminal_energy: float
    control_norm: float
    T: float
    dt: float
    N: int

    def __post_init__(self) -> None:
        for name in ("terminal_energy", "control_norm"):
            x = getattr(self, name)
            if not (x >= 0) or not math.isfinite(x):
                raise ValueError(f"{name} must be finite and nonnegative, got {x}")


# The Kalman check builds dense 2N x 2N matrices up to N = KALMAN_DENSE_CAP**2 unknowns.
KALMAN_DENSE_CAP = 24


@dataclass(frozen=True)
class KalmanDiagnostics:
    """Result of the controllability check on one discretization."""

    dim: int                  # state dimension 2N
    rank: int                 # numerical rank of the Kalman matrix
    identity_error: float     # max |K K^{-1} - I| with the closed-form inverse
    operator_inv_norm: float  # ||S^{-1} M||_2, which is ||D^{-1}||_2 for FDM

    @property
    def full_rank(self) -> bool:
        return self.rank == self.dim


def check_finite_positive(name: str, value: float) -> None:
    """The one rule for rho, dt, the side and T: raise ValueError unless 0 < value < inf."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def warn_coarse_step(dt: float, rho: float) -> None:
    """Warn, for the caller's caller, when dt >= 1/rho.

    The implicit step of either scheme is uniquely solvable and does not
    raise the energy for every dt > 0, so this flags accuracy only: a step
    as long as the damping time scale 1/rho.
    """
    if dt * rho >= 1.0:
        warnings.warn(f"dt = {dt:g} >= 1/rho = {1.0 / rho:g}: the step is as long as the "
                      "damping time scale, so expect a large time-discretization error "
                      "(the implicit step is still uniquely solvable)", RuntimeWarning,
                      stacklevel=3)


def euclidean_sq(x: np.ndarray) -> float | np.ndarray:
    """Squared Euclidean norm, the FDM state norm; per column of an (N, k) block."""
    return np.einsum("i...,i...->...", x, x)


def energy(state: StatePair, sq_norm: Callable = euclidean_sq) -> float | np.ndarray:
    """Unhalved energy ||v||^2 + ||w||^2 in the scheme-supplied squared norm.

    The FDM scheme passes the Euclidean norm, the FEM scheme a mass-matrix-
    weighted one; for (N, k) blocks, the energy of every column.  A dimension
    mismatch inside ``sq_norm`` surfaces as its own error.
    """
    return sq_norm(state.v) + sq_norm(state.w)


def rate_sequence(values: Sequence[float]) -> list[float]:
    """log2 ratios of consecutive values, the "rate" column of a T-doubling sweep.

    rate_k = log2(values_k / values_{k+1}); a geometric sequence with ratio
    1/4 yields the constant rate 2.
    """
    if len(values) < 2:
        raise ValueError("need at least two values to form rates")
    vals = np.asarray(values, dtype=float)
    if np.any(vals <= 0):
        raise ValueError("rates are only defined for positive values")
    return [float(np.log2(vals[k] / vals[k + 1])) for k in range(len(vals) - 1)]
