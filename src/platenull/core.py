"""Shared state and reporting types, and the checks both schemes apply.

Everything here is plain data.  Instances are treated as immutable after
construction and may be shared freely across concurrent runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "StatePair",
    "RunReport",
    "check_finite_positive",
    "warn_coarse_step",
    "energy",
    "euclidean_sq",
    "rate_sequence",
]


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
class RunReport:
    """Per-run summary: terminal energy and control norm."""

    terminal_energy: float
    control_norm: float

    def __post_init__(self) -> None:
        for name in ("terminal_energy", "control_norm"):
            x = getattr(self, name)
            if not (x >= 0) or not math.isfinite(x):
                raise ValueError(f"{name} must be finite and nonnegative, got {x}")


def check_finite_positive(name: str, value: float) -> None:
    """One rule for rho, dt, the side, h^2 and T: raise ValueError unless 0 < value < inf."""
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
    1/4 yields the constant rate 2.  A quotient outside the normal float
    range is taken as log2(values_k) - log2(values_{k+1}) instead.
    """
    if len(values) < 2:
        raise ValueError("need at least two values to form rates")
    vals = np.asarray(values, dtype=float)
    if not np.all((vals > 0) & np.isfinite(vals)):
        raise ValueError("rates are only defined for finite positive values")
    with np.errstate(over="ignore", under="ignore"):
        ratios = vals[:-1] / vals[1:]
    normal = (ratios >= np.finfo(float).tiny) & (ratios <= np.finfo(float).max)
    return [float(np.log2(q) if ok else np.log2(a) - np.log2(b))
            for q, ok, a, b in zip(ratios, normal, vals[:-1], vals[1:])]
