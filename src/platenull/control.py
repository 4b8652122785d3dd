"""Scheme-independent pieces of the steering-control recipe at Kalman index 1.

The constructed null control is u = mu0 + mu1', where

    mu0(t)  = -(rho*v_h(t) + w_h(t)) f_T(t),
    mu1'(t) = -(spatial operator)^{-1} G(t),
    G(t)    = v_h'(t) f_T(t) + v_h(t) f_T'(t),

with (v_h, w_h) the homogeneous trajectory and f_T the normalized bump
below.  The spatial solve differs per scheme and lives there; everything
here is a pure function of vectors and scalars.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "f_weight",
    "f_weight_prime",
    "mu_zero",
    "g_vector",
]


def _check_time(t, T) -> None:
    if np.any(np.asarray(T) <= 0):
        raise ValueError(f"terminal time must be positive, got {T}")
    if not np.all((0 <= t) & (t <= T)):
        raise ValueError(f"t = {t} outside the steering window [0, {T}]")


def f_weight(t, T):
    """f_T(t) = 6 t (T - t) / T^3: nonnegative bump with unit integral on [0, T].

    Scalars or arrays; arrays are taken elementwise.
    """
    _check_time(t, T)
    return 6.0 * t * (T - t) / T**3


def f_weight_prime(t, T):
    """Derivative f_T'(t) = 6 (T - 2t) / T^3; vanishes at t = T/2."""
    _check_time(t, T)
    return 6.0 * (T - 2.0 * t) / T**3


def mu_zero(vh: np.ndarray, wh: np.ndarray, rho: float, t: float, T: float) -> np.ndarray:
    """First control component -(rho*vh + wh) f_T(t); identical in both schemes."""
    if vh.shape != wh.shape:
        raise ValueError(f"vh and wh must match, got {vh.shape} and {wh.shape}")
    return -(rho * vh + wh) * f_weight(t, T)


def g_vector(vh_next2: np.ndarray, vh_next: np.ndarray, dt: float,
             t_next: float, T: float) -> np.ndarray:
    """Discrete G at t_{j+1}: forward difference of v_h times f, plus v_h f'."""
    if vh_next2.shape != vh_next.shape:
        raise ValueError(
            f"trajectory levels must match, got {vh_next2.shape} and {vh_next.shape}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return ((vh_next2 - vh_next) / dt * f_weight(t_next, T)
            + vh_next * f_weight_prime(t_next, T))
