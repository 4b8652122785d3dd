"""Scheme-independent pieces of the steering-control recipe at Kalman index 1.

The constructed null control is u = mu0 + mu1', where

    mu0(t)  = -(rho*v_h(t) + w_h(t)) f_T(t),
    mu1'(t) = -(spatial operator)^{-1} G(t),
    G(t)    = v_h'(t) f_T(t) + v_h(t) f_T'(t),

with (v_h, w_h) the homogeneous trajectory and f_T the normalized bump
below.  The spatial solve differs per scheme and lives there; everything
here is a pure function of vectors, scalars and the (mass, stiffness) pair.
"""

from __future__ import annotations

import numpy as np

from .core import KALMAN_DENSE_CAP, KalmanDiagnostics

__all__ = [
    "f_weight",
    "f_weight_prime",
    "mu_zero",
    "g_vector",
    "kalman_check",
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


def kalman_check(M, S, rho: float) -> KalmanDiagnostics:
    """Verify the rank condition for [B, A B] with the closed-form inverse.

    For the sparse (mass, stiffness) pair of either scheme (FDM passes
    (I, D)), K = [[0, M^{-1}S], [I, -rho M^{-1}S]] and K^{-1} = [[rho I, I],
    [S^{-1}M, 0]]; the product is checked densely, so N <= KALMAN_DENSE_CAP^2.
    For FDM ||S^{-1}M||_2 = 1/lambda_{1,1}, bounded by ~a^2/(2 pi^2) as the
    grid is refined.
    """
    N = S.shape[0]
    if N > KALMAN_DENSE_CAP**2:
        raise ValueError(f"dense Kalman check capped at N <= {KALMAN_DENSE_CAP**2}")
    M, S = M.toarray(), S.toarray()
    Minv_S = np.linalg.solve(M, S)
    Z = np.zeros((N, N))
    eye = np.eye(N)
    K = np.block([[Z, Minv_S], [eye, -rho * Minv_S]])
    Sinv_M = np.linalg.solve(S, M)
    Kinv = np.block([[rho * eye, eye], [Sinv_M, Z]])
    identity_error = float(np.max(np.abs(K @ Kinv - np.eye(2 * N))))
    rank = int(np.linalg.matrix_rank(K))
    return KalmanDiagnostics(dim=2 * N, rank=rank, identity_error=identity_error,
                             operator_inv_norm=float(np.linalg.norm(Sinv_M, 2)))
