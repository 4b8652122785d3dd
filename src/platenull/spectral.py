"""Closed-form solution of the homogeneous system, used as ground truth.

On (0, a)^2 with Dirichlet conditions the Laplacian has eigenpairs

    lambda_{mn} = (m^2 + n^2) (pi/a)^2,
    phi_{mn}(x, y) = (2/a) sin(m pi x / a) sin(n pi y / a),

and each modal coefficient pair (alpha, beta) of (v, w) evolves under the
2x2 system lambda [[0, 1], [-1, -rho]].  Its matrix exponential covers every
rho > 0: two real rates for rho > 2, a double rate at rho = 2 and a complex
pair for rho < 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import expm

from .core import check_finite_positive

__all__ = [
    "Mode",
    "modal_evolve",
    "exact_test_solution",
    "evaluate_modal_sum",
]


@dataclass(frozen=True)
class Mode:
    """One Dirichlet mode on (0, a)^2 with its initial coefficient pair.

    alpha0, beta0 are coefficients of (v, w) against the orthonormal
    eigenfunction (2/a) sin(m pi x/a) sin(n pi y/a), so a pure datum
    c*sin(m pi x/a)sin(n pi y/a) has coefficient (a/2)*c.
    """

    m: int
    n: int
    alpha0: float
    beta0: float
    a: float = math.pi

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("wave numbers must be positive integers")
        check_finite_positive("a", self.a)

    @property
    def lam(self) -> float:
        return (self.m**2 + self.n**2) * (math.pi / self.a) ** 2

    def eigenfunction(self, x, y):
        return (2.0 / self.a * np.sin(self.m * math.pi * x / self.a)
                * np.sin(self.n * math.pi * y / self.a))


def modal_evolve(mode: Mode, rho: float, t: float) -> tuple[float, float]:
    """Coefficients (alpha(t), beta(t)) of one mode at time t >= 0, for any rho > 0."""
    check_finite_positive("rho", rho)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    alpha, beta = expm(t * mode.lam * np.array([[0.0, 1.0], [-1.0, -rho]])) @ (
        mode.alpha0, mode.beta0)
    return float(alpha), float(beta)


def exact_test_solution(x, y, t):
    """Reference solution of the benchmark problem (rho = 5/2, a = pi).

    Initial data (v, w)(0) = (0, (3/2) sin 2x sin 2y); then

        v(t) = (e^{-4t} - e^{-16t}) sin 2x sin 2y,
        w(t) = (2 e^{-16t} - e^{-4t}/2) sin 2x sin 2y.
    """
    shape = np.sin(2.0 * np.asarray(x)) * np.sin(2.0 * np.asarray(y))
    v = (math.exp(-4.0 * t) - math.exp(-16.0 * t)) * shape
    w = (2.0 * math.exp(-16.0 * t) - 0.5 * math.exp(-4.0 * t)) * shape
    return v, w


def evaluate_modal_sum(modes: Iterable[Mode], rho: float, x, y, t: float):
    """Superpose finitely many evolved modes at points (x, y) and time t."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.zeros(np.broadcast(x, y).shape)
    w = np.zeros_like(v)
    for mode in modes:
        alpha, beta = modal_evolve(mode, rho, t)
        phi = mode.eigenfunction(x, y)
        v += alpha * phi
        w += beta * phi
    return v, w
