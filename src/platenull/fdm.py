"""Finite-difference scheme: 5-point Laplacian, implicit stepping, control.

The interior grid of (0, a)^2 carries N = n^2 unknowns ordered so that
entry (j-1)*n + (i-1) approximates the value at (x_i, y_j) = (i*h, j*h);
the x index runs fastest.  With that ordering the 5-point matrix is the
Kronecker sum (1/h^2)(I (x) E + E (x) I) of 1D second differences, which
also yields its eigenvalues in closed form.

One implicit time step of the coupled system solves

    v+ - dt*D w+           = v,
    w+ + dt*D (v+ + rho w+) = dt*u + w,

by eliminating v+: the Schur matrix I + rho*dt*D + (dt*D)^2 is SPD.
Nothing is factored.  The orthonormal DST-I diagonalizes D, so a step on sine
coefficients divides by the Schur eigenvalues 1 + rho*dt*lam + (dt*lam)^2.  Where
they call for refinement (``linalg.needs_refinement``), states are grid values
and :class:`platenull.linalg.SineSolver` solves the assembled Schur matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .control import g_vector, mu_zero
from .core import RunReport, StatePair, check_finite_positive, euclidean_sq, warn_coarse_step
from .linalg import Diagonal, SineSolver, SpdFactorization, needs_refinement
from .march import InitialDatum, Scheme, TwinSource, march, sample

__all__ = [
    "FdGrid",
    "build_dn",
    "dn_eigenvalue",
    "dn_eigenvalues",
    "FdmStepper",
    "fdm_control_at_step",
    "fdm_scheme",
    "run_fdm_null_control",
]

@dataclass(frozen=True)
class FdGrid:
    """Interior grid metadata for (0, a)^2 with n points per axis."""

    n: int
    a: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1 interior points, got {self.n}")
        check_finite_positive("a", self.a)
        h2 = self.h * self.h  # not h**2: a float power raises on overflow
        check_finite_positive("h^2", h2)
        check_finite_positive("1/h^2", 1.0 / h2)

    @property
    def h(self) -> float:
        return self.a / (self.n + 1)

    @property
    def N(self) -> int:
        return self.n * self.n

    def index(self, i: int, j: int) -> int:
        """Flat index of (x_i, y_j), 1-based i, j; i runs fastest."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"(i, j) = ({i}, {j}) outside 1..{self.n}")
        return (j - 1) * self.n + (i - 1)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate vectors (x, y) of all N interior points in flat order."""
        coords = self.h * np.arange(1, self.n + 1)
        return np.tile(coords, self.n), np.repeat(coords, self.n)


def build_dn(grid: FdGrid) -> sp.csr_matrix:
    """Assemble the N x N 5-point Laplacian (1/h^2)(I (x) E + E (x) I)."""
    n = grid.n
    ones = np.ones(n)
    E = sp.diags([-ones[:-1], 2 * ones, -ones[:-1]], [-1, 0, 1])
    eye = sp.identity(n)
    return ((sp.kron(eye, E) + sp.kron(E, eye)) / grid.h**2).tocsr()


def dn_eigenvalue(i: int, j: int, grid: FdGrid) -> float:
    """Eigenvalue (1/h^2)(4 - 2 cos(i pi/(n+1)) - 2 cos(j pi/(n+1))).

    The eigenvector is the grid sample of sin(i pi x/a) sin(j pi y/a).
    The smallest one, (i, j) = (1, 1), equals 8 sin^2(h pi / (2a)) / h^2
    and tends to 2 pi^2 / a^2 as the grid is refined.
    """
    if not (1 <= i <= grid.n and 1 <= j <= grid.n):
        raise IndexError(f"(i, j) = ({i}, {j}) outside 1..{grid.n}")
    return float(dn_eigenvalues(grid)[j - 1, i - 1])


def dn_eigenvalues(grid: FdGrid) -> np.ndarray:
    """Every eigenvalue of the 5-point matrix: entry [j-1, i-1] is dn_eigenvalue(i, j).

    Reshaped to (N,), the entries follow the flat grid order.
    """
    c = np.cos(np.arange(1, grid.n + 1) * (math.pi / (grid.n + 1)))
    return (4.0 - 2.0 * (c[:, None] + c[None, :])) / grid.h**2


class FdmStepper:
    """One implicit-Euler step of the coupled system, on grid values or sine coefficients.

    ``eigenvalues`` are D's, as :func:`dn_eigenvalues` returns them.  Given D, the
    step acts on grid values; given ``Diagonal(eigenvalues)`` (:meth:`in_sine_basis`),
    on the coefficients of ``SineSolver.transform``.  The controlled step with
    u = None is bitwise the homogeneous one.  States and controls are (N,)
    vectors or (N, k) blocks of k columns.
    """

    def __init__(self, dn: sp.spmatrix | Diagonal, dt: float, rho: float,
                 eigenvalues: np.ndarray):
        mu = _schur_eigenvalues(dt, rho, eigenvalues)
        warn_coarse_step(dt, rho)
        self.dt, self.rho = dt, rho
        if isinstance(dn, Diagonal):  # the Schur solve is a division
            self.dn, self._schur = dn, Diagonal(mu)
        else:
            self.dn = dn.tocsr()
            dtD = dt * self.dn
            schur = (sp.identity(dn.shape[0]) + rho * dtD + dtD @ dtD).tocsr()
            self._schur = SineSolver(schur, mu)

    @classmethod
    def in_sine_basis(cls, dt: float, rho: float, eigenvalues: np.ndarray) -> FdmStepper:
        """The step on sine coefficients, where D is diag(eigenvalues)."""
        return cls(Diagonal(eigenvalues), dt, rho, eigenvalues)

    def step(self, state: StatePair, u: np.ndarray | None = None) -> StatePair:
        rhs = self.dn @ state.v  # b2 - dt D v, then v + dt D w+, each formed in place
        rhs *= -self.dt
        rhs += state.w if u is None else state.w + self.dt * u
        w_next = self._schur.solve(rhs)
        v_next = self.dn @ w_next
        v_next *= self.dt
        v_next += state.v
        return StatePair(v=v_next, w=w_next)


def fdm_control_at_step(vh_next2: np.ndarray, vh_next: np.ndarray, wh_next: np.ndarray,
                        t_next: float, dt: float, T: float, rho: float,
                        dn_solver: SpdFactorization) -> np.ndarray:
    """Assemble u^{j+1} = mu0 + mu1' from homogeneous values at two future levels."""
    mu0 = mu_zero(vh_next, wh_next, rho, t_next, T)
    G = g_vector(vh_next2, vh_next, dt, t_next, T)
    mu1_prime = dn_solver.solve(-G)
    return mu0 + mu1_prime


def _schur_eigenvalues(dt: float, rho: float, eigenvalues: np.ndarray) -> np.ndarray:
    """1 + rho dt lam + (dt lam)^2 for the eigenvalues lam of D; dt, rho finite and positive."""
    check_finite_positive("dt", dt)
    check_finite_positive("rho", rho)
    dt_lam = dt * eigenvalues
    with np.errstate(over="ignore"):  # needs_refinement rejects an eigenvalue that overflows
        return 1.0 + rho * dt_lam + dt_lam * dt_lam


def fdm_scheme(grid: FdGrid, dt: float, rho: float, *, weighted: bool = False) -> Scheme:
    """The march's view of the grid (K = D, B = I); norms h-weighted if ``weighted``.

    States are sine coefficients, or grid values where the Schur solve refines.
    """
    dn, lam = build_dn(grid), dn_eigenvalues(grid)
    weight = grid.h**2 if weighted else 1.0
    sine = SineSolver(dn, lam)
    parts = dict(mass=lambda v: v, sq_norms=lambda X: weight * euclidean_sq(X))
    if needs_refinement(_schur_eigenvalues(dt, rho, lam)):
        return Scheme(stepper=FdmStepper(dn, dt, rho, lam), mu_basis=sine.solve, **parts)
    # every sine coefficient of the probe is nonzero, so this checked solve raises
    # LinAlgError unless the transform diagonalizes D with these eigenvalues
    sine.solve(sine.transform(np.ones(grid.N)))
    stepper = FdmStepper.in_sine_basis(dt, rho, lam)
    return Scheme(stepper=stepper, mu_basis=stepper.dn.solve, basis=sine.transform, **parts)


def run_fdm_null_control(grid: FdGrid, dt: float, rho: float, T: float,
                         v0: InitialDatum, w0: InitialDatum, *,
                         twin: TwinSource = "discrete",
                         ) -> tuple[RunReport, np.ndarray, StatePair]:
    """Steer the sampled initial data toward zero over [0, T]: one horizon of the march.

    Reports the terminal energy and the control norm
    (dt * sum ||u^{j+1}||^2)^(1/2) in Euclidean norms.
    """
    scheme = fdm_scheme(grid, dt, rho)
    x, y = grid.points()
    return march(scheme, sample(v0, x, y), sample(w0, x, y), [T],
                 twin=twin, keep_controls=True)[0]
