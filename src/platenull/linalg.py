"""Sparse SPD storage and the linear solves backing both schemes.

Factorizations are computed once and reused across all time steps of a run;
they are immutable after construction and safe to share between threads.
Every solver takes one right-hand side (n,) or a block (n, k) per call.
Every column of every solve is residual-checked, so a silently wrong
factorization or a NaN cannot leak into a table.  The check is the
backward-error bound ||Ax - b|| <= tol * (||A|| ||x|| + ||b||), which a
stable factorization meets for any right-hand side; on well-scaled input it
coincides with the plain relative residual ||Ax - b||/||b|| <= tol.  The
norms are max-magnitude norms (the operator infinity-norm for A): unlike a
sum of squares they neither overflow nor underflow, so the check holds at
every scale of the data.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import check_finite_positive

__all__ = [
    "SpdFactorization",
    "SineSolver",
    "BlockSolver",
    "SplitStepSolver",
]

_SPD_RESIDUAL_TOL = 1e-12
_BLOCK_RESIDUAL_TOL = 1e-10


def _check_square(A: sp.spmatrix, name: str = "matrix") -> None:
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")


def _check_rhs(b: np.ndarray, n: int) -> None:
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},) or ({n}, k)")


def _column_norms(x: np.ndarray | tuple[np.ndarray, ...]) -> float | np.ndarray:
    """Largest magnitude of a vector, or of every column of a block; NaN if any is NaN.

    A tuple stands for its blocks stacked along the rows, which this norm
    never has to form.  The magnitudes are written transposed in C order, so
    that each column's maximum is a contiguous reduction: on a C-order block
    the strided one took 4 to 12 times as long.
    """
    if isinstance(x, tuple):
        return np.maximum.reduce([_column_norms(part) for part in x])
    return np.abs(x.T, order="C").max(axis=-1)


def _check_backward_error(r: np.ndarray | tuple, x: np.ndarray | tuple,
                          b: np.ndarray | tuple, norm: float, tol: float, what: str,
                          hint: str = "") -> None:
    """Raise unless every column has ||r|| <= tol (||A|| ||x|| + ||b||) in max norms.

    ``norm`` is ||A||, the operator infinity-norm (largest absolute row sum);
    r, x and b may each be a tuple of row blocks, as :func:`_column_norms` takes.
    """
    err = _column_norms(r)
    scale = norm * _column_norms(x) + _column_norms(b)
    bad = ~(err <= tol * scale)
    if np.any(bad):
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = np.max(np.atleast_1d(err / scale)[np.atleast_1d(bad)])
        raise np.linalg.LinAlgError(
            f"{what} backward error {worst:.3e} exceeds {tol:.0e}{hint}")


def _check_symmetric(A: sp.spmatrix, tol: float = 1e-10) -> None:
    gap = abs(A - A.T)
    scale = max(abs(A).max(), 1.0)
    if gap.nnz and gap.max() > tol * scale:
        raise ValueError("matrix is not symmetric")


class SpdFactorization:
    """Direct factorization of a sparse SPD matrix.

    Construction certifies symmetry and (via factorization success, or CG
    convergence on first use) positive definiteness on the range exercised.
    CG, one column at a time, runs only above a ``direct_limit`` the caller
    passes.
    """

    def __init__(self, A: sp.spmatrix, *, direct_limit: int | None = None):
        _check_square(A, "SPD matrix")
        _check_symmetric(A)
        self.A = A.tocsc()
        self.n = A.shape[0]
        self._norm = spla.norm(self.A, np.inf)
        self._direct = direct_limit is None or self.n <= direct_limit
        if self._direct:
            try:
                self._lu = spla.splu(self.A)
            except RuntimeError as exc:  # singular to working precision
                raise np.linalg.LinAlgError(f"factorization failed: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        _check_rhs(b, self.n)
        if self._direct:
            x = self._lu.solve(b)
        else:  # CG takes one column at a time
            cols = b.reshape(self.n, -1)
            x = np.empty(cols.shape)
            for c in range(cols.shape[1]):
                x[:, c], info = spla.cg(self.A, cols[:, c], rtol=_SPD_RESIDUAL_TOL, atol=0.0)
                if info != 0:
                    raise np.linalg.LinAlgError(f"CG did not converge (info={info})")
            x = x.reshape(b.shape)
        _check_backward_error(self.A @ x - b, x, b, self._norm, _SPD_RESIDUAL_TOL,
                              "solve", "; input is likely not SPD or is severely "
                              "ill-conditioned")
        return x


class SineSolver:
    """Solver for a matrix that the 2D sine transform diagonalizes.

    ``A`` acts on n x n grid values in flat order (x index fastest) and
    equals Q diag(eigenvalues) Q with Q the orthonormal DST-I, which is its
    own inverse; entry [q-1, p-1] of the (n, n) ``eigenvalues`` belongs to
    the mode sin(p pi x/a) sin(q pi y/a).  A solve is a transform, a
    division and a transform.  ``A`` itself is kept for the backward-error
    check, so a wrong eigenvalue or a matrix the transform does not
    diagonalize fails like a bad factorization.
    """

    def __init__(self, A: sp.spmatrix, eigenvalues: np.ndarray):
        _check_square(A, "sine-diagonal matrix")
        n = eigenvalues.shape[0]
        if eigenvalues.shape != (n, n) or n * n != A.shape[0]:
            raise ValueError(f"eigenvalues of shape {eigenvalues.shape} do not "
                             f"match a grid of {A.shape[0]} unknowns")
        self.A = A
        self.n = A.shape[0]
        self._norm = spla.norm(A, np.inf)
        self._eigenvalues = eigenvalues

    def solve(self, b: np.ndarray) -> np.ndarray:
        _check_rhs(b, self.n)
        grid = b.reshape(self._eigenvalues.shape + (-1,))
        coef = scipy.fft.dstn(grid, type=1, norm="ortho", axes=(0, 1))
        coef /= self._eigenvalues[:, :, None]
        x = scipy.fft.dstn(coef, type=1, norm="ortho", axes=(0, 1)).reshape(b.shape)
        _check_backward_error(self.A @ x - b, x, b, self._norm, _SPD_RESIDUAL_TOL,
                              "sine solve", "; the matrix is likely not diagonal in "
                              "the sine basis with these eigenvalues")
        return x


class BlockSolver:
    """Factored solver for the coupled system [[A11, A12], [A21, A22]].

    The time-step matrices of both schemes have this shape; the coupled
    matrix is factored once and reused for every step.  Solvability rests on
    the Schur complement A22 - A21 A11^{-1} A12 being invertible, which the
    factorization certifies.
    """

    def __init__(self, A11, A12, A21, A22):
        blocks = [A11, A12, A21, A22]
        shapes = {B.shape for B in blocks}
        if len(shapes) != 1 or blocks[0].shape[0] != blocks[0].shape[1]:
            raise ValueError(f"blocks must be conformable square, got {shapes}")
        self.n = blocks[0].shape[0]
        self._blocks = [sp.csr_matrix(B) for B in blocks]
        full = sp.bmat([[self._blocks[0], self._blocks[1]],
                        [self._blocks[2], self._blocks[3]]], format="csc")
        self._norm = spla.norm(full, np.inf)
        try:
            self._lu = spla.splu(full)
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(
                f"singular block system (Schur complement not invertible): {exc}") from exc

    def solve(self, b1: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if b1.shape != b2.shape:
            raise ValueError("right-hand sides do not match the block dimension")
        _check_rhs(b1, self.n)
        b = np.concatenate([b1, b2])
        x = self._lu.solve(b)
        x1, x2 = x[: self.n], x[self.n:]
        A11, A12, A21, A22 = self._blocks
        r = (A11 @ x1 + A12 @ x2 - b1, A21 @ x1 + A22 @ x2 - b2)
        _check_backward_error(r, x, b, self._norm, _BLOCK_RESIDUAL_TOL, "block solve")
        return x1, x2


class SplitStepSolver:
    """The FEM step K [v+; w+] = [M v; b2] through two half-size factors.

    K = [[M, -dt S], [dt S, M + rho dt S]] has the Schur complement
    M + rho dt S + dt^2 S M^{-1} S = A1 M^{-1} A2 with A_i = M + s_i dt S,
    where s1, s2 are the roots of s^2 - rho s + 1 (s1 + s2 = rho,
    s1 s2 = 1).  Since dt M^{-1} S A2^{-1} M = (I - A2^{-1} M) / s2, a step
    needs no M solve:

        y = A1^{-1} (b2 - dt S v),   w+ = A2^{-1} M y,   v+ = v + (y - w+) / s2.

    For rho < 2 the roots are a complex-conjugate pair with positive real
    part, the factors are complex and the result is the real part; rho = 2
    gives the double root 1.  Each A_i is nonsingular for every dt > 0 (its
    real part is SPD).  Every column's backward error is checked against the
    full block system K, as in :class:`BlockSolver`.
    """

    def __init__(self, M: sp.spmatrix, S: sp.spmatrix, dt: float, rho: float):
        check_finite_positive("dt", dt)
        check_finite_positive("rho", rho)
        _check_square(M, "mass matrix")
        if S.shape != M.shape:
            raise ValueError(f"M and S must have one shape, got {M.shape} and {S.shape}")
        self.n = M.shape[0]
        self.dt = dt
        self.M = sp.csr_matrix(M)
        self.S = sp.csr_matrix(S, copy=True)
        self.S.eliminate_zeros()  # a P1 stiffness matrix can hold exact zeros
        # K's infinity-norm: with M and S symmetric, its row sums are these column sums
        # of [|M| + dt |S|, dt |S| + |M + rho dt S|]
        dS = dt * abs(self.S).sum(axis=0)
        self._norm = float(max(np.max(abs(self.M).sum(axis=0) + dS),
                               np.max(dS + abs(self.M + rho * dt * self.S).sum(axis=0))))
        self._rho_dt = rho * dt
        s1, self._s2 = np.roots([1.0, -rho, 1.0])
        try:
            self._lu1, self._lu2 = [
                spla.splu((self.M + s * dt * self.S).tocsc(), permc_spec="MMD_AT_PLUS_A")
                for s in (s1, self._s2)]
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(f"factorization failed: {exc}") from exc

    def solve(self, v: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if v.shape != b2.shape:
            raise ValueError("right-hand sides do not match the block dimension")
        _check_rhs(v, self.n)
        M, S, dt = self.M, self.S, self.dt
        y = self._lu1.solve(b2 - dt * (S @ v))
        w_next = self._lu2.solve(M @ y)
        v_next = np.real(v + (y - w_next) / self._s2)
        w_next = np.real(w_next)
        Mv, Sw = M @ v, S @ w_next
        r = (M @ v_next - dt * Sw - Mv, dt * (S @ v_next) + M @ w_next + self._rho_dt * Sw - b2)
        _check_backward_error(r, (v_next, w_next), (Mv, b2), self._norm, _BLOCK_RESIDUAL_TOL,
                              "split step")
        return v_next, w_next
