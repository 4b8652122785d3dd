"""Sparse SPD storage and the linear solves backing both schemes.

Factorizations are computed once and reused across all time steps of a run;
they are immutable after construction and safe to share between threads.
Both solvers take one right-hand side (n,) or a block (n, k) per call.
Every column of every solve is residual-checked, so a silently wrong
factorization or a NaN cannot leak into a table.  The check is the
backward-error bound ||Ax - b|| <= tol * (||A|| ||x|| + ||b||), which a
stable factorization meets for any right-hand side; on well-scaled input it
coincides with the plain relative residual ||Ax - b||/||b|| <= tol.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SpdFactorization",
    "BlockSolver",
]

# Above this dimension a direct factorization is replaced by conjugate
# gradients; table-sized problems (N <= ~4e3) always take the direct path.
_DIRECT_LIMIT = 10_000

_SPD_RESIDUAL_TOL = 1e-12
_BLOCK_RESIDUAL_TOL = 1e-10


def _check_square(A: sp.spmatrix, name: str = "matrix") -> None:
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")


def _check_rhs(b: np.ndarray, n: int) -> None:
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},) or ({n}, k)")


def _check_backward_error(r: np.ndarray, x: np.ndarray, b: np.ndarray, norm: float,
                          tol: float, what: str, hint: str = "") -> None:
    """Raise unless every column has ||r|| <= tol (||A|| ||x|| + ||b||)."""
    err = np.linalg.norm(r, axis=0)
    scale = norm * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0)
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
    """Direct factorization of a sparse SPD matrix, with a CG fallback.

    Construction certifies symmetry and (via factorization success or CG
    convergence on first use) positive definiteness on the range exercised.
    """

    def __init__(self, A: sp.spmatrix, *, direct_limit: int = _DIRECT_LIMIT):
        _check_square(A, "SPD matrix")
        _check_symmetric(A)
        self.A = A.tocsc()
        self.n = A.shape[0]
        self._norm = spla.norm(self.A, 1)
        self._direct = self.n <= direct_limit
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
        self._norm = spla.norm(full, 1)
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
        r = np.concatenate([A11 @ x1 + A12 @ x2 - b1, A21 @ x1 + A22 @ x2 - b2])
        _check_backward_error(r, x, b, self._norm, _BLOCK_RESIDUAL_TOL, "block solve")
        return x1, x2

