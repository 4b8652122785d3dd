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

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .core import check_finite_positive

__all__ = [
    "SpdFactorization",
    "needs_refinement",
    "Diagonal",
    "SineSolver",
    "BlockSolver",
    "SplitStepSolver",
]

_SPD_RESIDUAL_TOL = 1e-12
_BLOCK_RESIDUAL_TOL = 1e-10
# Largest band storage N (b + 1) that factor_spd factors by band Cholesky:
# 2^19 doubles, 4 MiB.  On a 2-core Xeon with 2 MiB of L2 per core, a solve
# of k = 1 to 7 columns by the band took 0.45-0.85 times SuperLU's time for
# the n=57 FEM step factors (191,691 entries), but 1.1-1.6 times for the
# n=150 FEM factors (3.4M).  No FDM matrix is factored: the FDM Schur
# matrix is solved by SineSolver.
_BAND_ENTRIES = 1 << 19


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
    A failing column with x = 0 for a nonzero b is reported as an underflow.
    """
    err, x_norms, b_norms = _column_norms(r), _column_norms(x), _column_norms(b)
    scale = norm * x_norms + b_norms
    ok = err <= tol * scale  # False for NaN
    if not ok.all():
        bad = ~np.atleast_1d(ok)
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = np.max(np.atleast_1d(err / scale)[bad])
        if np.any(bad & (np.atleast_1d(x_norms) == 0) & (np.atleast_1d(b_norms) > 0)):
            hint = "; the solution underflows double precision (it is zero for a nonzero b)"
        raise np.linalg.LinAlgError(
            f"{what} backward error {worst:.3e} exceeds {tol:.0e}{hint}")


def _bandwidth(A: sp.csr_matrix | sp.csc_matrix) -> int:
    """Largest |i - j| over the stored entries of a CSR or CSC matrix.

    Read from the first and last index of every row (or column), so no
    temporary is larger than N: none of nnz size runs ahead of a factor.
    """
    if not A.has_sorted_indices:
        A = A.sorted_indices()
    starts, ends = A.indptr[:-1], A.indptr[1:]
    slots = np.flatnonzero(ends > starts)  # an empty row has no extent
    if slots.size == 0:
        return 0
    return int(max(np.max(slots - A.indices[starts[slots]]),
                   np.max(A.indices[ends[slots] - 1] - slots)))


class _BandCholesky:
    """A = U^T U of a real SPD band matrix by LAPACK, in upper band storage.

    Upper storage, not lower: with the OpenBLAS that scipy ships, its solves
    took 0.75-0.8 times as long for the n=57 FEM step factors.
    """

    def __init__(self, A: sp.spmatrix, bandwidth: int):
        upper = sp.triu(A, format="coo")
        # row b + i - j of column j holds A[i, j]; toarray sums duplicate entries
        band = sp.coo_matrix((upper.data, (bandwidth + upper.row - upper.col, upper.col)),
                             shape=(bandwidth + 1, A.shape[0])).toarray(order="F")
        self._factor, info = lapack.dpbtrf(band, lower=0, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"factorization failed: matrix is not positive definite (dpbtrf info={info})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        return lapack.dpbtrs(self._factor, b, lower=0)[0]


def factor_spd(A: sp.csr_matrix | sp.csc_matrix, permc_spec: str | None = None):
    """Factor a real SPD matrix, or a complex split-step factor, once for many solves.

    The result's ``solve`` takes one right-hand side (n,) or a block (n, k).
    The choice reads only the matrix.  A real matrix whose band storage
    N (b + 1) is at most ``_BAND_ENTRIES`` is factored by LAPACK band
    Cholesky in natural order, which raises LinAlgError unless the matrix is
    positive definite.  Any other, of wide band or complex, is factored by
    SuperLU with column ordering ``permc_spec``, which certifies no
    definiteness.
    """
    bandwidth = _bandwidth(A)
    if np.isrealobj(A.data) and A.shape[0] * (bandwidth + 1) <= _BAND_ENTRIES:
        return _BandCholesky(A, bandwidth)
    try:
        return spla.splu(A.tocsc(), permc_spec=permc_spec)
    except RuntimeError as exc:  # singular to working precision
        raise np.linalg.LinAlgError(f"factorization failed: {exc}") from exc


def _check_symmetric(A: sp.spmatrix, tol: float = 1e-10) -> None:
    gap = abs(A - A.T)
    scale = max(abs(A).max(), 1.0)
    if gap.nnz and gap.max() > tol * scale:
        raise ValueError("matrix is not symmetric")


class SpdFactorization:
    """Direct factorization of a sparse SPD matrix, by :func:`factor_spd`.

    Construction certifies symmetry.  Only the band path certifies positive
    definiteness (band Cholesky fails on any other matrix); SuperLU factors
    any nonsingular matrix, and CG may converge on an indefinite one, so on
    those paths a matrix that is not SPD is caught only if a solve fails its
    backward-error check.  CG, one column at a time, runs only above a
    ``direct_limit`` the caller passes.
    """

    def __init__(self, A: sp.spmatrix, *, direct_limit: int | None = None):
        _check_square(A, "SPD matrix")
        _check_symmetric(A)
        self.A = A.tocsc()
        self.n = A.shape[0]
        self._norm = spla.norm(self.A, np.inf)
        self._direct = direct_limit is None or self.n <= direct_limit
        if self._direct:
            self._lu = factor_spd(self.A)

    def solve(self, b: np.ndarray) -> np.ndarray:
        _check_rhs(b, self.n)
        if self._direct:  # in C order, as the march holds blocks: the products after copy none
            x = np.ascontiguousarray(self._lu.solve(b))
        else:  # CG takes one column at a time
            cols = b.reshape(self.n, -1)
            x = np.empty(cols.shape)
            for c in range(cols.shape[1]):
                x[:, c], info = spla.cg(self.A, cols[:, c], rtol=_SPD_RESIDUAL_TOL, atol=0.0)
                if info != 0:
                    raise np.linalg.LinAlgError(f"CG did not converge (info={info})")
            x = x.reshape(b.shape)
        r = self.A @ x
        r -= b
        _check_backward_error(r, x, b, self._norm, _SPD_RESIDUAL_TOL,
                              "solve", "; input is likely not SPD or is severely "
                              "ill-conditioned")
        return x


# A sine solve refines once where its forward-error bound kappa eps (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 7.1 and ch. 12)
# exceeds 1e-10, the tolerance at which two backends' tables count as equal;
# kappa = max |eigenvalue| / min |eigenvalue|, eps = 2^-52.  The rule also picks
# the FDM coordinates: grid values, with the assembled Schur matrix, only where
# its eigenvalues call for refinement, and sine coefficients elsewhere.
# Measured kappa eps: the FDM Schur matrices read 3.9e-10 at n = 101, dt = 0.25,
# the one benchmark solver that refines, and 3.2e-12, 1.1e-12 and 6e-16 at
# n = 32, dt = 0.2, 0.1 and 1/1536; the stiffness matrices read 9.8e-14,
# 3.0e-13, 9.4e-13 and 2.1e-12 at n = 32, 57, 101 and 150 (1e-10 near n = 1050).
# Unrefined, fdm101-dt0.25 moved 1.47e-10 in energy from a factored solve of the
# assembled matrix, refined 4.1e-12.
_REFINE_ABOVE = 1e-10


def needs_refinement(eigenvalues: np.ndarray) -> bool:
    """Whether a solve by these eigenvalues refines: kappa eps > ``_REFINE_ABOVE``.

    Raises LinAlgError unless all are finite (else the matrix overflows) and nonzero.
    """
    overflows = (~np.isfinite(eigenvalues), "not finite: the matrix overflows double precision")
    for bad, what in (overflows, (eigenvalues == 0, "zero: the matrix is singular")):
        if bad.any():
            raise np.linalg.LinAlgError(
                f"{np.count_nonzero(bad)} of {eigenvalues.size} eigenvalues are {what}")
    magnitudes = np.abs(eigenvalues)
    # multiplied out so that no quotient overflows
    return bool(magnitudes.max() * np.finfo(float).eps > _REFINE_ABOVE * magnitudes.min())


class Diagonal:
    """diag(d) on (N,) vectors and (N, k) blocks; ``solve`` is checked as SineSolver's."""

    def __init__(self, d: np.ndarray):
        self.d = np.ravel(d)
        self._norm = float(np.abs(self.d).max())

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return x * (self.d if x.ndim == 1 else self.d[:, None])

    def solve(self, b: np.ndarray) -> np.ndarray:
        _check_rhs(b, self.d.size)
        x = b / (self.d if b.ndim == 1 else self.d[:, None])
        r = self @ x
        r -= b
        _check_backward_error(r, x, b, self._norm, _SPD_RESIDUAL_TOL, "diagonal solve")
        return x


class SineSolver:
    """Solver for a matrix that the 2D sine transform diagonalizes.

    ``A`` acts on n x n grid values in flat order (x index fastest) and
    equals Q diag(eigenvalues) Q with Q the orthonormal DST-I, which is its
    own inverse; entry [q-1, p-1] of the (n, n) ``eigenvalues`` belongs to
    the mode sin(p pi x/a) sin(q pi y/a).  A solve is a transform, a
    division and a transform, and a transform is two dense products Q G Q
    with the n x n matrix Q, built once.  On one thread these beat scipy's
    FFT-based DST-I at every n from 32 to 118 and at n = 150; the FFT wins
    at some larger n (by up to 1.9x at n <= 300).  :func:`needs_refinement`
    vets the eigenvalues and says whether each solve takes one refinement
    step x -= Q diag(1 / eigenvalues) Q (A x - b), as for the FDM Schur matrix
    of n = 101, dt = 0.25.  ``A`` is kept for the backward-error check, so a
    wrong eigenvalue or a matrix the transform does not diagonalize fails
    like a bad factorization.  The result is C-contiguous.
    """

    def __init__(self, A: sp.spmatrix, eigenvalues: np.ndarray):
        _check_square(A, "sine-diagonal matrix")
        n = eigenvalues.shape[0]
        if eigenvalues.shape != (n, n) or n * n != A.shape[0]:
            raise ValueError(f"eigenvalues of shape {eigenvalues.shape} do not "
                             f"match a grid of {A.shape[0]} unknowns")
        self._refines = needs_refinement(eigenvalues)
        self.A = A
        self.n = A.shape[0]
        self._norm = spla.norm(A, np.inf)
        self._eigenvalues = eigenvalues
        # Q[j-1, k-1] = sqrt(2/(n+1)) sin(pi j k/(n+1)), the angle reduced exactly mod 2 pi
        jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * (n + 1))
        self._Q = math.sqrt(2.0 / (n + 1)) * np.sin(jk * (math.pi / (n + 1)))

    def transform(self, b: np.ndarray, divisor: np.ndarray | None = None) -> np.ndarray:
        """Q b per grid (node values to sine coefficients, or back), or Q diag(1 / divisor) Q b.

        Coefficients are ordered as the flat eigenvalues.  The transforms run in
        two blocks of k grids, one of which returns as the result: shaped as b,
        in Fortran order for a block of k > 1 columns.
        """
        Q, side, k = self._Q, self._eigenvalues.shape[0], b.size // self.n
        grids = np.empty((k, side, side))
        grids.reshape(k, self.n)[...] = b.reshape(self.n, k).T
        work = np.matmul(Q, grids)
        np.matmul(work, Q, out=grids)
        if divisor is not None:
            grids /= divisor
            np.matmul(Q, grids, out=work)
            np.matmul(work, Q, out=grids)
        return grids.reshape(k, self.n).T.reshape(b.shape)

    def solve(self, b: np.ndarray) -> np.ndarray:
        _check_rhs(b, self.n)
        # in C order, as the march holds blocks: the products with A after copy none
        x = np.ascontiguousarray(self.transform(b, self._eigenvalues))
        r = self.A @ x
        r -= b
        if self._refines:
            x -= self.transform(r, self._eigenvalues)
            r = self.A @ x
            r -= b
        _check_backward_error(r, x, b, self._norm, _SPD_RESIDUAL_TOL,
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
    real part is SPD); :func:`factor_spd` factors a real one by band
    Cholesky when its band is narrow, and the rest by SuperLU.  Every
    column's backward error is checked against the full block system K, as
    in :class:`BlockSolver`.

    The check multiplies v+ and w+ by the stacked matrix [M; S], one product
    each.  The step returns [M v+; S v+], which the next step of the same
    columns takes as ``msv`` for its S v and its check's M v; given none,
    it computes [M v; S v].  A C-contiguous block is multiplied without a
    copy, and the v+ and w+ returned for a block are C-contiguous.
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
        S = sp.csr_matrix(S, copy=True)
        S.eliminate_zeros()  # a P1 stiffness matrix can hold exact zeros
        # K's infinity-norm: with M and S symmetric, its row sums are these column sums
        # of [|M| + dt |S|, dt |S| + |M + rho dt S|]
        dS = dt * abs(S).sum(axis=0)
        self._norm = float(max(np.max(abs(self.M).sum(axis=0) + dS),
                               np.max(dS + abs(self.M + rho * dt * S).sum(axis=0))))
        self._rho_dt = rho * dt
        s1, self._s2 = np.roots([1.0, -rho, 1.0])
        self._lu1, self._lu2 = [factor_spd((self.M + s * dt * S).tocsc(), "MMD_AT_PLUS_A")
                                for s in (s1, self._s2)]
        # stacked only now: an allocation before the factors moves where their
        # work arrays land in the heap, and with it the peak RSS
        self._MS = sp.vstack([self.M, S], format="csr")

    def solve(self, v: np.ndarray, b2: np.ndarray, msv: np.ndarray | None = None,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v+, w+, [M v+; S v+]) of the step from v with forcing b2.

        ``msv`` is [M v; S v], 2n rows, as the previous step returned it.
        """
        if v.shape != b2.shape:
            raise ValueError("right-hand sides do not match the block dimension")
        _check_rhs(v, self.n)
        n, dt = self.n, self.dt
        if msv is None:
            msv = self._MS @ v
        elif msv.shape != (2 * n,) + v.shape[1:]:
            raise ValueError(f"[M v; S v] has shape {msv.shape}, expected "
                             f"{(2 * n,) + v.shape[1:]}")
        y = self._lu1.solve(b2 - dt * msv[n:])
        w_next = self._lu2.solve(self.M @ y)
        v_next = np.ascontiguousarray(np.real(v + (y - w_next) / self._s2))
        w_next = np.ascontiguousarray(np.real(w_next))
        msv_next, msw = self._MS @ v_next, self._MS @ w_next
        Sw = msw[n:]
        r = (msv_next[:n] - dt * Sw - msv[:n],
             dt * msv_next[n:] + msw[:n] + self._rho_dt * Sw - b2)
        _check_backward_error(r, (v_next, w_next), (msv[:n], b2), self._norm,
                              _BLOCK_RESIDUAL_TOL, "split step")
        return v_next, w_next, msv_next
