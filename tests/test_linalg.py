import numpy as np
import pytest
import scipy.sparse as sp

from platenull.fdm import FdGrid, build_dn
from platenull.fem import assemble_mass, assemble_stiffness, build_structured_mesh
from platenull.linalg import BlockSolver, SpdFactorization


def solve_spd(A, b):
    return SpdFactorization(A).solve(b)


def solve_block_2x2(A11, A12, A21, A22, b1, b2):
    return BlockSolver(A11, A12, A21, A22).solve(b1, b2)


def residual(A, x, b):
    return np.linalg.norm(A @ x - b) / np.linalg.norm(b)


class TestSolveSpd:
    def test_identity(self):
        b = np.arange(1.0, 6.0)
        x = solve_spd(sp.identity(5, format="csc"), b)
        np.testing.assert_allclose(x, b, rtol=1e-14)

    def test_scalar_matrix(self):
        b = np.arange(1.0, 6.0)
        x = solve_spd(2.0 * sp.identity(5, format="csc"), b)
        np.testing.assert_allclose(x, b / 2.0, rtol=1e-14)

    def test_dn_solve_residual(self):
        A = build_dn(FdGrid(n=2, a=3.0))
        b = np.ones(4)
        x = solve_spd(A, b)
        assert residual(A, x, b) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_recovers_random_solution(self, n):
        rng = np.random.default_rng(n)
        mesh = build_structured_mesh(n, np.pi)
        keep = mesh.interior
        mats = [build_dn(FdGrid(n=n, a=np.pi)),
                assemble_mass(mesh)[keep][:, keep],
                assemble_stiffness(mesh)[keep][:, keep]]
        for A in mats:
            x = rng.standard_normal(A.shape[0])
            got = solve_spd(A, A @ x)
            assert np.linalg.norm(got - x) <= 1e-10 * np.linalg.norm(x)

    def test_rejects_nonsymmetric(self):
        A = sp.csc_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            solve_spd(A, np.ones(2))

    def test_rejects_singular(self):
        A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            solve_spd(A, np.ones(2))

    def test_rejects_dimension_mismatch(self):
        fac = SpdFactorization(sp.identity(3, format="csc"))
        with pytest.raises(ValueError):
            fac.solve(np.ones(4))

    def test_cg_fallback_path(self):
        A = build_dn(FdGrid(n=4, a=np.pi))
        rng = np.random.default_rng(1)
        x = rng.standard_normal(16)
        fac = SpdFactorization(A, direct_limit=1)  # force iterative branch
        got = fac.solve(A @ x)
        assert np.linalg.norm(got - x) <= 1e-8 * np.linalg.norm(x)


class TestBlockSolve:
    def test_decoupled_identity(self):
        eye = sp.identity(3, format="csr")
        zero = sp.csr_matrix((3, 3))
        b1, b2 = np.arange(3.0), np.arange(3.0, 6.0)
        x1, x2 = solve_block_2x2(eye, zero, zero, eye, b1, b2)
        np.testing.assert_allclose(x1, b1, rtol=1e-14)
        np.testing.assert_allclose(x2, b2, rtol=1e-14)

    def test_hand_solvable_pattern(self):
        # [[I, -I], [I, I]] (x1, x2) = (b, b)  =>  x1 = b, x2 = 0
        eye = sp.identity(3, format="csr")
        b = np.array([1.0, -2.0, 0.5])
        x1, x2 = solve_block_2x2(eye, -eye, eye, eye, b, b)
        np.testing.assert_allclose(x1, b, atol=1e-14)
        np.testing.assert_allclose(x2, np.zeros(3), atol=1e-14)

    def test_fdm_step_blocks_residual(self):
        dt, rho = 0.2, 2.5
        D = build_dn(FdGrid(n=4, a=np.pi))
        eye = sp.identity(16, format="csr")
        blocks = (eye, -dt * D, dt * D, eye + rho * dt * D)
        rng = np.random.default_rng(4)
        b1, b2 = rng.standard_normal(16), rng.standard_normal(16)
        x1, x2 = solve_block_2x2(*blocks, b1, b2)
        r1 = blocks[0] @ x1 + blocks[1] @ x2 - b1
        r2 = blocks[2] @ x1 + blocks[3] @ x2 - b2
        scale = np.linalg.norm(np.concatenate([b1, b2]))
        assert np.sqrt(r1 @ r1 + r2 @ r2) <= 1e-10 * scale

    def test_reuse_factorization(self):
        eye = sp.identity(4, format="csr")
        solver = BlockSolver(2 * eye, eye, eye, 2 * eye)
        rng = np.random.default_rng(2)
        for _ in range(3):
            b1, b2 = rng.standard_normal(4), rng.standard_normal(4)
            x1, x2 = solver.solve(b1, b2)
            np.testing.assert_allclose(2 * x1 + x2, b1, atol=1e-12)
            np.testing.assert_allclose(x1 + 2 * x2, b2, atol=1e-12)

    def test_rejects_nonconformable(self):
        with pytest.raises(ValueError):
            BlockSolver(sp.identity(3), sp.identity(4), sp.identity(3), sp.identity(3))

    def test_singular_schur_complement(self):
        eye = sp.identity(2, format="csr")
        # A22 - A21 A11^{-1} A12 = I - I = 0
        with pytest.raises(np.linalg.LinAlgError):
            solve_block_2x2(eye, eye, eye, eye, np.ones(2), np.ones(2))


class TestMultiColumnSolve:
    """A block of k right-hand sides is solved in one call, checked per column."""

    def rhs(self, n, k=4):
        return np.random.default_rng(5).standard_normal((n, k))

    @pytest.mark.parametrize("direct_limit", [10_000, 0])
    def test_spd_block_equals_columnwise(self, direct_limit):
        A = build_dn(FdGrid(n=6, a=np.pi))
        fac = SpdFactorization(A, direct_limit=direct_limit)
        B = self.rhs(A.shape[0])
        X = fac.solve(B)
        for c in range(B.shape[1]):
            col = fac.solve(B[:, c])
            assert np.linalg.norm(X[:, c] - col) <= 1e-14 * np.linalg.norm(col)

    def test_block_solver_block_equals_columnwise(self):
        dt, rho = 0.2, 2.5
        D = build_dn(FdGrid(n=6, a=np.pi))
        eye = sp.identity(D.shape[0], format="csr")
        solver = BlockSolver(eye, -dt * D, dt * D, eye + rho * dt * D)
        B1, B2 = self.rhs(D.shape[0]), self.rhs(D.shape[0]) ** 2
        X1, X2 = solver.solve(B1, B2)
        for c in range(B1.shape[1]):
            x1, x2 = solver.solve(B1[:, c], B2[:, c])
            scale = np.linalg.norm(np.concatenate([x1, x2]))
            assert np.linalg.norm(X1[:, c] - x1) <= 1e-14 * scale
            assert np.linalg.norm(X2[:, c] - x2) <= 1e-14 * scale

    @pytest.mark.parametrize("direct_limit", [10_000, 0])
    def test_nan_column_fails_spd_check(self, direct_limit):
        fac = SpdFactorization(build_dn(FdGrid(n=4, a=np.pi)), direct_limit=direct_limit)
        B = self.rhs(16)
        B[3, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            fac.solve(B)
        with pytest.raises(np.linalg.LinAlgError):
            fac.solve(B[:, 2])

    def test_inf_column_fails_block_check(self):
        eye = sp.identity(4, format="csr")
        solver = BlockSolver(2 * eye, eye, eye, 2 * eye)
        B1, B2 = self.rhs(4, k=3), self.rhs(4, k=3)
        B2[0, 1] = np.inf
        with pytest.raises(np.linalg.LinAlgError, match="backward error"):
            solver.solve(B1, B2)

    def test_zero_block_passes(self):
        fac = SpdFactorization(sp.identity(3, format="csc"))
        np.testing.assert_array_equal(fac.solve(np.zeros((3, 2))), np.zeros((3, 2)))

    def test_rejects_bad_block_shapes(self):
        fac = SpdFactorization(sp.identity(3, format="csc"))
        with pytest.raises(ValueError):
            fac.solve(np.ones((4, 2)))
        with pytest.raises(ValueError):
            fac.solve(np.ones((3, 2, 1)))
        eye = sp.identity(3, format="csr")
        with pytest.raises(ValueError):
            BlockSolver(eye, eye, -eye, eye).solve(np.ones((3, 2)), np.ones((3, 3)))
