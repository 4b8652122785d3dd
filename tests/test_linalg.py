import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from platenull.fdm import FdGrid, build_dn, dn_eigenvalue, dn_eigenvalues
from platenull.fem import FemSpace, TriMesh, assemble, build_fem_space, build_structured_mesh
from platenull.linalg import BlockSolver, SineSolver, SpdFactorization, SplitStepSolver


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
        mats = [build_dn(FdGrid(n=n, a=np.pi))] + [A[keep][:, keep] for A in assemble(mesh)]
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


class TestBackwardErrorAtEveryScale:
    """Each solver's check accepts its own solve and rejects a wrong one at any scale.

    The wrong solvers factor twice the matrix, or divide by doubled
    eigenvalues.  Squared entries overflow above about 1e154 and underflow
    below about 1e-154, so a Euclidean-norm check passed any residual there.
    """

    SCALES = (1e-300, 1e-200, 1e-160, 1.0, 1e160, 1e200, 1e300)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("wrong", [False, True], ids=["right", "wrong"])
    @pytest.mark.parametrize("kind", ["spd", "sine", "block", "split"])
    def test_check_holds_at_every_scale(self, kind, wrong, monkeypatch):
        grid = FdGrid(n=8, a=np.pi)
        D, eye = build_dn(grid), sp.identity(grid.N, format="csr")
        dt, rho = 0.2, 2.5
        if wrong:
            splu = spla.splu
            monkeypatch.setattr(spla, "splu", lambda A, **kw: splu(2 * A, **kw))
        if kind == "spd":
            solve = SpdFactorization(D).solve
        elif kind == "sine":
            solve = SineSolver(D, (2.0 if wrong else 1.0) * dn_eigenvalues(grid)).solve
        else:
            step = (BlockSolver(eye, -dt * D, dt * D, eye + rho * dt * D) if kind == "block"
                    else SplitStepSolver(eye, D, dt, rho))
            solve = lambda b: step.solve(b, b)  # noqa: E731
        b = np.random.default_rng(8).standard_normal(grid.N)
        for scale in self.SCALES:
            if wrong:
                with pytest.raises(np.linalg.LinAlgError, match="backward error"):
                    solve(scale * b)
            else:
                solve(scale * b)


class TestSineSolver:
    """The structured-mesh stiffness S = h^2 D and the FDM matrix D, solved by DST-I."""

    @staticmethod
    def solver(scheme, n):
        """(matrix, its sine solver, its eigenvalues over those of D)."""
        grid = FdGrid(n=n, a=np.pi)
        if scheme == "fdm":  # as fdm_scheme builds it
            return build_dn(grid), SineSolver(build_dn(grid), dn_eigenvalues(grid)), 1.0
        S = build_fem_space(n, np.pi).S
        return S, SineSolver(S, grid.h**2 * dn_eigenvalues(grid)), grid.h**2

    @pytest.mark.parametrize("scheme,n", [("fem", 57), ("fem", 150), ("fdm", 32), ("fdm", 101)],
                             ids=["57", "150", "fdm32", "fdm101"])
    def test_matches_factorization(self, scheme, n):
        S, sine, _ = self.solver(scheme, n)
        B = np.random.default_rng(n).standard_normal((n * n, 4))
        X = sine.solve(B)
        ref = SpdFactorization(S.tocsc()).solve(B)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)
        col = sine.solve(B[:, 1])
        assert np.linalg.norm(col - ref[:, 1]) <= 1e-12 * np.linalg.norm(ref[:, 1])

    @pytest.mark.parametrize("scheme,n,p,q", [
        ("fem", 57, 1, 1), ("fem", 57, 2, 2), ("fem", 57, 3, 7), ("fem", 57, 57, 1),
        ("fdm", 32, 1, 1), ("fdm", 32, 2, 2), ("fdm", 101, 3, 7), ("fdm", 101, 101, 101),
    ], ids=["1-1", "2-2", "3-7", "57-1", "fdm32-1-1", "fdm32-2-2", "fdm101-3-7",
            "fdm101-101-101"])
    def test_sampled_mode_is_an_eigenvector(self, scheme, n, p, q):
        grid = FdGrid(n=n, a=np.pi)
        _, sine, scale = self.solver(scheme, n)
        x, y = grid.points()
        phi = np.sin(p * x) * np.sin(q * y)
        want = phi / (scale * dn_eigenvalue(p, q, grid))
        got = sine.solve(phi)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_eigenvalue_array_matches_formula(self):
        grid = FdGrid(n=5, a=2.0)
        lam = dn_eigenvalues(grid)
        for i in range(1, 6):
            for j in range(1, 6):
                assert lam[j - 1, i - 1] == pytest.approx(dn_eigenvalue(i, j, grid), rel=1e-14)

    def test_nan_column_raises(self):
        _, sine, _ = self.solver("fem", 8)
        B = np.random.default_rng(3).standard_normal((64, 3))
        B[5, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="backward error"):
            sine.solve(B)

    def test_wrong_eigenvalue_raises(self):
        grid = FdGrid(n=8, a=np.pi)
        lam = dn_eigenvalues(grid)
        lam[2, 4] *= 1.001
        sine = SineSolver(build_dn(grid), lam)
        with pytest.raises(np.linalg.LinAlgError, match="backward error"):
            sine.solve(np.random.default_rng(4).standard_normal(64))

    def test_rejects_mismatched_eigenvalues(self):
        with pytest.raises(ValueError):
            SineSolver(build_dn(FdGrid(n=4, a=1.0)), np.ones((3, 3)))


class TestSplitStepSolver:
    """The FEM step by two half-size factors against the 2N block LU."""

    @staticmethod
    def space(jitter):
        """FEM space of a 10 x 10 mesh, interior vertices moved at random by up to jitter h."""
        mesh = build_structured_mesh(10, np.pi)
        rng = np.random.default_rng(17)
        vertices = mesh.vertices.copy()
        inner = mesh.interior
        vertices[inner] += jitter * np.pi / 11 * rng.uniform(-1, 1, (len(inner), 2))
        return FemSpace.from_mesh(TriMesh(vertices, mesh.triangles, mesh.boundary))

    @staticmethod
    def rhs(N, k=5):
        rng = np.random.default_rng(N + k)
        return rng.standard_normal((N, k)), rng.standard_normal((N, k))

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("rho", [1.5, 2.0, 2.5, 10.0])
    @pytest.mark.parametrize("dt", [0.2, 1 / 1536])
    def test_matches_block_solver(self, jitter, rho, dt):
        space = self.space(jitter)
        M, S = space.M, space.S
        v, b2 = self.rhs(space.N)
        want = BlockSolver(M, -dt * S, dt * S, M + rho * dt * S).solve(M @ v, b2)
        got = SplitStepSolver(M, S, dt, rho).solve(v, b2)
        scale = np.linalg.norm(np.concatenate(want))
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.shape == w.shape
            assert np.linalg.norm(g - w) <= 1e-12 * scale

    def test_single_column_equals_block_column(self):
        space = self.space(0.3)
        solver = SplitStepSolver(space.M, space.S, 0.2, 1.5)
        v, b2 = self.rhs(space.N)
        V, W = solver.solve(v, b2)
        x, y = solver.solve(v[:, 2], b2[:, 2])
        assert x.shape == (space.N,)
        scale = np.linalg.norm(np.concatenate([x, y]))
        assert np.linalg.norm(V[:, 2] - x) <= 1e-14 * scale
        assert np.linalg.norm(W[:, 2] - y) <= 1e-14 * scale

    @pytest.mark.parametrize("rho", [1.5, 2.5])
    def test_nan_column_raises(self, rho):
        space = self.space(0.0)
        solver = SplitStepSolver(space.M, space.S, 0.2, rho)
        v, b2 = self.rhs(space.N)
        b2[7, 3] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="backward error"):
            solver.solve(v, b2)
        with pytest.raises(np.linalg.LinAlgError, match="backward error"):
            solver.solve(v[:, 3], b2[:, 3])

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_rho(self, rho):
        space = self.space(0.0)
        with pytest.raises(ValueError, match="rho"):
            SplitStepSolver(space.M, space.S, 0.2, rho)

    @pytest.mark.parametrize("dt", [0.0, -0.2, np.nan, np.inf])
    def test_rejects_bad_dt(self, dt):
        space = self.space(0.0)
        with pytest.raises(ValueError, match="dt"):
            SplitStepSolver(space.M, space.S, dt, 2.5)

    def test_rejects_bad_shapes(self):
        space = self.space(0.0)
        with pytest.raises(ValueError):
            SplitStepSolver(space.M, space.S[:-1, :-1], 0.2, 2.5)
        solver = SplitStepSolver(space.M, space.S, 0.2, 2.5)
        with pytest.raises(ValueError):
            solver.solve(np.ones((space.N, 2)), np.ones((space.N, 3)))
        with pytest.raises(ValueError):
            solver.solve(np.ones(space.N + 1), np.ones(space.N + 1))
