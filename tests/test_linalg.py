import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from platenull import linalg
from platenull.cli import main
from platenull.fdm import FdGrid, build_dn, dn_eigenvalue, dn_eigenvalues, fdm_scheme
from platenull.fem import (FemSpace, FemStepper, TriMesh, assemble, build_fem_space,
                           build_structured_mesh, make_stiffness_solver)
from platenull.linalg import BlockSolver, SineSolver, SpdFactorization, SplitStepSolver


def solve_spd(A, b):
    return SpdFactorization(A).solve(b)


def solve_block_2x2(A11, A12, A21, A22, b1, b2):
    return BlockSolver(A11, A12, A21, A22).solve(b1, b2)


def residual(A, x, b):
    return np.linalg.norm(A @ x - b) / np.linalg.norm(b)


def _benchmark_tables():
    """The benchmark's tables by id, from ``platebench/workloads.py``, which is left unchanged."""
    path = Path(__file__).resolve().parents[1] / "platebench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("platebench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return {t.id: t for w in workloads.WORKLOADS.values() for t in w.tables}


def run_fdm_tables(n):
    """Run every FDM table of the benchmark on the n x n grid through the CLI (4 at n=32)."""
    tables = [t for t in _benchmark_tables().values() if t.scheme == "fdm" and t.n == n]
    assert tables
    for table in tables:
        assert main(table.argv() + ["--out", os.devnull]) == 0


@pytest.fixture
def transforms(monkeypatch):
    """Number of sine-transform solves run while the test runs, in a one-item list."""
    count = [0]
    transform_solve = SineSolver._transform_solve

    def spy(self, b):
        count[0] += 1
        return transform_solve(self, b)

    monkeypatch.setattr(SineSolver, "_transform_solve", spy)
    return count


def kappa_eps(eigenvalues):
    """The transform solve's forward-error bound: condition number times 2^-52."""
    magnitudes = np.abs(eigenvalues)
    return magnitudes.max() / magnitudes.min() * np.finfo(float).eps


@pytest.fixture
def factored(monkeypatch):
    """Type names of the factors that factor_spd returns while the test runs."""
    names = []
    factor_spd = linalg.factor_spd

    def spy(A, *args):
        factor = factor_spd(A, *args)
        names.append(type(factor).__name__)
        return factor

    monkeypatch.setattr(linalg, "factor_spd", spy)
    return names


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

    @pytest.mark.parametrize("diagonal", [[-1.0, -1.0, -1.0], [1.0, -2.0, 1.0]],
                             ids=["negative", "indefinite"])
    def test_rejects_nonsingular_non_spd(self, diagonal):
        # SuperLU factored -I and solved it within the check; band Cholesky refuses it
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            SpdFactorization(sp.diags(diagonal, format="csc"))

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
    eigenvalues, which leaves the plain transform solve half off and one
    step of refinement a quarter off.  ``sine`` solves D, and ``refined``
    and ``refined64`` the FDM Schur matrix, where the sine solver refines
    only where kappa eps > 1e-10: not at n=8 (kappa eps = 2.0e-14,
    ``refined``), but at n=64, dt = 1 (2.6e-10, ``refined64``).  The SPD
    and split-step factors come from ``factor_spd``, which is wrapped: band
    Cholesky at n=8 and rho = 2.5, SuperLU for the complex split factors of
    rho = 1.5.  ``BlockSolver`` calls SuperLU itself.  Squared entries
    overflow above about 1e154 and underflow below about 1e-154, so a
    Euclidean-norm check passed any residual there.
    """

    SCALES = (1e-300, 1e-200, 1e-160, 1.0, 1e160, 1e200, 1e300)
    # the factor that every factor_spd call returns, by kind
    PATHS = {"spd": "_BandCholesky", "split": "_BandCholesky", "split1.5": "SuperLU"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("wrong", [False, True], ids=["right", "wrong"])
    @pytest.mark.parametrize("kind", ["spd", "sine", "refined", "refined64", "block", "split",
                                      "split1.5"])
    def test_check_holds_at_every_scale(self, kind, wrong, monkeypatch, factored, transforms):
        grid = FdGrid(n=64 if kind == "refined64" else 8, a=np.pi)
        D, eye = build_dn(grid), sp.identity(grid.N, format="csr")
        dt, rho = (1.0 if kind == "refined64" else 0.2), (1.5 if kind == "split1.5" else 2.5)
        if wrong and kind == "block":
            splu = spla.splu
            monkeypatch.setattr(spla, "splu", lambda A, **kw: splu(2 * A, **kw))
        elif wrong:
            spy = linalg.factor_spd
            monkeypatch.setattr(linalg, "factor_spd", lambda A, *args: spy(2 * A, *args))
        if kind == "spd":
            solve = SpdFactorization(D).solve
        elif kind == "sine":
            solve = SineSolver(D, (2.0 if wrong else 1.0) * dn_eigenvalues(grid)).solve
        elif kind.startswith("refined"):
            solve = SineSolver(*fdm_schur(grid.n, dt, rho, wrong)).solve
        else:
            step = (BlockSolver(eye, -dt * D, dt * D, eye + rho * dt * D) if kind == "block"
                    else SplitStepSolver(eye, D, dt, rho))
            solve = lambda b: step.solve(b, b)  # noqa: E731
        if kind in self.PATHS and wrong:
            assert factored and set(factored) == {self.PATHS[kind]}
        b = np.random.default_rng(8).standard_normal(grid.N)
        for scale in self.SCALES:
            if wrong:
                with pytest.raises(np.linalg.LinAlgError, match="backward error"):
                    solve(scale * b)
            else:
                solve(scale * b)
        if kind == "sine" or kind.startswith("refined"):
            # one transform solve per scale, two where the solver refines
            assert transforms[0] == (2 if kind == "refined64" else 1) * len(self.SCALES)


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

    @pytest.mark.parametrize("scheme,n", [("fem", 57), ("fem", 150), ("fdm", 32), ("fdm", 101),
                                          ("fdm", 1), ("fdm", 2), ("fem", 2)],
                             ids=["57", "150", "fdm32", "fdm101", "fdm1", "fdm2", "2"])
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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_eigenvalues(self, bad):
        grid = FdGrid(n=4, a=1.0)
        lam = dn_eigenvalues(grid)
        lam[1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError, match="1 of 16 eigenvalues are not finite"):
            SineSolver(build_dn(grid), lam)

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_zero_eigenvalue(self):
        grid = FdGrid(n=4, a=1.0)
        lam = dn_eigenvalues(grid)
        lam[3, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="1 of 16 eigenvalues are zero"):
            SineSolver(build_dn(grid), lam)

    @pytest.mark.filterwarnings("error")
    def test_names_a_solution_that_underflows(self):
        # x = b / 1e300 is below the smallest subnormal for b = 1e-300, so it rounds to zero
        sine = SineSolver(1e300 * sp.identity(16, format="csr"), np.full((4, 4), 1e300))
        sine.solve(np.ones(16))
        with pytest.raises(np.linalg.LinAlgError, match="solution underflows double precision"):
            sine.solve(np.full((16, 2), 1e-300))

    @pytest.mark.parametrize("scheme", ["fdm", "fem"])
    def test_returns_c_order_blocks(self, scheme):
        _, sine, _ = self.solver(scheme, 8)
        B = np.random.default_rng(5).standard_normal((64, 3))
        X = sine.solve(B)
        assert X.flags.c_contiguous
        np.testing.assert_array_equal(X, sine._transform_solve(B))


class TestRefinedSineSolver:
    """SineSolver on the FDM Schur matrix, against band Cholesky (n=32) and SuperLU (n=101).

    At n=32, dt = 0.2, kappa eps = 3.2e-12 calls for no refinement: the
    solve is the plain transform's, bitwise, and its relative distance to
    the factored solve is bounded by kappa eps (1.6e-13 for one column and
    4.7e-13 for three on one BLAS thread).  At n=101, dt = 0.25, kappa eps =
    3.9e-10, and the assembled (dt D)^2 acts on the smooth modes 1e-10 away
    from the closed-form eigenvalues; one refinement step closes that gap,
    which is why the solver refines there.  Bounds there, from a first run
    on one BLAS thread: refined 2.6e-12, the plain transform 0.93-1.3e-10.
    """

    @pytest.mark.parametrize("n,dt,refined_tol,plain_min", [
        (32, 0.2, None, None), (101, 0.25, 1e-11, 3e-11)], ids=["fdm32", "fdm101"])
    @pytest.mark.parametrize("k", [1, 3], ids=["vector", "block"])
    def test_matches_factorization_of_the_assembled_matrix(self, n, dt, refined_tol,
                                                          plain_min, k, factored, transforms):
        S, mu = fdm_schur(n, dt)
        B = np.random.default_rng(n).standard_normal((n * n, 3))
        b = B[:, 1] if k == 1 else B
        want = SpdFactorization(S).solve(b)
        assert factored == ["_BandCholesky" if n == 32 else "SuperLU"]
        solver = SineSolver(S, mu)
        got = solver.solve(b)
        solve_transforms = transforms[0]
        plain = solver._transform_solve(b)
        assert got.shape == b.shape and got.flags.c_contiguous
        gap = np.linalg.norm(got - want) / np.linalg.norm(want)
        if refined_tol is None:  # unrefined
            assert solve_transforms == 1
            np.testing.assert_array_equal(got, plain)
            assert gap <= kappa_eps(mu)
        else:
            assert solve_transforms == 2
            assert gap <= refined_tol
            assert np.linalg.norm(plain - want) / np.linalg.norm(want) >= plain_min

    def test_refines_only_the_fdm101_schur_solve(self, monkeypatch, transforms):
        """Over the benchmark's grids, one solve of each sine solver counts its transforms."""
        built = []
        init = SineSolver.__init__

        def spy(self, A, eigenvalues):
            init(self, A, eigenvalues)
            built.append(self)

        monkeypatch.setattr(SineSolver, "__init__", spy)
        grids = {(t.scheme, t.n, float(t.dt)) for t in _benchmark_tables().values()}
        refines = {}
        for scheme, n, dt in sorted(grids):
            built.clear()
            if scheme == "fdm":
                fdm_scheme(FdGrid(n=n, a=np.pi), dt, 2.5)
                names = ["schur", "stiffness"]  # the stepper's first, then mu_basis
            else:  # the stiffness solver alone: the step factors do not depend on it
                make_stiffness_solver(build_fem_space(n, np.pi))
                names = ["stiffness"]
            assert len(built) == len(names)
            for name, solver in zip(names, built):
                transforms[0] = 0
                solver.solve(np.random.default_rng(n).standard_normal(solver.n))
                refines[scheme, n, dt, name] = transforms[0] == 2
        assert len(refines) == 12  # eight grids: four FDM, two solvers each, and four FEM
        assert [key for key, yes in refines.items() if yes] == [("fdm", 101, 0.25, "schur")]
        # the stiffness matrices' kappa eps grows with n and stays below 1e-10 up to n = 150
        bounds = [kappa_eps(dn_eigenvalues(FdGrid(n=n, a=np.pi))) for n in range(1, 151)]
        assert bounds == sorted(bounds) and bounds[-1] < linalg._REFINE_ABOVE

    def test_block_columns_equal_single_solves(self):
        S, mu = fdm_schur(8)
        solver = SineSolver(S, mu)
        B = np.random.default_rng(6).standard_normal((64, 3))
        X = solver.solve(B)
        for c in range(3):
            x = solver.solve(B[:, c])
            assert np.linalg.norm(X[:, c] - x) <= 1e-14 * np.linalg.norm(x)

    def test_leaves_the_right_hand_side_alone(self):
        S, mu = fdm_schur(101, 0.25)  # a solver that refines
        b = np.random.default_rng(7).standard_normal((101 * 101, 2))
        kept = b.copy()
        SineSolver(S, mu).solve(b)
        np.testing.assert_array_equal(b, kept)


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
        V, W, _ = solver.solve(v, b2)
        x, y, _ = solver.solve(v[:, 2], b2[:, 2])
        assert x.shape == (space.N,)
        scale = np.linalg.norm(np.concatenate([x, y]))
        assert np.linalg.norm(V[:, 2] - x) <= 1e-14 * scale
        assert np.linalg.norm(W[:, 2] - y) <= 1e-14 * scale

    @pytest.mark.parametrize("rho", [1.5, 2.0, 2.5])
    def test_carried_product_gives_the_same_step(self, rho):
        space = self.space(0.3)
        solver = SplitStepSolver(space.M, space.S, 0.2, rho)
        v, b2 = self.rhs(space.N)
        v1, w1, msv1 = solver.solve(v, b2)
        np.testing.assert_array_equal(msv1, np.concatenate([space.M @ v1, space.S @ v1]))
        carried = solver.solve(v1, b2 - w1, msv1)
        computed = solver.solve(v1, b2 - w1)
        for got, want in zip(carried, computed, strict=True):
            np.testing.assert_array_equal(got, want)

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
        with pytest.raises(ValueError, match="M v; S v"):
            solver.solve(np.ones(space.N), np.ones(space.N), np.ones(space.N))


def fdm_schur(n, dt=0.2, rho=2.5, wrong=False):
    """The FDM Schur matrix I + rho dt D + (dt D)^2 of an n x n grid, as FdmStepper builds it,
    and its eigenvalues 1 + rho dt lam + (dt lam)^2, doubled if ``wrong``."""
    grid = FdGrid(n=n, a=np.pi)
    dtD, dt_lam = dt * build_dn(grid), dt * dn_eigenvalues(grid)
    return ((sp.identity(n * n) + rho * dtD + dtD @ dtD).tocsr(),
            (2.0 if wrong else 1.0) * (1.0 + rho * dt_lam + dt_lam * dt_lam))


class TestFactorChoice:
    """factor_spd: band Cholesky for a real matrix of narrow band, SuperLU otherwise."""

    @pytest.mark.parametrize("A,want", [
        (sp.identity(4, format="csr"), 0),
        (sp.diags([1.0, 3.0, 1.0], [-2, 0, 2], shape=(6, 6), format="csr"), 2),
        (sp.csr_matrix(np.array([[1.0, 0, 0, 5], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])), 3),
        (sp.csc_matrix(np.array([[1.0, 0, 0], [0, 0, 0], [4, 0, 1]])), 2),
        (sp.csr_matrix((4, 4)), 0),
    ], ids=["identity", "two-off", "upper-corner", "empty-column", "empty"])
    def test_bandwidth(self, A, want):
        assert linalg._bandwidth(A) == want

    def test_bandwidth_of_unsorted_indices(self):
        A = sp.csr_matrix((np.ones(3), np.array([2, 0, 1]), np.array([0, 2, 3])), shape=(2, 3))
        assert not A.has_sorted_indices
        assert linalg._bandwidth(A) == 2

    @pytest.mark.parametrize("build,want", [
        (lambda: FemStepper(build_fem_space(57, np.pi), 0.1, 2.5), ["_BandCholesky"] * 2),
        (lambda: run_fdm_tables(32), []),
        (lambda: FemStepper(build_fem_space(150, np.pi), 0.2, 2.5), ["SuperLU"] * 2),
        (lambda: run_fdm_tables(101), []),
        (lambda: FemStepper(build_fem_space(57, np.pi), 0.1, 1.5), ["SuperLU"] * 2),
    ], ids=["fem57", "fdm32", "fem150", "fdm101", "fem57-rho1.5"])
    def test_benchmark_grids(self, build, want, factored):
        build()
        assert factored == want

    @pytest.mark.parametrize("n", [8, 16, 24])
    @pytest.mark.parametrize("rho", [2.0, 2.5, 2.0 + 1e-7])
    def test_split_step_band_matches_superlu(self, n, rho, factored, monkeypatch):
        space = build_fem_space(n, np.pi)
        v, b2 = np.random.default_rng(n).standard_normal((2, space.N, 3))
        band = SplitStepSolver(space.M, space.S, 0.2, rho).solve(v, b2)
        monkeypatch.setattr(linalg, "_BAND_ENTRIES", 0)
        lu = SplitStepSolver(space.M, space.S, 0.2, rho).solve(v, b2)
        assert factored == ["_BandCholesky"] * 2 + ["SuperLU"] * 2
        for got, want in zip(band, lu, strict=True):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [8, 32])
    def test_fdm_schur_band_matches_superlu(self, n, factored, monkeypatch):
        dt, rho = 0.2, 2.5
        A = fdm_schur(n, dt, rho)[0].tocsc()
        B = np.random.default_rng(n).standard_normal((n * n, 3))
        band = SpdFactorization(A)
        monkeypatch.setattr(linalg, "_BAND_ENTRIES", 0)
        lu = SpdFactorization(A)
        assert factored == ["_BandCholesky", "SuperLU"]
        # two backward-stable solves differ by up to about cond(A) eps: 2e-14 at
        # n=8 but 3.2e-12 at n=32 (cond 1.46e4; there dense LAPACK LU and Cholesky
        # also differ from SuperLU by 0.9e-13), so the bound is 1e-13 or that
        dt_lam = dt * dn_eigenvalues(FdGrid(n=n, a=np.pi))
        eig = 1.0 + rho * dt_lam + dt_lam**2
        tol = max(1e-13, eig.max() / eig.min() * np.finfo(float).eps)
        for b in (B, B[:, 1]):
            want = lu.solve(b)
            assert np.linalg.norm(band.solve(b) - want) <= tol * np.linalg.norm(want)
