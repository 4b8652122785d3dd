import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from platenull.core import StatePair
from platenull.fdm import FdGrid, build_dn
from platenull.fem import (FemSpace, FemStepper, TriMesh, assemble, build_fem_space,
                           build_structured_mesh, fem_control_at_step, fem_scheme,
                           load_mesh, make_stiffness_solver, run_fem_null_control)
from platenull.linalg import SineSolver, SpdFactorization
from platenull.march import Scheme, march, sample
from platenull.spectral import exact_test_solution

RHO = 2.5


class TestStructuredMesh:
    def test_counts(self):
        mesh = build_structured_mesh(2, np.pi)
        assert len(mesh.vertices) == 16
        assert mesh.N == 4
        assert len(mesh.triangles) == 18

    @pytest.mark.parametrize("n,a", [(2, np.pi), (5, 1.0), (9, 2.5)])
    def test_uniform_areas(self, n, a):
        mesh = build_structured_mesh(n, a)
        np.testing.assert_allclose(mesh.signed_areas(),
                                   a**2 / (2.0 * (n + 1) ** 2), rtol=1e-12)

    @pytest.mark.parametrize("a", [0.0, math.nan, math.inf])
    def test_rejects_bad_side(self, a):
        with pytest.raises(ValueError, match="finite and positive"):
            build_structured_mesh(4, a)

    def test_rejects_inverted_triangle(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 2, 1]])  # clockwise
        with pytest.raises(ValueError, match="orient"):
            TriMesh(vertices=verts, triangles=tris, boundary=np.ones(3, dtype=bool))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_vertex(self, bad):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        verts[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            TriMesh(vertices=verts, triangles=np.array([[0, 1, 2]]),
                    boundary=np.ones(3, dtype=bool))

    def test_rejects_out_of_range_vertex_index(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2], [0, 2, 7]])
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            TriMesh(vertices=verts, triangles=tris, boundary=np.ones(4, dtype=bool))
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            TriMesh(vertices=verts, triangles=np.array([[0, 1, 2], [0, 2, -1]]),
                    boundary=np.ones(4, dtype=bool))

    def test_rejects_unused_interior_vertex(self):
        mesh = build_structured_mesh(3, np.pi)
        verts = np.vstack([mesh.vertices, [1.0, 1.0]])
        with pytest.raises(ValueError, match="interior vertex 25 belongs to no triangle"):
            TriMesh(vertices=verts, triangles=mesh.triangles,
                    boundary=np.append(mesh.boundary, False))
        # an unused boundary vertex is eliminated with the other boundary vertices
        space = FemSpace.from_mesh(TriMesh(vertices=verts, triangles=mesh.triangles,
                                           boundary=np.append(mesh.boundary, True)))
        assert space.N == 9

    def test_space_needs_an_interior_vertex(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = TriMesh(vertices=verts, triangles=np.array([[0, 1, 2]]),
                       boundary=np.ones(3, dtype=bool))
        with pytest.raises(ValueError, match="interior"):
            FemSpace.from_mesh(mesh)


class TestAssembly:
    def test_single_element_mass(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2]])
        mesh = TriMesh(vertices=verts, triangles=tris,
                       boundary=np.ones(3, dtype=bool))
        M = assemble(mesh)[0].toarray()
        area = 0.5
        expected = area / 12.0 * np.array([[2.0, 1.0, 1.0],
                                           [1.0, 2.0, 1.0],
                                           [1.0, 1.0, 2.0]])
        np.testing.assert_allclose(M, expected, rtol=1e-14)

    def test_single_element_stiffness(self):
        # unit right triangle: hand-integrated cotangent values
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2]])
        mesh = TriMesh(vertices=verts, triangles=tris,
                       boundary=np.ones(3, dtype=bool))
        S = assemble(mesh)[1].toarray()
        expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                                   [-1.0, 1.0, 0.0],
                                   [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(S, expected, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_partition_of_unity_row_sums(self, n):
        # sum_j (phi_i, phi_j) = integral of phi_i = (support area)/3
        mesh = build_structured_mesh(n, np.pi)
        M, _ = assemble(mesh)
        areas = mesh.signed_areas()
        support = np.zeros(len(mesh.vertices))
        for t, area in zip(mesh.triangles, areas):
            support[t] += area
        np.testing.assert_allclose(np.asarray(M.sum(axis=1)).ravel(),
                                   support / 3.0, rtol=1e-12)

    def test_total_mass_is_domain_area(self):
        mesh = build_structured_mesh(6, 2.0)
        assert assemble(mesh)[0].sum() == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_stiffness_equals_scaled_five_point_matrix(self, n):
        # on the diagonal-split uniform mesh the P1 stiffness matrix is
        # exactly h^2 times the finite-difference Laplacian
        a = np.pi
        space = build_fem_space(n, a)
        D = build_dn(FdGrid(n=n, a=a))
        h = a / (n + 1)
        gap = abs(space.S - h**2 * D)
        assert gap.max() <= 1e-12

    def test_interior_restriction_spd(self):
        space = build_fem_space(4, np.pi)
        for A in (space.M, space.S):
            assert abs(A - A.T).max() <= 1e-14
            # only band Cholesky certifies SPD, and these narrow-band matrices take it
            SpdFactorization(A.tocsc())

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_smallest_rayleigh_quotient_approaches_first_eigenvalue(self, n):
        # generalized eigensolver oracle; continuum value is 1^2 + 1^2 = 2
        space = build_fem_space(n, np.pi)
        lam = spla.eigsh(space.S.tocsc(), k=1, M=space.M.tocsc(),
                         sigma=0, which="LM")[0][0]
        h = np.pi / (n + 1)
        assert lam == pytest.approx(2.0, abs=3.0 * h**2)


class TestInterpolation:
    def test_zero(self):
        space = build_fem_space(3, np.pi)
        np.testing.assert_array_equal(
            sample(lambda x, y: 0.0 * x, *space.points()), np.zeros(space.N))

    def test_vanishing_on_nodes(self):
        # nonzero function whose interior nodal values are all zero
        n = 4
        space = build_fem_space(n, np.pi)
        f = lambda x, y: np.sin((n + 1) * x)  # noqa: E731
        np.testing.assert_allclose(sample(f, *space.points()),
                                   np.zeros(space.N), atol=1e-12)

    def test_interpolant_l2_norm_converges(self):
        # || sin2x sin2y ||_{L2} = pi/2 on (0, pi)^2
        errs = []
        for n in (8, 16, 32):
            space = build_fem_space(n, np.pi)
            coef = sample(lambda x, y: np.sin(2 * x) * np.sin(2 * y), *space.points())
            errs.append(abs(math.sqrt(space.mass_sq_norm(coef)) - math.pi / 2))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= (np.pi / 33) ** 2 * 10


class TestControlAtStep:
    def test_zero_state(self):
        space = build_fem_space(4, np.pi)
        z = np.zeros(space.N)
        u = fem_control_at_step(z, z, z, 0.5, 0.1, 2.0, RHO, space)
        np.testing.assert_array_equal(u, z)

    def test_mu1_prime_residual(self):
        space = build_fem_space(6, np.pi)
        rng = np.random.default_rng(44)
        vh1 = rng.standard_normal(space.N)
        vh2 = rng.standard_normal(space.N)
        wh1 = rng.standard_normal(space.N)
        t, dt, T = 0.5, 0.1, 2.0
        u = fem_control_at_step(vh2, vh1, wh1, t, dt, T, RHO, space)
        from platenull.control import f_weight, g_vector, mu_zero
        mu1p = u - mu_zero(vh1, wh1, RHO, t, T)
        G = g_vector(vh2, vh1, dt, t, T)
        MG = space.M @ G
        assert np.linalg.norm(space.S @ mu1p + MG) <= 1e-10 * np.linalg.norm(MG)
        assert f_weight(t, T) > 0  # sanity: not in the degenerate endpoints

    def test_single_mode_stays_nearly_collinear(self):
        # S and M share the sine mode only approximately; collinearity O(h^2)
        n = 16
        space = build_fem_space(n, np.pi)
        phi = sample(lambda x, y: np.sin(2 * x) * np.sin(2 * y), *space.points())
        u = fem_control_at_step(phi * 0.9, phi, 0.5 * phi, 1.0, 0.1, 2.0, RHO, space)
        coef = (u @ phi) / (phi @ phi)
        residual = np.linalg.norm(u - coef * phi) / np.linalg.norm(u)
        assert residual <= 5.0 * (np.pi / (n + 1)) ** 2


class TestNullControlRun:
    @pytest.mark.parametrize("twin", ["discrete", "exact"])
    def test_steers_benchmark_datum_down(self, twin):
        space = build_fem_space(8, np.pi)
        x, y = space.points()
        twin_arg = twin if twin == "discrete" else \
            (lambda t: exact_test_solution(x, y, t))
        report, _, _ = run_fem_null_control(
            space, 0.2, RHO, 2.0, lambda x, y: 0.0 * x,
            lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y), twin=twin_arg)
        w0 = sample(lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y), *space.points())
        initial = space.mass_sq_norm(w0)
        assert report.terminal_energy <= 1e-2 * initial
        assert report.control_norm > 0


class TestHomogeneousConvergence:
    def test_first_order_in_time_at_fixed_mesh(self):
        # against the dt -> 0 limit on one mesh, the step error is O(dt)
        space = build_fem_space(12, np.pi)
        w0 = sample(lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y), *space.points())

        def terminal(dt):
            state = StatePair(v=np.zeros(space.N), w=w0)
            stepper = FemStepper(space, dt, RHO)
            for _ in range(round(1.0 / dt)):
                state = stepper.step(state)
            return state

        ref = terminal(1.0 / 512)
        errs = []
        for dt in (0.05, 0.025, 0.0125):
            s = terminal(dt)
            errs.append(math.sqrt(space.mass_sq_norm(s.v - ref.v)
                                  + space.mass_sq_norm(s.w - ref.w)))
        order = math.log2(errs[0] / errs[1])
        assert order == pytest.approx(1.0, abs=0.25)
        order = math.log2(errs[1] / errs[2])
        assert order == pytest.approx(1.0, abs=0.25)


def write_mesh(mesh, path):
    lines = [f"{len(mesh.vertices)} {len(mesh.triangles)}"]
    lines += [f"{x} {y} {int(b)}" for (x, y), b in zip(mesh.vertices, mesh.boundary)]
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    path.write_text("# structured test mesh\n" + "\n".join(lines) + "\n")


class TestStiffnessSolver:
    """S is solved by sine transforms exactly when the mesh is the structured one."""

    def test_structured_mesh_round_trip_uses_sine_solver(self, tmp_path):
        path = tmp_path / "mesh.txt"
        write_mesh(build_structured_mesh(9, np.pi), path)
        space = FemSpace.from_mesh(load_mesh(path))
        assert isinstance(make_stiffness_solver(space), SineSolver)

    def test_translated_structured_mesh_uses_sine_solver(self):
        # S does not change under translation; the nodes no longer lie on an FdGrid
        mesh = build_structured_mesh(9, np.pi)
        space = FemSpace.from_mesh(TriMesh(mesh.vertices + 1.0, mesh.triangles, mesh.boundary))
        solver = make_stiffness_solver(space)
        assert isinstance(solver, SineSolver)
        b = np.random.default_rng(5).standard_normal(space.N)
        want = SpdFactorization(space.S.tocsc()).solve(b)
        assert np.linalg.norm(solver.solve(b) - want) <= 1e-12 * np.linalg.norm(want)

    def test_perturbed_vertex_falls_back_to_factorization(self):
        mesh = build_structured_mesh(9, np.pi)
        vertices = mesh.vertices.copy()
        vertices[mesh.interior[40]] += (1e-3, -2e-3)
        space = FemSpace.from_mesh(TriMesh(vertices, mesh.triangles, mesh.boundary))
        solver = make_stiffness_solver(space)
        assert isinstance(solver, SpdFactorization)
        b = np.random.default_rng(6).standard_normal(space.N)
        assert np.linalg.norm(space.S @ solver.solve(b) - b) <= 1e-12 * np.linalg.norm(b)

    def test_non_square_node_count_falls_back(self):
        # a 3 x 2 grid of interior nodes: six is not a square
        k = 5
        coords_x, coords_y = np.linspace(0, 4.0, k), np.linspace(0, 3.0, k - 1)
        X, Y = np.meshgrid(coords_x, coords_y)
        vertices = np.column_stack([X.ravel(), Y.ravel()])
        v00 = (np.arange(k - 2)[:, None] * k + np.arange(k - 1)[None, :]).ravel()
        triangles = np.vstack([np.column_stack([v00, v00 + 1, v00 + k + 1]),
                               np.column_stack([v00, v00 + k + 1, v00 + k])])
        boundary = ((X == 0) | (X == 4.0) | (Y == 0) | (Y == 3.0)).ravel()
        space = FemSpace.from_mesh(TriMesh(vertices, triangles, boundary))
        assert space.N == 6
        assert isinstance(make_stiffness_solver(space), SpdFactorization)

    def test_sweep_matches_factored_stiffness(self):
        space = build_fem_space(57, np.pi)
        v0 = np.zeros(space.N)
        w0 = sample(lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y), *space.points())
        sine = fem_scheme(space, 0.2, RHO)
        factored = SpdFactorization(space.S.tocsc())
        sparse = Scheme(stepper=sine.stepper, mass=sine.mass, mu_basis=factored.solve,
                        sq_norms=space.mass_sq_norm)
        got = march(sine, v0, w0, [2.0, 4.0])
        want = march(sparse, v0, w0, [2.0, 4.0])
        for (r, _, _), (ref, _, _) in zip(got, want):
            assert r.control_norm == pytest.approx(ref.control_norm, rel=1e-12)
            assert r.terminal_energy == pytest.approx(ref.terminal_energy, rel=1e-12)


class TestSplitStep:
    """The march stepped by two half-size factors against the 2N block LU."""

    def test_sweep_matches_block_march(self, use_block_step):
        space = build_fem_space(57, np.pi)
        v0 = np.zeros(space.N)
        w0 = sample(lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y), *space.points())
        got = march(fem_scheme(space, 0.2, RHO), v0, w0, [2.0, 4.0])
        use_block_step()
        want = march(fem_scheme(space, 0.2, RHO), v0, w0, [2.0, 4.0])
        for (r, _, _), (ref, _, _) in zip(got, want):
            assert r.control_norm == pytest.approx(ref.control_norm, rel=1e-12)
            assert r.terminal_energy == pytest.approx(ref.terminal_energy, rel=1e-10)


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = build_structured_mesh(3, 2.0)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        loaded = load_mesh(path)
        np.testing.assert_allclose(loaded.vertices, mesh.vertices)
        np.testing.assert_array_equal(loaded.triangles, mesh.triangles)
        np.testing.assert_array_equal(loaded.boundary, mesh.boundary)
        # the loaded mesh assembles identical matrices
        s1 = FemSpace.from_mesh(loaded)
        s2 = FemSpace.from_mesh(mesh)
        assert abs(s1.M - s2.M).max() <= 1e-15
        assert abs(s1.S - s2.S).max() <= 1e-15

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 0 1\n")
        with pytest.raises(ValueError):
            load_mesh(path)
        path.write_text("")
        with pytest.raises(ValueError):
            load_mesh(path)

    def test_rejects_malformed_lines(self, malformed_mesh):
        with pytest.raises(ValueError, match="malformed mesh file"):
            load_mesh(malformed_mesh)
