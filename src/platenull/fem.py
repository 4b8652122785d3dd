"""P1 finite elements: triangulation, mass/stiffness assembly, stepping, control.

The default mesh splits an (n+1) x (n+1) square grid of (0, a)^2 into right
triangles along one diagonal: (n+2)^2 vertices, N = n^2 interior ones,
2(n+1)^2 elements of equal area.  Element integrals are exact P1 closed
forms (no quadrature error); boundary conditions are imposed by eliminating
boundary vertices, so the basis spans a subspace of H^1_0.

One implicit step of the coupled variational system solves, in coefficients,

    M v+ - dt*S w+            = M v,
    dt*S v+ + (M + rho dt S) w+ = M w + dt*M u,

through the two factors M + s_i dt S of its Schur complement (s1 s2 = 1,
s1 + s2 = rho), each factored once per sweep, for the run loop in
:mod:`platenull.march`; the step is uniquely solvable for every dt > 0.
On the structured mesh S is h^2 times the 5-point matrix, so the stiffness
solves of the control go through the sine transform instead of a
factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .control import g_vector, mu_zero
from .core import RunReport, StatePair, warn_coarse_step
from .fdm import FdGrid, build_dn, dn_eigenvalues
from .linalg import SineSolver, SpdFactorization, SplitStepSolver
from .march import InitialDatum, Scheme, TwinSource, march, sample

__all__ = [
    "TriMesh",
    "build_structured_mesh",
    "load_mesh",
    "assemble",
    "FemSpace",
    "FemStepper",
    "fem_control_at_step",
    "make_stiffness_solver",
    "fem_scheme",
    "run_fem_null_control",
]

@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation: vertex coordinates, elements, boundary flags."""

    vertices: np.ndarray   # (nv, 2)
    triangles: np.ndarray  # (nt, 3) vertex indices, counterclockwise
    boundary: np.ndarray   # (nv,) bool

    def __post_init__(self) -> None:
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be an (nt, 3) array")
        if self.boundary.shape != (len(self.vertices),):
            raise ValueError("need one boundary flag per vertex")
        if self.triangles.size and not (
                0 <= self.triangles.min() and self.triangles.max() < len(self.vertices)):
            raise ValueError(f"triangle vertex indices must lie in [0, {len(self.vertices)})")
        used = np.zeros(len(self.vertices), dtype=bool)
        used[self.triangles] = True
        unused = np.flatnonzero(~(used | self.boundary))
        if unused.size:  # its row of M and S would be zero
            raise ValueError(f"interior vertex {unused[0]} belongs to no triangle")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("vertex coordinates must be finite")
        if np.any(self.signed_areas() <= 0):
            raise ValueError("all triangles must be positively oriented")

    @property
    def interior(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary)

    @property
    def N(self) -> int:
        return int(np.count_nonzero(~self.boundary))

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def build_structured_mesh(n: int, a: float) -> TriMesh:
    """Diagonal split of the uniform (n+1) x (n+1) grid of (0, a)^2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    FdGrid(n=n, a=a)  # checks the side and the width a/(n+1) of the grid the mesh splits
    k = n + 2  # vertices per axis
    coords = np.linspace(0.0, a, k)
    X, Y = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])  # index = row*k + col
    cells_j, cells_i = np.meshgrid(np.arange(k - 1), np.arange(k - 1), indexing="ij")
    v00 = (cells_j * k + cells_i).ravel()
    lower = np.column_stack([v00, v00 + 1, v00 + k + 1])
    upper = np.column_stack([v00, v00 + k + 1, v00 + k])
    triangles = np.vstack([lower, upper])
    on_boundary = ((X == 0) | (X == a) | (Y == 0) | (Y == a)).ravel()
    return TriMesh(vertices=vertices, triangles=triangles, boundary=on_boundary)


def load_mesh(path: str | Path) -> TriMesh:
    """Read the plain-text mesh format.

    Line 1: ``nv nt``; then nv lines ``x y boundary_flag`` with a flag of 0
    or 1; then nt lines ``i j k`` with zero-based vertex indices.  Every line
    after the first has exactly three fields.  ``#`` starts a comment.
    """
    lines = []
    for raw in Path(path).read_text().splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise ValueError(f"empty mesh file: {path}")
    try:
        nv, nt = (int(tok) for tok in lines[0].split())
        if len(lines) != 1 + nv + nt:
            raise ValueError(
                f"expected {1 + nv + nt} content lines, found {len(lines)}")
        rows = [line.split() for line in lines[1:]]
        for row in rows:
            if len(row) != 3:
                raise ValueError(f"need exactly 3 fields per line, got {' '.join(row)!r}")
        verts = np.array([[float(x), float(y)] for x, y, _ in rows[:nv]])
        flags = [int(flag) for _, _, flag in rows[:nv]]
        if not set(flags) <= {0, 1}:
            raise ValueError("boundary flags must be 0 or 1")
        tris = np.array([[int(t) for t in row] for row in rows[nv:]])
    except ValueError as exc:
        raise ValueError(f"malformed mesh file {path}: {exc}") from exc
    return TriMesh(vertices=verts, triangles=tris, boundary=np.array(flags, dtype=bool))


def _element_matrices(mesh: TriMesh):
    """Exact P1 element mass and stiffness matrices for every triangle."""
    p = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    B = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)  # maps ref to phys
    det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
    area = 0.5 * det
    inv = np.empty_like(B)
    inv[:, 0, 0] = B[:, 1, 1] / det
    inv[:, 0, 1] = -B[:, 0, 1] / det
    inv[:, 1, 0] = -B[:, 1, 0] / det
    inv[:, 1, 1] = B[:, 0, 0] / det
    ref_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = ref_grads @ inv                     # (nt, 3, 2) physical gradients
    stiff = np.einsum("tid,tjd,t->tij", grads, grads, area)
    mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mass = np.einsum("ij,t->tij", mass, area)
    return mass, stiff


def assemble(mesh: TriMesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Gram matrices (phi_i, phi_j) and (grad phi_i, grad phi_j) over all vertices.

    Boundary rows are included; both come from one pass over the elements.
    """
    nv = len(mesh.vertices)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    return tuple(sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
                 for local in _element_matrices(mesh))


@dataclass(frozen=True)
class FemSpace:
    """Interior P1 space: mesh, interior index map, assembled M and S."""

    mesh: TriMesh
    interior: np.ndarray = field(repr=False)
    M: sp.csr_matrix = field(repr=False)
    S: sp.csr_matrix = field(repr=False)

    @classmethod
    def from_mesh(cls, mesh: TriMesh) -> "FemSpace":
        interior = mesh.interior
        if len(interior) == 0:
            raise ValueError("mesh has no interior vertex, so its P1 space is empty")
        M, S = (A[interior][:, interior] for A in assemble(mesh))
        return cls(mesh=mesh, interior=interior, M=M, S=S)

    @property
    def N(self) -> int:
        return len(self.interior)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate vectors (x, y) of the N interior nodes in coefficient order."""
        x, y = self.mesh.vertices[self.interior].T
        return x, y

    def mass_sq_norm(self, x: np.ndarray) -> float | np.ndarray:
        """Squared L2 norm of the function with interior coefficients x.

        For an (N, k) block, the squared norm of every column.
        """
        return np.einsum("i...,i...->...", x, self.M @ x)


def build_fem_space(n: int, a: float) -> FemSpace:
    return FemSpace.from_mesh(build_structured_mesh(n, a))


class FemStepper:
    """One implicit step of the coupled variational system, factored once.

    States and controls are (N,) vectors or (N, k) blocks of k columns.
    """

    def __init__(self, space: FemSpace, dt: float, rho: float):
        self._solver = SplitStepSolver(space.M, space.S, dt, rho)  # checks dt and rho
        warn_coarse_step(dt, rho)
        self.space = space
        self.dt = dt
        self.rho = rho

    def step(self, state: StatePair, u: np.ndarray | None = None) -> StatePair:
        """The next state, carrying [M v+; S v+] for the step after it.

        The step takes [M v; S v] from ``state.msv``; given none, it
        computes it.  A check that fails on a forcing M (w + dt u) that
        overflowed is a ValueError, not a solver failure.
        """
        M = self.space.M
        b2 = M @ state.w if u is None else M @ (state.w + self.dt * u)
        try:
            v_next, w_next, msv_next = self._solver.solve(state.v, b2, state.msv)
        except np.linalg.LinAlgError:
            if np.all(np.isfinite(b2)):
                raise
            raise ValueError("the step's forcing M (w + dt u) overflows double precision: "
                             "the mass matrix and the controls are too large at this "
                             "scale") from None
        return StatePair(v=v_next, w=w_next, msv=msv_next)


def fem_control_at_step(vh_next2: np.ndarray, vh_next: np.ndarray, wh_next: np.ndarray,
                        t_next: float, dt: float, T: float, rho: float,
                        space: FemSpace,
                        stiffness_solver: SpdFactorization | None = None) -> np.ndarray:
    """Assemble u^{j+1} = mu0 + mu1', where S mu1' = -M G in coefficients."""
    if stiffness_solver is None:
        stiffness_solver = SpdFactorization(space.S.tocsc())
    mu0 = mu_zero(vh_next, wh_next, rho, t_next, T)
    G = g_vector(vh_next2, vh_next, dt, t_next, T)
    mu1_prime = stiffness_solver.solve(-(space.M @ G))
    return mu0 + mu1_prime


def make_stiffness_solver(space: FemSpace) -> SineSolver | SpdFactorization:
    """Solver for S: sine transforms on the structured mesh, else a factorization.

    The mesh counts as structured when S equals h^2 times the 5-point matrix
    of an n x n grid, to 1e-12 relative; SineSolver then checks every solve
    against S itself.  h^2 D is the bare stencil for any h, and h is taken
    from the span of the vertices, the side a of the structured mesh of (0, a)^2.
    """
    n = math.isqrt(space.N)
    if n * n == space.N:
        grid = FdGrid(n=n, a=float(np.ptp(space.mesh.vertices)))
        if abs(space.S - grid.h**2 * build_dn(grid)).max() <= 1e-12 * abs(space.S).max():
            return SineSolver(space.S, grid.h**2 * dn_eigenvalues(grid))
    return SpdFactorization(space.S.tocsc())


def fem_scheme(space: FemSpace, dt: float, rho: float) -> Scheme:
    """The march's view of the space (K = S, B = M), with mass-weighted norms."""
    stepper = FemStepper(space, dt, rho)  # the step factors first, while little else is held
    stiffness = make_stiffness_solver(space)
    return Scheme(stepper=stepper, mass=lambda v: space.M @ v, mu_basis=stiffness.solve,
                  sq_norms=space.mass_sq_norm)


def run_fem_null_control(space: FemSpace, dt: float, rho: float, T: float,
                         v0: InitialDatum, w0: InitialDatum, *,
                         twin: TwinSource = "discrete",
                         ) -> tuple[RunReport, np.ndarray, StatePair]:
    """Steer the interpolated initial data toward zero over [0, T].

    Same march as the finite-difference run; states and controls are
    measured in the mass-weighted L2 norm.
    """
    scheme = fem_scheme(space, dt, rho)
    x, y = space.points()
    return march(scheme, sample(v0, x, y), sample(w0, x, y), [T],
                 twin=twin, keep_controls=True)[0]
