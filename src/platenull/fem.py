"""P1 finite elements: triangulation, mass/stiffness assembly, stepping, control.

The default mesh splits an (n+1) x (n+1) square grid of (0, a)^2 into right
triangles along one diagonal: (n+2)^2 vertices, N = n^2 interior ones,
2(n+1)^2 elements of equal area.  Element integrals are exact P1 closed
forms (no quadrature error); boundary conditions are imposed by eliminating
boundary vertices, so the basis spans a subspace of H^1_0.

One implicit step of the coupled variational system solves, in coefficients,

    M v+ - dt*S w+            = M v,
    dt*S v+ + (M + rho dt S) w+ = M w + dt*M u,

with the 2N x 2N block matrix factored once per sweep, for the run loop in
:mod:`platenull.march` (unique solvability is guaranteed for dt < 1/rho).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .control import g_vector, mu_zero
from .core import ControlTrajectory, KalmanDiagnostics, PlateParams, RunReport, StatePair
from .linalg import BlockSolver, SpdFactorization
from .march import InitialDatum, Scheme, TwinSource, march

__all__ = [
    "TriMesh",
    "MeshFamilyReport",
    "build_structured_mesh",
    "load_mesh",
    "mesh_family_report",
    "assemble_mass",
    "assemble_stiffness",
    "FemSpace",
    "interpolate_nodal",
    "FemStepper",
    "fem_control_at_step",
    "fem_scheme",
    "run_fem_null_control",
    "kalman_check_fem",
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
    if a <= 0:
        raise ValueError(f"domain side must be positive, got {a}")
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

    Line 1: ``nv nt``; then nv lines ``x y boundary_flag``; then nt lines
    ``i j k`` with zero-based vertex indices.  ``#`` starts a comment.
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
        vrows = [line.split() for line in lines[1:1 + nv]]
        verts = np.array([[float(r[0]), float(r[1])] for r in vrows])
        flags = np.array([int(r[2]) for r in vrows], dtype=bool)
        tris = np.array([[int(t) for t in line.split()[:3]] for line in lines[1 + nv:]])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed mesh file {path}: {exc}") from exc
    return TriMesh(vertices=verts, triangles=tris, boundary=flags)


@dataclass(frozen=True)
class MeshFamilyReport:
    """Audit of the classical mesh-family bounds, scaled by the vertex count."""

    max_valence: int
    area_times_n: tuple[float, float]      # (min, max) of R_K * nv
    diam_times_sqrt_n: tuple[float, float]  # (min, max) of h_K * sqrt(nv)


def mesh_family_report(mesh: TriMesh) -> MeshFamilyReport:
    nv = len(mesh.vertices)
    counts = np.bincount(mesh.triangles.ravel(), minlength=nv)
    areas = mesh.signed_areas()
    p = mesh.vertices[mesh.triangles]
    edges = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    diams = np.sqrt((edges**2).sum(axis=2)).max(axis=0)
    return MeshFamilyReport(
        max_valence=int(counts.max()),
        area_times_n=(float(areas.min() * nv), float(areas.max() * nv)),
        diam_times_sqrt_n=(float(diams.min() * math.sqrt(nv)),
                           float(diams.max() * math.sqrt(nv))),
    )


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


def _assemble(mesh: TriMesh, local: np.ndarray) -> sp.csr_matrix:
    nv = len(mesh.vertices)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Gram matrix (phi_i, phi_j) over all vertices (boundary rows included)."""
    mass, _ = _element_matrices(mesh)
    return _assemble(mesh, mass)


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """Gram matrix (grad phi_i, grad phi_j) over all vertices."""
    _, stiff = _element_matrices(mesh)
    return _assemble(mesh, stiff)


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
        M = assemble_mass(mesh)[interior][:, interior]
        S = assemble_stiffness(mesh)[interior][:, interior]
        return cls(mesh=mesh, interior=interior, M=M, S=S)

    @property
    def N(self) -> int:
        return len(self.interior)

    def nodes(self) -> np.ndarray:
        """Coordinates of the interior nodes, (N, 2)."""
        return self.mesh.vertices[self.interior]

    def mass_sq_norm(self, x: np.ndarray) -> float | np.ndarray:
        """Squared L2 norm of the function with interior coefficients x.

        For an (N, k) block, the squared norm of every column.
        """
        return np.einsum("i...,i...->...", x, self.M @ x)


def build_fem_space(n: int, a: float) -> FemSpace:
    return FemSpace.from_mesh(build_structured_mesh(n, a))


def interpolate_nodal(f: InitialDatum, space: FemSpace) -> np.ndarray:
    """Coefficients of the nodal interpolant: entry i = f at interior node i."""
    pts = space.nodes()
    return np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float) + np.zeros(space.N)


class FemStepper:
    """One implicit step of the coupled variational system, factored once.

    States and controls are (N,) vectors or (N, k) blocks of k columns.
    """

    def __init__(self, space: FemSpace, dt: float, rho: float):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if dt >= 1.0 / rho:
            warnings.warn(
                f"dt = {dt:g} >= 1/rho = {1.0 / rho:g}; unique solvability of the "
                "implicit step is only guaranteed below that", RuntimeWarning,
                stacklevel=2)
        self.space = space
        self.dt = dt
        self.rho = rho
        M, S = space.M, space.S
        self._solver = BlockSolver(M, -dt * S, dt * S, M + rho * dt * S)

    def step(self, state: StatePair, u: np.ndarray | None = None) -> StatePair:
        M = self.space.M
        b1 = M @ state.v
        b2 = M @ state.w if u is None else M @ (state.w + self.dt * u)
        v_next, w_next = self._solver.solve(b1, b2)
        return StatePair(v=v_next, w=w_next)


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


def fem_scheme(space: FemSpace, dt: float, rho: float) -> Scheme:
    """The march's view of the space (K = S, B = M), with mass-weighted norms."""
    stepper = FemStepper(space, dt, rho)  # the block LU first, while little else is held
    stiffness = SpdFactorization(space.S.tocsc())
    return Scheme(stepper=stepper, mu_basis=lambda v: stiffness.solve(space.M @ v),
                  sq_norms=space.mass_sq_norm)


def run_fem_null_control(params: PlateParams, v0: InitialDatum, w0: InitialDatum, *,
                         twin: TwinSource = "discrete", mesh: TriMesh | None = None,
                         ) -> tuple[RunReport, ControlTrajectory, StatePair]:
    """Steer the interpolated initial data toward zero over [0, T].

    Same march as the finite-difference run; states and controls are
    measured in the mass-weighted L2 norm.  A custom ``mesh`` (e.g. an
    imported Delaunay triangulation) overrides the structured default.
    """
    space = FemSpace.from_mesh(mesh if mesh is not None else
                               build_structured_mesh(params.n, params.a))
    scheme = fem_scheme(space, params.dt, params.rho)
    return march(scheme, interpolate_nodal(v0, space), interpolate_nodal(w0, space),
                 [params.T], twin=twin, keep_controls=True)[0]


_DENSE_CAP = 24


def kalman_check_fem(space: FemSpace, rho: float) -> KalmanDiagnostics:
    """Verify the rank condition for [B, A B] with the closed-form inverse.

    K = [[0, M^{-1}S], [I, -rho M^{-1}S]] and K^{-1} = [[rho I, I],
    [S^{-1}M, 0]]; the product is checked densely on small spaces.
    """
    N = space.N
    if N > _DENSE_CAP**2:
        raise ValueError(f"dense Kalman check capped at N <= {_DENSE_CAP**2}")
    Minv_S = np.linalg.solve(space.M.toarray(), space.S.toarray())
    Z = np.zeros((N, N))
    eye = np.eye(N)
    K = np.block([[Z, Minv_S], [eye, -rho * Minv_S]])
    Sinv_M = np.linalg.solve(space.S.toarray(), space.M.toarray())
    Kinv = np.block([[rho * eye, eye], [Sinv_M, Z]])
    identity_error = float(np.max(np.abs(K @ Kinv - np.eye(2 * N))))
    rank = int(np.linalg.matrix_rank(K))
    return KalmanDiagnostics(dim=2 * N, rank=rank, identity_error=identity_error,
                             operator_inv_norm=float(np.linalg.norm(Sinv_M, 2)))
