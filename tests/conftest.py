import math

import pytest
import scipy.sparse as sp

from platenull import fdm, fem
from platenull.core import StatePair
from platenull.linalg import BlockSolver


class BlockStep:
    """The split step's interface on the 2N block LU of the same step matrix."""

    def __init__(self, M, S, dt, rho):
        self._MS = sp.vstack([M, S], format="csr")
        self._solver = BlockSolver(M, -dt * S, dt * S, M + rho * dt * S)

    def solve(self, v, b2, msv=None):
        """(v+, w+, [M v+; S v+]); ``msv`` is the carried [M v; S v], else computed."""
        Mv = (self._MS @ v if msv is None else msv)[:len(v)]
        v_next, w_next = self._solver.solve(Mv, b2)
        return v_next, w_next, self._MS @ v_next


@pytest.fixture
def use_block_step(monkeypatch):
    """Call it to make every FemStepper built afterwards step by the block LU."""
    return lambda: monkeypatch.setattr(fem, "SplitStepSolver", BlockStep)


class FdmBlockStep:
    """FdmStepper's interface on the 2N block LU of the FDM step matrix."""

    def __init__(self, dn, dt, rho, eigenvalues):
        eye = sp.identity(dn.shape[0], format="csr")
        self.dt, self.rho = dt, rho
        self._solver = BlockSolver(eye, -dt * dn, dt * dn, eye + rho * dt * dn)

    def step(self, state, u=None):
        v, w = self._solver.solve(state.v, state.w if u is None else state.w + self.dt * u)
        return StatePair(v=v, w=w)


@pytest.fixture
def fdm_block_step():
    """The FDM block-LU step class, with nothing patched."""
    return FdmBlockStep


@pytest.fixture
def use_fdm_block_step(monkeypatch):
    """Make every FdmStepper built in the test step by the block LU; returns that class."""
    monkeypatch.setattr(fdm, "FdmStepper", FdmBlockStep)
    return FdmBlockStep


@pytest.fixture(params=["four-index-elements", "flag-2", "extra-vertex-tokens"])
def malformed_mesh(request, tmp_path):
    """The n = 3 structured mesh of (0, pi)^2, written with every line of one kind malformed."""
    mesh = fem.build_structured_mesh(3, math.pi)
    verts = [f"{x:.17g} {y:.17g} {int(b)}" for (x, y), b in zip(mesh.vertices, mesh.boundary)]
    tris = [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    if request.param == "four-index-elements":  # as in a quad element
        tris = [t + " 0" for t in tris]
    elif request.param == "flag-2":
        verts = [v[:-1] + "2" if v.endswith(" 1") else v for v in verts]
    else:
        verts = [v + " 7 junk" for v in verts]
    path = tmp_path / "malformed.txt"
    path.write_text("\n".join([f"{len(verts)} {len(tris)}"] + verts + tris) + "\n")
    return path
