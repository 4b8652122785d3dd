import math

import pytest

from platenull import fem
from platenull.linalg import BlockSolver


class BlockStep:
    """The split step's interface on the 2N block LU of the same step matrix."""

    def __init__(self, M, S, dt, rho):
        self._M = M
        self._solver = BlockSolver(M, -dt * S, dt * S, M + rho * dt * S)

    def solve(self, v, b2):
        return self._solver.solve(self._M @ v, b2)


@pytest.fixture
def use_block_step(monkeypatch):
    """Call it to make every FemStepper built afterwards step by the block LU."""
    return lambda: monkeypatch.setattr(fem, "SplitStepSolver", BlockStep)


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
