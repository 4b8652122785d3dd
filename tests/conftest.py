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
