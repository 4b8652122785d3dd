"""Exact scaling relations of both schemes, at the benchmark's own sizes.

On (0, 2a)^2 with dt and every T four times as long, the FDM products dt D
and the FEM stiffness S are the same numbers as on (0, a)^2, and the FEM
mass M is four times its numbers there: every rescaling is by a power of
two, which floating point carries out exactly.  The datum sin x sin y
samples there to the numbers that sin 2x sin 2y gives on (0, a)^2.  So
every emitted row comes back bitwise, rates included, with these factors:

- FDM (Euclidean norms): energies equal, control norms halved (the control
  is a quarter of its size, and sqrt(dt) twice it);
- FEM (mass norms): energies four times, control norms equal.

Halving the side, with dt and T a quarter as long and the datum
sin 4x sin 4y, inverts those factors, and a datum amplitude 2^k multiplies
the energies by 4^k and the control norms by 2^k.  The ``fdm101`` case
runs the refined Schur solve, and the imported mesh the factored stiffness
solve.  Everything runs in-process, in about half a second.
"""

import json
import math
from functools import cache

import numpy as np
import pytest

from platenull import bench
from platenull.fem import FemSpace, TriMesh, build_structured_mesh, make_stiffness_solver
from platenull.linalg import SpdFactorization

# dt rho >= 1 warns, and dt grows by 4 where the side doubles, so a run can
# warn where its bitwise twin does not: the warning is not scale-invariant
pytestmark = pytest.mark.filterwarnings("error", "ignore:dt = .* damping time scale")

RHO = 2.5
# (scheme, n, dt, T-list) of three benchmark tables, cut to their first horizons
CASES = {
    "fdm32": ("fdm", 32, 0.2, (2.0, 4.0, 8.0)),
    "fem57": ("fem", 57, 0.2, (2.0, 4.0, 8.0)),
    "fdm101": ("fdm", 101, 0.25, (1.0, 2.0)),
}
# (side factor s, amplitude factor c): both powers of two
RELATIONS = {"double": (2.0, 1.0), "halve": (0.5, 1.0),
             "amplitude4": (1.0, 4.0), "amplitude1/8": (1.0, 0.125)}


def rows(scheme, n, dt, t_list, side=math.pi, init=bench.TEST_PROBLEM, mesh_path=None):
    """The emitted JSON rows of one table, run in-process."""
    config = bench.SweepConfig(scheme=scheme, n=n, rho=RHO, side=side, dt=dt,
                               t_list=t_list, init=init, mesh_path=mesh_path)
    return json.loads(bench.emit_table(bench.run_sweep(config), "json"))["rows"]


@cache
def base_rows(case):
    return rows(*CASES[case])


def scaled(table, s, energy_factor, unorm_factor):
    """The rows a relation predicts: T times s^2, the rest scaled, the rates kept."""
    return [{**r, "T": s * s * r["T"], "energy": energy_factor * r["energy"],
             "unorm": unorm_factor * r["unorm"]} for r in table]


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("case", CASES)
def test_scaled_table_is_bitwise_the_rescaled_table(case, relation):
    scheme, n, dt, t_list = CASES[case]
    s, c = RELATIONS[relation]
    init = f"0;{1.5 * c!r}*sin({2 / s:g}*x)*sin({2 / s:g}*y)"
    got = rows(scheme, n, s * s * dt, tuple(s * s * T for T in t_list), side=s * math.pi,
               init=init)
    if scheme == "fdm":
        want = scaled(base_rows(case), s, c * c, c / s)
    else:
        want = scaled(base_rows(case), s, c * c * s * s, c)
    assert got == want


def write_mesh(path, mesh, factor):
    """The mesh file of ``mesh`` with every coordinate multiplied by ``factor``."""
    verts = [f"{float(factor * x)!r} {float(factor * y)!r} {int(b)}"
             for (x, y), b in zip(mesh.vertices, mesh.boundary)]
    tris = [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    path.write_text("\n".join([f"{len(verts)} {len(tris)}"] + verts + tris) + "\n")
    return str(path)


def test_doubled_imported_mesh_is_bitwise_the_rescaled_table(tmp_path):
    # the n = 10 structured mesh with its interior vertices moved by up to 0.3 h,
    # so S is not h^2 D and the stiffness solve is a factorization
    mesh = build_structured_mesh(10, math.pi)
    vertices = mesh.vertices.copy()
    inner = mesh.interior
    vertices[inner] += 0.3 * math.pi / 11 * np.random.default_rng(17).uniform(
        -1, 1, (len(inner), 2))
    mesh = TriMesh(vertices, mesh.triangles, mesh.boundary)
    assert isinstance(make_stiffness_solver(FemSpace.from_mesh(mesh)), SpdFactorization)
    t_list = (2.0, 4.0, 8.0)
    base = rows("fem", 10, 0.2, t_list, mesh_path=write_mesh(tmp_path / "a.txt", mesh, 1.0))
    got = rows("fem", 10, 0.8, tuple(4 * T for T in t_list), side=2 * math.pi,
               init="0;1.5*sin(x)*sin(y)", mesh_path=write_mesh(tmp_path / "b.txt", mesh, 2.0))
    assert got == scaled(base, 2.0, 4.0, 1.0)
