"""The benchmark's workloads: named sets of rate tables, each one CLI call.

Every table is one ``platenull`` invocation with rho = 2.5, side = pi and
the built-in test problem, so a table's argv is all the program receives.
"""

from __future__ import annotations

from dataclasses import dataclass

RHO = "2.5"
SIDE = repr(3.141592653589793)
GROWING = "2,4,8,16,32,64"
SHRINKING = ",".join(repr(2.0 ** -k) for k in range(4, 10))
BLOWUP_DT = repr(1.0 / 1536.0)


@dataclass(frozen=True)
class Table:
    """One rate table: an id for the reference file and its CLI arguments."""

    id: str
    scheme: str
    n: int
    dt: str
    t_list: str
    twin: str = "discrete"

    def argv(self) -> list[str]:
        return ["--scheme", self.scheme, "--n", str(self.n), "--rho", RHO,
                "--side", SIDE, "--dt", self.dt, "--t-list", self.t_list,
                "--init", "test-problem", "--twin", self.twin]

    def controlled_steps(self) -> int:
        """Controlled implicit steps over the table (one per step of each row)."""
        dt = float(self.dt)
        return sum(max(2, round(float(T) / dt)) for T in self.t_list.split(","))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cold: str                  # id of the table run first, cold, in every run
    tables: tuple[Table, ...]

    def table(self, table_id: str) -> Table:
        return next(t for t in self.tables if t.id == table_id)

    def controlled_steps(self) -> int:
        return sum(t.controlled_steps() for t in self.tables)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fem-acceptance",
        why="P1 FEM n=57 acceptance tables; block LU solves dominate, and all "
            "three tables share one mesh",
        cold="fem57-blowup",
        tables=(
            Table("fem57-dt0.2", "fem", 57, "0.2", GROWING),
            Table("fem57-dt0.1", "fem", 57, "0.1", GROWING),
            Table("fem57-blowup", "fem", 57, BLOWUP_DT, SHRINKING),
        )),
    Workload(
        name="fdm-acceptance",
        why="FDM n=32 acceptance tables plus the CLI default; per-step Python "
            "work dominates and no block solve runs",
        cold="fdm32-dt0.2",
        tables=(
            Table("fdm32-exact-dt0.2", "fdm", 32, "0.2", GROWING, "exact"),
            Table("fdm32-exact-dt0.1", "fdm", 32, "0.1", GROWING, "exact"),
            Table("fdm32-exact-blowup", "fdm", 32, BLOWUP_DT, SHRINKING, "exact"),
            Table("fdm32-dt0.2", "fdm", 32, "0.2", GROWING),
        )),
    Workload(
        name="large-grid",
        why="FEM n=150 and FDM n=101, above the 10,000-unknown direct limit, so "
            "every SPD solve runs CG on the largest working set",
        cold="fem150-dt0.2",
        tables=(
            Table("fem150-dt0.2", "fem", 150, "0.2", "2,4"),
            Table("fdm101-dt0.25", "fdm", 101, "0.25", "1"),
        )),
)}
