"""Regenerate ``reference.json`` from the program in ``src/``.

    python3 platebench/make_reference.py

Run from the repository root.  Every benchmark run checks its tables
against this file, so regenerate it only when a table is meant to change.
"""

from __future__ import annotations

import json
import os
import sys

from check import REFERENCE_PATH
from run import OUT, SRC, THREAD_ENV
from workloads import WORKLOADS

RTOL = 1e-10
# Terminal energies below the floor of their scheme are rounding noise.
ENERGY_FLOOR = {"fdm": 1e-30, "fem": 1e-70}
FLOOR_REASON = (
    "Measured by re-running the FDM n=32 and FEM n=57 tables with another "
    "LU column ordering, which changes only rounding.  FDM energies from "
    "T=16 on (3.6e-38 down to 6.8e-82, including the T=64 values 1.1e-78, "
    "6.8e-82 and 5.5e-80) moved by factors of 0.8 to 290, so they are noise; "
    "FDM energies down to 1.3e-21 (T=8) moved by at most 1.3e-12 relative.  "
    "FEM energies down to 1.9e-59 moved by at most 1.4e-11 relative, and the "
    "modal prototype reproduces the FEM 2.6e-62, so they are real.  A modal "
    "solve gives 2.2e-89 for an FDM T=64 energy the sparse path puts at "
    "4.3e-84.  The floors sit between the noise and the real values of each "
    "scheme.")


def main() -> int:
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from platenull import cli

    OUT.mkdir(exist_ok=True)
    out = OUT / "reference-table.json"
    tables = {}
    for workload in WORKLOADS.values():
        for table in workload.tables:
            if cli.main(table.argv() + ["--format", "json", "--out", str(out)]) != 0:
                print(f"error: table {table.id} failed", file=sys.stderr)
                return 1
            tables[table.id] = json.loads(out.read_text())
    out.unlink()
    REFERENCE_PATH.write_text(json.dumps(
        {"rtol": RTOL, "energy_floor": ENERGY_FLOOR, "floor_reason": FLOOR_REASON,
         "tables": tables}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
