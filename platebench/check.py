"""Correctness check of one emitted table against the stored reference.

Control norms must agree to ``rtol`` relative, the cross-backend tolerance
of the project.  Terminal energies are compared to the same tolerance only
above ``energy_floor``: below it a value is rounding noise, and two values
both below the floor count as agreeing.  Rates are derived columns, checked
where both values they come from are checked.  Any non-finite number fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def table_mismatches(payload: dict, expected: dict, *, rtol: float,
                     energy_floor: float) -> list[str]:
    """Every way ``payload`` (a parsed JSON table) disagrees with ``expected``."""
    problems = []
    if payload.get("config") != expected["config"]:
        problems.append("config echo differs from the reference")
    rows, ref_rows = payload.get("rows", []), expected["rows"]
    if len(rows) != len(ref_rows):
        return problems + [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        values = [row[c] for c in ("T", "energy", "unorm", "energy_rate", "unorm_rate")]
        if any(v is not None and not math.isfinite(v) for v in values):
            problems.append(f"row {k}: non-finite value in {row}")
            continue
        if row["T"] != ref["T"]:
            problems.append(f"row {k}: T = {row['T']}, reference {ref['T']}")
        if not _close(row["unorm"], ref["unorm"], rtol):
            problems.append(f"row {k}: unorm {row['unorm']!r} vs {ref['unorm']!r}")
        if k > 0 and not _rate_close(row["unorm_rate"], ref["unorm_rate"], rtol):
            problems.append(f"row {k}: unorm_rate {row['unorm_rate']!r} "
                            f"vs {ref['unorm_rate']!r}")
        above = max(row["energy"], ref["energy"]) >= energy_floor
        if above and not _close(row["energy"], ref["energy"], rtol):
            problems.append(f"row {k}: energy {row['energy']!r} vs {ref['energy']!r}")
        rate_above = k > 0 and min(rows[k - 1]["energy"], ref_rows[k - 1]["energy"],
                                   row["energy"], ref["energy"]) >= energy_floor
        if rate_above and not _rate_close(row["energy_rate"], ref["energy_rate"], rtol):
            problems.append(f"row {k}: energy_rate {row['energy_rate']!r} "
                            f"vs {ref['energy_rate']!r}")
    return problems


def _rate_close(a: float | None, b: float | None, rtol: float) -> bool:
    # a log2 ratio of two values each within rtol moves by at most ~3 rtol
    if a is None or b is None:
        return a is b
    return abs(a - b) <= 4 * rtol
