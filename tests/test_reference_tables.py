"""The benchmark's correctness gate, run on the tables that are cheap to run.

``platebench/check.py`` compares an emitted JSON table with the stored
reference, and ``platebench/workloads.py`` holds each table's CLI arguments.
Both are loaded from their files and nothing there is changed.  The five FDM
tables, ``fem57-blowup`` and ``fem150-dt0.2`` take about 2.4 s together on
one thread of a 2-core x86-64 Xeon.  ``fdm101-dt0.25`` is included because
its stored energy sits closest to the tolerance, and ``fem150-dt0.2``
because n = 150 is the largest grid the sine transform runs on.  The other
two FEM tables take about 2.5 s and are left to the benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from platenull.cli import main

_PLATEBENCH = Path(__file__).resolve().parents[1] / "platebench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"platebench_{name}", _PLATEBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")
TABLES = {t.id: t for w in workloads.WORKLOADS.values() for t in w.tables}
CHECKED = sorted(i for i, t in TABLES.items() if t.scheme == "fdm") + [
    "fem57-blowup", "fem150-dt0.2"]


@pytest.mark.parametrize("table_id", CHECKED)
def test_table_matches_reference(table_id, tmp_path):
    table = TABLES[table_id]
    reference = check.load_reference()
    out = tmp_path / "table.json"
    assert main(table.argv() + ["--format", "json", "--out", str(out)]) == 0
    problems = check.table_mismatches(
        json.loads(out.read_text()), reference["tables"][table_id],
        rtol=reference["rtol"], energy_floor=reference["energy_floor"][table.scheme])
    assert problems == []
