"""A table run loads no scipy subpackage that no table uses."""

import os
import subprocess
import sys
from pathlib import Path

import platenull

# Run in a fresh interpreter: other test modules import scipy.integrate into
# the pytest process.
SCRIPT = """
import sys
from platenull import cli
out = sys.argv[1]
assert cli.main(["--scheme", "fdm", "--n", "4", "--dt", "0.25", "--t-list", "1,2",
                 "--twin", "exact", "--out", out]) == 0
assert cli.main(["--scheme", "fem", "--n", "4", "--dt", "0.25", "--t-list", "1,2",
                 "--out", out]) == 0
print(*sorted(m for m in sys.modules
              if m.startswith(("scipy.integrate", "scipy.optimize", "scipy.spatial"))))
"""


def test_table_runs_load_no_quadrature_optimizer_or_spatial_module(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(platenull.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "table.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
