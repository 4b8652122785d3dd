"""A table run loads no scipy subpackage that no table uses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
print(*sorted(m for m in sys.modules if m.startswith("scipy.")))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Every scipy module that two small table runs leave in sys.modules."""
    env = {**os.environ, "PYTHONPATH": str(Path(platenull.__file__).parents[1])}
    out = tmp_path_factory.mktemp("imports") / "table.csv"
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_table_runs_load_no_quadrature_optimizer_or_spatial_module(loaded):
    assert [m for m in loaded
            if m.startswith(("scipy.integrate", "scipy.optimize", "scipy.spatial"))] == []


def test_table_runs_load_no_fft_or_special_function_module(loaded):
    # the sine transform is two dense products; scipy.fft would pull in scipy.special
    assert [m for m in loaded if m.startswith(("scipy.fft", "scipy.special"))] == []
