"""Null controllers for the structurally damped plate equation.

Two fully-discrete schemes (finite differences and P1 finite elements)
construct steering controls for the first-order system

    v' = A w,   w' = -A v - rho A w + u,   A = Dirichlet Laplacian on (0,a)^2,

verify them against a closed-form spectral solution, and reproduce the
convergence and small-horizon blow-up benchmarks.
"""

from .core import KalmanDiagnostics, RunReport, StatePair, energy, rate_sequence
from .control import f_weight, f_weight_prime, g_vector, kalman_check, mu_zero
from .march import sample
from .fdm import FdGrid, build_dn, dn_eigenvalue, run_fdm_null_control
from .fem import (FemSpace, TriMesh, build_fem_space, build_structured_mesh, load_mesh,
                  run_fem_null_control)
from .spectral import Mode, evaluate_modal_sum, exact_test_solution, modal_evolve
from .bench import (SweepConfig, SweepTable, emit_table, fit_loglog_slope,
                    run_property_checks, run_sweep)

__version__ = "0.1.0"

__all__ = [
    "StatePair", "RunReport", "KalmanDiagnostics", "energy", "rate_sequence",
    "f_weight", "f_weight_prime", "mu_zero", "g_vector", "kalman_check",
    "Mode", "modal_evolve",
    "exact_test_solution", "evaluate_modal_sum",
    "sample",
    "FdGrid", "build_dn", "dn_eigenvalue", "run_fdm_null_control",
    "TriMesh", "FemSpace", "build_structured_mesh", "build_fem_space",
    "load_mesh", "run_fem_null_control",
    "SweepConfig", "SweepTable", "run_sweep", "emit_table", "fit_loglog_slope",
    "run_property_checks",
]
