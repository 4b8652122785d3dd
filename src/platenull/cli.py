"""Command-line harness for the null-control benchmark tables.

Examples:

    platenull --scheme fdm --n 32 --dt 0.2 --t-list 2,4,8,16,32,64
    platenull --scheme fem --n 32 --dt 0.0006510416666666666 \\
        --t-list 0.0625,0.03125,0.015625 --format json --out table.json
    platenull --check

Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import bench

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="platenull",
        description="Reproduce the null-controller convergence and blow-up tables.")
    p.add_argument("--scheme", choices=("fdm", "fem"), default="fdm")
    p.add_argument("--n", type=int, default=32,
                   help="interior resolution per axis; the stiffness solves and every FDM "
                        "step run sine transforms, O(n^3) per grid, timed only up to n = 300")
    p.add_argument("--rho", type=float, default=2.5, help="damping coefficient")
    p.add_argument("--side", type=float, default=math.pi, help="domain side length")
    p.add_argument("--dt", type=float, default=0.2,
                   help="time step; a table may take at most 2^24 step-columns: the steps of "
                        "its longest T times its number of T, one more with the discrete twin")
    p.add_argument("--t-list", default="2,4,8,16,32,64",
                   help="comma-separated terminal times; consecutive ratio 2")
    p.add_argument("--init", default=bench.TEST_PROBLEM,
                   help="'test-problem' or two expressions 'V_EXPR;W_EXPR' "
                        "over x, y, sin, cos, pi")
    p.add_argument("--twin", choices=("discrete", "exact"), default="discrete",
                   help="homogeneous trajectory fed to the control: the "
                        "implicitly stepped twin, or the closed-form solution "
                        "(test problem only)")
    p.add_argument("--weighted", action="store_true",
                   help="FDM: report h-weighted discrete-L2 norms")
    p.add_argument("--mesh", default=None, help="FEM: path of a mesh file to import")
    p.add_argument("--format", choices=("csv", "markdown", "json"), default="csv")
    p.add_argument("--out", default=None, help="write the table here instead of stdout")
    p.add_argument("--loglog-out", default=None,
                   help="also write gnuplot-ready log-log data to this path")
    p.add_argument("--check", action="store_true",
                   help="run the property suite instead of a sweep")
    return p


def _run_check() -> int:
    results = bench.run_property_checks()
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} property checks passed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.check:
        return _run_check()

    try:
        t_list = tuple(float(tok) for tok in args.t_list.split(",") if tok.strip())
        config = bench.SweepConfig(
            scheme=args.scheme, n=args.n, rho=args.rho, side=args.side,
            dt=args.dt, t_list=t_list, init=args.init, twin=args.twin,
            weighted=args.weighted, mesh_path=args.mesh)
        table = bench.run_sweep(config)
        rendered = bench.emit_table(table, args.format)
        if args.out:
            Path(args.out).write_text(rendered)
        else:
            sys.stdout.write(rendered)
        if args.loglog_out:
            Path(args.loglog_out).write_text(bench.loglog_data(table))
    except np.linalg.LinAlgError as exc:  # before ValueError, its base class
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # bad input, or a path that cannot be read or written
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
