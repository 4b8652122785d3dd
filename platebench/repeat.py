"""Run one workload once per seed and summarise every metric.

    python3 platebench/repeat.py --workload fem-acceptance --runs 10
    python3 platebench/repeat.py --workload large-grid --runs 3 --trace 1 --out s.json

Run from the repository root.  Runs ``run.py`` for seeds first-seed,
first-seed+1, ... one after another, and prints per metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median.  ``--out`` also writes the summary, with the machine it
ran on, as JSON: a before/after ``BENCH_<PR>.json`` is two such summaries
of the same workloads, one per commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import THREAD_ENV
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def machine() -> dict:
    """CPU count and model, cache sizes, and the interpreter and library versions."""
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True, timeout=120).stdout.split()
    return {"nproc": os.cpu_count(), "cpu": model, "caches": caches,
            "python": platform.python_version(), "numpy": versions[0],
            "scipy": versions[1], "thread_env": THREAD_ENV}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        results.append(json.loads(done.stdout.splitlines()[-1]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in results[-1]["metrics"].items()
            if not args.trace or k.endswith("_s") or k.startswith("trace.")),
            file=sys.stderr)

    names = results[0]["metrics"]
    workload = WORKLOADS[args.workload]
    summary = {
        "workload": args.workload, "runs": args.runs, "first_seed": args.first_seed,
        "seconds": args.seconds, "trace": args.trace,
        "cold_table": workload.cold, "tables": [t.id for t in workload.tables],
        "controlled_steps_per_pass": workload.controlled_steps(),
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"unit": names[name]["unit"],
                           **summarise([r["metrics"][name]["value"] for r in results])}
                    for name in names},
    }
    for name, m in summary["metrics"].items():
        spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
        print(f"{name:28s} median {m['median']:.6g} {m['unit']}  "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps({"machine": machine(), **summary}, indent=1) + "\n")
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
