"""Run one benchmark workload in this process and print its metrics.

    python3 platebench/run.py --workload fem-acceptance --seed 1 --seconds 35 --trace 0

Run from the repository root: the program under test is imported from
``src/``.  Each table goes through ``platenull.cli.main`` in-process with
``--format json --out <file>``, and the emitted JSON is read back and
checked against ``reference.json``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced passes with
passes under wrappers around the layer entry points (see ``spans.py``) and
reports per-layer self time and call counts per traced pass.  The
last stdout line is one JSON object with keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from check import load_reference, table_mismatches
from spans import LAYERS, Tracer, installed, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"

# Every layer is single-threaded, so one BLAS/OpenMP thread per process keeps
# runs on a 2-core machine from competing with themselves.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# setup_s and cold_table_s are medians over this process and the fresh child
# processes started in the window, each of which imports the program and runs
# the cold table.  A timed run starts at least this many.
MIN_FRESH = 2
_CHILD = "import sys, run; run.fresh_sample(sys.argv[1])"


class Runner:
    """Runs tables through the CLI in-process and checks each against its reference."""

    def __init__(self, cli, reference: dict, out_path: Path):
        self.cli = cli
        self.reference = reference
        self.out_path = out_path
        self.attempted = 0
        self.failed = 0
        self.tracer: Tracer | None = None

    def table(self, table) -> float:
        """Run one table; return the seconds spent inside ``cli.main``."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.table_id = f"{table.id}#{self.attempted}"
        self.out_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = self.cli.main(table.argv() + ["--format", "json",
                                                 "--out", str(self.out_path)])
            elapsed = time.perf_counter() - start
            if code != 0:
                problems = [f"exit code {code}"]
            else:
                payload = json.loads(self.out_path.read_text())
                problems = table_mismatches(
                    payload, self.reference["tables"][table.id],
                    rtol=self.reference["rtol"],
                    energy_floor=self.reference["energy_floor"][table.scheme])
        except Exception:  # a failed table is counted, and the run goes on
            elapsed = time.perf_counter() - start
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"FAILED {table.id}: " + "; ".join(problems[:5]), file=sys.stderr)
        return elapsed

    def one_pass(self, workload, rng: random.Random) -> float:
        """One full pass over the workload's tables in seeded order; its wall time."""
        order = list(workload.tables)
        rng.shuffle(order)
        start = time.perf_counter()
        for table in order:
            self.table(table)
        return time.perf_counter() - start

    def timed_window(self, workload, rng: random.Random, seconds: float,
                     setup: list[float], cold: list[float],
                     clock=time.perf_counter) -> list[float]:
        """Alternate fresh processes and warm passes for ``seconds``; the pass times.

        Fresh-process samples are appended to ``setup`` and ``cold``.  Both
        kinds of step are spread over the whole window, so their medians see
        the same machine.  A step starts only if it is expected, from its
        kind's last duration, to end inside the window; the run still takes
        at least one pass and ``MIN_FRESH`` fresh processes.
        """
        warm: list[float] = []
        fresh = 0
        last = {"fresh": 0.0, "pass": 0.0}
        start = clock()
        while True:
            left = seconds - (clock() - start)
            order = ("pass", "fresh") if len(warm) <= fresh else ("fresh", "pass")
            need = {"fresh": fresh < MIN_FRESH, "pass": not warm}
            kinds = ([kind for kind in order if last[kind] <= left]
                     or [kind for kind in order if need[kind]])
            if not kinds:
                break
            kind = kinds[0]
            step_start = clock()
            if kind == "fresh":
                sample = fresh_process_sample(workload.name)
                setup.append(sample["import_s"])
                cold.append(sample["cold_s"])
                self.attempted += 1
                self.failed += sample["failed"]
                fresh += 1
            else:
                warm.append(self.one_pass(workload, rng))
            last[kind] = clock() - step_start
        return warm


def layer_metrics(tracer: Tracer, live: set[str], n_passes: int) -> dict:
    """Per-pass self seconds and calls of every live layer, plus CG counts."""
    stats = self_times(tracer.spans)
    metrics = {}
    for layer in LAYERS:
        if layer in live:
            calls, seconds = stats.get(layer, (0, 0.0))
            metrics[f"{layer}_n"] = {"value": calls / n_passes, "unit": "count"}
            metrics[f"{layer}_s"] = {"value": seconds / n_passes, "unit": "s"}
    if "linalg.cg" in live:
        metrics["linalg.cg_n"] = {"value": tracer.cg_calls / n_passes, "unit": "count"}
        metrics["linalg.cg_iters"] = {"value": tracer.cg_iters / n_passes, "unit": "count"}
    return metrics


def start_process(workload) -> tuple[float, float, Runner]:
    """Import the program and run the workload's cold table, as a fresh process does.

    Returns the import seconds, the cold-table seconds and the runner.
    """
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    cli = importlib.import_module("platenull.cli")
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"imported platenull from {cli.__file__}, not {SRC}")
    OUT.mkdir(exist_ok=True)
    runner = Runner(cli, load_reference(), OUT / f"table-{os.getpid()}.json")
    cold_s = runner.table(workload.table(workload.cold))
    runner.out_path.unlink(missing_ok=True)
    return import_s, cold_s, runner


def fresh_sample(name: str) -> None:
    """Child-process entry point: print one JSON line of start-up measurements."""
    import_s, cold_s, runner = start_process(WORKLOADS[name])
    print(json.dumps({"import_s": import_s, "cold_s": cold_s, "failed": runner.failed}))


def fresh_process_sample(name: str) -> dict:
    """Run ``fresh_sample`` in a child process and return what it printed."""
    done = subprocess.run([sys.executable, "-c", _CHILD, name], cwd=HERE, check=True,
                          stdout=subprocess.PIPE, text=True, timeout=600)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "platenull" / "cli.py").is_file():
        print(f"error: program source not found at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        import_s, cold_s, runner = start_process(workload)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    try:
        if args.trace:
            # alternate untraced and traced passes so both see the same machine
            untraced, traced = [], []
            runner.tracer = tracer = Tracer()
            # a pair starts only if it is expected to end inside the window
            start = time.perf_counter()
            while not traced or untraced[-1] + traced[-1] <= (
                    args.seconds - (time.perf_counter() - start)):
                untraced.append(runner.one_pass(workload, rng))
                with installed(tracer) as live:
                    traced.append(runner.one_pass(workload, rng))
        else:
            setup, cold = [import_s], [cold_s]
            warm = runner.timed_window(workload, rng, args.seconds, setup, cold)
    finally:
        runner.out_path.unlink(missing_ok=True)

    if args.trace:
        metrics = layer_metrics(tracer, live, len(traced))
        metrics["trace.pass_s"] = {"value": statistics.fmean(traced), "unit": "s"}
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(traced) / statistics.median(untraced) - 1,
            "unit": "ratio"}
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                          "fields": ["name", "start", "end", "parent",
                                                     "table"],
                                          "spans": tracer.spans}))
        print(f"{workload.name}: {len(untraced)} untraced and {len(traced)} traced "
              f"passes; spans in {spans_path.relative_to(HERE.parent)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cold_table_s": {"value": statistics.median(cold), "unit": "s"},
            "pass_s": {"value": statistics.median(warm), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MiB"},
        }
        print(f"{workload.name}: setup_s and cold_table_s are medians over "
              f"{len(setup)} processes, pass_s over {len(warm)} warm passes")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} tables)")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
