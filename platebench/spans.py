"""Layer spans timed from outside the program.

``installed(tracer)`` wraps the public entry points of each platenull module
where their callers look them up, records one span per call (name, start,
end, parent span, table id) in memory, and puts every original back on
exit.  ``scipy.sparse.linalg.cg`` gets a call counter and a pass-through
iteration callback instead of a span, so CG time stays inside
``linalg.spd_solve``.  A wrap point that no longer exists is reported and
its layer dropped rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager


# (module, attribute path inside it, layer).  A (twin, controlled) pair of
# layers splits ``step(state, u=None)`` by whether a control is passed.
WRAP_POINTS = (
    ("platenull.linalg", "BlockSolver.__init__", "linalg.block_factor"),
    ("platenull.linalg", "BlockSolver.solve", "linalg.block_solve"),
    ("platenull.linalg", "SpdFactorization.__init__", "linalg.spd_factor"),
    ("platenull.linalg", "SpdFactorization.solve", "linalg.spd_solve"),
    ("platenull.fem", "build_structured_mesh", "fem.assemble"),
    ("platenull.fem", "FemSpace.from_mesh", "fem.assemble"),
    ("platenull.fem", "FemStepper.step", ("fem.twin_step", "fem.ctrl_step")),
    ("platenull.fem", "fem_control_at_step", "fem.control"),
    ("platenull.fem", "run_fem_null_control", "fem.run"),
    ("platenull.fem", "mu_zero", "control.mu0"),
    ("platenull.fem", "g_vector", "control.g"),
    ("platenull.fdm", "build_dn", "fdm.build"),
    ("platenull.fdm", "FdmStepper.step", ("fdm.twin_step", "fdm.ctrl_step")),
    ("platenull.fdm", "fdm_control_at_step", "fdm.control"),
    ("platenull.fdm", "run_fdm_null_control", "fdm.run"),
    ("platenull.fdm", "mu_zero", "control.mu0"),
    ("platenull.fdm", "g_vector", "control.g"),
    ("platenull.bench", "exact_test_solution", "spectral.exact"),
    ("platenull.bench", "run_sweep", "bench.sweep"),
    ("platenull.bench", "emit_table", "bench.emit"),
    ("platenull.cli", "main", "cli.main"),
)
CG_POINT = ("scipy.sparse.linalg", "cg")


def _point_layers(point) -> tuple[str, ...]:
    return point[2] if isinstance(point[2], tuple) else (point[2],)


LAYERS = tuple(dict.fromkeys(layer for point in WRAP_POINTS for layer in _point_layers(point)))


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index, table id]
        self.table_id: str | None = None
        self.cg_calls = 0
        self.cg_iters = 0
        self._open: list[int] = []

    def wrap(self, fn, layer):
        if isinstance(layer, tuple):
            twin, ctrl = layer

            def name_of(args, kwargs):
                u = args[2] if len(args) > 2 else kwargs.get("u")
                return twin if u is None else ctrl
        else:
            def name_of(args, kwargs):
                return layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name_of(args, kwargs), self.clock(), None, parent,
                               self.table_id])
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = self.clock()
        return traced

    def wrap_cg(self, cg):
        @functools.wraps(cg)
        def counted(*args, callback=None, **kwargs):
            self.cg_calls += 1

            def passthrough(xk):
                self.cg_iters += 1
                if callback is not None:
                    callback(xk)
            return cg(*args, callback=passthrough, **kwargs)
        return counted


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds), self = duration minus child cover.

    Spans are listed in start order, so the children of each parent arrive
    sorted by start and their union is merged in one pass.
    """
    child_cover = [0.0] * len(spans)
    cover_end = [float("-inf")] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is None:
            continue
        lo = max(start, cover_end[parent])
        if end > lo:
            child_cover[parent] += end - lo
        cover_end[parent] = max(cover_end[parent], end)
    out: dict[str, tuple[int, float]] = {}
    for (name, start, end, _, _), covered in zip(spans, child_cover):
        calls, seconds = out.get(name, (0, 0.0))
        out[name] = (calls + 1, seconds + (end - start) - covered)
    return out


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, raw attribute) or None when missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


@contextmanager
def installed(tracer: Tracer, points=WRAP_POINTS, cg_point=CG_POINT, notice=sys.stderr):
    """Install the wrappers for the duration of the block; yield the live layers.

    A layer is live when at least one of its wrap points was found.
    """
    patched = []
    live: set[str] = set()
    try:
        for point in points:
            found = _resolve(point[0], point[1])
            if found is None:
                print(f"notice: wrap point {point[0]}.{point[1]} not found; "
                      f"{'/'.join(_point_layers(point))} not measured there", file=notice)
                continue
            owner, attr, raw = found
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(raw.__func__, point[2]))
            else:
                new = tracer.wrap(raw, point[2])
            setattr(owner, attr, new)
            patched.append((owner, attr, raw))
            live.update(_point_layers(point))
        found = _resolve(*cg_point)
        if found is None:
            print(f"notice: {'.'.join(cg_point)} not found; CG not counted", file=notice)
        else:
            owner, attr, raw = found
            setattr(owner, attr, tracer.wrap_cg(raw))
            patched.append((owner, attr, raw))
            live.add("linalg.cg")
        yield live
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)
