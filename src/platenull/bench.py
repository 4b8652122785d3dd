"""Benchmark harness: T-sweeps, rate tables, emission, property suite.

A sweep runs the null-control experiment for every terminal time in a
T-list whose consecutive entries differ by a factor of 2 (either
direction) as one lockstep march, then attaches log2-ratio rate columns.
Output formats are CSV, Markdown and JSON, plus a gnuplot-ready data file
for the log-log blow-up figures.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad

from . import fdm, fem
from .control import f_weight, kalman_check
from .core import StatePair, check_finite_positive, energy, rate_sequence
from .march import march, sample
from .spectral import exact_test_solution

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepTable",
    "parse_expression",
    "resolve_initial_data",
    "run_single",
    "run_sweep",
    "fit_loglog_slope",
    "emit_table",
    "table_from_json",
    "loglog_data",
    "run_property_checks",
]

TEST_PROBLEM = "test-problem"


# ---------------------------------------------------------------------------
# initial-data expressions


class ExpressionError(ValueError):
    pass


# The initial-data grammar is a subset of Python's expressions: Python's
# parser reads the text, and only these nodes are let through.
_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide}
_UNARY = {ast.UAdd: np.positive, ast.USub: np.negative}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos}
_VARIABLES = ("x", "y", "pi")
# Deepest tree accepted; the recursive evaluation stays well inside Python's
# recursion limit of 1000 frames.
_MAX_DEPTH = 500


def _check_grammar(tree: ast.expr, text: str) -> None:
    """Raise ExpressionError unless every node of the one-line tree is in the grammar.

    The walk keeps its own stack, so no input exhausts Python's.  A function
    name passes only as the callee of its call.  Each number is replaced by
    float() of its source text, so a literal too large for a float reads as
    inf, as the text says.  A node's text is its UTF-8 column span, read in
    time proportional to the node, not to the whole text.
    """
    data = text.encode()

    def source(node: ast.expr) -> str:
        return data[node.col_offset:node.end_col_offset].decode()

    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise ExpressionError(f"expression nested deeper than {_MAX_DEPTH} levels")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            stack.append((node.operand, depth + 1))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
            stack.append((node.args[0], depth + 1))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            try:
                node.value = float(source(node))
            except ValueError:
                raise ExpressionError(f"{source(node)!r} is not a decimal number") from None
        elif not (isinstance(node, ast.Name) and node.id in _VARIABLES):
            raise ExpressionError(f"{source(node)!r} is not allowed in an expression")


def _evaluate(node: ast.expr, x, y):
    """Value of a checked tree; a constant is broadcast to the shape of x."""
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_evaluate(node.left, x, y), _evaluate(node.right, x, y))
    if isinstance(node, ast.UnaryOp):
        return _UNARY[type(node.op)](_evaluate(node.operand, x, y))
    if isinstance(node, ast.Call):
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0], x, y))
    if isinstance(node, ast.Constant):
        return node.value + 0.0 * x
    if node.id == "pi":
        return math.pi + 0.0 * x
    return x if node.id == "x" else y


def parse_expression(text: str) -> Callable:
    """Compile one expression over {x, y, sin, cos, pi, numbers, + - * /}.

    Parentheses group; whitespace, newlines included, separates tokens.
    Numbers are Python's decimal literals (``2``, ``.5``, ``1.5e-1``,
    ``1_000``).  Nothing else is accepted, and trees deeper than 500 levels
    are rejected.
    """
    text = " ".join(text.split())  # Python's parser rejects a newline inside an expression
    try:
        tree = ast.parse(text, mode="eval").body
    except (SyntaxError, ValueError) as exc:
        raise ExpressionError(f"malformed expression: {getattr(exc, 'msg', exc)}") from None
    except (RecursionError, MemoryError):
        raise ExpressionError("expression nested too deeply to parse") from None
    _check_grammar(tree, text)
    return lambda x, y: _evaluate(tree, x, y)


def resolve_initial_data(selector: str) -> tuple[Callable, Callable]:
    """Turn an init selector into (v0, w0) functions of (x, y).

    ``test-problem`` is the built-in benchmark datum (0, 1.5 sin 2x sin 2y);
    anything else must be two expressions separated by ``;``.
    """
    if selector == TEST_PROBLEM:
        return (lambda x, y: 0.0 * x,
                lambda x, y: 1.5 * np.sin(2 * x) * np.sin(2 * y))
    parts = selector.split(";")
    if len(parts) != 2:
        raise ExpressionError(
            "initial data must be 'test-problem' or 'V_EXPR;W_EXPR'")
    return parse_expression(parts[0]), parse_expression(parts[1])


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepConfig:
    """One table's worth of runs: a scheme, a T-list, and shared parameters."""

    scheme: str                  # "fdm" | "fem"
    n: int
    rho: float
    side: float
    dt: float
    t_list: tuple[float, ...]
    init: str = TEST_PROBLEM
    twin: str = "discrete"       # "discrete" | "exact" (closed-form trajectory)
    weighted: bool = False       # FDM only: h-weighted discrete-L2 norms
    mesh_path: str | None = None  # FEM only

    def __post_init__(self) -> None:
        if self.scheme not in ("fdm", "fem"):
            raise ValueError(f"scheme must be 'fdm' or 'fem', got {self.scheme!r}")
        if self.mesh_path is not None and self.scheme != "fem":
            raise ValueError("a mesh file applies only to the fem scheme")
        if self.weighted and self.scheme != "fdm":
            raise ValueError("weighted norms apply only to the fdm scheme")
        for name in ("rho", "side", "dt"):
            check_finite_positive(name, getattr(self, name))
        if not self.t_list or not all(math.isfinite(T) and T > 0 for T in self.t_list):
            raise ValueError(f"T-list entries must be finite and positive, got {self.t_list}")
        ratios = [self.t_list[k + 1] / self.t_list[k] for k in range(len(self.t_list) - 1)]
        if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios) or (
                ratios and abs(abs(math.log2(ratios[0])) - 1.0) > 1e-9):
            raise ValueError("T-list must double or halve between consecutive entries")
        if self.twin not in ("discrete", "exact"):
            raise ValueError(f"twin must be 'discrete' or 'exact', got {self.twin!r}")
        if self.twin == "exact":
            if self.init != TEST_PROBLEM:
                raise ValueError("the closed-form twin only exists for the test problem")
            if not (math.isclose(self.rho, 2.5) and math.isclose(self.side, math.pi)):
                raise ValueError("the closed-form twin is pinned to rho=5/2, side=pi")


@dataclass(frozen=True)
class SweepRow:
    T: float
    energy: float
    energy_rate: float | None
    unorm: float
    unorm_rate: float | None


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    config: SweepConfig = field(compare=False)


def _discretize(config: SweepConfig):
    """(scheme, v0, w0, twin) of the configured space, sampled once per sweep."""
    v0, w0 = resolve_initial_data(config.init)
    if config.scheme == "fdm":
        space = fdm.FdGrid(n=config.n, a=config.side)
        scheme = fdm.fdm_scheme(space, config.dt, config.rho, weighted=config.weighted)
    else:
        mesh = fem.load_mesh(config.mesh_path) if config.mesh_path else \
            fem.build_structured_mesh(config.n, config.side)
        space = fem.FemSpace.from_mesh(mesh)
        scheme = fem.fem_scheme(space, config.dt, config.rho)
    x, y = space.points()
    twin = config.twin
    if twin == "exact":
        twin = lambda t: exact_test_solution(x, y, t)  # noqa: E731
    return scheme, sample(v0, x, y), sample(w0, x, y), twin


def run_single(config: SweepConfig, T: float):
    """(report, controls, terminal state) of one run at terminal time T."""
    scheme, v, w, twin = _discretize(config)
    return march(scheme, v, w, [T], twin=twin, keep_controls=True)[0]


def run_sweep(config: SweepConfig) -> SweepTable:
    """Run the whole T-list as one march and attach rate columns."""
    scheme, v, w, twin = _discretize(config)
    runs = march(scheme, v, w, config.t_list, twin=twin)
    energies = [report.terminal_energy for report, _, _ in runs]
    unorms = [report.control_norm for report, _, _ in runs]
    erates = _rates_or_none(energies)
    urates = _rates_or_none(unorms)
    rows = tuple(
        SweepRow(T=config.t_list[k], energy=energies[k],
                 energy_rate=None if k == 0 else erates[k - 1],
                 unorm=unorms[k],
                 unorm_rate=None if k == 0 else urates[k - 1])
        for k in range(len(config.t_list)))
    return SweepTable(rows=rows, config=config)


def _rates_or_none(values: list[float]) -> list[float | None]:
    if len(values) < 2:
        return []
    if all(v > 0 for v in values):
        return list(rate_sequence(values))
    return [None] * (len(values) - 1)


def fit_loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(value) against log(T)."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    if any(t <= 0 or v <= 0 for t, v in points):
        raise ValueError("log-log fit needs positive coordinates")
    logt = np.log([t for t, _ in points])
    logv = np.log([v for _, v in points])
    return float(np.polyfit(logt, logv, 1)[0])


# ---------------------------------------------------------------------------
# emission


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.4E}"


def emit_table(table: SweepTable, fmt: str) -> str:
    """Render as CSV (%.4E scientific), Markdown, or JSON with a config echo."""
    if fmt == "csv":
        lines = ["T,energy,energy_rate,unorm,unorm_rate"]
        for r in table.rows:
            lines.append(",".join([_fmt(r.T), _fmt(r.energy), _fmt(r.energy_rate),
                                   _fmt(r.unorm), _fmt(r.unorm_rate)]))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| T | energy | rate | unorm | rate |",
                 "|---|--------|------|-------|------|"]
        for r in table.rows:
            cells = [_fmt(r.T), _fmt(r.energy), _fmt(r.energy_rate) or "--",
                     _fmt(r.unorm), _fmt(r.unorm_rate) or "--"]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {"config": asdict(table.config), "rows": [asdict(r) for r in table.rows]}
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r} (csv, markdown, json)")


def table_from_json(text: str) -> SweepTable:
    """Parse the JSON emission back into an equal SweepTable."""
    payload = json.loads(text)
    cfg = payload["config"]
    config = SweepConfig(**{**cfg, "t_list": tuple(cfg["t_list"])})
    rows = tuple(SweepRow(**r) for r in payload["rows"])
    return SweepTable(rows=rows, config=config)


def loglog_data(table: SweepTable) -> str:
    """Gnuplot-ready columns: T, terminal energy, control norm, T^(-3/2)."""
    lines = ["# T  energy  unorm  ref_T^-1.5"]
    for r in table.rows:
        lines.append(f"{r.T:.8E}  {r.energy:.8E}  {r.unorm:.8E}  {r.T ** -1.5:.8E}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# property suite (run by `--check` and by the acceptance tests)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def run_property_checks(rho: float = 2.5, side: float = math.pi) -> list[PropertyResult]:
    """Fast structural checks that need no table runs."""
    results = []

    def record(name, passed, detail):
        results.append(PropertyResult(name=name, passed=bool(passed), detail=detail))

    for scheme in ("fdm", "fem"):
        for n in (2, 4, 8):
            if scheme == "fdm":  # the FDM pair is (I, D)
                M, S = sp.identity(n * n), fdm.build_dn(fdm.FdGrid(n=n, a=side))
            else:
                space = fem.build_fem_space(n, side)
                M, S = space.M, space.S
            diag = kalman_check(M, S, rho)
            record(f"{scheme} kalman identity (n={n})",
                   diag.identity_error <= 1e-10 and diag.full_rank,
                   f"|K K^-1 - I| = {diag.identity_error:.2e}, rank {diag.rank}/{diag.dim}")

    for n in (2, 4, 8):
        grid = fdm.FdGrid(n=n, a=side)
        dense = np.sort(np.linalg.eigvalsh(fdm.build_dn(grid).toarray()))
        formula = np.sort([fdm.dn_eigenvalue(i, j, grid)
                           for i in range(1, n + 1) for j in range(1, n + 1)])
        gap = float(np.max(np.abs(dense - formula)))
        record(f"dn eigenvalue formula vs dense (n={n})", gap <= 1e-10 * dense[-1],
               f"max gap {gap:.2e}")

    lam_limit = 2 * math.pi**2 / side**2
    lams = [fdm.dn_eigenvalue(1, 1, fdm.FdGrid(n=n, a=side))
            for n in (4, 8, 16, 32, 64)]
    h64 = side / 65
    monotone = all(lams[k] < lams[k + 1] for k in range(len(lams) - 1))
    record("lambda_11 -> 2 pi^2 / a^2",
           monotone and abs(lams[-1] - lam_limit) <= lam_limit * h64**2,
           f"lambda_11(64) = {lams[-1]:.6f} vs {lam_limit:.6f}")

    worst = 0.0
    for T in (0.5, 1.0, 2.0, 7.3):
        integral = quad(f_weight, 0, T, args=(T,), epsabs=1e-14, epsrel=1e-13)[0]
        worst = max(worst, abs(integral - 1.0))
    record("f_T unit normalization", worst <= 1e-12, f"max |int f_T - 1| = {worst:.2e}")

    rng = np.random.default_rng(7)
    states = StatePair(v=rng.standard_normal((36, 100)), w=rng.standard_normal((36, 100)))
    for name, scheme in (("fdm", fdm.fdm_scheme(fdm.FdGrid(n=6, a=side), 0.1, rho)),
                         ("fem", fem.fem_scheme(fem.build_fem_space(6, side), 0.1, rho))):
        gain = float(np.max(energy(scheme.stepper.step(states), scheme.sq_norms)
                            - energy(states, scheme.sq_norms)))
        record(f"{name} step energy monotone (100 random states)", gain <= 0,
               f"max energy gain {gain:.2e}")

    for scheme in ("fdm", "fem"):
        cfg = SweepConfig(scheme=scheme, n=8, rho=rho, side=side, dt=0.125,
                          t_list=(1.0,), init="0;sin(2*x)*sin(2*y)")
        cfg2 = SweepConfig(scheme=scheme, n=8, rho=rho, side=side, dt=0.125,
                           t_list=(1.0,), init="0;2*sin(2*x)*sin(2*y)")
        _, u, _ = run_single(cfg, 1.0)
        _, u2, _ = run_single(cfg2, 1.0)
        gap = float(np.max(np.abs(u2 - 2.0 * u)))
        scale = float(np.max(np.abs(u)))
        record(f"{scheme} control linear in initial data", gap <= 1e-10 * scale,
               f"|u(2 y0) - 2 u(y0)| = {gap:.2e}")

    return results
