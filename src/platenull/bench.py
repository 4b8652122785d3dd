"""Benchmark harness: T-sweeps, rate tables, emission, property suite.

A sweep runs the null-control experiment for every terminal time in a
T-list whose consecutive entries differ by a factor of 2 (either
direction) as one lockstep march, then attaches log2-ratio rate columns.
Output formats are CSV, Markdown and JSON, plus a gnuplot-ready data file
for the log-log blow-up figures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from . import fdm, fem
from .control import f_weight
from .core import StatePair, energy, rate_sequence
from .march import march
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


class _Parser:
    """Recursive-descent parser for the tiny initial-data grammar.

    expr := term (("+" | "-") term)* ; term := factor (("*" | "/") factor)* ;
    factor := ("+" | "-") factor | atom ; atom := number | "pi" | "x" | "y"
    | ("sin" | "cos") "(" expr ")" | "(" expr ")".
    """

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
            elif c in "+-*/()":
                tokens.append(c)
                i += 1
            elif c.isalpha():
                j = i
                while j < len(text) and text[j].isalpha():
                    j += 1
                tokens.append(text[i:j])
                i = j
            elif c.isdigit() or c == ".":
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                         or (text[j] in "+-" and text[j - 1] in "eE")):
                    j += 1
                tokens.append(text[i:j])
                i = j
            else:
                raise ExpressionError(f"unexpected character {c!r} in expression")
        return tokens

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self, expected: str | None = None) -> str:
        tok = self._peek()
        if tok is None or (expected is not None and tok != expected):
            raise ExpressionError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> Callable:
        fn = self._expr()
        if self._peek() is not None:
            raise ExpressionError(f"trailing input from token {self._peek()!r}")
        return fn

    def _expr(self) -> Callable:
        fn = self._term()
        while self._peek() in ("+", "-"):
            op = self._take()
            rhs = self._term()
            lhs = fn
            fn = ((lambda x, y, a=lhs, b=rhs: a(x, y) + b(x, y)) if op == "+"
                  else (lambda x, y, a=lhs, b=rhs: a(x, y) - b(x, y)))
        return fn

    def _term(self) -> Callable:
        fn = self._factor()
        while self._peek() in ("*", "/"):
            op = self._take()
            rhs = self._factor()
            lhs = fn
            fn = ((lambda x, y, a=lhs, b=rhs: a(x, y) * b(x, y)) if op == "*"
                  else (lambda x, y, a=lhs, b=rhs: a(x, y) / b(x, y)))
        return fn

    def _factor(self) -> Callable:
        if self._peek() in ("+", "-"):
            op = self._take()
            inner = self._factor()
            return inner if op == "+" else (lambda x, y, f=inner: -f(x, y))
        return self._atom()

    def _atom(self) -> Callable:
        tok = self._take()
        if tok == "(":
            fn = self._expr()
            self._take(")")
            return fn
        if tok in ("sin", "cos"):
            self._take("(")
            arg = self._expr()
            self._take(")")
            op = np.sin if tok == "sin" else np.cos
            return lambda x, y, f=arg, op=op: op(f(x, y))
        if tok == "pi":
            return lambda x, y: math.pi + 0.0 * x
        if tok == "x":
            return lambda x, y: x
        if tok == "y":
            return lambda x, y: y
        try:
            value = float(tok)
        except ValueError:
            raise ExpressionError(f"unknown token {tok!r}") from None
        return lambda x, y, v=value: v + 0.0 * x


def parse_expression(text: str) -> Callable:
    """Compile one expression over {x, y, sin, cos, pi, numbers, + - * /}."""
    return _Parser(text).parse()


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
    mesh_path: str | None = None

    def __post_init__(self) -> None:
        if self.scheme not in ("fdm", "fem"):
            raise ValueError(f"scheme must be 'fdm' or 'fem', got {self.scheme!r}")
        if not self.t_list or any(T <= 0 for T in self.t_list):
            raise ValueError("T-list entries must be positive")
        ratios = [self.t_list[k + 1] / self.t_list[k] for k in range(len(self.t_list) - 1)]
        if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios) or (
                ratios and abs(abs(math.log2(ratios[0])) - 1.0) > 1e-9):
            raise ValueError("T-list must double or halve between consecutive entries")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
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
        grid = fdm.FdGrid(n=config.n, a=config.side)
        x, y = grid.points()
        scheme = fdm.fdm_scheme(grid, config.dt, config.rho, weighted=config.weighted)
        v, w = fdm.sample_on_grid(v0, grid), fdm.sample_on_grid(w0, grid)
    else:
        mesh = fem.load_mesh(config.mesh_path) if config.mesh_path else \
            fem.build_structured_mesh(config.n, config.side)
        space = fem.FemSpace.from_mesh(mesh)
        x, y = space.nodes().T
        scheme = fem.fem_scheme(space, config.dt, config.rho)
        v, w = fem.interpolate_nodal(v0, space), fem.interpolate_nodal(w0, space)
    twin = config.twin
    if twin == "exact":
        twin = lambda t: exact_test_solution(x, y, t)  # noqa: E731
    return scheme, v, w, twin


def run_single(config: SweepConfig, T: float):
    """(report, control trajectory, terminal state) of one run at terminal time T."""
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
        payload = {
            "config": {
                "scheme": table.config.scheme, "n": table.config.n,
                "rho": table.config.rho, "side": table.config.side,
                "dt": table.config.dt, "t_list": list(table.config.t_list),
                "init": table.config.init, "twin": table.config.twin,
                "weighted": table.config.weighted,
                "mesh_path": table.config.mesh_path,
            },
            "rows": [
                {"T": r.T, "energy": r.energy, "energy_rate": r.energy_rate,
                 "unorm": r.unorm, "unorm_rate": r.unorm_rate}
                for r in table.rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r} (csv, markdown, json)")


def table_from_json(text: str) -> SweepTable:
    """Parse the JSON emission back into an equal SweepTable."""
    payload = json.loads(text)
    cfg = payload["config"]
    config = SweepConfig(scheme=cfg["scheme"], n=cfg["n"], rho=cfg["rho"],
                         side=cfg["side"], dt=cfg["dt"],
                         t_list=tuple(cfg["t_list"]), init=cfg["init"],
                         twin=cfg["twin"], weighted=cfg["weighted"],
                         mesh_path=cfg["mesh_path"])
    rows = tuple(SweepRow(T=r["T"], energy=r["energy"], energy_rate=r["energy_rate"],
                          unorm=r["unorm"], unorm_rate=r["unorm_rate"])
                 for r in payload["rows"])
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

    for n in (2, 4, 8):
        diag = fdm.kalman_check_fdm(fdm.FdGrid(n=n, a=side), rho)
        record(f"fdm kalman identity (n={n})",
               diag.identity_error <= 1e-10 and diag.full_rank,
               f"|K K^-1 - I| = {diag.identity_error:.2e}, rank {diag.rank}/{diag.dim}")
    for n in (2, 4, 8):
        diag = fem.kalman_check_fem(fem.build_fem_space(n, side), rho)
        record(f"fem kalman identity (n={n})",
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
        _, traj, _ = run_single(cfg, 1.0)
        _, traj2, _ = run_single(cfg2, 1.0)
        gap = float(np.max(np.abs(traj2.controls - 2.0 * traj.controls)))
        scale = float(np.max(np.abs(traj.controls)))
        record(f"{scheme} control linear in initial data", gap <= 1e-10 * scale,
               f"|u(2 y0) - 2 u(y0)| = {gap:.2e}")

    return results
