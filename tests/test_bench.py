import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import platenull
from platenull.fdm import FdGrid, run_fdm_null_control
from platenull.fem import build_fem_space, build_structured_mesh, run_fem_null_control
from platenull.bench import (ExpressionError, SweepConfig, SweepRow, SweepTable,
                             emit_table, fit_loglog_slope, loglog_data,
                             parse_expression, resolve_initial_data, run_single,
                             run_sweep, table_from_json)
from platenull.cli import main


# Python expressions outside the grammar; each must be rejected before evaluation.
OUTSIDE_GRAMMAR = ["sin", "sin + 1", "cos(sin)", "sin(x, y)", "x**2", "1j", "True", "x.real",
                   "x if y else 1", "[x]", "__import__('os')"]

# Inputs a hand-written recursive-descent parser overflowed on, and a literal
# too large for a float, which must read as inf and fail the finiteness check.
DEEP_OR_HUGE = {
    "300-nested-parentheses": "(" * 300 + "x" + ")" * 300,
    "3000-unary-minuses": "-" * 3000 + "x",
    "1000-term-sum": "+".join(["x"] * 1000),
    "5000-term-sum": "+".join(["x"] * 5000),
    "400-digit-integer": "1" * 400,
}

# The test_values expressions (and one split by a newline) as direct numpy,
# with each number broadcast as value + 0.0 * x.
DIRECT_NUMPY = [
    ("2+3*4", lambda x, y: (2.0 + 0.0 * x) + (3.0 + 0.0 * x) * (4.0 + 0.0 * x)),
    ("(2+3)*4", lambda x, y: ((2.0 + 0.0 * x) + (3.0 + 0.0 * x)) * (4.0 + 0.0 * x)),
    ("-x+y", lambda x, y: -x + y),
    ("x*y/2", lambda x, y: x * y / (2.0 + 0.0 * x)),
    ("sin(x)*cos(y)", lambda x, y: np.sin(x) * np.cos(y)),
    ("1.5e-1*x", lambda x, y: (0.15 + 0.0 * x) * x),
    ("sin(2*x)*sin(2*y)",
     lambda x, y: np.sin((2.0 + 0.0 * x) * x) * np.sin((2.0 + 0.0 * x) * y)),
    ("pi", lambda x, y: math.pi + 0.0 * x),
    ("--2", lambda x, y: -(-(2.0 + 0.0 * x))),
    ("x\n+y", lambda x, y: x + y),
]


def write_mesh(mesh, path):
    """Write a mesh in the plain-text format; return the path."""
    lines = [f"{len(mesh.vertices)} {len(mesh.triangles)}"]
    lines += [f"{x:.17g} {y:.17g} {int(b)}" for (x, y), b in zip(mesh.vertices, mesh.boundary)]
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    path.write_text("\n".join(lines) + "\n")
    return path


def run_cli_process(*args):
    """Run the CLI in a fresh interpreter, so numpy warnings reach stderr unfiltered."""
    env = {**os.environ, "PYTHONPATH": str(Path(platenull.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "platenull.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


class TestExpressionGrammar:
    @pytest.mark.parametrize("text,x,y,value", [
        ("2+3*4", 0.0, 0.0, 14.0),
        ("(2+3)*4", 0.0, 0.0, 20.0),
        ("-x+y", 1.5, 2.0, 0.5),
        ("x*y/2", 3.0, 4.0, 6.0),
        ("sin(x)*cos(y)", math.pi / 2, 0.0, 1.0),
        ("1.5e-1*x", 2.0, 0.0, 0.3),
        ("sin(2*x)*sin(2*y)", math.pi / 4, math.pi / 4, 1.0),
        ("pi", 0.0, 0.0, math.pi),
        ("--2", 0.0, 0.0, 2.0),
    ])
    def test_values(self, text, x, y, value):
        fn = parse_expression(text)
        assert fn(np.asarray(x), np.asarray(y)) == pytest.approx(value, rel=1e-12)

    def test_vectorized(self):
        fn = parse_expression("sin(x)+2*y")
        x = np.linspace(0, 1, 5)
        np.testing.assert_allclose(fn(x, x), np.sin(x) + 2 * x, rtol=1e-14)

    @pytest.mark.parametrize("text", ["2+", "sin x", "foo(x)", "1..2", "(x", "x)y", "x$y"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    @pytest.mark.parametrize("text", OUTSIDE_GRAMMAR)
    def test_rejects_outside_grammar(self, text):
        with pytest.raises(ExpressionError, match="not allowed"):
            parse_expression(text)

    def test_error_names_non_ascii_source_text(self):
        # node columns are UTF-8 byte offsets; slicing the str by them would misquote
        with pytest.raises(ExpressionError, match="'é' is not allowed"):
            parse_expression("é*0+2")

    @pytest.mark.parametrize("text,direct", DIRECT_NUMPY,
                             ids=[text for text, _ in DIRECT_NUMPY])
    def test_bitwise_equal_to_direct_numpy(self, text, direct):
        rng = np.random.default_rng(5)
        x, y = rng.uniform(0, math.pi, 50), rng.uniform(0, math.pi, 50)
        assert np.array_equal(parse_expression(text)(x, y), direct(x, y))

    def test_resolve_test_problem(self):
        v0, w0 = resolve_initial_data("test-problem")
        x = np.array([math.pi / 4])
        assert v0(x, x)[0] == 0.0
        assert w0(x, x)[0] == pytest.approx(1.5, rel=1e-14)

    def test_resolve_pair(self):
        v0, w0 = resolve_initial_data("x;y")
        assert v0(np.array([2.0]), np.array([3.0]))[0] == 2.0
        assert w0(np.array([2.0]), np.array([3.0]))[0] == 3.0

    def test_resolve_rejects_single_expression(self):
        with pytest.raises(ExpressionError):
            resolve_initial_data("x+y")


class TestSweepConfig:
    def base(self, **kw):
        args = dict(scheme="fdm", n=4, rho=2.5, side=math.pi, dt=0.25,
                    t_list=(1.0, 2.0, 4.0))
        args.update(kw)
        return SweepConfig(**args)

    def test_accepts_halving_list(self):
        self.base(t_list=(0.25, 0.125, 0.0625), dt=1 / 64)

    @pytest.mark.parametrize("kw", [
        {"scheme": "fvm"},
        {"t_list": (1.0, 3.0)},
        {"t_list": (1.0, 2.0, 3.0)},
        {"t_list": ()},
        {"t_list": (-1.0, -2.0)},
        {"dt": 0.0},
        {"twin": "magic"},
        {"twin": "exact", "init": "x;y"},
        {"twin": "exact", "rho": 3.0},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            self.base(**kw)

    def test_exact_twin_requires_benchmark_setup(self):
        self.base(twin="exact")  # rho = 5/2, side = pi, test problem: fine


class TestRunSweep:
    def small_config(self, **kw):
        args = dict(scheme="fdm", n=4, rho=2.5, side=math.pi, dt=0.25,
                    t_list=(1.0, 2.0))
        args.update(kw)
        return SweepConfig(**args)

    def test_single_row_no_rates(self):
        table = run_sweep(self.small_config(t_list=(1.0,)))
        assert len(table.rows) == 1
        assert table.rows[0].energy_rate is None
        assert table.rows[0].unorm_rate is None

    def test_rate_columns_consistent(self):
        table = run_sweep(self.small_config())
        r0, r1 = table.rows
        assert r0.unorm_rate is None
        assert r1.unorm_rate == pytest.approx(math.log2(r0.unorm / r1.unorm))

    def test_deterministic_output(self):
        cfg = self.small_config()
        a = emit_table(run_sweep(cfg), "csv")
        b = emit_table(run_sweep(cfg), "csv")
        assert a == b

    @pytest.mark.parametrize("scheme,twin", [("fdm", "discrete"), ("fdm", "exact"),
                                             ("fem", "discrete")])
    def test_sweep_matches_single_runs(self, scheme, twin):
        # the lockstep march over three horizons against one run per horizon
        cfg = self.small_config(scheme=scheme, twin=twin, t_list=(4.0, 2.0, 1.0))
        table = run_sweep(cfg)
        for row in table.rows:
            report, _, _ = run_single(cfg, row.T)
            assert row.unorm == pytest.approx(report.control_norm, rel=1e-12)
            assert row.energy == pytest.approx(report.terminal_energy, rel=1e-12)

    @pytest.mark.parametrize("scheme,run", [("fdm", run_fdm_null_control),
                                            ("fem", run_fem_null_control)])
    def test_one_horizon_run_at_rho_two(self, scheme, run):
        # the drivers take every rho the CLI takes; the run equals the CLI's path
        disc = FdGrid(n=4, a=math.pi) if scheme == "fdm" else build_fem_space(4, math.pi)
        report, _, _ = run(disc, 0.25, 2.0, 1.0, lambda x, y: 0.0 * x,
                           lambda x, y: np.sin(x) * np.sin(y))
        want, _, _ = run_single(self.small_config(scheme=scheme, rho=2.0,
                                                  init="0;sin(x)*sin(y)"), 1.0)
        assert report == want

    def test_fem_scheme_runs(self):
        table = run_sweep(self.small_config(scheme="fem"))
        assert all(r.unorm > 0 for r in table.rows)

    def test_fem_mesh_path_forwarding(self, tmp_path):
        path = write_mesh(build_structured_mesh(4, math.pi), tmp_path / "mesh.txt")
        direct = run_sweep(self.small_config(scheme="fem"))
        imported = run_sweep(self.small_config(scheme="fem",
                                               mesh_path=str(path)))
        for a, b in zip(direct.rows, imported.rows):
            assert b.unorm == pytest.approx(a.unorm, rel=1e-12)
            assert b.energy == pytest.approx(a.energy, rel=1e-12)

    def test_rejects_incommensurate_dt(self):
        with pytest.raises(ValueError, match="multiple"):
            run_sweep(self.small_config(dt=0.3))


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        pts = [(T, T**-1.5) for T in (0.25, 0.5, 1.0, 2.0)]
        assert fit_loglog_slope(pts) == pytest.approx(-1.5, abs=1e-12)

    def test_constant_series(self):
        pts = [(T, 3.7) for T in (1.0, 2.0, 4.0)]
        assert fit_loglog_slope(pts) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(1.0, 1.0)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(1.0, 1.0), (2.0, -1.0)])

    @pytest.mark.parametrize("points", [
        [(1.0, math.nan), (2.0, 1.0)], [(1.0, 1.0), (2.0, math.inf)],
        [(math.inf, 1.0), (2.0, 1.0)], [(2.0, 1.0), (2.0, 3.0)], [(1.0, 1.0), (1.0, 2.0)],
    ], ids=["nan-value", "inf-value", "inf-T", "one-T", "one-T-at-1"])
    def test_rejects_non_finite_or_single_t(self, points, capfd):
        # a LinAlgError is a ValueError too, but the CLI reports it as a solver failure
        with pytest.raises(ValueError) as excinfo:
            fit_loglog_slope(points)
        assert excinfo.type is ValueError
        assert capfd.readouterr().err == ""


def tiny_table():
    cfg = SweepConfig(scheme="fdm", n=4, rho=2.5, side=math.pi, dt=0.25,
                      t_list=(2.0,))
    row = SweepRow(T=2.0, energy=4.7354e-06, energy_rate=None,
                   unorm=2.1344, unorm_rate=None)
    return SweepTable(rows=(row,), config=cfg)


class TestEmission:
    def test_csv_row_format(self):
        text = emit_table(tiny_table(), "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "T,energy,energy_rate,unorm,unorm_rate"
        assert lines[1] == "2.0000E+00,4.7354E-06,,2.1344E+00,"

    def test_empty_table_is_header_only(self):
        cfg = tiny_table().config
        text = emit_table(SweepTable(rows=(), config=cfg), "csv")
        assert text == "T,energy,energy_rate,unorm,unorm_rate\n"

    def test_markdown(self):
        text = emit_table(tiny_table(), "markdown")
        assert "| 2.0000E+00 | 4.7354E-06 | -- | 2.1344E+00 | -- |" in text

    def test_json_round_trip(self):
        table = tiny_table()
        text = emit_table(table, "json")
        parsed = table_from_json(text)
        assert parsed.rows == table.rows
        assert parsed.config == table.config
        payload = json.loads(text)
        assert payload["config"]["scheme"] == "fdm"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table(tiny_table(), "xml")

    def test_loglog_data_columns(self):
        text = loglog_data(tiny_table())
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        cols = rows[0].split()
        assert float(cols[0]) == pytest.approx(2.0)
        assert float(cols[1]) == pytest.approx(4.7354e-06)
        assert float(cols[2]) == pytest.approx(2.1344)
        assert float(cols[3]) == pytest.approx(2.0**-1.5)


def only_config_error(capsys) -> str:
    """The one line a run printed, on stderr; it must be a configuration error."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:"), captured.err
    return lines[0]


class TestCli:
    def test_config_error_exit_code(self, capsys):
        assert main(["--t-list", "1,3"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_init_exit_code(self, capsys):
        assert main(["--init", "x+"]) == 2

    @pytest.mark.parametrize("flag,value,name", [
        ("--rho", "0", "rho"), ("--rho", "-1", "rho"), ("--rho", "nan", "rho"),
        ("--rho", "inf", "rho"), ("--dt", "nan", "dt"), ("--dt", "inf", "dt"),
        ("--dt", "-0.25", "dt"), ("--side", "nan", "side"), ("--side", "0", "side"),
        ("--t-list", "nan,2", "T-list"), ("--t-list", "1,inf", "T-list"),
    ])
    def test_nonpositive_or_nonfinite_parameter_exit_code(self, flag, value, name, capsys):
        args = {"--n": "4", "--dt": "0.25", "--t-list": "1,2", flag: value}
        code = main([tok for pair in args.items() for tok in pair])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {name}")
        assert "finite and positive" in captured.err
        assert captured.out == ""

    def test_small_run_to_file(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        loglog = tmp_path / "loglog.dat"
        code = main(["--scheme", "fdm", "--n", "4", "--dt", "0.25",
                     "--t-list", "1,2", "--out", str(out),
                     "--loglog-out", str(loglog)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "T,energy,energy_rate,unorm,unorm_rate"
        assert len(lines) == 3
        assert loglog.read_text().startswith("#")

    def test_stdout_json(self, capsys):
        code = main(["--scheme", "fdm", "--n", "4", "--dt", "0.5",
                     "--t-list", "1", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["n"] == 4

    @pytest.mark.parametrize("rho", ["1.5", "2"])
    def test_fem_sweep_matches_block_march(self, rho, use_block_step, capsys):
        # rho < 2 steps through complex factors, rho = 2 through the double root 1
        args = ["--scheme", "fem", "--n", "12", "--rho", rho, "--dt", "0.2",
                "--t-list", "2,4", "--format", "json"]
        assert main(args) == 0
        got = json.loads(capsys.readouterr().out)["rows"]
        use_block_step()
        assert main(args) == 0
        want = json.loads(capsys.readouterr().out)["rows"]
        for r, ref in zip(got, want, strict=True):
            assert r["unorm"] == pytest.approx(ref["unorm"], rel=1e-12)
            assert r["energy"] == pytest.approx(ref["energy"], rel=1e-10)

    @pytest.mark.parametrize("scheme", ["fdm", "fem"])
    def test_nonfinite_init_exit_code(self, scheme, capsys):
        # 1/(x-x) samples to NaN at every node; no table may be printed
        with np.errstate(divide="ignore", invalid="ignore"):
            code = main(["--scheme", scheme, "--n", "4", "--dt", "0.25", "--t-list", "1",
                         "--init", "0;1/(x-x)"])
        assert code == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    def test_nonfinite_init_prints_only_the_error_line(self):
        done = run_cli_process("--n", "4", "--dt", "0.25", "--t-list", "1",
                               "--init", "0;1/(x-x)")
        assert done.returncode == 2
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:"), done.stderr

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("expr", OUTSIDE_GRAMMAR + list(DEEP_OR_HUGE.values()),
                             ids=OUTSIDE_GRAMMAR + list(DEEP_OR_HUGE))
    def test_rejected_init_exit_code(self, expr, capsys):
        code = main(["--n", "4", "--dt", "0.25", "--t-list", "1", "--init", f"0;{expr}"])
        assert code == 2
        only_config_error(capsys)

    @pytest.mark.parametrize("expr", DEEP_OR_HUGE.values(), ids=DEEP_OR_HUGE.keys())
    def test_deep_or_huge_init_prints_only_the_error_line(self, expr):
        done = run_cli_process("--n", "4", "--dt", "0.25", "--t-list", "1",
                               "--init", f"0;{expr}")
        assert done.returncode == 2
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:"), done.stderr

    @pytest.mark.parametrize("flag", ["--out", "--loglog-out", "--mesh"])
    def test_unusable_path_exit_code(self, flag, tmp_path, capsys):
        missing = tmp_path / "no_such_dir" / "file.txt"
        args = ["--n", "4", "--dt", "0.25", "--t-list", "1", flag, str(missing)]
        code = main(args + (["--scheme", "fem"] if flag == "--mesh" else []))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "no_such_dir" in err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_mesh_vertex_exit_code(self, tmp_path, capsys):
        # 3 x 3 vertices of (0, 2)^2, one interior; the corner (2, 2) reads x = inf
        verts = [f"{x} {y} {int((x, y) != (1, 1))}" for y in range(3) for x in range(3)]
        verts[8] = "inf 2 1"
        cells = [3 * j + i for j in range(2) for i in range(2)]
        tris = [f"{v} {v + 1} {v + 4}" for v in cells] + [f"{v} {v + 4} {v + 3}" for v in cells]
        path = tmp_path / "inf.txt"
        path.write_text("\n".join(["9 8"] + verts + tris) + "\n")
        code = main(["--scheme", "fem", "--mesh", str(path), "--dt", "0.25",
                     "--t-list", "1"])
        assert code == 2
        only_config_error(capsys)

    def test_unused_interior_mesh_vertex_exit_code(self, tmp_path, capsys):
        # the n = 3 structured mesh of (0, pi)^2 plus an interior vertex no triangle uses
        mesh = build_structured_mesh(3, math.pi)
        lines = [f"{len(mesh.vertices) + 1} {len(mesh.triangles)}"]
        lines += [f"{x} {y} {int(b)}" for (x, y), b in zip(mesh.vertices, mesh.boundary)]
        lines += ["1.0 1.0 0"] + [f"{i} {j} {k}" for i, j, k in mesh.triangles]
        path = tmp_path / "unused.txt"
        path.write_text("\n".join(lines) + "\n")
        code = main(["--scheme", "fem", "--mesh", str(path), "--dt", "0.25",
                     "--t-list", "1"])
        assert code == 2
        assert "belongs to no triangle" in only_config_error(capsys)

    def test_exact_twin_with_mesh_exit_code(self, tmp_path, capsys):
        # the closed form solves the problem on (0, pi)^2; this mesh covers (0, 1)^2
        path = write_mesh(build_structured_mesh(7, 1.0), tmp_path / "unit.mesh")
        args = ["--scheme", "fem", "--mesh", str(path), "--dt", "0.1", "--t-list", "1,2"]
        assert main(args + ["--twin", "exact"]) == 2
        assert "closed-form twin" in only_config_error(capsys)
        assert main(args + ["--twin", "discrete"]) == 0

    @pytest.mark.parametrize("flags", [["--scheme", "fdm", "--mesh", "/nonexistent"],
                                       ["--scheme", "fem", "--weighted"]],
                             ids=["fdm-mesh", "fem-weighted"])
    def test_flag_of_the_other_scheme_exit_code(self, flags, capsys):
        code = main(flags + ["--n", "3", "--dt", "0.1", "--t-list", "1"])
        assert code == 2
        only_config_error(capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scheme", ["fdm", "fem"])
    @pytest.mark.parametrize("side", ["1e-200", "1e-160", "1e160", "1e200"])
    def test_extreme_side_exit_code(self, scheme, side, capsys):
        # h^2 or 1/h^2 overflows or underflows, h = side / (n + 1)
        code = main(["--scheme", scheme, "--n", "4", "--side", side, "--dt", "0.1",
                     "--t-list", "1"])
        assert code == 2
        assert "h^2" in only_config_error(capsys)

    def test_overflowing_forcing_exit_code(self, capsys):
        # at side 1e100 the mass entries reach 2e198 and the first controls 1e183,
        # so the forcing M (w + dt u) of the first controlled step overflows
        code = main(["--scheme", "fem", "--n", "4", "--side", "1e100", "--dt", "0.1",
                     "--t-list", "1"])
        assert code == 2
        assert "overflows" in only_config_error(capsys)

    def test_malformed_mesh_line_exit_code(self, malformed_mesh, capsys):
        code = main(["--scheme", "fem", "--mesh", str(malformed_mesh), "--dt", "0.25",
                     "--t-list", "1"])
        assert code == 2
        assert "malformed mesh file" in only_config_error(capsys)

    def test_out_of_range_mesh_index_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("4 2\n0 0 1\n1 0 1\n1 1 0\n0 1 1\n0 1 2\n0 2 7\n")
        code = main(["--scheme", "fem", "--mesh", str(path), "--dt", "0.25",
                     "--t-list", "1"])
        assert code == 2
        assert "[0, 4)" in capsys.readouterr().err
