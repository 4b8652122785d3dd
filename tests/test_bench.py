import json
import math

import numpy as np
import pytest

from platenull.bench import (ExpressionError, SweepConfig, SweepRow, SweepTable,
                             emit_table, fit_loglog_slope, loglog_data,
                             parse_expression, resolve_initial_data, run_single,
                             run_sweep, table_from_json)
from platenull.cli import main


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

    def test_fem_scheme_runs(self):
        table = run_sweep(self.small_config(scheme="fem"))
        assert all(r.unorm > 0 for r in table.rows)

    def test_fem_mesh_path_forwarding(self, tmp_path):
        from platenull.fem import build_structured_mesh
        mesh = build_structured_mesh(4, math.pi)
        lines = [f"{len(mesh.vertices)} {len(mesh.triangles)}"]
        lines += [f"{x:.17g} {y:.17g} {int(b)}"
                  for (x, y), b in zip(mesh.vertices, mesh.boundary)]
        lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
        path = tmp_path / "mesh.txt"
        path.write_text("\n".join(lines) + "\n")
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


class TestCli:
    def test_config_error_exit_code(self, capsys):
        assert main(["--t-list", "1,3"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_init_exit_code(self, capsys):
        assert main(["--init", "x+"]) == 2

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

    def test_out_of_range_mesh_index_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("4 2\n0 0 1\n1 0 1\n1 1 0\n0 1 1\n0 1 2\n0 2 7\n")
        code = main(["--scheme", "fem", "--mesh", str(path), "--dt", "0.25",
                     "--t-list", "1"])
        assert code == 2
        assert "[0, 4)" in capsys.readouterr().err
