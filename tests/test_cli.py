import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ymqm
from ymqm.cli import ConfigError, _table, build_config, main, report, run
from ymqm.errors import DomainError, RegimeWarning
from ymqm.special import EULER_GAMMA


def run_cli(args, tmp_path=None):
    cfg = build_config(args)
    return run(cfg)


class TestGridParsing:
    def test_scalar_and_ranges(self):
        from ymqm.cli import _parse_axis

        assert _parse_axis("2.5") == [2.5]
        assert _parse_axis("1:2:3") == [1.0, 1.5, 2.0]
        vals = _parse_axis("0.01:1:3:log")
        assert vals[0] == pytest.approx(0.01) and vals[1] == pytest.approx(0.1)

    def test_too_many_swept(self):
        with pytest.raises(ConfigError):
            run_cli(["tf", "--g", "1:2:2", "--v", "1:2:2", "--t", "1:2:2"])

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            build_config(["tf", "--g", "1:2"])


class TestCompare:
    def test_route_equivalence_exit_zero(self):
        status, rows, _, text = run_cli(
            [
                "compare",
                "--routes",
                "closed,quadrature",
                "--k",
                "2",
                "--g",
                "1",
                "--v",
                "0.8:1.2:3",
                "--hbar",
                "1",
                "--t",
                "1",
            ]
        )
        assert status == 0
        assert all(r["max_rel_discrepancy"] < 1e-6 for r in rows)
        assert "0 FLAG" in text

    def test_flagged_row_counts(self):
        # at v = 1.1 the closed and symbolic routes differ by 5.9e-15
        status, rows, _, text = run_cli(
            [
                "compare",
                "--routes",
                "closed,symbolic",
                "--k",
                "2",
                "--g",
                "1",
                "--v",
                "1.1",
                "--hbar",
                "1",
                "--t",
                "1",
                "--disc-tol",
                "1e-18",
            ]
        )
        assert status == 1
        assert "1 FLAG" in text

    def test_closed_route_at_higher_orders(self):
        # k >= 4: the symbolic reduction evaluated on closed-form moments
        for g, v, t in (("0.8", "0.9", "0.7"), ("1.2", "1.6", "1.5")):
            status, rows, _, text = run_cli(
                ["compare", "--routes", "closed,symbolic", "--k", "4,6",
                 "--g", g, "--v", v, "--hbar", "1", "--t", t]
            )
            assert status == 0 and "0 FLAG" in text
            assert [r["k"] for r in rows] == [4, 6]
            assert all(math.isfinite(r[f"z{r['k']}_closed"]) for r in rows)

    def test_symbolic_integrates_each_moment_once_per_point(self, monkeypatch):
        # W_0, W_2 and W_4 share moments between and within their reductions;
        # a point integrates each distinct one once, a two-point grid each
        # once per point, and a repeated request all of them again
        from ymqm import cli

        reductions = [cli._cached_kernel(k) for k in (0, 2, 4)]
        distinct = sorted({e.moments for red in reductions for e in red.entries})
        assert len(distinct) < sum(len(red.entries) for red in reductions)
        calls = []
        imn = cli.imn_quadrature
        monkeypatch.setattr(
            cli, "imn_quadrature", lambda m, n, *a: calls.append((m, n)) or imn(m, n, *a)
        )
        argv = ["compare", "--routes", "symbolic", "--k", "0,2,4", "--g", "1.1", "--t", "0.8"]
        for v, points in (("0.9", 1), ("0.9", 1), ("0.9:1.2:2", 2)):
            calls.clear()
            assert main([*argv, "--v", v]) == 0
            assert sorted(calls) == sorted(distinct * points)

    def test_routes_equal_their_direct_evaluation(self):
        # the shared moments and the cached reduction change no bit: each
        # route's z4 is its per-entry sum or its whole-kernel cubature
        from ymqm import heatkernel
        from ymqm.kernels import conventional_kernels, potential
        from ymqm.params import ModelParams
        from ymqm.quadrature import QuadratureSpec, imn_quadrature, phase_space_quadrature
        from ymqm.reduction import integrate_momenta

        _, rows, _, _ = run_cli(["compare", "--routes", "closed,symbolic,quadrature",
                                 "--k", "0,2,4", "--g", "1.1", "--v", "0.9", "--t", "0.8"])
        p = ModelParams(g=1.1, v=0.9, hbar=1.0, t=0.8)
        spec = QuadratureSpec()
        W4 = conventional_kernels(potential(2, quartic=True, higgs=True), 4)[4]
        red = integrate_momenta(W4)
        assert rows[2]["z4_symbolic"] == red.partition_value(
            p, lambda mn: imn_quadrature(mn[0], mn[1], p, spec).value
        )
        assert rows[2]["z4_closed"] == red.partition_value(
            p, lambda mn: heatkernel.integral_Imn_closed(mn[0], mn[1], p)
        )
        assert rows[2]["z4_quadrature"] == phase_space_quadrature(W4, p, spec).value


class TestResum:
    def test_constant_column(self):
        status, rows, _, _ = run_cli(
            ["resum", "--kmax", "4", "--g", "1", "--hbar", "1", "--t", "0.1"]
        )
        expected = 5 * math.log(2.0) - EULER_GAMMA + 427.0 / 180.0
        assert rows[0]["constant"] == pytest.approx(expected, rel=1e-12)


class TestSingularScan:
    def test_fitted_slopes(self):
        status, rows, summary, _ = run_cli(
            [
                "singular-scan",
                "--k",
                "2,4",
                "--g",
                "1",
                "--hbar",
                "1",
                "--t",
                "1",
                "--v",
                "1e-4:1e-2:7:log",
            ]
        )
        assert summary["slope_abs_z2_singular"] == pytest.approx(-2.0, abs=1e-3)
        assert summary["slope_abs_z4_singular"] == pytest.approx(-4.0, abs=1e-3)
        assert summary["slope_abs_z2_closed"] == pytest.approx(-2.0, abs=1e-3)


class TestOutputs:
    def test_reproducible_csv(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["tf", "--g", "1", "--v", "0.5:1.5:4", "--hbar", "1", "--t", "1", "--format", "csv"]
        run_cli(args + ["--out", str(out1)])
        run_cli(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_mirrors_rows(self, tmp_path):
        out_csv, out_json = tmp_path / "x.csv", tmp_path / "x.json"
        args = ["tf", "--g", "1", "--v", "0.5:1.5:3", "--hbar", "1", "--t", "1"]
        _, rows_a, _, _ = run_cli(args + ["--out", str(out_csv), "--format", "csv"])
        _, rows_b, _, _ = run_cli(args + ["--out", str(out_json), "--format", "json"])
        payload = json.loads(out_json.read_text())
        csv_lines = [
            l for l in out_csv.read_text().splitlines() if l and not l.startswith("#")
        ]
        header = csv_lines[0].split(",")
        assert list(payload["rows"][0].keys()) == header
        assert len(payload["rows"]) == len(csv_lines) - 1
        for row, line in zip(payload["rows"], csv_lines[1:]):
            for col, cell in zip(header, line.split(",")):
                if isinstance(row[col], float):
                    assert repr(row[col]) == cell
        assert "manifest" in payload and payload["manifest"]["seed"] == "none"

    def test_empty_rows_header_only(self):
        text, n_flag = report(_table([]))
        assert "(no rows)" in text and n_flag == 0
        assert text.strip().endswith("0 FLAG")

    def test_rows_with_different_columns(self, tmp_path):
        # k=0 and k=2 rows carry different value columns; none may be dropped
        out = tmp_path / "k.csv"
        _, rows, _, text = run_cli(
            ["compare", "--routes", "closed", "--k", "0,2", "--g", "1", "--v", "1",
             "--t", "1", "--out", str(out)]
        )
        z2 = repr(rows[1]["z2_closed"])
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert {"z0_closed", "z2_closed"} <= set(header)
        k2 = dict(zip(header, lines[2].split(",")))
        assert k2["z2_closed"] == z2 and k2["z0_closed"] == ""
        assert "None" not in out.read_text()
        assert z2 in text and "None" not in text

    def test_manifest_in_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        run_cli(
            ["tf", "--g", "1", "--v", "1", "--hbar", "1", "--t", "1", "--out", str(out)]
        )
        head = out.read_text().splitlines()
        assert head[0].startswith("# tool: ymqm")
        assert any(l.startswith("# seed: none") for l in head)

    def test_manifest_names_the_truncation(self, tmp_path):
        # resum with and without --full-sums gives different totals, so the
        # headers that say how a file was made must differ too
        heads = []
        for flag in ([], ["--full-sums"]):
            out = tmp_path / f"resum{len(heads)}.csv"
            run_cli(["resum", "--kmax", "4", "--g", "1", "--t", "0.1", "--out", str(out), *flag])
            heads.append([l for l in out.read_text().splitlines() if l.startswith("#")])
        assert "# full_sums: False" in heads[0] and "# full_sums: True" in heads[1]
        assert [l for l in heads[0] if "full_sums" not in l] == [
            l for l in heads[1] if "full_sums" not in l
        ]


class TestConfigFile:
    def test_file_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "[run]\nmodel = n2\ng = 1\nv = 2\nhbar = 1\nt = 1\n"
            "[quadrature]\ntol_quad = 1e-8\n"
        )
        cfg = build_config(["tf", "--config", str(cfgfile), "--v", "0.7"])
        assert cfg.v == "0.7"  # flag wins
        assert cfg.tol_quad == 1e-8
        assert cfg.g == "1"

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("[run]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            build_config(["tf", "--config", str(cfgfile)])

    def test_missing_config_exit_code(self):
        assert main(["tf", "--config", "/nonexistent.cfg"]) == 3

    def test_bad_route_exit_code(self):
        assert main(["compare", "--routes", "bogus"]) == 3

    def test_spectral_route_not_offered(self, capsys):
        # no compare route evaluates Z_k spectrally yet, so asking for one is
        # a config error, not a silently skipped column
        assert main(["compare", "--routes", "closed,spectral", "--k", "2"]) == 3
        assert "spectral" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, cfg_text",
        [
            (["tf", "--g", "abc"], None),
            (["tf", "--g", "1:2:x"], None),
            (["tf", "--v", "nan"], None),
            (["resum", "--t", "0.1"], "[run]\nkmax = abc\n"),
            (["spectrum", "--omega", "1"], "[spectral]\nbasis_n = 1e3\n"),
            (["tf", "--v", "0.5"], "[run]\nformat = xml\n"),
            (["tf", "--v", "0.5"], "[quadratur]\ntol_quad = 1e-3\n"),
            (["resum", "--t", "0.1"], "[run]\nfull_sums = on\n"),
            (["resum", "--kmax", "3", "--t", "0.1"], None),
            (["sweep", "--quantity", "bogus"], None),
            (["compare", "--routes", "symbolic", "--v", "1.2"], "[quadrature]\ntol_quad = -1\n"),
            (["spectrum", "--omega", "0", "--basis-n", "8"], None),
        ],
    )
    def test_malformed_value_exit_three(self, tmp_path, capsys, argv, cfg_text):
        # a value from a flag or from the file meets the same parser, and is
        # refused before any computation and before the output file is opened
        out = tmp_path / "out.csv"
        argv = argv + ["--out", str(out)]
        if cfg_text is not None:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(cfg_text)
            argv += ["--config", str(cfgfile)]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not out.exists()

    @pytest.mark.parametrize("text, flag, expected", [
        ("true", [], True), ("Yes", [], True), ("0", [], False), ("no", ["--full-sums"], True),
    ])
    def test_switch_values(self, tmp_path, text, flag, expected):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"[run]\nfull_sums = {text}\n")
        assert build_config(["resum", "--config", str(cfgfile), *flag]).full_sums is expected

    def test_config_keys(self):
        # the sections and keys a config file accepts, read off the parser
        from ymqm.cli import CONFIG_SECTIONS, make_parser

        groups = {g.title: g._group_actions for g in make_parser()._action_groups}
        keys = {
            s: {a.option_strings[0][2:].replace("-", "_") for a in groups[s]}
            for s in CONFIG_SECTIONS
        }
        assert keys == {
            "run": {"model", "g", "v", "hbar", "t", "routes", "k", "kmax", "quantity",
                    "out", "format", "full_sums"},
            "quadrature": {"tol_quad", "disc_tol"},
            "spectral": {"tol_conv", "basis_n", "omega"},
        }

    def test_parser_built_once_keeps_no_request(self):
        # one parser serves every request of a process; a request leaves
        # nothing in it for the next
        from ymqm.cli import make_parser

        assert make_parser() is make_parser()
        build_config(["compare", "--routes", "symbolic", "--k", "4,6", "--tol-quad", "1e-6"])
        cfg = build_config(["compare"])
        assert (cfg.routes, cfg.ks, cfg.tol_quad) == (("closed", "quadrature"), (2,), 1e-9)


class TestExitCodes:
    def test_route_failure_is_exit_two(self, capsys):
        # the order-k routes cover the planar model only
        code = main(["compare", "--model", "n3", "--routes", "quadrature", "--k", "0", "--g", "1",
                     "--v", "1", "--t", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err.splitlines()[-1])["error"] == "route"

    def test_entry_point_runs(self):
        # the child imports the same ymqm as this process, installed or not
        src = os.path.dirname(os.path.dirname(ymqm.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ymqm.cli", "tf", "--g", "1", "--v", "0.5", "--hbar", "1", "--t", "1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "0 FLAG" in proc.stdout

    @pytest.mark.parametrize("v", ["0", "0:1:3"])
    def test_tf_nan_row_is_flagged(self, v):
        # the planar Thomas-Fermi value is NaN at v = 0; its row is flagged
        # and the run exits 1 instead of passing the NaN as ok
        code, rows, _, _ = run(build_config(["tf", "--g", "1", "--v", v, "--t", "1"]))
        assert code == 1
        assert rows[0]["v"] == 0.0 and math.isnan(rows[0]["tf"]) and rows[0]["flag"]

    def test_compare_rejects_three_coordinates(self, capsys):
        code = main(
            ["compare", "--model", "n3", "--routes", "closed", "--k", "2", "--g", "1",
             "--v", "1", "--t", "1"]
        )
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert code == 2
        assert err["error"] == "route" and err["type"] == "DomainError"

    def test_save_spectrum_needs_one_group(self, tmp_path):
        out = tmp_path / "levels.txt"
        code = main(
            ["spectrum", "--g", "1:2:2", "--v", "1", "--t", "1", "--omega", "1",
             "--basis-n", "8", "--save-spectrum", str(out)]
        )
        assert code == 3
        assert not out.exists()

    def test_save_spectrum_rejected_with_study(self, tmp_path):
        out = tmp_path / "study.txt"
        code = main(
            ["spectrum", "--study", "--g", "1", "--v", "0", "--hbar", "1", "--t", "0.3",
             "--basis-n", "40", "--save-spectrum", str(out)]
        )
        assert code == 3
        assert not out.exists()

    def test_study_rejects_swept_axis(self, tmp_path, monkeypatch):
        # the study takes one point and its own t window, so a sweep would be
        # dropped; it is refused before the study runs
        from ymqm import spectral

        def boom(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(spectral, "leading_log_study", boom)
        out = tmp_path / "study.csv"
        code = main(["spectrum", "--study", "--g", "1:2:2", "--v", "0", "--t", "0.5",
                     "--basis-n", "32", "--out", str(out)])
        assert code == 3 and not out.exists()

    @pytest.mark.parametrize("g, v", [("0", "0"), ("0", "0:1:3"), ("0:1:2", "0")])
    def test_free_particle_point_fails_before_the_scan(self, capsys, monkeypatch, g, v):
        # g = v = 0 anywhere on the grid is the free particle, whose scan
        # would end in a convergence failure and lose the other rows
        from ymqm import spectral

        def boom(*args, **kwargs):
            raise AssertionError("the omega scan ran")

        monkeypatch.setattr(spectral, "trace_maximizing_omega", boom)
        assert main(["spectrum", "--g", g, "--v", v, "--t", "1"]) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config" and "free particle" in err["message"]

    def test_basis_that_cannot_fit_fails_before_the_scan(self, capsys, monkeypatch):
        # 3-D: the N + 8 enlargement of the convergence check must fit SIZE_CAP
        from ymqm import spectral

        def boom(*args, **kwargs):
            raise AssertionError("the omega scan ran")

        monkeypatch.setattr(spectral, "trace_maximizing_omega", boom)
        assert main(["spectrum", "--model", "n3", "--g", "1", "--v", "1", "--t", "1"]) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config" and "4 to 31 levels" in err["message"]
        assert build_config(["spectrum", "--model", "n3", "--basis-n", "31"]).basis_n == 31
        assert main(["spectrum", "--g", "1", "--basis-n", "237", "--omega", "1"]) == 3

    @pytest.mark.parametrize(
        "argv, cfg_text, axis",
        [
            (["tf", "--g", "-1", "--v", "1"], None, "g"),
            (["tf", "--g=1:-0.5:1", "--v", "1"], None, "g"),
            (["tf", "--v", "-0.5"], None, "v"),
            (["tf", "--g", "1"], "[run]\nv = -1:1:3\n", "v"),
            (["tf", "--hbar", "0"], None, "hbar"),
            (["tf", "--hbar=0.5:-0.5:2"], None, "hbar"),
            (["tf", "--t", "0"], None, "t"),
            (["sweep", "--t=0:1:5"], None, "t"),
            (["spectrum", "--t", "1"], "[run]\nt = 1:-1:2\n", "t"),
        ],
    )
    def test_axis_outside_domain_exit_three(
        self, tmp_path, capsys, monkeypatch, argv, cfg_text, axis
    ):
        # g, v < 0 and hbar, t <= 0 are refused as config errors before any
        # computation, at either end of a range
        def boom(*args, **kwargs):
            raise AssertionError("a route ran")

        monkeypatch.setattr("ymqm.cli.build_grid", boom)
        if cfg_text is not None:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(cfg_text)
            argv = argv + ["--config", str(cfgfile)]
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config" and f"{axis} must be" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["compare", "--routes", "closed,symbolic", "--tol-quad", "inf"],
        ["spectrum", "--omega", "inf", "--basis-n", "8"],
        ["spectrum", "--omega", "1", "--basis-n", "8", "--tol-conv", "inf"],
        ["compare", "--routes", "closed,symbolic", "--tol-quad", "1e-3", "--disc-tol", "nan"],
        ["compare", "--routes", "closed,symbolic", "--disc-tol=-1e-6"],
    ], ids=["tol-quad", "omega", "tol-conv", "disc-tol-nan", "disc-tol-negative"])
    def test_tolerance_not_finite_exit_three(self, capsys, monkeypatch, argv):
        # an infinite quadrature or convergence tolerance gives a wrong or
        # NaN value, and a NaN --disc-tol marks every discrepancy ok
        def boom(*args, **kwargs):
            raise AssertionError("a route ran")

        monkeypatch.setattr("ymqm.cli.build_grid", boom)
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config" and "finite" in err["message"]

    def test_zero_disc_tol_accepted(self):
        assert build_config(["compare", "--disc-tol", "0"]).disc_tol == 0.0

    def test_axis_domain_boundaries_accepted(self):
        # g = 0 and v = 0 are each accepted; together they are the free
        # particle, which spectrum refuses
        for g, v in (("0", "0.5:1:3"), ("0:1:3", "0.5"), ("1", "0:1:3")):
            cfg = build_config(
                ["spectrum", "--g", g, "--v", v, "--hbar", "1e-3", "--t", "0.1:2:3:log"]
            )
            assert (cfg.g, cfg.v) == (g, v)

    @pytest.mark.parametrize("argv", [
        ["tf", "--g", "0", "--v", "1"],
        ["wk", "--g", "0"],
        ["compare", "--g", "0:1:3"],
        ["resum", "--g", "0"],
        ["singular-scan", "--g", "1:0:2", "--v", "0.1"],
        ["sweep", "--g", "0"],
        ["n3", "--g", "0"],
    ], ids=lambda argv: argv[0])
    def test_zero_coupling_exit_three(self, tmp_path, capsys, monkeypatch, argv):
        # only spectrum has a g = 0 model (the harmonic one); every other
        # command refuses g = 0, alone or at either end of a range, before
        # any computation
        def boom(*args, **kwargs):
            raise AssertionError("a route ran")

        monkeypatch.setattr("ymqm.cli.build_grid", boom)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"[run]\ng = {argv[2]}\n")
        for args in (argv, [argv[0], *argv[3:], "--config", str(cfgfile)]):
            assert main(args) == 3
            err = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert err["error"] == "config" and "g must be positive" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["singular-scan", "--v", "0"],
        ["sweep", "--quantity", "z2", "--v", "0:1:3"],
        ["sweep", "--quantity", "tf", "--v", "0"],
        ["wk", "--routes", "closed", "--v", "0"],
        ["compare", "--routes", "symbolic,quadrature", "--v", "1:0:2"],
    ], ids=["singular-scan", "sweep-z2", "sweep-tf", "wk-closed", "compare-symbolic-quadrature"])
    def test_zero_higgs_exit_three(self, tmp_path, capsys, monkeypatch, argv):
        # the planar terms diverge at v = 0 on every route of these
        # commands, so v = 0, alone or at either end of a range, is refused
        # before any computation
        def boom(*args, **kwargs):
            raise AssertionError("a route ran")

        monkeypatch.setattr("ymqm.cli.build_grid", boom)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"[run]\nv = {argv[-1]}\n")
        for args in (argv, [*argv[:-2], "--config", str(cfgfile)]):
            assert main(args) == 3
            err = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert err["error"] == "config" and "v must be positive" in err["message"]

    def test_singular_scan_order_below_two_exit_three(self, tmp_path, capsys, monkeypatch):
        # the singular structures start at k = 2, so --k 0 is refused before
        # any computation instead of failing in the route
        def boom(*args, **kwargs):
            raise AssertionError("a route ran")

        monkeypatch.setattr("ymqm.cli.build_grid", boom)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[run]\nk = 2,0\n")
        for args in (
            ["singular-scan", "--k", "0", "--g", "1", "--v", "0.1"],
            ["singular-scan", "--config", str(cfgfile), "--g", "1", "--v", "0.1"],
        ):
            assert main(args) == 3
            err = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert err["error"] == "config" and "k >= 2" in err["message"]

    @pytest.mark.parametrize("quantity, model", [
        ("z2", "n3"), ("resum_total", "n3"), ("z2_n3", None), ("tf_n3", "n2"),
    ], ids=["z2-n3", "resum_total-n3", "z2_n3-default", "tf_n3-n2"])
    def test_sweep_quantity_of_other_model_exit_three(
        self, tmp_path, capsys, monkeypatch, quantity, model
    ):
        # a planar quantity under --model n3 would print planar values under
        # an n3 manifest, and an n3 quantity under n2 would fail in its route
        def boom(*args, **kwargs):
            raise AssertionError("a route ran")

        monkeypatch.setattr("ymqm.cli.build_grid", boom)
        model_args = [] if model is None else ["--model", model]
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"[run]\nquantity = {quantity}\n" + ("" if model is None else f"model = {model}\n")
        )
        for args in (
            ["sweep", "--quantity", quantity, *model_args, "--g", "1", "--t", "0.5"],
            ["sweep", "--config", str(cfgfile), "--g", "1", "--t", "0.5"],
        ):
            assert main(args) == 3
            err = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert err["error"] == "config" and f"--quantity {quantity}" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["tf", "--v", "0"],
        ["resum", "--v", "0"],
        ["n3", "--v", "0"],
        ["sweep", "--quantity", "resum_total", "--v", "0"],
    ], ids=["tf", "resum", "n3", "sweep-resum_total"])
    def test_zero_higgs_accepted(self, argv):
        assert main(argv) in (0, 1)

    @pytest.mark.parametrize("argv, value", [
        (["compare", "--disc-tol", "-1e-6"], "-1e-6"),
        (["compare", "--g", "-1e-3"], "-1e-3"),
        (["tf", "--tol-quad", "-.5E+2"], "-.5E+2"),
    ])
    def test_negative_scientific_value_named(self, capsys, argv, value):
        # a negative number in scientific notation is the option's value,
        # refused with a message naming it, not read as an unknown option
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config" and repr(value) in err["message"]

    def test_study_ladder_checked_before_the_scan(self, capsys, monkeypatch):
        # --basis-n N solves the ladder N-24 .. N; each rung must be a basis
        # the planar solver accepts
        from ymqm import spectral

        def boom(*args, **kwargs):
            raise AssertionError("the omega scan ran")

        monkeypatch.setattr(spectral, "trace_maximizing_omega", boom)
        base = ["spectrum", "--study", "--g", "1", "--v", "0", "--t", "1"]
        for n in (20, 27, 245):
            assert main(base + ["--basis-n", str(n)]) == 3
            err = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert err["error"] == "config" and "study ladder" in err["message"]
        for n in (28, 244):
            assert build_config(base + ["--basis-n", str(n)]).basis_n == n
        assert main(base + ["--model", "n3", "--basis-n", "28"]) == 3

    def test_study_zero_coupling_exit_three(self, tmp_path, capsys, monkeypatch):
        # the study's t window needs g > 0; g = 0 is refused before any
        # computation instead of dividing by g^2 in the route
        from ymqm import spectral

        def boom(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(spectral, "leading_log_study", boom)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[run]\ng = 0\n")
        base = ["spectrum", "--study", "--v", "1", "--t", "1"]
        for args in (base + ["--g", "0"], base + ["--config", str(cfgfile)]):
            assert main(args) == 3
            err = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert err["error"] == "config" and "--study needs g > 0" in err["message"]

    def test_study_uses_given_omega(self, tmp_path, monkeypatch):
        from ymqm import spectral

        def boom(*args, **kwargs):
            raise AssertionError("the omega scan ran")

        monkeypatch.setattr(spectral, "trace_maximizing_omega", boom)
        out = tmp_path / "study.json"
        code = main(["spectrum", "--study", "--g", "1", "--v", "0", "--t", "1",
                     "--basis-n", "28", "--omega", "1.0", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["manifest"]["omega"] == "1.0"

    @pytest.mark.parametrize("argv, underflow", [
        (["tf", "--v", "1"], "g^2 underflows"),
        (["sweep", "--quantity", "resum_total"], "lam2 = g^2 hbar^4 t^3 underflows"),
        (["sweep", "--quantity", "z2", "--v", "1"], "b = t g^2/2 underflows"),
        (["n3"], "lam2 = g^2 hbar^4 t^3 underflows"),
    ], ids=["tf", "sweep-resum_total", "sweep-z2", "n3"])
    def test_coupling_underflow_is_a_domain_error(self, capsys, argv, underflow):
        # at g = 1e-200, g^2 and lam2 = g^2 hbar^4 t^3 are 0 in floating point:
        # the prefactor or moment that divides by them is refused by name
        # instead of dividing by zero
        assert main([*argv, "--g", "1e-200", "--t", "1"]) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "DomainError" and underflow in err["message"]

    def test_regime_flag_sets_exit_one(self):
        assert main(["tf", "--g", "1", "--v", "1", "--hbar", "1", "--t", "1"]) == 1


class TestSweepAndN3:
    def test_sweep_deterministic(self):
        argv = ["sweep", "--quantity", "z2", "--g", "1", "--v", "0.5:2:6", "--hbar", "1",
                "--t", "0.2:0.4:3"]
        _, rows1, _, _ = run_cli(argv)
        _, rows2, _, _ = run_cli(argv)
        assert len(rows1) == 18 and rows1 == rows2

    def test_sweep_flags_z2_n3_as_n3_does(self):
        # lam = 0.354 lies inside the three-coordinate regime (lam < 1),
        # though lam2 = 0.125 is above the planar bound 0.1: both commands
        # print the same value unflagged and exit 0
        values = []
        for argv in (["n3", "--g", "1", "--t", "0.5"],
                     ["sweep", "--quantity", "z2_n3", "--model", "n3", "--g", "1", "--t", "0.5"]):
            assert main(argv) == 0
            status, (row,), _, _ = run_cli(argv)
            assert status == 0 and row["flag"] is False
            values.append(row["z2_n3"])
        assert values == [-0.5438937180054318] * 2

    def test_tf_flags_tf_n3_as_n3_does(self):
        # the same point: tf --model n3 flags tf_n3 by lam < 1 as well
        values = []
        for argv in (["n3", "--g", "1", "--t", "0.5"],
                     ["sweep", "--quantity", "tf_n3", "--model", "n3", "--g", "1", "--t", "0.5"],
                     ["tf", "--model", "n3", "--g", "1", "--t", "0.5"]):
            assert main(argv) == 0
            status, (row,), _, _ = run_cli(argv)
            assert status == 0 and row["flag"] is False
            values.append(row["tf_n3"])
        assert values == [12.104125387365915] * 3

    @pytest.mark.parametrize("quantity, flagged", [("tf", [False, True]), ("z2", [False, True]),
                                                   ("tf_n3", [False, False]),
                                                   ("z2_n3", [False, False])])
    def test_sweep_flag_follows_the_quantity_regime(self, quantity, flagged):
        # lam2 = 0.064 and 0.125: only the second is outside the planar
        # regime, and both are inside the three-coordinate one (lam < 1)
        model = "n3" if quantity.endswith("_n3") else "n2"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            _, rows, _, _ = run_cli(["sweep", "--quantity", quantity, "--model", model,
                                     "--g", "1", "--v", "1", "--t", "0.4:0.5:2"])
        assert [row["flag"] for row in rows] == flagged

    def test_n3_command_implies_model(self, tmp_path):
        out = tmp_path / "n3.csv"
        status, rows, _, _ = run_cli(["n3", "--g", "1", "--t", "0.3", "--out", str(out)])
        assert status == 0 and math.isfinite(rows[0]["z2_n3"])
        assert "# model: n3" in out.read_text().splitlines()
        assert main(["n3", "--model", "n2", "--g", "1", "--t", "0.3"]) == 3

    def test_n3_learns_i1_divergence_without_integrating(self, monkeypatch):
        # at v > 0 the only radial quad of a row is the x^2 (y^2 + z^2) one
        from ymqm import quadrature

        calls = []
        engine = quadrature.quad

        def counted(*args, **kw):
            calls.append(args[0])
            return engine(*args, **kw)

        monkeypatch.setattr(quadrature, "quad", counted)
        _, rows, _, _ = run_cli(["n3", "--g", "0.5", "--v", "0.7", "--t", "0.3:1.5:3"])
        assert [row["i1_divergent"] for row in rows] == [False] * 3
        assert len(calls) == 3

    def test_n3_evaluates_the_j_pair_once_over_the_grid(self, monkeypatch):
        # the j0, j2 columns and z2_n3 share one J pair for the whole grid
        # (point by point it was read twice per point, 18 calls)
        from ymqm import heatkernel

        calls = []
        radial_jb = heatkernel.radial_Jb
        monkeypatch.setattr(heatkernel, "radial_Jb", lambda lam: calls.append(lam) or radial_jb(lam))
        _, rows, _, _ = run_cli(["n3", "--g", "0.5:2:3", "--t", "0.3:1.5:3"])
        assert len(rows) == 9 and len(calls) == 1

    def test_n3_grid_rows_equal_each_point(self):
        # every column of a grid row is the value of its point alone, bit for
        # bit; lam reaches 3.7, where z2_n3 warns and the J pair goes to
        # quadrature
        from ymqm import cli

        cfg = build_config(["n3", "--g", "0.5:2:3", "--v", "0", "--t", "0.3:1.5:3"])
        grid = cli.build_grid(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            rows = cli.rows_n3(cfg, grid)
            alone = [row for p in grid for row in cli.rows_n3(cfg, [p])]
        assert [repr(r) for r in rows] == [repr(r) for r in alone]

    def test_n3_columns(self):
        _, rows, _, _ = run_cli(
            ["n3", "--model", "n3", "--g", "1e-6", "--v", "0", "--hbar", "1", "--t", "1"]
        )
        row = rows[0]
        assert row["i1_divergent"] is True
        assert row["j0_sqrtlam"] == pytest.approx(0.25, rel=1e-3)
        assert math.isfinite(row["i2"])


class TestSweepGrid:
    """``sweep`` evaluates its quantity over the whole grid in one call; each
    grid value must equal the value of the same point alone, bit for bit."""

    # planar: z = t v^4/(2 g^2) reaches 40.5 at v = 3, t = 1, where I_11 and
    # I_21 go to the Whittaker form.  n3: lam = g t^(3/2) from 0.03 to 7.3,
    # where J_0 and J_2 go to quadrature from lam of about 3.4; z2_n3 divides
    # by no power of g, so its value at g = 1e-200, where lam2 underflows to
    # 0, is finite
    PLANAR = [(g, v, 1.0, t) for g in (0.3, 1.0) for v in (0.05, 0.7, 3.0) for t in (0.2, 1.0)]
    N3 = [(g, 0.0, h, t) for g in (0.1, 1.0, 4.0) for h in (0.8, 1.0) for t in (0.3, 1.5)]
    N3_UNDERFLOW = (1e-200, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("quantity", ["tf", "z2", "resum_total", "tf_n3", "z2_n3"])
    def test_grid_equals_each_point(self, monkeypatch, quantity):
        from ymqm import cli, heatkernel
        from ymqm.params import ModelParams

        model, fn, _ = cli.SWEEP_QUANTITIES[quantity]
        n_model = 3 if model == "n3" else 2
        rows = self.PLANAR if n_model == 2 else self.N3
        if quantity == "z2_n3":
            rows = rows + [self.N3_UNDERFLOW]
        points = [ModelParams(*x, n_model=n_model) for x in rows]
        fallbacks = []
        for name in ("integral_Imn_whittaker", "radial_Jb_quadrature"):
            original = getattr(heatkernel, name)
            monkeypatch.setattr(heatkernel, name, lambda *a, f=original, name=name:
                                fallbacks.append(name) or f(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            grid = fn(ModelParams.grid(points))
            alone = [fn(p) for p in points]
        assert isinstance(grid, np.ndarray) and all(type(x) is float for x in alone)
        assert [x.hex() for x in grid.tolist()] == [x.hex() for x in alone]
        if quantity == "z2":
            assert "integral_Imn_whittaker" in fallbacks
        if quantity == "z2_n3":
            assert "radial_Jb_quadrature" in fallbacks

    @pytest.mark.parametrize("quantity", ["tf", "z2", "resum_total", "tf_n3"])
    def test_underflow_point_fails_the_grid(self, quantity):
        # one point whose g^2 underflows raises the DomainError that it
        # raises alone, not an inf in the grid (z2_n3 has a value there, see
        # N3_UNDERFLOW)
        from ymqm import cli
        from ymqm.params import ModelParams

        model, fn, _ = cli.SWEEP_QUANTITIES[quantity]
        n_model = 3 if model == "n3" else 2
        bad = ModelParams(1e-200, 1.0, 1.0, 1.0, n_model=n_model)
        with pytest.raises(DomainError) as alone:
            fn(bad)
        with pytest.raises(DomainError) as grid:
            fn(ModelParams.grid([ModelParams(1.0, 1.0, 1.0, 0.5, n_model=n_model), bad]))
        assert "underflows" in str(alone.value) and str(grid.value) == str(alone.value)


class TestRegimeWarnings:
    """Each RegimeWarning a command raises at a point falls on a row whose
    flag is set, so silencing the warnings in ``run`` loses nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tf", "--g", "1", "--v", "0.5:2:4", "--t", "1"],
            ["resum", "--kmax", "4", "--g", "1", "--t", "0.2:0.8:4"],
            ["n3", "--g", "1", "--t", "0.3:1.5:3"],
            ["sweep", "--quantity", "resum_total", "--g", "1", "--t", "0.2:0.8:4"],
            ["sweep", "--quantity", "z2_n3", "--model", "n3", "--g", "1", "--t", "0.3:1.5:3"],
        ],
    )
    def test_warned_points_are_flagged(self, argv):
        from ymqm import cli
        from ymqm.errors import RegimeWarning

        cfg = build_config(argv)
        rows_fn = {"tf": cli.rows_tf, "resum": cli.rows_resum, "n3": cli.rows_n3,
                   "sweep": cli.rows_sweep}[cfg.command]
        grid = cli.build_grid(cfg)
        warned = 0
        for p in grid:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                (row,) = rows_fn(cfg, [p])
            if any(issubclass(w.category, RegimeWarning) for w in caught):
                warned += 1
                assert row["flag"], p
        assert 0 < warned < len(grid)


SNAPSHOT_CONFIG = (
    "[run]\ng = 1\nv = 0.9:1.1:3\nt = 0.8\nroutes = closed, symbolic\nk = 2,4\n"
    "format = json\n[quadrature]\ntol_quad = 1e-10\ndisc_tol = 1e-8\n"
)


class TestResultSnapshot:
    """The bytes of the ``--out`` file and of the stdout table for a fixed set
    of runs, pinned by sha256 so that a change to option handling, to the
    manifest or to the writers that alters a single byte is caught.  A run's
    test id is its output file name, so a re-pinned digest keeps the id."""

    RUNS = [
        ("tf.csv", ["tf", "--g", "1", "--v", "0.5:1.5:4", "--t", "1"], 1,
         "d96485644854cf52266fde0994f80955d183e7705d44c1ff83ba475304cb3c64",
         "fc8f5e63d0dc6e56d30b011a171f81f380ae82c34fca5a80799b36e84c95bd2c"),
        ("compare.json", ["compare", "--routes", "closed,symbolic,quadrature",
                          "--k", "0,2", "--g", "1.1", "--v", "1.2", "--t", "0.9",
                          "--format", "json"], 0,
         "aae52644cd7abd3350831efdbaf3c6fbbf6cc78025c2b0227042e4489ed9af57",
         "b2776a4323a6fe5fa03bfca913f50283841a7b916eb85e201e6c79bd91aeea75"),
        ("resum.csv", ["resum", "--kmax", "4", "--full-sums", "--g", "1",
                       "--t", "0.05:0.2:3"], 0,
         "d60de9cf3acc9d0d8f5a5473f529764bd0bbde9337e182e4aee4c7544b721fcc",
         "b0c825b9b2e73a9a8dd79d0b1a68ab98ba7a48929093c2b704827ab84ac20247"),
        ("scan.csv", ["singular-scan", "--k", "2,4", "--g", "1", "--t", "1",
                      "--v", "1e-3:1e-2:4:log"], 0,
         "e5797384956c24b6abecab02ea344df4cebdcbe70684d3e9c2d5923058ef050e",
         "6c5ca2f94f22a9c66591a159c910313bbb757123055cdcc1998c2118bd1c7e6d"),
        ("sweep.csv", ["sweep", "--quantity", "resum_total", "--g", "1",
                       "--t", "0.2:0.8:4"], 1,
         "7627c4dd07df3f6c86c7cb511be1088a6a569306b2df8cd53ac3492440af760d",
         "d2ad6b94a62c1ca69f7bdce39a9b53af330258f360cc840b0b0c34dc71e289d7"),
        ("sweep_z2.csv", ["sweep", "--quantity", "z2", "--g", "1", "--v", "0.5:3:3",
                          "--t", "0.2:1:2"], 1,
         "f7d23848cf5bff6e5d5afe5316f163493db7e79abee69c519c26ab7760ea64e9",
         "d8d96499db690c50d4f0cea6a91918b21ec19906dde3cbfd6ef7d54a5fa292b0"),
        ("sweep_z2_n3.csv", ["sweep", "--quantity", "z2_n3", "--model", "n3", "--g", "1:4:3",
                             "--t", "0.2:1.5:3"], 1,
         "1ea0aa856f651dc2341a511309465a542c5fe0163f3fe91018a7a9f6e62a3b3b",
         "1ba0ed407b99f4e088081c94e1884fa224ed0ce2e53b386ad0d7ecbb2e04f255"),
        ("n3.csv", ["n3", "--g", "1", "--t", "0.3:1.5:3"], 1,
         "e421b0fcae166b75ecfadc75df791d8462c6fd32a476a29c379c4d513973f79c",
         "63dbc3f303d682c6fa2cdcac03d1d27f5567696fe1f5a2ecdddd64334737ecc1"),
        ("spectrum.csv", ["spectrum", "--g", "1", "--v", "1", "--t", "2:3:2",
                          "--omega", "1.2", "--basis-n", "24"], 1,
         "d23d870c02c238086e3b32ae3cb71b9d5e5cd42187891325889f9c3ea91c8d1d",
         "d31d775aa3c4aa3da994c118c666841136aa16ffe6b93a1145db392caf65358f"),
        ("config.json", ["compare", "--config", "{cfg}", "--t", "0.7"], 0,
         "d5e213740f8611a81400504224a85340d641546acad70a9d2335650495207147",
         "6a53897583867a25f36f751e6e0d225361c44741d8751b6fd86d416206c50917"),
    ]

    @pytest.mark.parametrize(
        "name, argv, status, out_digest, text_digest", RUNS, ids=[run[0] for run in RUNS]
    )
    def test_digest(self, tmp_path, capsys, name, argv, status, out_digest, text_digest):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(SNAPSHOT_CONFIG)
        out = tmp_path / name
        argv = [a.replace("{cfg}", str(cfgfile)) for a in argv] + ["--out", str(out)]
        assert main(argv) == status
        text = capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest
        assert hashlib.sha256(text.encode()).hexdigest() == text_digest
