import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import ymqm
from ymqm.cli import ConfigError, build_config, main, report, run
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
        # at v = 1 the two routes agree to the last bit, so no tolerance
        # flags that point; at v = 1.1 they differ by 8e-16
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
        text, n_flag = report([])
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


class TestExitCodes:
    def test_route_failure_is_exit_two(self, capsys):
        # v = 0 makes the closed planar leading term un-evaluable
        code = main(["tf", "--model", "n2", "--g", "0", "--v", "1", "--hbar", "1", "--t", "1"])
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

    def test_regime_flag_sets_exit_one(self):
        assert main(["tf", "--g", "1", "--v", "1", "--hbar", "1", "--t", "1"]) == 1


class TestSweepAndN3:
    def test_sweep_deterministic(self):
        argv = ["sweep", "--quantity", "z2", "--g", "1", "--v", "0.5:2:6", "--hbar", "1",
                "--t", "0.2:0.4:3"]
        _, rows1, _, _ = run_cli(argv)
        _, rows2, _, _ = run_cli(argv)
        assert len(rows1) == 18 and rows1 == rows2

    def test_n3_command_implies_model(self, tmp_path):
        out = tmp_path / "n3.csv"
        status, rows, _, _ = run_cli(["n3", "--g", "1", "--t", "0.3", "--out", str(out)])
        assert status == 0 and math.isfinite(rows[0]["z2_n3"])
        assert "# model: n3" in out.read_text().splitlines()
        assert main(["n3", "--model", "n2", "--g", "1", "--t", "0.3"]) == 3

    def test_n3_columns(self):
        _, rows, _, _ = run_cli(
            ["n3", "--model", "n3", "--g", "1e-6", "--v", "0", "--hbar", "1", "--t", "1"]
        )
        row = rows[0]
        assert row["i1_divergent"] is True
        assert row["j0_sqrtlam"] == pytest.approx(0.25, rel=1e-3)
        assert math.isfinite(row["i2"])


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
    manifest or to the writers that alters a single byte is caught."""

    @pytest.mark.parametrize(
        "name, argv, status, out_digest, text_digest",
        [
            ("tf.csv", ["tf", "--g", "1", "--v", "0.5:1.5:4", "--t", "1"], 1,
             "08c4cd4c0255c5be6ff8f9817be77ced8c037d33373635eea6be326704104ff2",
             "fc8f5e63d0dc6e56d30b011a171f81f380ae82c34fca5a80799b36e84c95bd2c"),
            ("compare.json", ["compare", "--routes", "closed,symbolic,quadrature",
                              "--k", "0,2", "--g", "1.1", "--v", "1.2", "--t", "0.9",
                              "--format", "json"], 0,
             "5aa2c432414dba74d29d8e1f15b46d4c4517192b07fe48348d4a8b7f89090ee2",
             "061e7ec1fc0e0b7a0f77cd3db71d88360d5bf9c4605d66e90dafc246076254a0"),
            ("resum.csv", ["resum", "--kmax", "4", "--full-sums", "--g", "1",
                           "--t", "0.05:0.2:3"], 0,
             "83ddb317c02a3b0866a3bbc830d6873eca05636525354999b1b26a3311c41126",
             "b0c825b9b2e73a9a8dd79d0b1a68ab98ba7a48929093c2b704827ab84ac20247"),
            ("scan.csv", ["singular-scan", "--k", "2,4", "--g", "1", "--t", "1",
                          "--v", "1e-3:1e-2:4:log"], 0,
             "a856c93d76df5f9e4f0e804027c7ccfc6b5f5ba546fa4e434507beef98affe62",
             "6c5ca2f94f22a9c66591a159c910313bbb757123055cdcc1998c2118bd1c7e6d"),
            ("sweep.csv", ["sweep", "--quantity", "resum_total", "--g", "1",
                           "--t", "0.2:0.8:4"], 1,
             "e2703fbd8b6981fd5e03f155253b37f7f5250a78d808841d534822d971784165",
             "d2ad6b94a62c1ca69f7bdce39a9b53af330258f360cc840b0b0c34dc71e289d7"),
            ("n3.csv", ["n3", "--g", "1", "--t", "0.3:1.5:3"], 1,
             "747e7832445ee8812886c313b9faf6b0f1cda412c4f2539287f8ed43a2494341",
             "abe8c5c9b7942681cc4d696c79b612f5a48c3969ffa2cadd078d63f02828f896"),
            ("spectrum.csv", ["spectrum", "--g", "1", "--v", "1", "--t", "2:3:2",
                              "--omega", "1.2", "--basis-n", "24"], 1,
             "252b55b9480d6c5ccf50c13564fe94c566f38313be1beb63fbbdae76e9d2c07e",
             "fc833b91a405a107e5a1884b3748dfa81db09efa366a3b7d2c2958b89c8c90b7"),
            ("config.json", ["compare", "--config", "{cfg}", "--t", "0.7"], 0,
             "0c0848e064a4990257e2946a91c9803bc9126e9f534606ec3752a7aa66220361",
             "7ca6a33d2ab8bd1347d20b4e088b8c98ea0366bc9876ea8d68d84b574b5b94fc"),
        ],
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
