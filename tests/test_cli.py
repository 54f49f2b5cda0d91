import json
import math
import os
import subprocess
import sys

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

    def test_regime_flag_sets_exit_one(self):
        assert main(["tf", "--g", "1", "--v", "1", "--hbar", "1", "--t", "1"]) == 1


class TestSweepAndN3:
    def test_threaded_sweep_deterministic(self, monkeypatch):
        monkeypatch.setenv("YMQM_THREADS", "3")
        _, rows1, _, _ = run_cli(
            ["sweep", "--quantity", "tf", "--g", "1", "--v", "0.5:2:6", "--hbar", "1", "--t", "1"]
        )
        monkeypatch.setenv("YMQM_THREADS", "1")
        _, rows2, _, _ = run_cli(
            ["sweep", "--quantity", "tf", "--g", "1", "--v", "0.5:2:6", "--hbar", "1", "--t", "1"]
        )
        assert rows1 == rows2

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
