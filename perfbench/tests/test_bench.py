"""Tests of the benchmark itself: every check fails on a perturbed output,
and every workload runs end to end at small size.

    python3 -m pytest -q perfbench/tests

Each workload runs once at smoke size (about 10 s each); the perturbation
tests edit copies of those outputs.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def smoke_data():
    """Loaded outputs of one smoke run per workload."""
    data = {}
    for name in WORKLOADS:
        ops, result, _, run_dir = run.run_worker(name, seed=7, seconds=1, trace=0, smoke=True)
        try:
            data[name] = checks.load_data(ops, result)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    return data


def failures_after(smoke_data, name, edit):
    data = copy.deepcopy(smoke_data[name])
    edit(data)
    return checks.check(name, data)


def scale_column(data, tag, column, factor, rows=slice(None)):
    for r in data["tables"][tag][1][rows]:
        r[column] *= factor


def test_unperturbed_outputs_pass(smoke_data):
    for name in WORKLOADS:
        assert checks.check(name, smoke_data[name]) == [], name


# -- semiclassical_series ----------------------------------------------------------

SEMI = "semiclassical_series"


def test_failed_operation_is_not_checked(smoke_data):
    """A failed operation counts in ``failed``; its missing output is not
    also a check failure."""
    def edit(d):
        d["failed"] = ["tf", "d2_quartic_higgs"]
        del d["tables"]["tf"]
        d["outputs"]["d2_quartic_higgs"] = {"error": "AccuracyError: test"}

    assert failures_after(smoke_data, SEMI, edit) == []


def test_missing_output_fails(smoke_data):
    def edit(d):
        del d["tables"]["tf"]

    assert any("tf: no output" in f for f in failures_after(smoke_data, SEMI, edit))


@pytest.mark.parametrize("tag,column", [
    ("tf", "tf"),
    ("tf", "tf_small_v"),
    ("sweep_z2", "z2"),
    ("sweep_z2_n3", "z2_n3"),
    ("resum_full", "total"),
    ("resum_full", "tf_exact_bessel"),
])
def test_value_off_by_1e5_fails(smoke_data, tag, column):
    fails = failures_after(smoke_data, SEMI, lambda d: scale_column(d, tag, column, 1 + 1e-5))
    assert any(f.startswith(tag) for f in fails)


def test_assembled_constant_off_fails(smoke_data):
    def edit(d):
        d["tables"]["resum_leading"][1][0]["constant"] += 1e-10

    assert any("resum_leading" in f for f in failures_after(smoke_data, SEMI, edit))


def test_singular_slope_off_fails(smoke_data):
    def edit(d):
        d["tables"]["singular_scan"][0]["slope_abs_z4_singular"] = "-4.00001"

    assert any("slope_abs_z4" in f for f in failures_after(smoke_data, SEMI, edit))


@pytest.mark.parametrize("series", ["S", "W"])
def test_wrong_harmonic_coefficient_fails(smoke_data, series):
    def edit(d):
        d["outputs"]["d2_quartic_higgs"][series][2][0] = "1/7"

    assert any("g^2-free" in f for f in failures_after(smoke_data, SEMI, edit))


def test_wrong_fourth_order_coefficient_fails(smoke_data):
    def edit(d):
        d["outputs"]["d2_quartic"]["table"]["4"]["1"] = "1/181"

    assert any("k=4 coefficients" in f for f in failures_after(smoke_data, SEMI, edit))


def test_flagged_row_fails(smoke_data):
    def edit(d):
        d["tables"]["tf"][1][0]["flag"] = "FLAG"

    assert any("flagged" in f for f in failures_after(smoke_data, SEMI, edit))


def test_output_changing_between_rounds_fails(smoke_data):
    def edit(d):
        d["hashes"][1] = dict(d["hashes"][1], **{"tf.csv": "0" * 64})

    assert any("differ from round 0" in f for f in failures_after(smoke_data, SEMI, edit))


# -- route_crosscheck ----------------------------------------------------------------

ROUTE = "route_crosscheck"


@pytest.mark.parametrize("route", ["closed", "symbolic", "quadrature"])
def test_route_off_by_1e5_fails(smoke_data, route):
    def edit(d):
        for r in d["tables"]["compare_0"][1]:
            r[f"z{int(r['k'])}_{route}"] *= 1 + 1e-5

    assert any("routes" in f for f in failures_after(smoke_data, ROUTE, edit))


def test_closed_route_off_reference_fails(smoke_data):
    """A closed value off by 1e-7 agrees with the other routes within 1e-6
    but not with mpmath."""
    def edit(d):
        for r in d["tables"]["compare_0"][1]:
            r[f"z{int(r['k'])}_closed"] *= 1 + 1e-7

    fails = failures_after(smoke_data, ROUTE, edit)
    assert any("closed route" in f for f in fails)
    assert not any("routes" in f for f in fails)


def test_raw_3d_off_radial_fails(smoke_data):
    def edit(d):
        d["outputs"]["n3_pair_0"]["raw"] *= 1 + 1e-5

    assert any("n3_pair_0" in f for f in failures_after(smoke_data, ROUTE, edit))


# -- spectral_ground_truth -----------------------------------------------------------

SPEC = "spectral_ground_truth"


def test_harmonic_z_off_fails(smoke_data):
    fails = failures_after(
        smoke_data, SPEC, lambda d: scale_column(d, "spectrum_harmonic", "z_spectral", 1 + 1e-9)
    )
    assert any("spectrum_harmonic" in f for f in fails)


def test_inverted_bracket_fails(smoke_data):
    def edit(d):
        r = d["tables"]["spectrum_planar"][1][0]
        r["z_lo"], r["z_hi"] = r["z_hi"] + 1.0, r["z_lo"]

    assert any("bracket" in f for f in failures_after(smoke_data, SPEC, edit))


def test_planar_level_off_fails(smoke_data):
    def edit(d):
        d["levels"]["spectrum_planar"][1][0] *= 1 + 1e-5

    assert any("finite differences" in f for f in failures_after(smoke_data, SPEC, edit))


def test_planar_z_off_levels_fails(smoke_data):
    fails = failures_after(
        smoke_data, SPEC, lambda d: scale_column(d, "spectrum_planar", "z_spectral", 1 + 1e-5)
    )
    assert any("saved levels" in f for f in fails)


def test_study_slope_off_fails(smoke_data):
    def edit(d):
        d["tables"]["spectrum_study"][0]["slope"] = "1.2"

    assert any("leading-log slope" in f for f in failures_after(smoke_data, SPEC, edit))


def test_parity_sectors_disagreeing_fails(smoke_data):
    def edit(d):
        d["outputs"]["spectral_n3"]["sectors"]["010"][0] *= 1 + 1e-5

    assert any("parity sectors" in f for f in failures_after(smoke_data, SPEC, edit))


def test_level_rising_under_enlargement_fails(smoke_data):
    def edit(d):
        d["outputs"]["spectral_n3"]["enlarged"][0] += 1e-3

    assert any("rose" in f for f in failures_after(smoke_data, SPEC, edit))


# -- the command end to end ----------------------------------------------------------


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--out", "/dev/null"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run(name):
    res = _run_cli("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0",
                   "--smoke")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_smoke_trace_reports_every_layer_metric():
    res = _run_cli("--workload", "semiclassical_series", "--seed", "3", "--seconds", "1",
                   "--trace", "1", "--smoke")
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in _spec()["per_layer"]}
    # the full-size batches keep over 99% of the traced time inside spans;
    # in a smoke batch, CLI argument parsing outside cli.run weighs more
    assert res["metrics"]["trace.self_s_share"]["value"] >= 0.8
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
