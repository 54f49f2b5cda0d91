#!/usr/bin/env python3
"""ymqm benchmark: three workloads, each in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE]

NAME is ``semiclassical_series``, ``route_crosscheck``,
``spectral_ground_truth`` or ``all``.  A run:

1. byte-compiles ``src`` (the build of this pure-Python program);
2. times ``SETUP_PROBES`` fresh interpreters from spawn until ``ymqm.cli``
   is imported, plus the workload process itself (``setup_s``);
3. runs the workload process (``worker.py``), which repeats the seeded
   batch in whole rounds for about S seconds and reports each round's wall
   time and its own peak resident memory;
4. checks every output against references computed here, after the
   workload process has exited (``checks.py``, ``refs.py``).

With ``--trace 1`` the workload process alternates untraced and traced
rounds, and the per-layer metrics of ``BENCHMARK.json`` are reported
instead of the end-to-end ones.  Every metric is printed with its unit;
the same record is written as JSON to ``--out`` (default
``perfbench/out/<workload>-seed<N>-trace<T>.json``).  The last line of
standard output is the summary object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from worker import CAL_REF_S  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

SETUP_PROBES = 4
MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 150
#: thread caps, at or below the 2 cores the reference figures come from
THREADS = "1"


class BenchError(RuntimeError):
    pass


def bench_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "YMQM_THREADS"):
        env[var] = THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def _spawn_ready(argv, env, stderr):
    """Start a worker; returns the process, the seconds until it printed
    ``ready`` and the calibration time it printed next."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=ROOT, text=True
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    try:
        if line.strip() != "ready":
            raise ValueError(line)
        cal = float(proc.stdout.readline())
    except ValueError:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start: {argv}")
    return proc, elapsed, cal


def _finish(proc, timeout):
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")


def import_times(env):
    """Self import time (s) of the numpy, scipy and ymqm packages when
    ``ymqm.cli`` is imported in a fresh interpreter (``-X importtime``)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ymqm.cli"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60, check=True,
    )
    totals = {"numpy": 0.0, "scipy": 0.0, "ymqm": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us * 1e-6
    return {f"import.{k}_s": v for k, v in totals.items()}


def layer_metrics(rounds, env):
    """Per-layer values: medians over the traced rounds, the tracing
    overhead (traced minus untraced ``batch_s``, both at the reference
    speed), and the import times."""
    untraced = [r["batch_s"] for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    per_round = []
    for r in traced:
        m = dict(r["layers"])
        computed = m.get("spectral.levels_computed", 0)
        m["spectral.converged_fraction"] = (
            m.get("spectral.levels_converged", 0) / computed if computed else 0.0
        )
        m["trace.self_s_share"] = (
            sum(v for k, v in r["layers"].items() if k.endswith(".self_s")) / r["wall_s"]
        )
        m["trace.batch_s"] = r["wall_s"]
        m["trace.overhead_s"] = r["batch_s"]  # minus the untraced median, below
        per_round.append(m)
    names = set().union(*per_round)
    values = {n: statistics.median(m.get(n, 0) for m in per_round) for n in names}
    values["trace.overhead_s"] -= statistics.median(untraced)
    values.update(import_times(env))
    return values


def run_worker(name, seed, seconds, trace, smoke=False):
    """Time the set-up probes and run the workload process.  Returns
    ``(ops, result, setup_samples, run_dir)``; the caller removes ``run_dir``."""
    if not (SRC / "ymqm" / "__init__.py").is_file():
        raise BenchError(f"no ymqm sources under {SRC}")
    env = bench_env()
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    ops = make_ops(name, seed, smoke)
    run_dir = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps({
        "ops": ops, "run_dir": str(run_dir), "seconds": seconds, "trace": bool(trace),
        # two rounds suffice to compare outputs and, traced, to pair an
        # untraced round with a traced one
        "min_rounds": 2 if smoke or trace else MIN_ROUNDS,
    }))
    worker = [sys.executable, str(HERE / "worker.py")]
    setup = []  # (wall seconds to ready, calibration seconds)
    for _ in range(SETUP_PROBES):
        proc, elapsed, cal = _spawn_ready(worker + ["--probe"], env, subprocess.DEVNULL)
        _finish(proc, 60)
        setup.append((elapsed, cal))
    with open(run_dir / "worker.err", "w") as err:
        proc, elapsed, cal = _spawn_ready(worker + ["--spec", str(spec_path)], env, err)
        _finish(proc, WORKER_TIMEOUT_S)
    setup.append((elapsed, cal))
    return ops, json.loads((run_dir / "result.json").read_text()), setup, run_dir


def run_workload(name, seed, seconds, trace, smoke=False):
    """One run of one workload; returns the record that is printed and saved."""
    ops, result, setup, run_dir = run_worker(name, seed, seconds, trace, smoke)
    try:
        import checks

        failures = checks.check(name, checks.load_data(ops, result))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    end_to_end, per_layer = metric_specs()
    if trace:
        values = layer_metrics(result["rounds"], bench_env())
        specs = per_layer
    else:
        values = {
            "setup_s": statistics.median(w * CAL_REF_S / c for w, c in setup),
            "batch_s": statistics.median(r["batch_s"] for r in result["rounds"]),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        specs = end_to_end
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "poly_backend": result["poly_backend"],
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "python": sys.version.split()[0],
        "cal_ref_s": CAL_REF_S,
        "rounds": [{k: r[k] for k in ("batch_s", "wall_s", "op_s", "cal_s", "traced")}
                   for r in result["rounds"]],
        "setup_samples": [{"wall_s": w, "cal_s": c} for w, c in setup],
        "correct": not failures,
        "check_failures": failures,
        "operation_failures": result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {
            s["name"]: {"value": values.get(s["name"], 0), "unit": s["unit"]} for s in specs
        },
    }
    return record


def print_record(rec):
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"poly_backend {rec['poly_backend']}  nproc {rec['nproc']}  "
          f"threads {rec['threads']}  rounds {len(rec['rounds'])}")
    for name, m in rec["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    walls = [r["wall_s"] for r in rec["rounds"] if not r["traced"]]
    print(f"  {'unscaled wall time per round, median':45s} {statistics.median(walls):.6g} s")
    print(f"  attempted {rec['attempted']}  failed {rec['failed']}  correct {rec['correct']}")
    for f in rec["operation_failures"]:
        print(f"OPERATION FAILED: round {f['round']} {f['tag']}: {f['detail']}", file=sys.stderr)
    for msg in rec["check_failures"]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="where to write the JSON record")
    ap.add_argument("--smoke", action="store_true",
                    help="small batches, for the benchmark's own tests")
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace, args.smoke)
                   for n in names]
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        print_record(rec)
    out = Path(args.out) if args.out else OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(records if len(records) > 1 else records[0], indent=1) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
