"""One workload process: import the program, signal readiness, then run
whole rounds of the workload's batch until the time budget is spent.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --spec RUN_DIR/spec.json

The parent (``run.py``) times the interval from spawning this process to
the ``ready`` line as one set-up sample; the next line is a calibration
time taken right after it.  With ``--probe`` the process exits there.
Otherwise the results land in ``RUN_DIR/result.json``.

The machine's speed drifts by up to a factor of two over tens of seconds,
so every timing is rescaled to a fixed speed: each operation's wall time
is multiplied by ``CAL_REF_S`` over the mean of the calibration times
measured just before and just after it.  Calibration time is not part of
any operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


#: the calibration loop's time at the reference speed (s)
CAL_REF_S = 0.0125
CAL_REPS = 5


def _cal_loop():
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return s


def calibrate():
    """Seconds one fixed pure-Python loop takes now: median of CAL_REPS."""
    times = []
    for _ in range(CAL_REPS):
        t = time.perf_counter()
        _cal_loop()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_rounds(spec):
    import ymqm.kernels  # noqa: F401  (loaded so the tracer can patch it)
    from ymqm import POLY_BACKEND

    from spans import Tracer
    from workloads import execute_op, summarize_kernels

    ops = spec["ops"]
    run_dir = Path(spec["run_dir"])
    tracer = Tracer() if spec["trace"] else None
    rounds = []
    failures = []
    start = time.perf_counter()
    while True:
        i = len(rounds)
        # traced runs alternate untraced and traced rounds, starting untraced
        traced = tracer is not None and i % 2 == 1
        round_dir = run_dir / f"r{i}"
        round_dir.mkdir(parents=True, exist_ok=True)
        payloads = None  # release the previous round's objects first
        if traced:
            tracer.reset()
            tracer.install()
        op_s = []
        cal_s = [calibrate()]
        try:
            payloads = []
            for op in ops:
                t_op = time.perf_counter()
                try:
                    ok, payload = execute_op(op, round_dir)
                except Exception as exc:  # a failed operation is counted, not fatal
                    ok, payload = False, {"error": f"{type(exc).__name__}: {exc}"}
                op_s.append(time.perf_counter() - t_op)
                cal_s.append(calibrate())
                if not ok:
                    failures.append({"round": i, "tag": op["tag"], "detail": _detail(payload)})
                payloads.append(payload)
        finally:
            if traced:
                tracer.uninstall()
        batch_s = sum(
            s * 2.0 * CAL_REF_S / (cal_s[j] + cal_s[j + 1]) for j, s in enumerate(op_s)
        )
        rec = {"batch_s": batch_s, "wall_s": sum(op_s), "op_s": op_s, "cal_s": cal_s,
               "traced": traced, "hashes": {}}
        for payload in payloads:
            for path in payload.get("files", ()):
                if Path(path).is_file():
                    rec["hashes"][Path(path).name] = _sha(path)
        if traced:
            rec["layers"] = tracer.snapshot()
        rounds.append(rec)
        n = len(rounds)
        elapsed = time.perf_counter() - start
        if n >= spec["min_rounds"] and elapsed * (n + 1) / n > spec["seconds"]:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # check data from the last round, read after the peak memory is taken
    outputs = {}
    for op, payload in zip(ops, payloads):
        if "error" in payload or op["kind"] in ("n3_pair", "spectral_n3"):
            outputs[op["tag"]] = payload
        elif op["kind"] == "kernels":
            outputs[op["tag"]] = summarize_kernels(payload)
        else:
            outputs[op["tag"]] = {"files": payload["files"]}
    return {
        "poly_backend": POLY_BACKEND,
        "rounds": rounds,
        "attempted": len(rounds) * len(ops),
        "failures": failures,
        "peak_rss_kb": peak_rss_kb,
        "outputs": outputs,
    }


def _detail(payload):
    if "error" in payload:
        return payload["error"]
    return f"exit status {payload.get('status')}: {payload.get('stderr', '').strip()[:300]}"


def main():
    import ymqm.cli  # noqa: F401  (the set-up being measured)

    print("ready", flush=True)
    print(calibrate(), flush=True)
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spec")
    args = ap.parse_args()
    if args.probe:
        return 0
    spec = json.loads(Path(args.spec).read_text())
    result = run_rounds(spec)
    Path(spec["run_dir"], "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
