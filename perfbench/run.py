"""Benchmark entry point: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload funnel --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
Each repetition runs in a fresh interpreter (``rep.py``).  An untraced
run (``--trace 0``) repeats the workload until the next repetition
would end after ``--seconds`` (at least three times) and reports the
median of each end-to-end metric.  A traced run (``--trace 1``) makes
one untraced and one traced repetition and reports the per-layer
metrics of the traced one, plus the tracing overhead: traced wall time
minus untraced wall time.

Every repetition checks the program's outputs, and all repetitions of
one seed must agree on the simulated statistics (virtual time, events,
messages and a digest of the per-rank results).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
everything was correct.  Full records, including the traced run's
spans, are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, quantile  # noqa: E402

#: an untraced run repeats at least this often (set-up medians and the
#: identity check need several repetitions)
MIN_REPS = 3

#: the whole run must end within this many seconds
TIME_LIMIT = 170.0


def _commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _repetition(args, index: int, trace: int, timeout: float):
    """Run one repetition; returns its record, or None if it failed."""
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}-{index}")
    out = workdir + ".json"
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--scale", args.scale,
           "--workdir", workdir, "--out", out]
    # own process group, so a timed-out repetition's pool workers die with it
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
        print(f"repetition {index} exceeded {timeout:.0f}s", file=sys.stderr)
    try:
        if code != 0:
            return None
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(out):
            os.remove(out)


def _end_to_end(records) -> dict:
    """Medians over the repetitions."""
    def med(f):
        return statistics.median([f(r) for r in records])

    return {
        "setup_s": med(lambda r: r["setup_s"]),
        "wall_s": med(lambda r: r["wall_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
        "cells_per_s": med(lambda r: r["cells"] / (r["setup_s"]
                                                   + r["wall_s"])),
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=("funnel", "halo", "study"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="problem size; 'small' is for the self-test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    start = time.perf_counter()
    records, failed_reps, index = [], 0, 0
    plan = [0, 1] if args.trace else None
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if plan is not None:
            if index == len(plan):
                break
            trace = plan[index]
        else:
            if index >= MIN_REPS and elapsed + last > args.seconds:
                break
            trace = 0
        if elapsed + last > TIME_LIMIT:
            print("time limit reached before all repetitions ran",
                  file=sys.stderr)
            failed_reps += 1
            break
        rep_start = time.perf_counter()
        rec = _repetition(args, index, trace, TIME_LIMIT - elapsed)
        last = time.perf_counter() - rep_start
        index += 1
        if rec is None:
            failed_reps += 1
        else:
            rec["traced"] = trace
            records.append(rec)

    errors = [e for rec in records for e in rec["errors"]]
    attempted = sum(rec["attempted"] for rec in records) + failed_reps
    failed = len(errors) + failed_reps
    sims = {json.dumps(rec["sim"], sort_keys=True) for rec in records}
    if len(sims) > 1:
        errors.append("repetitions of one seed disagree on the simulated "
                      "statistics")
        failed += 1
        attempted += 1
    for sim in sorted(sims):
        s = json.loads(sim)
        print(f"sim seed={args.seed} virtual_s={s['virtual_s']!r} "
              f"events={s['events']} messages={s['messages']} "
              f"digest={s['digest']}")
    for error, count in collections.Counter(errors).items():
        print(f"check failed ({count}x): {error}")

    metrics = {}
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if args.trace and untraced and traced:
        values = dict(traced[0]["per_layer"])
        values["trace.overhead_s"] = traced[0]["wall_s"] - untraced[0]["wall_s"]
        # warm latencies are taken untraced; see perfbench/README.md
        warm = untraced[0]["warm_ms"]
        values["study.warm_p50_ms"] = quantile(warm, 0.50) if warm else 0.0
        values["study.warm_p95_ms"] = quantile(warm, 0.95) if warm else 0.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
    elif not args.trace and untraced:
        values = _end_to_end(untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    correct = failed == 0 and bool(metrics)

    meta = {"workload": args.workload, "seed": args.seed,
            "scale": args.scale, "trace": args.trace,
            "repetitions": len(records), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": _commit(),
            "code_version": records[0]["code_version"] if records else None}
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": max(1, attempted),
              "failed": failed, "metrics": metrics}
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{args.scale}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"result": result, "meta": meta, "errors": errors,
                   "repetitions": records}, fh)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
