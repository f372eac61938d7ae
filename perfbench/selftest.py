"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload listed in ``BENCHMARK.json`` at the small problem
size, untraced and traced, and checks that each run exits 0, reports
itself correct, and prints exactly the metric names and units that
``BENCHMARK.json`` lists for that mode.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", "small"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            code, result, stderr = _run(workload, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}\n"
                                f"{stderr[-2000:]}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(n for n in set(got) & set(expected[trace])
                               if got[n] != expected[trace][n])
                problems.append(f"{where}: missing {missing}, unexpected "
                                f"{extra}, wrong units {units}")
            print(f"ok   {where}: {len(got)} metrics, "
                  f"{result['attempted']} checks")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
