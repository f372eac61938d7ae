"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per timed repetition so that every
repetition pays its own set-up: the apps memoize rank files, chunk
sketches and compiled graphs across calls, so a second run in the same
process would be flattered.  Set-up is timed from the first line of
this script, before ``repro`` is imported.

    python3 perfbench/rep.py --workload funnel --seed 1 --trace 0 \\
        --scale full --workdir DIR --out FILE

Writes one JSON record to ``--out``; the exit code is 0 whenever the
record was written, also when a correctness check failed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _worker_cells(workdir: str):
    from tracing import read_worker_files

    cells = []
    for path in read_worker_files(workdir, "cells-"):
        with open(path) as fh:
            cells.extend(json.loads(line) for line in fh if line.strip())
    return cells


def _peak_rss_mb(cells) -> float:
    """This process's peak plus each pool worker's peak."""
    from tracing import peak_rss_mb

    workers = {}
    for cell in cells:
        if cell["pid"] != os.getpid():
            workers[cell["pid"]] = max(workers.get(cell["pid"], 0.0),
                                       cell["rss_mb"])
    return peak_rss_mb() + sum(workers.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    from tracing import Stamps, Tracer, install_stamps, install_tracing

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracing(tracer)
    stamps = Stamps(args.workdir)
    install_stamps(stamps, tracer)

    from workloads import SIZES, WORKLOADS

    rec = WORKLOADS[args.workload](
        args.seed, SIZES[args.workload][args.scale], stamps,
        tracer.gauges if tracer is not None else None)

    from repro.study import code_version

    outcome = rec["outcome"]
    setup_end = rec["setup_end"]
    if setup_end is None:
        outcome.check(False, "the run never reached its first event")
        setup_end = rec["t_end"]
    cells = _worker_cells(args.workdir)
    warm_ms = [s * 1e3 for s in rec["warm_s"]]
    out = {
        "setup_s": setup_end - T0,
        "wall_s": rec["t_end"] - setup_end,
        "peak_rss_mb": _peak_rss_mb(cells),
        "cells": rec["cells"],
        "warm_ms": warm_ms,
        "attempted": outcome.attempted,
        "errors": outcome.errors,
        "sim": rec["sim"],
        "code_version": code_version(),
    }
    if tracer is not None:
        from metrics import layer_metrics, merge_gauges
        from tracing import merge_layers, read_worker_files

        snap = tracer.snapshot()
        layers, gauges = snap["layers"], snap["gauges"]
        workers = {}
        for path in read_worker_files(args.workdir, "layers-"):
            with open(path) as fh:
                workers[os.path.basename(path)] = worker = json.load(fh)
            merge_layers(layers, worker["layers"])
            merge_gauges(gauges, worker["gauges"])
        out["per_layer"] = layer_metrics(layers, gauges, cells, rec["sim"],
                                         rec["cached"])
        out["trace"] = {"layers": layers, "gauges": gauges,
                        "spans": snap["spans"], "workers": workers,
                        "cells": cells}
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
