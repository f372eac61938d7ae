"""The benchmark's workloads: inputs from a seed, one checked run each.

* ``funnel`` — the Fig. 5 decoupled MapReduce reduce funnel through
  ``Simulation(P, machine).run(build_graph(cfg))``: noisy Beskow, flat
  fabric, default interpreted serial engine.  Exercises the engine, the
  noise model, the master's unexpected-message queue and mpistream.
* ``halo`` — the Fig. 6 reference CG (``cg_blocking``: blocking halo
  exchange and allreduce each iteration) on noisy Beskow with a radix-2
  fat tree and one ``repro.parallel`` lane per CPU.  The only workload
  on the parallel engine, a non-flat fabric and collectives; it uses no
  mpistream.
* ``study`` — a generated 48-cell study run cold with
  ``run_study(jobs=nproc)`` into a fresh cache, then re-requested warm
  from that cache.  The only workload on ``repro.faults``,
  ``repro.cosim``, particle I/O and ``repro.compile``.

Each function returns the repetition's record: phase times, the warm
latencies (``study`` only), the correctness tally and the simulated
statistics whose identity across repetitions of one seed run.py
checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from metrics import add_sim_gauges

_clock = time.perf_counter

#: problem sizes; ``small`` is the self-test's reduced size
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "funnel": {"full": {"nprocs": 1024, "nchunks": 64},
               "small": {"nprocs": 64, "nchunks": 8}},
    "halo": {"full": {"nprocs": 512, "iterations": 20},
             "small": {"nprocs": 64, "iterations": 3}},
    # warm: re-request the study at least this often and for at least
    # this many seconds (cache latency drifts with the host's disk load,
    # so the samples should span a while); of 240 samples, 12 lie above
    # the nearest-rank p95
    "study": {"full": {"points": [32, 64, 96, 128], "warm": (240, 1.0)},
              "small": {"points": [16, 24], "warm": (40, 0.0)}},
}

#: the Fig. 5 decoupled-reduce fraction the funnel runs at
FUNNEL_ALPHA = 1 / 16

#: the Beskow noise model switched off
NOISE_FREE = {"persistent_skew": 0.0, "quantum_fraction": 0.0}

#: crash of the last rank (a helper-group tail) during the recovery cells
RECOVERY_CRASH = {"events": [{"kind": "crash", "time": 0.01, "rank": -1}]}


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


class Outcome:
    """Correctness tally of one repetition."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(what)


def _sim_stats(sim) -> Dict[str, Any]:
    from repro.bench.perf import result_digest
    return {"virtual_s": sim.elapsed, "events": sim.events,
            "messages": sim.messages, "digest": result_digest(sim)}


def _serve_warm(study, cache_dir: str, cold: List[Any],
                requests: Tuple[int, float], outcome: Outcome) -> List[float]:
    """Re-request ``study`` (see :data:`SIZES`); each request must be
    served entirely from the cache with the cold values and run
    nothing."""
    from repro.study import run_study, simulations_executed

    executed = simulations_executed()
    latencies: List[float] = []
    least, seconds = requests
    until = _clock() + seconds
    while len(latencies) < least or _clock() < until:
        start = _clock()
        rs = run_study(study, jobs=nproc(), cache=cache_dir)
        latencies.append(_clock() - start)
        outcome.check(
            rs.cached == len(rs.results) == len(cold)
            and [r.value for r in rs.results] == cold
            and simulations_executed() == executed,
            "warm request not served from the cache with the cold values")
    return latencies


def run_funnel(seed: int, size: Dict[str, Any], stamps,
               gauges: Optional[Dict[str, float]]) -> Dict[str, Any]:
    from repro.api import Simulation
    from repro.apps.mapreduce import MapReduceConfig
    from repro.apps.mapreduce.common import rank_file
    from repro.apps.mapreduce.decoupled import build_graph
    from repro.simmpi.config import beskow

    nprocs, nchunks = size["nprocs"], size["nchunks"]
    cfg = MapReduceConfig(nprocs=nprocs, nchunks=nchunks,
                          alpha=FUNNEL_ALPHA, seed=seed)
    report = Simulation(nprocs, beskow(noise_seed=seed)).run(
        build_graph(cfg))
    outcome = Outcome()
    records = report.records
    outcome.check(len(records) == nprocs
                  and all(r is not None and r.result is not None
                          for r in records),
                  "a funnel rank returned no value")
    expected = sum(nchunks * int(rank_file(cfg, i).nwords / nchunks)
                   for i in range(nprocs))
    master = [r for r in records if r is not None and r.stage == "master"]
    outcome.check(len(master) == 1
                  and master[0].result["result"].words == expected,
                  "master word total differs from the corpus total")
    t_end = _clock()

    if gauges is not None:
        add_sim_gauges(gauges, report.sim)
    return {"setup_end": stamps.first_event, "t_end": t_end, "cells": 1,
            "warm_s": [], "outcome": outcome, "sim": _sim_stats(report.sim),
            "cached": 0}


def run_halo(seed: int, size: Dict[str, Any], stamps,
             gauges: Optional[Dict[str, float]]) -> Dict[str, Any]:
    from repro.api import Simulation
    from repro.apps.cg import CGConfig, cg_blocking
    from repro.simmpi.config import TopologyConfig, beskow

    nprocs, iterations = size["nprocs"], size["iterations"]
    cfg = CGConfig(nprocs=nprocs, iterations=iterations, seed=seed)
    report = Simulation(
        nprocs, beskow(noise_seed=seed),
        topology=TopologyConfig(kind="fat_tree", radix=2),
        parallel=nproc()).run(cg_blocking, args=(cfg,))
    outcome = Outcome()
    values = report.sim.values
    outcome.check(len(values) == nprocs
                  and all(v is not None and v["iterations"] == iterations
                          for v in values),
                  "a CG rank did not report the configured iterations")
    t_end = _clock()

    if gauges is not None:
        add_sim_gauges(gauges, report.sim)
    return {"setup_end": stamps.first_event, "t_end": t_end, "cells": 1,
            "warm_s": [], "outcome": outcome, "sim": _sim_stats(report.sim),
            "cached": 0}


def build_study(seed: int, points: List[int]):
    """The generated study: six cell kinds, each at every point of the
    ``nprocs`` axis under two seeds (48 jobs at four points)."""
    from repro.study import Study

    noisy = {"preset": "beskow"}
    noise = {"noise": "machine.noise.seed"}
    steps = {"steps": 4, "seed": seed}
    return (
        Study("perfbench-study")
        .axis("nprocs", points)
        .axis("noise", [seed, seed + 1])
        .cell("cosim n{noise}", "cosim.hub",
              params={"elements_per_producer": 12},
              machine={**noisy, "cosim": {"size": 2}}, bind=noise)
        .cell("recovery n{noise}", "cg.halo_recovery",
              params={"elements_per_producer": 60},
              machine={**noisy, "faults": RECOVERY_CRASH}, bind=noise)
        .cell("pio-decoupled n{noise}", "ipic3d.pio_decoupled",
              params=steps, machine=noisy, bind=noise)
        .cell("pio-reference n{noise}", "ipic3d.pio_reference",
              params=steps, args=[False], machine=noisy, bind=noise)
        .cell("pcomm-decoupled n{noise}", "ipic3d.pcomm_decoupled",
              params=steps, machine=noisy, bind=noise)
        # the compiler binds static send schedules only on a noise-free
        # machine, so this cell varies the corpus seed instead
        .cell("mapreduce-compiled s{noise}", "mapreduce.decoupled",
              params={"nchunks": 16},
              machine={**noisy, "noise": NOISE_FREE, "compile": True},
              bind={"noise": "seed"})
        # a failed cell is counted by the checks, not raised
        .with_policy({"on_error": "keep_going"})
    )


def run_study_workload(seed: int, size: Dict[str, Any], stamps,
                       gauges: Optional[Dict[str, float]]) -> Dict[str, Any]:
    """The cold sweep is timed; pool workers report the per-layer
    gauges themselves (see ``tracing.install_stamps``)."""
    from repro.study import run_study

    study = build_study(seed, size["points"])
    cache_dir = os.path.join(stamps.workdir, "cache")
    rs = run_study(study, jobs=nproc(), cache=cache_dir)
    outcome = Outcome()
    for r in rs.results:
        outcome.check(r.status == "ok" and not r.cached,
                      f"cell {r.series!r} at P={r.x} ended {r.status}: "
                      f"{r.error}")
    t_end = _clock()

    cold = [r.value for r in rs.results]
    # a re-request re-executes every cell that failed cold, so without a
    # complete cold result there is nothing warm to serve; the failed
    # cells are already counted
    warm = (_serve_warm(study, cache_dir, cold, size["warm"], outcome)
            if rs.complete else [])
    digest = hashlib.sha256(json.dumps(
        [[r.series, r.x, r.value, r.sim] for r in rs.results],
        sort_keys=True).encode()).hexdigest()
    sims = [r.sim for r in rs.results]
    return {"setup_end": stamps.first_dispatch, "t_end": t_end,
            "cells": len(rs.results), "warm_s": warm, "outcome": outcome,
            "sim": {"virtual_s": sum(s.get("elapsed", 0.0) for s in sims),
                    "events": sum(s.get("events", 0) for s in sims),
                    "messages": sum(s.get("messages", 0) for s in sims),
                    "digest": digest},
            "cached": len(warm) * len(cold)}


WORKLOADS = {
    "funnel": run_funnel,
    "halo": run_halo,
    "study": run_study_workload,
}
