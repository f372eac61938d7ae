"""Metric names, units and how each is computed from a repetition.

``BENCHMARK.json`` at the repository root lists the same names and
units; ``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

#: end-to-end metrics, printed by an untraced run (``--trace 0``)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cells_per_s", "1/s"),
)

#: per-layer metrics, printed by a traced run (``--trace 1``)
PER_LAYER = (
    ("engine.events", "count"),
    ("engine.run_s", "s"),
    ("engine.us_per_event", "us"),
    ("noise.inflate_calls", "count"),
    ("noise.busy_s", "s"),
    ("matching.busy_s", "s"),
    ("matching.peak_unexpected", "count"),
    ("matching.peak_posted", "count"),
    ("network.messages", "count"),
    ("network.bytes", "B"),
    ("fabrics.transfer_calls", "count"),
    ("fabrics.busy_s", "s"),
    ("comm.busy_s", "s"),
    ("comm.world_build_s", "s"),
    ("collectives.calls", "count"),
    ("collectives.busy_s", "s"),
    ("parallel.windows", "count"),
    ("parallel.merge_batches", "count"),
    ("parallel.boundary_messages", "count"),
    ("parallel.reverse_wakes", "count"),
    ("mpistream.elements", "count"),
    ("mpistream.busy_s", "s"),
    ("api.graph_compile_s", "s"),
    ("study.executed", "count"),
    ("study.cached", "count"),
    ("study.cache_store_s", "s"),
    ("study.cache_load_us", "us"),
    ("study.job_key_us", "us"),
    ("study.journal_s", "s"),
    ("study.pool_start_s", "s"),
    ("study.warm_p50_ms", "ms"),
    ("study.warm_p95_ms", "ms"),
    ("cell.recovery_s", "s"),
    ("cell.recovery_events", "count"),
    ("cell.cosim_s", "s"),
    ("cell.cosim_events", "count"),
    ("cell.pio_s", "s"),
    ("cell.pio_events", "count"),
    ("cell.pcomm_s", "s"),
    ("cell.pcomm_events", "count"),
    ("cell.compiled_s", "s"),
    ("cell.compiled_events", "count"),
    ("sim.virtual_s", "s"),
    ("sim.events", "count"),
    ("sim.messages", "count"),
    ("trace.overhead_s", "s"),
)

#: study cell app -> the ``cell.*`` kind it is reported under
#: (``mapreduce.decoupled`` cells run with ``machine.compile``)
CELL_KINDS = {
    "cg.halo_recovery": "recovery",
    "cosim.hub": "cosim",
    "ipic3d.pio_decoupled": "pio",
    "ipic3d.pio_reference": "pio",
    "ipic3d.pcomm_decoupled": "pcomm",
    "mapreduce.decoupled": "compiled",
}

#: gauges a repetition derives from its simulation results
#: (name -> how values from several simulations combine)
GAUGES = {
    "engine.events": "sum",
    "network.messages": "sum",
    "network.bytes": "sum",
    "matching.peak_unexpected": "max",
    "matching.peak_posted": "max",
    "parallel.windows": "sum",
    "parallel.merge_batches": "sum",
    "parallel.boundary_messages": "sum",
    "parallel.reverse_wakes": "sum",
}


def add_sim_gauges(gauges: Dict[str, float], sim) -> None:
    """Fold one :class:`~repro.simmpi.launcher.SimResult` into the
    per-layer gauges (peaks are maxima, everything else adds up)."""
    values = {"engine.events": sim.events,
              "network.messages": sim.messages,
              "network.bytes": sim.bytes}
    world = sim.extras.get("world")
    if world is not None:
        values["matching.peak_unexpected"] = max(
            mb.peak_unexpected for mb in world.mailboxes)
        values["matching.peak_posted"] = max(
            mb.peak_posted for mb in world.mailboxes)
    par = sim.extras.get("parallel")
    if par is not None:
        for key in ("windows", "merge_batches", "boundary_messages",
                    "reverse_wakes"):
            values["parallel." + key] = par[key]
    merge_gauges(gauges, values)


def merge_gauges(into: Dict[str, float], other: Dict[str, float]) -> None:
    for name, value in other.items():
        if GAUGES[name] == "max":
            into[name] = max(into.get(name, 0), value)
        else:
            into[name] = into.get(name, 0) + value


def layer_metrics(layers: Dict[str, List[float]], gauges: Dict[str, float],
                  cells: Sequence[Dict[str, Any]], sim: Dict[str, Any],
                  cached: int) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``.

    ``layers`` maps a traced layer to ``[calls, total_s, self_s]``; a
    layer the workload never entered reads 0.
    """
    def calls(layer):
        return layers.get(layer, [0, 0.0, 0.0])[0]

    def total(layer):
        return layers.get(layer, [0, 0.0, 0.0])[1]

    def busy(layer):
        return layers.get(layer, [0, 0.0, 0.0])[2]

    def per_call_us(layer):
        n = calls(layer)
        return busy(layer) / n * 1e6 if n else 0.0

    events = gauges.get("engine.events", 0)
    out: Dict[str, float] = {name: gauges.get(name, 0) for name in GAUGES}
    out.update({
        "engine.run_s": total("engine"),
        "engine.us_per_event": (total("engine") / events * 1e6
                                if events else 0.0),
        "noise.inflate_calls": calls("noise"),
        "noise.busy_s": busy("noise"),
        "matching.busy_s": busy("matching"),
        "fabrics.transfer_calls": calls("fabrics"),
        "fabrics.busy_s": busy("fabrics"),
        "comm.busy_s": busy("comm"),
        "comm.world_build_s": total("comm.world_build"),
        "collectives.calls": calls("collectives"),
        "collectives.busy_s": busy("collectives"),
        "mpistream.elements": calls("mpistream.send"),
        "mpistream.busy_s": busy("mpistream.send") + busy("mpistream.recv"),
        "api.graph_compile_s": total("api.graph_compile"),
        "study.executed": len(cells),
        "study.cached": cached,
        "study.cache_store_s": total("study.cache_store"),
        "study.cache_load_us": per_call_us("study.cache_load"),
        "study.job_key_us": per_call_us("study.job_key"),
        "study.journal_s": total("study.journal"),
        "study.pool_start_s": total("study.pool_start"),
        "sim.virtual_s": sim["virtual_s"],
        "sim.events": sim["events"],
        "sim.messages": sim["messages"],
    })
    for kind in sorted(set(CELL_KINDS.values())):
        out[f"cell.{kind}_s"] = 0.0
        out[f"cell.{kind}_events"] = 0
    for cell in cells:
        kind = CELL_KINDS[cell["app"]]
        out[f"cell.{kind}_s"] += cell["host_s"]
        out[f"cell.{kind}_events"] += cell["events"]
    return out


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile: at least ``(1 - q) * n - 1`` samples
    lie above it."""
    ordered = sorted(values)
    rank = max(1, -(-int(round(q * 1000)) * len(ordered) // 1000))
    return ordered[rank - 1]

