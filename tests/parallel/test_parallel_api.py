"""The declarative front-end's parallel opt-in: graph-derived shards,
bit-identical results, and the explain() partition report."""

from collections import Counter

import pytest

from repro.api import GraphError, Simulation, StreamGraph
from repro.bench.perf import result_digest
from repro.mpistream import RunningStats
from repro.simmpi import quiet_testbed

NPROCS = 16
ROUNDS = 12


def _graph(eager=False):
    def compute_body(ctx):
        with ctx.producer("samples") as out:
            for rnd in range(ROUNDS):
                workload = 0.01 * (1 + (ctx.comm.rank + rnd) % 4)
                yield from ctx.compute(workload, label="calculation")
                yield from out.send(workload)

    return (StreamGraph("par-quickstart")
            .stage("compute", fraction=15 / 16, body=compute_body)
            .stage("analyze", fraction=1 / 16)
            .flow("samples", src="compute", dst="analyze",
                  operator=RunningStats, eager=eager))


def test_simulation_parallel_is_bit_identical():
    serial = Simulation(NPROCS, machine="beskow").run(_graph())
    par = Simulation(NPROCS, machine="beskow", parallel=2).run(_graph())
    assert par.elapsed == serial.elapsed
    assert par.messages == serial.messages
    assert par.bytes == serial.bytes
    assert par.stage_values("analyze") == serial.stage_values("analyze")


def test_graph_groups_drive_the_partition():
    """With a compiled plan in hand, shards cut on group blocks — the
    analyze stage never straddles a lane."""
    report = Simulation(NPROCS, machine="beskow", parallel=2) \
        .run(_graph())
    stats = report.sim.extras["parallel"]
    assert stats["workers"] == 2
    assert sorted(stats["shard_sizes"]) == [1, 15]


def test_explain_reports_partition_and_window():
    sim = Simulation(NPROCS, machine="beskow", parallel=2)
    text = sim.explain(_graph())
    assert "parallel:" in text
    assert "shards: 2" in text
    assert "lookahead" in text
    # serial simulations keep the explain output unchanged
    assert "parallel:" not in Simulation(NPROCS,
                                         machine="beskow").explain(_graph())


def test_explain_warns_on_eager_cut():
    text = Simulation(NPROCS, machine="beskow",
                      parallel=2).explain(_graph(eager=True))
    assert "warning: shard cut severs eager flow 'samples'" in text
    # the rendezvous flow draws no warning
    quiet = Simulation(NPROCS, machine="beskow",
                       parallel=2).explain(_graph())
    assert "warning" not in quiet


def test_eager_cut_still_bit_identical():
    """The warning is advisory: even an all-eager severed flow merges
    identically to serial."""
    serial = Simulation(NPROCS, machine="beskow").run(_graph(eager=True))
    par = Simulation(NPROCS, machine="beskow",
                     parallel=2).run(_graph(eager=True))
    assert par.elapsed == serial.elapsed
    assert par.stage_values("analyze") == serial.stage_values("analyze")


def _sizable_graph():
    def compute_body(ctx):
        with ctx.producer("samples") as out:
            for rnd in range(4):
                yield from ctx.compute(0.01 * (1 + rnd % 2))
                yield from out.send(1.0)

    return (StreamGraph("sizable")
            .stage("compute", fraction=0.75, body=compute_body, work=0.9)
            .stage("analyze", fraction=0.25, work=0.1)
            .flow("samples", src="compute", dst="analyze",
                  operator=RunningStats))


def test_parallel_runs_the_auto_sized_plan():
    """auto_alpha resizes the plan; the parallel run must execute the
    same plan its report (and its shards) claim, exactly like serial."""
    compile = {"auto_alpha": True}
    serial = Simulation(8, quiet_testbed(), compile=compile) \
        .run(_sizable_graph())
    par = Simulation(8, quiet_testbed(), compile=compile, parallel=2) \
        .run(_sizable_graph())
    sizes = {name: g.size for name, g in par.plan.groups.items()}
    assert sizes == {"compute": 7, "analyze": 1}
    assert Counter(r.stage for r in par.records) == sizes
    assert Counter(r.stage for r in serial.records) == sizes
    assert result_digest(par.sim) == result_digest(serial.sim)
    assert par.elapsed == serial.elapsed
    # explain's partition block cuts the same plan the run shards on
    text = Simulation(8, quiet_testbed(), compile=compile,
                      parallel=2).explain(_sizable_graph())
    assert "lane 0: ranks 0-6 (7 ranks)" in text
    assert sorted(par.sim.extras["parallel"]["shard_sizes"]) == [1, 7]


def test_invalid_parallel_is_a_graph_error():
    with pytest.raises(GraphError, match="parallel"):
        Simulation(NPROCS, parallel={"wrokers": 2})
    with pytest.raises(GraphError, match="parallel"):
        Simulation(NPROCS, parallel=0)
