"""What the serial engine keeps per rank, and a digest pinned across
changes to it.

Per-rank state is what limits the simulated rank count, so these tests
pin its shape: stage bodies built once per compiled graph, producer
windows as plain lists trimmed in place (a bound send cursor shares the
very list), slotted communicators sharing their ranks tuple and name.
The pinned digest holds the simulated results of a 64-rank funnel fixed
while that state changes shape.
"""

from dataclasses import replace

from repro.api import Simulation, StreamGraph
from repro.api import graph as graph_mod
from repro.apps.mapreduce import MapReduceConfig
from repro.apps.mapreduce.decoupled import build_graph
from repro.bench.perf import result_digest
from repro.mpistream import Collector, attach, create_channel
from repro.simmpi import run
from repro.simmpi.config import beskow, quiet_testbed

#: result digest of the 64-rank, 8-chunk funnel at seed 1 on noisy
#: Beskow, taken before per-rank state was shrunk
FUNNEL_64_DIGEST = \
    "94bf3856c52d325bea84268742f847c2064e1276e6d0132c6555ae8f3f0140be"


def _send_body(ctx):
    with ctx.producer("samples") as out:
        for i in range(5):
            yield from ctx.compute(0.001)
            yield from out.send(i)


def test_stage_bodies_are_built_once_and_shared_by_every_rank(monkeypatch):
    seen = []
    real = graph_mod.run_decoupled

    def recording(world, plan, bodies):
        seen.append(bodies)
        return real(world, plan, bodies)

    monkeypatch.setattr(graph_mod, "run_decoupled", recording)
    graph = (StreamGraph()
             .stage("compute", fraction=0.75, body=_send_body)
             .stage("analyze", fraction=0.25)
             .flow("samples", "compute", "analyze", operator=Collector))
    compiled = graph.compile(8)
    Simulation(8).run(compiled)
    Simulation(8).run(compiled)
    assert len(seen) == 16
    assert all(bodies is compiled._bodies for bodies in seen)
    assert sorted(compiled._bodies) == ["analyze", "compute"]


def _quiet_no_osend():
    # o_send = 0: admission and hand-off happen at one instant, so the
    # window is observed right after each admission
    cfg = quiet_testbed()
    return replace(cfg, network=replace(cfg.network, o_send=0.0))


def _window_prog(comm):
    ch = yield from create_channel(comm, comm.rank == 0, comm.rank == 1)
    s = yield from attach(ch, Collector(), window=4)
    if comm.rank != 0:
        yield from s.operate()
        return None
    window = s._pending
    shared = s._cursor is None or s._cursor.pending is window
    longest = 0
    for i in range(200):
        yield from s.isend(i)
        assert s._pending is window      # trimmed in place, never rebuilt
        longest = max(longest, len(window))
    yield from s.terminate()
    return type(window), shared, s._cursor is not None, longest


def test_producer_windows_are_lists_trimmed_in_place():
    for compile_ in (False, True):
        r = run(_window_prog, 2, machine=_quiet_no_osend(), compile=compile_)
        kind, shared, bound, longest = r.values[0]
        assert kind is list
        assert bound == compile_ and shared
        assert longest <= 4


def test_communicators_share_ranks_and_names():
    def prog(comm):
        dup = yield from comm.dup()
        group = comm.group_from_ranks([0, 1, 2], name="head") \
            if comm.rank < 3 else None
        return dup, group

    values = run(prog, 4).values
    dups = [d for d, _ in values]
    groups = [g for _, g in values if g is not None]
    assert all(not hasattr(c, "__dict__") for c in dups + groups)
    assert len({id(d.ranks) for d in dups}) == 1
    assert len({id(d.name) for d in dups}) == 1
    assert len({id(g.ranks) for g in groups}) == 1
    assert len({id(g.name) for g in groups}) == 1


def test_funnel_digest_is_pinned():
    cfg = MapReduceConfig(nprocs=64, nchunks=8, alpha=1 / 16, seed=1)
    report = Simulation(64, beskow(noise_seed=1)).run(build_graph(cfg))
    assert result_digest(report.sim) == FUNNEL_64_DIGEST
