"""Compiled mode: compile_graph entry points, memo, the cursor-bound
producer handle, explain."""

import re

import pytest

from repro.api import GraphError, Simulation, StreamGraph
from repro.bench.perf import result_digest
from repro.compile import CompileOptions, compile_graph
from repro.compile.executor import _exe_memo, executable_for
from repro.mpistream import RunningStats
from repro.simmpi.config import beskow

NPROCS = 16
ROUNDS = 12


def _body(ctx):
    with ctx.producer("samples") as out:
        for rnd in range(ROUNDS):
            workload = 0.01 * (1 + (ctx.comm.rank + rnd) % 4)
            yield from ctx.compute(workload, label="calculation")
            yield from out.send(workload)


def _graph():
    return (StreamGraph("quickstart")
            .stage("compute", fraction=15 / 16, body=_body)
            .stage("analyze", fraction=1 / 16)
            .flow("samples", src="compute", dst="analyze",
                  operator=RunningStats))


# ----------------------------------------------------------------------
# entry-point validation
# ----------------------------------------------------------------------

def test_stream_graph_needs_nprocs():
    with pytest.raises(GraphError, match="needs nprocs"):
        compile_graph(_graph())


def test_compiled_graph_size_mismatch_rejected():
    compiled = _graph().compile(NPROCS)
    with pytest.raises(GraphError, match="compiled for"):
        compile_graph(compiled, nprocs=NPROCS * 2)
    # matching nprocs is accepted (a no-op re-statement)
    assert compile_graph(compiled, nprocs=NPROCS).total_procs == NPROCS


def test_wrong_target_type_rejected():
    with pytest.raises(GraphError, match="cannot compile"):
        compile_graph(42)


def test_executable_exposes_the_pipeline_plan():
    exe = compile_graph(_graph(), nprocs=NPROCS)
    assert exe.total_procs == NPROCS
    assert exe.plan.groups["compute"].size == 15
    assert exe.ir.schedules["samples"].static


# ----------------------------------------------------------------------
# the executable memo
# ----------------------------------------------------------------------

def test_memo_returns_one_executable_per_graph_and_options():
    compiled = _graph().compile(NPROCS)
    a = executable_for(compiled, CompileOptions())
    b = executable_for(compiled, CompileOptions())
    assert a is b
    c = executable_for(compiled, CompileOptions(granularity=4096.0))
    assert c is not a


def test_memo_identity_guard_rejects_recycled_ids():
    compiled = _graph().compile(NPROCS)
    exe = executable_for(compiled, CompileOptions())
    key = (id(compiled), CompileOptions(), id(None))
    # forge a stale entry: same id, different graph object -> miss
    _exe_memo[key] = (_graph().compile(NPROCS), None, exe)
    fresh = executable_for(compiled, CompileOptions())
    assert fresh is not exe
    _exe_memo.clear()


def test_memo_keys_on_the_machine():
    compiled = _graph().compile(NPROCS)
    machine = beskow()
    unbound = executable_for(compiled, CompileOptions())
    bound = executable_for(compiled, CompileOptions(), machine)
    assert bound is not unbound
    assert executable_for(compiled, CompileOptions(), machine) is bound
    # a recycled machine id never aliases: the entry holds the machine
    other = beskow()
    _exe_memo[(id(compiled), CompileOptions(), id(other))] = \
        (compiled, machine, bound)
    assert executable_for(compiled, CompileOptions(), other) is not bound
    _exe_memo.clear()


# ----------------------------------------------------------------------
# end-to-end identity + the compiled handle
# ----------------------------------------------------------------------

def test_compiled_run_bit_identical_to_interpreted():
    interpreted = Simulation(NPROCS, machine="beskow").run(_graph())
    compiled = Simulation(NPROCS, machine="beskow",
                          compile=True).run(_graph())
    assert result_digest(compiled.sim) == result_digest(interpreted.sim)
    assert compiled.elapsed == interpreted.elapsed
    assert compiled.events == interpreted.events
    assert compiled.messages == interpreted.messages
    assert compiled.stage_values("analyze") == \
        interpreted.stage_values("analyze")


def test_compiled_producer_handle_rejects_send_after_close():
    observed = {}

    def body(ctx):
        with ctx.producer("samples") as out:
            yield from out.send(1.0)
        observed["cursor"] = out._stream._cursor is not None
        try:
            out.send(2.0)
        except GraphError as exc:
            observed["error"] = str(exc)
        if False:
            yield  # pragma: no cover - make this frame a generator

    graph = (StreamGraph()
             .stage("compute", size=1, body=body)
             .stage("analyze", size=1)
             .flow("samples", "compute", "analyze",
                   operator=RunningStats))
    Simulation(2, machine="quiet", compile=True).run(graph)
    assert observed["cursor"]
    assert "closed producer" in observed["error"]


def test_plain_compile_runs_never_run_the_pipeline():
    _exe_memo.clear()
    report = Simulation(NPROCS, machine="quiet", compile=True).run(_graph())
    assert report.elapsed > 0
    assert _exe_memo == {}


def test_bad_compile_spec_rejected_at_simulation():
    with pytest.raises(GraphError, match="bad compile options"):
        Simulation(4, compile={"fuze": True})
    with pytest.raises(GraphError, match="compile must be"):
        Simulation(4, compile="fast")


# ----------------------------------------------------------------------
# Simulation.explain
# ----------------------------------------------------------------------

def test_simulation_explain_renders_the_pipeline():
    sim = Simulation(NPROCS, machine="beskow")
    text = sim.explain(_graph())
    assert f"{NPROCS} procs" in text
    assert "machine 'beskow-xc40'" in text
    assert "pass emit-schedules:" in text
    assert "samples" in text


def test_simulation_explain_honours_compile_options():
    sim = Simulation(NPROCS, machine="quiet", compile={"auto_alpha": True})
    text = sim.explain(_graph())
    assert "declare no work= hint" in text
    assert "disabled (auto_alpha=False)" not in text


def test_explain_and_run_size_auto_alpha_on_one_machine():
    """On a noisy machine the helper count explain reports is the one
    that runs: both size the groups with the machine's T_sigma."""
    nprocs = 64
    graph = (StreamGraph("sizable")
             .stage("compute", fraction=0.75, body=_body, work=0.8)
             .stage("analyze", fraction=0.25, work=0.2)
             .flow("samples", src="compute", dst="analyze",
                   operator=RunningStats))
    sim = Simulation(nprocs, machine="beskow", compile={"auto_alpha": True})
    explained = re.search(rf"-> (\d+)/{nprocs} helper ranks",
                          sim.explain(graph))
    report = sim.run(graph)
    helpers = int(explained.group(1))
    assert report.plan.groups["analyze"].size == helpers
    assert sum(r.stage == "analyze" for r in report.records) == helpers
    # T_sigma moved the balance point: sizing unbound would differ
    unbound = compile_graph(graph, nprocs=nprocs,
                            options={"auto_alpha": True})
    assert unbound.plan.groups["analyze"].size != helpers


def test_simulation_explain_size_mismatch_rejected():
    with pytest.raises(GraphError, match="compiled for"):
        Simulation(NPROCS * 2).explain(_graph().compile(NPROCS))
