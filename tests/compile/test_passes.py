"""The pass pipeline: IR rewrites, schedule emission, explain report."""

import pytest

from repro.api import StreamGraph
from repro.compile import CompileOptions, compile_graph
from repro.compile.passes import PIPELINE, run_pipeline
from repro.faults.plan import Checkpoint
from repro.mpistream import RunningStats
from repro.mpistream.channel import (
    DENSE_PEERS,
    blocked_fan_in,
    blocked_peers,
)
from repro.simmpi import beskow, quiet_testbed

NPROCS = 8


def _body(ctx):
    with ctx.producer("f") as out:
        for _ in range(4):
            yield from ctx.compute(0.01)
            yield from out.send(1.0)


def _graph(router=None, checkpoint=None):
    return (StreamGraph("passes-under-test")
            .stage("src", fraction=6 / 8, body=_body)
            .stage("dst", fraction=2 / 8)
            .flow("f", "src", "dst", operator=RunningStats,
                  router=router, checkpoint=checkpoint, window=4))


def _ir(graph=None, options=None, machine=None):
    compiled = (graph or _graph()).compile(NPROCS)
    return run_pipeline(compiled.graph, compiled.plan,
                        options or CompileOptions(), machine=machine)


def test_pipeline_order_is_the_documented_contract():
    assert [cls.name for cls in PIPELINE] == [
        "auto-size-groups", "emit-schedules"]


def test_static_flow_emits_the_runtime_routing_table():
    ir = _ir(machine=quiet_testbed())
    sched = ir.schedules["f"]
    assert sched.static
    assert sched.tag == 1 and sched.window == 4
    # the emitted table IS the channel layer's table (shared cache)
    assert sched.peers is blocked_peers(6, 2)
    assert list(sched.peers) == [0, 0, 0, 1, 1, 1]
    assert list(blocked_fan_in(6, 2)) == [3, 3]
    assert sched.fan_in() == "fan-in 3 per consumer"
    # machine-resolved constants appear in the schedule
    assert sched.osend_dt == quiet_testbed().network.o_send
    assert sched.eager_threshold == quiet_testbed().network.eager_threshold


def test_unbound_machine_leaves_delay_constants_unresolved():
    sched = _ir(machine=None).schedules["f"]
    assert sched.inject_dt is None and sched.osend_dt is None
    assert sched.static  # routing is machine-independent


def test_routed_flow_stays_interpreted():
    ir = _ir(_graph(router=lambda element, nconsumers: 0))
    sched = ir.schedules["f"]
    assert not sched.static
    assert sched.reason == "custom router"
    note = next(n for n in ir.notes if n.subject == "f")
    assert "kept interpreted" in note.detail
    assert "segments" not in note.detail
    assert sched.peers is None
    assert sched.fan_in() == "per-element routing"


def test_checkpointed_flow_stays_interpreted():
    ir = _ir(_graph(checkpoint=Checkpoint(interval=2)))
    sched = ir.schedules["f"]
    assert not sched.static
    assert "checkpointed" in sched.reason


def test_uneven_fan_in_renders_a_range():
    g = (StreamGraph()
         .stage("src", size=5, body=_body)
         .stage("dst", size=3)
         .flow("f", "src", "dst", operator=RunningStats))
    compiled = g.compile(NPROCS)
    ir = run_pipeline(compiled.graph, compiled.plan, CompileOptions())
    assert ir.schedules["f"].fan_in() == "fan-in 1..2 per consumer"


def test_dense_peer_table_kicks_in_at_scale():
    table = blocked_peers(DENSE_PEERS, 4)
    try:
        import numpy as np
    except ImportError:
        pytest.skip("numpy not available")
    assert isinstance(table, np.ndarray)
    # cached: same shape returns the same object
    assert blocked_peers(DENSE_PEERS, 4) is table
    # and agrees with the list form's formula
    small = blocked_peers(DENSE_PEERS - 1, 4)
    assert isinstance(small, list)
    assert int(table[100]) == 100 * 4 // DENSE_PEERS


def test_explain_report_names_every_pass():
    exe = compile_graph(_graph(), nprocs=NPROCS, machine=beskow())
    text = exe.explain()
    assert "passes-under-test" in text and f"{NPROCS} procs" in text
    for cls in PIPELINE:
        assert f"pass {cls.name}:" in text
    assert "batch-drain segments" in text
    assert "noise-free, trace-free and fault-free" in text
    assert "blocked routing" in text


# ----------------------------------------------------------------------
# auto-size-groups (the one results-changing pass)
# ----------------------------------------------------------------------

def _sizable_graph(work_src=0.8, work_dst=0.2, **stage_kw):
    return (StreamGraph("sizable")
            .stage("src", fraction=0.75, body=_body, work=work_src,
                   **stage_kw)
            .stage("dst", fraction=0.25, work=work_dst)
            .flow("f", "src", "dst", operator=RunningStats))


def test_auto_alpha_off_keeps_declared_sizes():
    ir = _ir(_sizable_graph())
    assert {n: g.size for n, g in ir.plan.groups.items()} == \
        {"src": 6, "dst": 2}
    note = next(n for n in ir.notes if n.pass_name == "auto-size-groups")
    assert "disabled" in note.detail


def test_auto_alpha_resizes_and_reports_the_balance_point():
    ir = _ir(_sizable_graph(), options=CompileOptions(auto_alpha=True),
             machine=quiet_testbed())
    sizes = {n: g.size for n, g in ir.plan.groups.items()}
    assert sum(sizes.values()) == NPROCS
    assert min(sizes.values()) >= 1
    assert ir.sizing["alpha"] == pytest.approx(
        ir.sizing["helper_ranks"] / NPROCS, abs=0.5)
    assert any("alpha*" in n.detail for n in ir.notes
               if n.pass_name == "auto-size-groups")
    # emitted schedules reflect the REWRITTEN plan, not the declared one
    sched = ir.schedules["f"]
    assert sched.nproducers == sizes["src"]
    assert sched.nconsumers == sizes["dst"]


def test_auto_alpha_skips_pinned_sizes():
    g = (StreamGraph()
         .stage("src", size=6, body=_body, work=1.0)
         .stage("dst", size=2, work=0.3)
         .flow("f", "src", "dst", operator=RunningStats))
    ir = _ir(g, options=CompileOptions(auto_alpha=True))
    assert {n: gr.size for n, gr in ir.plan.groups.items()} == \
        {"src": 6, "dst": 2}
    assert any("pin explicit sizes" in n.detail for n in ir.notes)


def test_auto_alpha_skips_missing_work_hints():
    ir = _ir(_graph(), options=CompileOptions(auto_alpha=True))
    assert any("no work= hint" in n.detail for n in ir.notes)


def test_auto_alpha_beta_scaling_enters_the_model():
    coarse = _ir(_sizable_graph(),
                 options=CompileOptions(auto_alpha=True),
                 machine=quiet_testbed())
    fine = _ir(_sizable_graph(),
               options=CompileOptions(auto_alpha=True, granularity=64.0),
               machine=quiet_testbed())
    # tiny elements pipeline poorly: beta < 1 shrinks helper-side work
    assert fine.sizing["beta_factor"] < coarse.sizing["beta_factor"] == 1.0
