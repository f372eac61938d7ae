"""The pass pipeline: analyze a compiled graph, rewrite, emit schedules.

Modelled on how op-graph compilers (ngraph-style transformer passes)
lower a declarative graph: each pass reads/rewrites a small IR and
records what it did, so the pipeline is inspectable
(``Simulation.explain`` / ``ExecutableGraph.explain``).

Pass order (fixed — see DESIGN.md §15 for the contract):

1. ``auto-size-groups`` (opt-in): rewrites the plan's group sizes from
   the Eq. 2 balance point.  The only pass allowed to change
   virtual-time results.
2. ``emit-schedules``: per flow, resolves the static (peer, tag, size
   threshold, delay) structure producers replay in steady state, and
   names which flows are eligible for an engine send cursor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the baked image
    _np = None

from ..core.groups import DecouplingPlan
from ..mpistream.channel import blocked_fan_in, blocked_peers
from .sizing import plan_auto_sizes


@dataclass
class PassNote:
    """One line of the explain report: what a pass did to one subject."""

    pass_name: str
    subject: str       # stage/flow name, or "" for pipeline-level notes
    detail: str


@dataclass
class SendPlan:
    """Static structure of one flow's producer-side send loop."""

    flow: str
    src: str
    dst: str
    nproducers: int
    nconsumers: int
    tag: int                    # predicted stream tag (one stream/channel)
    window: int
    element_overhead: float
    static: bool                # blocked routing, no checkpoint
    reason: str = ""            # why not static, when it isn't
    peers: Any = None           # producer index -> consumer index table
    inject_dt: Optional[float] = None   # machine-resolved, explain only
    osend_dt: Optional[float] = None
    eager_threshold: Optional[int] = None

    def fan_in(self) -> str:
        if self.peers is None:
            return "per-element routing"
        counts = blocked_fan_in(self.nproducers, self.nconsumers)
        lo, hi = int(min(counts)), int(max(counts))
        if lo == hi:
            return f"fan-in {lo} per consumer"
        return f"fan-in {lo}..{hi} per consumer"


@dataclass
class GraphIR:
    """What the passes read and rewrite."""

    graph: Any                  # StreamGraph
    plan: DecouplingPlan
    options: Any                # CompileOptions
    machine: Any = None         # MachineConfig or None
    schedules: Dict[str, SendPlan] = field(default_factory=dict)
    sizing: dict = field(default_factory=dict)
    notes: List[PassNote] = field(default_factory=list)

    def note(self, pass_name: str, subject: str, detail: str) -> None:
        self.notes.append(PassNote(pass_name, subject, detail))


class Pass:
    """Base: a named rewrite over the IR."""

    name = "pass"

    def run(self, ir: GraphIR) -> None:
        raise NotImplementedError


class AutoSizeGroupsPass(Pass):
    name = "auto-size-groups"

    def run(self, ir: GraphIR) -> None:
        if not ir.options.auto_alpha:
            ir.note(self.name, "", "disabled (auto_alpha=False); "
                    "declared group sizes kept")
            return
        sizes, notes, model = plan_auto_sizes(
            ir.graph, ir.plan, ir.machine, ir.options)
        for line in notes:
            ir.note(self.name, "", line)
        if sizes is None:
            return
        before = {name: spec.size for name, spec in ir.plan.groups.items()}
        plan = DecouplingPlan(ir.plan.total_procs)
        for s in ir.graph.stages:
            plan.add_group(s.name, size=sizes[s.name])
            plan.map_operation(s.name, s.name)
        for f in ir.graph.flows:
            plan.add_flow(f.name, f.src, f.dst)
        plan.validate()
        ir.plan = plan
        ir.sizing = model
        for s in ir.graph.stages:
            if sizes[s.name] != before[s.name]:
                ir.note(self.name, s.name,
                        f"resized {before[s.name]} -> {sizes[s.name]} ranks")


class EmitSchedulesPass(Pass):
    name = "emit-schedules"

    def run(self, ir: GraphIR) -> None:
        plan = ir.plan
        machine = ir.machine
        for f in ir.graph.flows:
            np_ = plan.groups[f.src].size
            nc = plan.groups[f.dst].size
            static = f.router is None and f.checkpoint is None
            reason = ("" if static else
                      "custom router" if f.router is not None
                      else "checkpointed (fault mode)")
            sched = SendPlan(
                flow=f.name, src=f.src, dst=f.dst,
                nproducers=np_, nconsumers=nc, tag=1, window=f.window,
                element_overhead=f.element_overhead,
                static=static, reason=reason)
            if static:
                # the runtime's own routing table (shared cache): the
                # compiler cannot emit an assignment the channel layer
                # would not execute
                sched.peers = blocked_peers(np_, nc)
            if machine is not None:
                sched.inject_dt = f.element_overhead / machine.compute_speed
                sched.osend_dt = machine.network.o_send
                sched.eager_threshold = machine.network.eager_threshold
            ir.schedules[f.name] = sched
            if static:
                dense = (_np is not None
                         and isinstance(sched.peers, _np.ndarray))
                detail = (f"{np_} -> {nc} blocked routing, "
                          f"{sched.fan_in()}, tag {sched.tag}, "
                          f"window {f.window}"
                          + (", dense numpy peer table" if dense else ""))
                if sched.inject_dt is not None:
                    detail += (f", inject {sched.inject_dt:.3g}s, "
                               f"o_send {sched.osend_dt:.3g}s, "
                               f"eager <= {sched.eager_threshold}B")
                detail += ("; producers send through engine batch-drain "
                           "segments (binds per run when the machine is "
                           "noise-free, trace-free and fault-free)")
                ir.note(self.name, f.name, detail)
            else:
                ir.note(self.name, f.name,
                        f"kept interpreted ({reason}); destinations "
                        "resolve per element")


#: the fixed pipeline, in contract order
PIPELINE = (AutoSizeGroupsPass, EmitSchedulesPass)


class PipelineReport:
    """Human-readable account of what each pass rewrote."""

    def __init__(self, ir: GraphIR, graph_name: str):
        self.ir = ir
        self.graph_name = graph_name

    def render(self) -> str:
        ir = self.ir
        machine = (f"machine {ir.machine.name!r}" if ir.machine is not None
                   else "machine unbound (runtime constants resolve at run)")
        lines = [f"repro.compile pipeline for {self.graph_name!r} on "
                 f"{ir.plan.total_procs} procs, {machine}"]
        for cls in PIPELINE:
            lines.append(f"  pass {cls.name}:")
            pass_notes = [n for n in ir.notes if n.pass_name == cls.name]
            if not pass_notes:
                lines.append("    (no effect)")
            for n in pass_notes:
                subject = f"{n.subject}: " if n.subject else ""
                lines.append(f"    {subject}{n.detail}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def run_pipeline(graph, plan, options, machine=None) -> GraphIR:
    """Run every pass over a fresh IR and return it."""
    ir = GraphIR(graph=graph, plan=plan, options=options, machine=machine)
    for cls in PIPELINE:
        cls().run(ir)
    return ir
