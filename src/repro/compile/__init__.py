"""repro.compile — the plan compiler (pass pipeline + send schedules).

Lowers a :class:`~repro.api.graph.CompiledGraph` through a fixed
two-pass pipeline (auto-size-groups, emit-schedules) into an
:class:`~repro.compile.executor.ExecutableGraph` carrying the
(possibly resized) plan and the explain report.  Compiled runs keep the
runtime's own ``execute -> run_decoupled`` layering; what changes is
the per-element send: eligible producer streams bind an engine-serviced
send cursor (:mod:`repro.compile.schedule`) — bit-identical virtual
time, no generator round-trips per element.  See DESIGN.md §15 for the pass
contract and ``ExecutableGraph.explain()`` for what a given graph's
pipeline decided.

Entry points::

    exe = compile_graph(graph, nprocs=1024, machine=beskow())
    print(exe.explain())
    report = Simulation(1024, "beskow", compile=True).run(graph)
    sim = run(worker, 1024, args=(cfg,), compile=True)   # low-level
"""

from .executor import ExecutableGraph, compile_graph, executable_for
from .options import CompileOptions, DEFAULT_OPTIONS, resolve_options
from .passes import (
    GraphIR,
    PIPELINE,
    PassNote,
    PipelineReport,
    SendPlan,
    run_pipeline,
)
from .schedule import bind_send_cursor
from .sizing import plan_auto_sizes

__all__ = [
    "CompileOptions",
    "DEFAULT_OPTIONS",
    "ExecutableGraph",
    "GraphIR",
    "PIPELINE",
    "PassNote",
    "PipelineReport",
    "SendPlan",
    "bind_send_cursor",
    "compile_graph",
    "executable_for",
    "plan_auto_sizes",
    "resolve_options",
    "run_pipeline",
]
