"""The pass pipeline's product: an inspectable, plan-carrying executable.

``compile_graph`` runs the pipeline over a ``CompiledGraph`` and wraps
the result in an :class:`ExecutableGraph`: the (possibly auto-sized)
plan, the emitted send schedules and the explain report.  Compiled runs
execute through the graph's own ``execute -> run_decoupled`` layering,
reading ``plan`` from here when ``auto_alpha`` resized it; eligible
producer streams bind their send cursor (:mod:`repro.compile.schedule`)
when they attach.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..api.errors import GraphError
from ..api.graph import CompiledGraph, StreamGraph
from .options import CompileOptions, resolve_options
from .passes import GraphIR, PipelineReport, run_pipeline


class ExecutableGraph:
    """A compiled graph specialized by the pass pipeline."""

    def __init__(self, compiled: CompiledGraph, ir: GraphIR):
        self.compiled = compiled
        self.graph = compiled.graph
        self.plan = ir.plan          # auto-sizing may have rewritten it
        self.ir = ir
        self.report = PipelineReport(ir, compiled.graph.name)

    @property
    def total_procs(self) -> int:
        return self.plan.total_procs

    def explain(self) -> str:
        """What each pass rewrote (one line per decision)."""
        return self.report.render()


def compile_graph(target: Union[StreamGraph, CompiledGraph],
                  nprocs: Optional[int] = None,
                  machine=None,
                  options: Union[None, bool, dict, CompileOptions] = None
                  ) -> ExecutableGraph:
    """Run the pass pipeline and return the specialized executable.

    ``machine`` (a MachineConfig) feeds the sizing model and resolves
    the explain report's delay constants; the send cursors read their
    runtime constants from the world they run on, so an unbound
    executable is still correct on any machine.
    """
    if isinstance(target, StreamGraph):
        if nprocs is None:
            raise GraphError("compiling a StreamGraph needs nprocs")
        compiled = target.compile(nprocs)
    elif isinstance(target, CompiledGraph):
        compiled = target
        if nprocs is not None and nprocs != compiled.total_procs:
            raise GraphError(
                f"graph compiled for {compiled.total_procs} processes, "
                f"asked to specialize for {nprocs}")
    else:
        raise GraphError(
            f"cannot compile {type(target).__name__}; pass a StreamGraph "
            "or CompiledGraph")
    opts = resolve_options(True if options is None else options)
    ir = run_pipeline(compiled.graph, compiled.plan, opts, machine=machine)
    return ExecutableGraph(compiled, ir)


#: per-CompiledGraph executable memo: an auto_alpha run calls
#: execute() once per rank, and the specialization is a pure function of
#: (graph identity, options, machine).  Entries carry the graph and the
#: machine themselves so a recycled id() can never alias (same scheme
#: as _channel_groups).
_exe_memo: Dict[tuple, tuple] = {}


def executable_for(compiled: CompiledGraph, options: CompileOptions,
                   machine=None) -> ExecutableGraph:
    """The memoized :func:`compile_graph` of ``compiled`` for one run.

    A run passes its ``MachineConfig`` so the sizing pass reads the
    machine's noise model (T_sigma), exactly as
    :meth:`~repro.api.simulation.Simulation.explain` does; without a
    machine the pipeline sizes with T_sigma = 0."""
    key = (id(compiled), options, id(machine))
    hit = _exe_memo.get(key)
    if hit is not None and hit[0] is compiled and hit[1] is machine:
        return hit[2]
    if len(_exe_memo) >= 64:
        _exe_memo.clear()
    exe = compile_graph(compiled, machine=machine, options=options)
    _exe_memo[key] = (compiled, machine, exe)
    return exe
