"""Host-time instrumentation installed from outside the program.

Everything here wraps public functions and methods of the ``repro``
layers by replacing the attribute on its module or class; no file of
the program is edited.  Two levels exist:

* :func:`install_stamps` — always on.  It wraps only calls made once per
  simulation or once per study cell (``Engine.run``, the study
  journal's ``record``, ``runner.execute_job``), to mark where set-up
  ends and to collect each pool worker's peak memory.  Its cost is a
  few clock reads per run and one small file append per study cell, so
  the untraced end-to-end figures carry it.
* :func:`install_tracing` — the traced run only.  It wraps the hot
  entry points of every layer and accounts, per layer, the number of
  calls, the total time and the self time (total minus the time of the
  traced calls made inside it).

Rank-level calls such as ``Comm.send`` or ``Comm.allreduce`` are
generator functions: calling one only creates the generator.  Their
wrappers time each *resume* of the generator instead, so a rank that
blocks inside ``Comm.wait`` is charged only while it actually runs.

Layer names follow the ``repro`` modules they wrap.  Hot-path calls are
aggregated per layer (a funnel run makes millions of them); calls at
coarse boundaries — graph compile, world build, the engine loop, study
cells and cache operations — are also kept as individual spans and
written out with the aggregates when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import time
from typing import Any, Dict, List, Optional

from metrics import add_sim_gauges

_clock = time.perf_counter

#: layers whose every call is also kept as a span (rare, coarse calls)
COARSE_LAYERS = frozenset({
    "api.graph_compile", "comm.world_build", "engine", "study.cell",
    "study.cache_store", "study.pool_start", "study.journal",
})


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Per-layer call counts, total time and self time, plus spans.

    A frame stack follows the nesting of traced calls: when a call ends,
    its duration is added to its layer's total and, minus the time of
    the traced calls it made, to its layer's self time; the duration is
    then charged to the enclosing frame as child time.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.stack: List[list] = []
        #: layer -> [calls, total_s, self_s]
        self.layers: Dict[str, List[float]] = {}
        #: layer -> number of open frames (nesting test for counting)
        self.depth: Dict[str, int] = {}
        #: coarse spans: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        #: per-layer figures read off simulation results
        #: (see :func:`metrics.add_sim_gauges`)
        self.gauges: Dict[str, float] = {}

    def enter(self, layer: str) -> list:
        span = -1
        if layer in COARSE_LAYERS:
            parent = self.stack[-1][3] if self.stack else -1
            span = len(self.spans)
            self.spans.append([layer, 0.0, 0.0, parent])
        frame = [layer, _clock(), 0.0, span]
        self.stack.append(frame)
        self.depth[layer] = self.depth.get(layer, 0) + 1
        return frame

    def exit(self, frame: list, count: bool = True) -> None:
        end = _clock()
        self.stack.pop()
        layer, start, child, span = frame
        dur = end - start
        acc = self.layers.get(layer)
        if acc is None:
            acc = self.layers[layer] = [0, 0.0, 0.0]
        if count:
            acc[0] += 1
        acc[1] += dur
        acc[2] += dur - child
        self.depth[layer] -= 1
        if self.stack:
            self.stack[-1][2] += dur
        if span >= 0:
            self.spans[span][1] = start
            self.spans[span][2] = end

    def nested_in(self, layer: str) -> bool:
        return self.depth.get(layer, 0) > 0

    def timed_gen(self, gen, layer: str, count: bool = True):
        """Drive ``gen``, timing each resume as one frame of ``layer``;
        only the first resume counts as a call (none if not ``count``)."""
        value: Any = None
        error: Optional[BaseException] = None
        first = count
        while True:
            frame = self.enter(layer)
            try:
                if error is None:
                    cmd = gen.send(value)
                else:
                    cmd = gen.throw(error)
            except StopIteration as stop:
                self.exit(frame, first)
                return stop.value
            except BaseException:
                self.exit(frame, first)
                raise
            self.exit(frame, first)
            first = False
            error = None
            try:
                value = yield cmd
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:   # forwarded into the inner gen
                error = exc

    def snapshot(self) -> Dict[str, Any]:
        return {"layers": {k: list(v) for k, v in self.layers.items()},
                "spans": [list(s) for s in self.spans],
                "gauges": dict(self.gauges)}


def _wrap(owner: Any, attr: str, layer: str, tracer: Tracer,
          top_level_only: bool = False) -> None:
    """Replace ``owner.attr`` by a traced wrapper charged to ``layer``.

    ``top_level_only`` counts a call only when no call of the same
    layer is open (collectives built from other collectives count
    once); time is accounted either way.
    """
    orig = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    if inspect.isgeneratorfunction(orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            count = not (top_level_only and tracer.nested_in(layer))
            return tracer.timed_gen(orig(*args, **kwargs), layer, count)
    else:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            count = not (top_level_only and tracer.nested_in(layer))
            frame = tracer.enter(layer)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.exit(frame, count)
    setattr(owner, attr, wrapper)


# ----------------------------------------------------------------------
# always-on stamps
# ----------------------------------------------------------------------

class Stamps:
    """Phase boundaries of one repetition, and the directory where study
    cells leave their per-process records.

    ``first_event`` is the host time at which the first simulation's
    engine loop started (set-up ends there); ``first_dispatch`` the
    time the study runner dispatched its first cell.
    """

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.first_event: Optional[float] = None
        self.first_dispatch: Optional[float] = None


def install_stamps(stamps: Stamps, tracer: Optional[Tracer]) -> None:
    """Wrap the once-per-run boundaries (see module doc).  Imports
    ``repro.study``, so it runs after :func:`install_tracing`."""
    from repro.simmpi import engine as engine_mod
    from repro.study import journal as journal_mod
    from repro.study import runner as runner_mod

    engine_run = engine_mod.Engine.run

    @functools.wraps(engine_run)
    def run(self):
        if stamps.first_event is None:
            stamps.first_event = _clock()
        if tracer is None:
            return engine_run(self)
        frame = tracer.enter("engine")
        try:
            return engine_run(self)
        finally:
            tracer.exit(frame)
    engine_mod.Engine.run = run

    record = journal_mod.RunJournal.record

    @functools.wraps(record)
    def journal_record(self, event, **fields):
        if event == "submitted" and stamps.first_dispatch is None:
            stamps.first_dispatch = _clock()
        if tracer is None:
            return record(self, event, **fields)
        frame = tracer.enter("study.journal")
        try:
            return record(self, event, **fields)
        finally:
            tracer.exit(frame)
    journal_mod.RunJournal.record = journal_record

    if tracer is not None:
        launch = runner_mod.run

        @functools.wraps(launch)
        def run_cell(*args, **kwargs):
            sim = launch(*args, **kwargs)
            add_sim_gauges(tracer.gauges, sim)
            return sim
        runner_mod.run = run_cell

    execute = runner_mod.execute_job
    parent = os.getpid()

    @functools.wraps(execute)
    def execute_job(job):
        # pool workers are forked from this process: a worker starts
        # with a copy of the parent's tracer, which it must not report
        if tracer is not None and tracer.pid != os.getpid():
            tracer.reset()
        frame = tracer.enter("study.cell") if tracer is not None else None
        start = _clock()
        try:
            outcome = execute(job)
        finally:
            if frame is not None:
                tracer.exit(frame)
        cell = {"pid": os.getpid(), "app": job["app"],
                "host_s": _clock() - start,
                "events": outcome["sim"]["events"],
                "rss_mb": peak_rss_mb()}
        path = os.path.join(stamps.workdir, f"cells-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(cell) + "\n")
        if tracer is not None and os.getpid() != parent:
            with open(os.path.join(stamps.workdir,
                                   f"layers-{os.getpid()}.json"), "w") as fh:
                json.dump(tracer.snapshot(), fh)
        return outcome
    runner_mod.execute_job = execute_job


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------

def install_tracing(tracer: Tracer) -> None:
    """Wrap every layer's hot entry points.

    Must run before ``repro.apps`` and ``repro.study`` are imported:
    apps bind collectives by name (``from ...collectives import
    alltoallv``) at import time, and importing ``repro.study`` imports
    every registered app.
    """
    import concurrent.futures as cf

    from repro.api import graph as api_graph
    from repro.mpistream import stream as stream_mod
    from repro.simmpi import collectives, comm, fabrics, matching, network
    from repro.simmpi import noise as noise_mod

    _wrap(noise_mod.NoiseModel, "inflate", "noise", tracer)
    for name in ("deliver", "post", "probe"):
        _wrap(matching.Mailbox, name, "matching", tracer)
    _wrap(network.Network, "transfer", "network", tracer)
    for cls in (fabrics.FatTreeFabric, fabrics.DragonflyFabric):
        _wrap(cls, "transfer", "fabrics", tracer)
    for name in ("isend", "irecv", "send", "recv", "wait", "waitall",
                 "waitany"):
        _wrap(comm.Comm, name, "comm", tracer)
    for name in ("post_send", "post_recv"):
        _wrap(comm.World, name, "comm", tracer)
    _wrap(comm.World, "__init__", "comm.world_build", tracer)
    for name in ("bcast", "reduce", "gather", "scatter", "barrier",
                 "allreduce", "allgather", "allgatherv", "alltoall",
                 "alltoallv", "scan", "ibarrier", "ireduce", "iallgatherv",
                 "iallreduce", "ialltoallv"):
        _wrap(collectives, name, "collectives", tracer, top_level_only=True)
    _wrap(stream_mod.Stream, "isend", "mpistream.send", tracer)
    for name in ("recv_element", "terminate"):
        _wrap(stream_mod.Stream, name, "mpistream.recv", tracer)
    _wrap(api_graph.StreamGraph, "compile", "api.graph_compile", tracer)

    # only now: importing any repro.study module imports every app
    from repro.study import cache as cache_mod
    from repro.study import journal as journal_mod

    _wrap(cache_mod, "load", "study.cache_load", tracer)
    _wrap(cache_mod, "store", "study.cache_store", tracer)
    _wrap(cache_mod, "job_key", "study.job_key", tracer)
    _wrap(journal_mod.RunJournal, "close", "study.journal", tracer)
    journal_open = journal_mod.RunJournal.__dict__["open"].__func__

    @functools.wraps(journal_open)
    def open_journal(cls, *args, **kwargs):
        frame = tracer.enter("study.journal")
        try:
            return journal_open(cls, *args, **kwargs)
        finally:
            tracer.exit(frame)
    journal_mod.RunJournal.open = classmethod(open_journal)
    _wrap_pool_start(cf.ProcessPoolExecutor, tracer)


def _wrap_pool_start(pool_cls: type, tracer: Tracer) -> None:
    """Charge a process pool's construction and its first ``submit``
    (where the worker processes are started) to ``study.pool_start``."""
    init = pool_cls.__init__
    submit = pool_cls.submit

    @functools.wraps(init)
    def pool_init(self, *args, **kwargs):
        frame = tracer.enter("study.pool_start")
        try:
            init(self, *args, **kwargs)
        finally:
            tracer.exit(frame)
        self._perfbench_started = False

    @functools.wraps(submit)
    def pool_submit(self, *args, **kwargs):
        if getattr(self, "_perfbench_started", True):
            return submit(self, *args, **kwargs)
        self._perfbench_started = True
        frame = tracer.enter("study.pool_start")
        try:
            return submit(self, *args, **kwargs)
        finally:
            tracer.exit(frame, count=False)

    pool_cls.__init__ = pool_init
    pool_cls.submit = pool_submit


def merge_layers(into: Dict[str, List[float]],
                 other: Dict[str, List[float]]) -> None:
    """Add one process's per-layer aggregates into another's."""
    for layer, (calls, total, self_s) in other.items():
        acc = into.setdefault(layer, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s


def read_worker_files(workdir: str, prefix: str) -> List[str]:
    """Paths of the per-process files a repetition's workers wrote."""
    try:
        names = sorted(os.listdir(workdir))
    except FileNotFoundError:
        return []
    return [os.path.join(workdir, n) for n in names if n.startswith(prefix)]

