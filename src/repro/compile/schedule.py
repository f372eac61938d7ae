"""Static send schedules and the engine-side cursor servicing them.

The interpreted per-element send path resumes the producer's generator
chain three times per element (injection charge, window admission,
``o_send`` charge) and re-derives destination, tag, context and delay
constants every time.  For a fault-free, noise-free, statically-routed
stream all of those are loop invariants: the schedule emission pass
resolves them once per (rank, flow) and the engine services the
per-element event sequence through a :class:`_SendCursor` — plain
bound-method callbacks on the event heap — handed over via the
:class:`~repro.simmpi.engine.Segment` syscall (batch-drain mode).

Bit-identity contract (DESIGN.md §15): the cursor pushes exactly the
events the interpreted path would push — same times, same heap
sequence numbers, same callbacks' effects — so ``events_fired``,
message timings and therefore every digest are unchanged.  The event
sequence per element, mirroring ``Stream.isend``:

1. injection charge: one ``Delay``-equivalent event (skipped when the
   flow's ``element_overhead`` is 0);
2. window admission (:func:`~repro.mpistream.stream.admit_to_window`,
   shared with the interpreted path): retire completed requests from
   the head, then pop the oldest in-flight request when the window is
   full and wait on its flag (the cursor itself enrolls as the flag
   waiter);
3. ``o_send`` charge: one event (skipped when the machine's o_send is 0);
4. transport hand-off: ``World.post_send`` inlined for both protocols —
   eager commits the NIC transfer and pushes delivery + sender-free with
   consecutive sequence numbers; rendezvous ships the header at the
   precomputed link latency and matches through one *shared* bound
   method (the envelope itself carries the per-element state the
   interpreted path captures in a per-element closure).

Eligibility is checked at bind time (:func:`bind_send_cursor`); any
stream the schedule cannot represent — custom router, checkpoint or
fault mode, noise or tracing enabled — keeps the interpreted path.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush as _heappush
from typing import Any, Optional

from ..mpistream.element import element_nbytes
from ..mpistream.stream import admit_to_window
from ..simmpi.engine import Segment
from ..simmpi.errors import RequestError
from ..simmpi.matching import Envelope
from ..simmpi.request import Request

_env_new = Envelope.__new__
_req_new = Request.__new__


class _SendCursor:
    """Precomputed per-(rank, flow) send schedule, serviced by the engine.

    One cursor (and one reusable :class:`Segment`) exists per producer
    stream; the producer is suspended while its element is in flight
    through stages 1–4, so the single-slot ``payload``/``nbytes``
    staging is safe.
    """

    __slots__ = (
        "stream", "engine", "world", "pending", "window",
        "inject_dt", "osend_dt", "gsrc", "gdst", "lsrc", "tag", "context",
        "req_label", "deliver", "transfer", "header_latency",
        "eager_threshold",
        "force_eager", "profile", "segment", "token", "resume",
        "proc", "payload", "nbytes",
    )

    def __init__(self, stream):
        channel = stream.channel
        comm = channel.comm
        world = comm.world
        self.stream = stream
        self.engine = world.engine
        self.world = world
        self.pending = stream._pending
        self.window = stream.window
        overhead = stream.element_overhead
        self.inject_dt = (overhead / world._compute_speed
                          if overhead > 0 else 0.0)
        self.osend_dt = world._o_send
        self.gsrc = comm._global
        self.gdst = comm.ranks[stream._static_dest]
        self.lsrc = comm._rank
        self.tag = stream.tag
        self.context = comm.context
        self.req_label = ("send->", self.gdst, "#", stream.tag)
        self.deliver = world.mailboxes[self.gdst].deliver
        self.transfer = world.network.transfer
        # the (src, dst) pair is static, so the rendezvous header
        # latency is a schedule constant, not a per-element lookup
        self.header_latency = world.network._link(self.gsrc, self.gdst)[0]
        self.eager_threshold = world._eager_threshold
        self.force_eager = stream.eager
        self.profile = stream.profile
        self.segment = Segment(self.start)
        self.token = (self.segment,)
        # flag-waiter protocol: the engine wakes a window-blocked cursor
        # through `.resume`, exactly as it wakes a blocked process
        self.resume = self._after_window
        self.proc = None
        self.payload = None
        self.nbytes = 0

    def __repr__(self) -> str:  # pragma: no cover - deadlock dumps
        return (f"send-schedule(flow tag {self.tag} -> rank {self.gdst}, "
                f"window {self.window})")

    # ------------------------------------------------------------------
    # element staging (called from the producer's handle, synchronously)
    # ------------------------------------------------------------------
    def load(self, data: Any) -> Segment:
        """Stage one element and return the Segment syscall to yield."""
        stream = self.stream
        if stream._terminated or stream.channel.freed:
            self._reject()
        nbytes = element_nbytes(data)
        self.payload = (stream._seq, data)
        self.nbytes = nbytes
        stream._seq += 1
        profile = self.profile
        profile.elements_sent += 1
        profile.bytes_sent += nbytes
        profile.overhead_paid += stream.element_overhead
        return self.segment

    def load_token(self, data: Any) -> tuple:
        """Like :meth:`load` but returns the reusable 1-tuple, so stage
        bodies can ``yield from handle.send(data)`` unchanged."""
        self.load(data)
        return self.token

    def _reject(self) -> None:
        # mirror Stream.isend's validation order and exceptions
        channel = self.stream.channel
        if channel.freed:
            channel.check_alive()
        raise RequestError("isend after terminate")

    # ------------------------------------------------------------------
    # the per-element event sequence (engine-side)
    # ------------------------------------------------------------------
    def start(self, engine, proc) -> bool:
        self.proc = proc
        if self.inject_dt > 0.0:
            engine._seq += 1
            _heappush(engine._heap, (engine.now + self.inject_dt,
                                     engine._seq, self._after_inject))
            return True
        # zero injection cost: fall through to window admission now
        oldest = admit_to_window(self.pending, self.window)
        if oldest is not None:
            oldest._waiters.append(self)
            return True
        if self.osend_dt > 0.0:
            engine._seq += 1
            _heappush(engine._heap, (engine.now + self.osend_dt,
                                     engine._seq, self._after_osend))
            return True
        self._post()
        return False  # fully synchronous: _step continues the body inline

    def _after_inject(self) -> None:
        oldest = admit_to_window(self.pending, self.window)
        if oldest is not None:
            oldest._waiters.append(self)
            return
        self._after_window()

    def _after_window(self) -> None:
        if self.osend_dt > 0.0:
            engine = self.engine
            engine._seq += 1
            _heappush(engine._heap, (engine.now + self.osend_dt,
                                     engine._seq, self._after_osend))
        else:
            self._post()
            self.engine._step(self.proc, None)

    def _after_osend(self) -> None:
        self._post()
        self.engine._step(self.proc, None)

    def _post(self) -> None:
        """``World.post_send``'s eager fast path, specialized: source,
        destination, tag, context, mailbox and NIC are loop invariants."""
        nbytes = self.nbytes
        payload = self.payload
        self.payload = None
        if self.force_eager or nbytes <= self.eager_threshold:
            engine = self.engine
            req = _req_new(Request)
            req.is_set = False
            req.time = 0.0
            req.payload = None
            req._waiters = []
            req.label = self.req_label
            req.kind = "send"
            req._waited = False
            timing = self.transfer(self.gsrc, self.gdst, nbytes, engine.now)
            env = _env_new(Envelope)
            env.src = self.lsrc
            env.tag = self.tag
            env.context = self.context
            env.nbytes = nbytes
            env.payload = payload
            env.eager = True
            env.delivered_time = timing.delivered
            env.on_match = None
            heap = engine._heap
            seq = engine._seq + 1
            _heappush(heap, (timing.delivered, seq, partial(self.deliver, env)))
            seq += 1
            _heappush(heap, (timing.sender_free, seq,
                             partial(engine.set_flag, req)))
            engine._seq = seq
        else:
            # rendezvous, specialized: header now, transfer on match.
            # The envelope carries the per-element state (nbytes, post
            # time in delivered_time, sender request), so _rdv_match —
            # one shared bound method — replaces the interpreted path's
            # per-element on_match closure
            engine = self.engine
            now = engine.now
            req = _req_new(Request)
            req.is_set = False
            req.time = 0.0
            req.payload = None
            req._waiters = []
            req.label = self.req_label
            req.kind = "send"
            req._waited = False
            env = _env_new(Envelope)
            env.src = self.lsrc
            env.tag = self.tag
            env.context = self.context
            env.nbytes = nbytes
            env.payload = payload
            env.eager = False
            env.delivered_time = now
            env.on_match = self._rdv_match
            env.sender_req = req
            # header arrives at now + latency >= now: call_at's clamp
            # is provably a no-op, push directly
            engine._seq += 1
            _heappush(engine._heap, (now + self.header_latency,
                                     engine._seq, partial(self.deliver, env)))
        self.pending.append(req)

    def _rdv_match(self, env: Envelope, recv_done) -> None:
        """Rendezvous match: commit the NIC transfer, free the sender,
        complete the receive — ``World.post_send``'s on_match closure as
        a shared method (``env`` holds what the closure would capture)."""
        engine = self.engine
        ready = engine.now
        posted = env.delivered_time
        if posted > ready:
            ready = posted
        timing = self.transfer(self.gsrc, self.gdst, env.nbytes, ready)
        # call_at semantics, inlined (clamp kept for exactness)
        t = timing.sender_free
        if t < engine.now:
            t = engine.now
        engine._seq += 1
        _heappush(engine._heap, (t, engine._seq,
                                 partial(engine.set_flag, env.sender_req)))
        recv_done(timing.delivered)


def bind_send_cursor(stream) -> Optional[_SendCursor]:
    """Bind a send schedule to ``stream`` if it is representable.

    Returns None — keeping the interpreted path — for consumer-side
    streams and for anything the static schedule cannot express: custom
    routers (per-element destinations), fault/checkpoint mode, noisy or
    traced runs (per-element draws break the constant-delay schedule).
    """
    channel = stream.channel
    if not channel.is_producer:
        return None
    if stream._fault_mode or stream.router is not None:
        return None
    if not channel.comm.world._compute_fast:
        return None
    return _SendCursor(stream)
