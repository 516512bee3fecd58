"""The discrete-event engine.

A single :class:`Engine` instance drives an entire simulated cluster: all
nodes share one virtual clock so that cross-node messages and per-node
scheduling interleave consistently.

Events are plain callbacks ordered by ``(time, sequence)``; the sequence
number makes simultaneous events FIFO and the whole simulation
deterministic.  Handles returned by :meth:`Engine.schedule` can be
cancelled, which is how the CPU executor retracts a burst-completion or
timeslice-expiry event when an interrupt or wakeup changes the plan.

The queue is one binary heap of ``(time, seq, handle)`` tuples, so every
comparison is a C-level tuple compare.  ``cancel()`` is a lazy delete:
the entry is skipped when popped.  Fired and cancelled handles are
recycled through a bounded free list, but only when the engine holds the
*sole* remaining reference (``sys.getrefcount``), so a caller that keeps
a handle can never see it reused for an unrelated event.  Counters are
plain integers, published to :mod:`repro.obs` once per
:meth:`Engine.run` and only when collection is enabled.
"""

from __future__ import annotations

from heapq import heappop, heappush
from sys import getrefcount
from typing import Callable, Optional

from repro.obs import runtime as _obs

#: Upper bound on the handle free list; beyond this, dead handles are
#: simply released to the allocator.
_POOL_MAX = 1024


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("fn", "cancelled", "engine")

    def __init__(self, fn: Callable[[], None]):
        self.fn: Optional[Callable[[], None]] = fn
        self.cancelled = False
        #: back-reference for cancel-time accounting; set by the engine
        self.engine: Optional["Engine"] = None

    def cancel(self) -> None:
        """Retract the event; a cancelled entry is skipped when reached.

        ``fn is not None`` doubles as the "still queued" test (it is
        cleared on fire and on cancel), so a stale cancel after the event
        fired is inert.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.fn is not None:
            self.fn = None  # break reference cycles early
            if self.engine is not None:
                self.engine._cancels += 1

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "pending" if self.fn is not None else "fired")
        return f"<EventHandle {state}>"


class Engine:
    """Virtual-time event loop.

    Attributes
    ----------
    now:
        Current virtual time in integer nanoseconds.  Monotonically
        non-decreasing; only the engine advances it.
    """

    __slots__ = ("now", "_queue", "_seq", "_fired", "_cancels", "_stopped",
                 "_free", "_pool_misses", "_obs_base")

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[tuple[int, int, EventHandle]] = []
        self._seq: int = 0
        self._fired: int = 0
        self._cancels: int = 0
        self._stopped: bool = False
        self._free: list[EventHandle] = []  # handle free list
        # Every schedule either reuses a pooled handle or constructs one,
        # so pool hits are derived: hits = _seq - _pool_misses.
        self._pool_misses: int = 0
        #: last-published cumulative counters, for metrics deltas:
        #: [seq, fired, cancels, pool_misses]
        self._obs_base: list[int] = [0, 0, 0, 0]

    def schedule_at(self, time: int, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` to run at absolute virtual time ``time``.

        ``time`` must not be in the past.  Returns a cancellable handle.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < now {self.now}")
        seq = self._seq + 1
        self._seq = seq
        free = self._free
        if free:
            handle = free.pop()
            handle.fn = fn
            handle.cancelled = False
        else:
            handle = EventHandle(fn)
            handle.engine = self
            self._pool_misses += 1
        heappush(self._queue, (time, seq, handle))
        return handle

    def schedule(self, delay: int, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, fn)

    def run(self, until: Optional[int] = None) -> None:
        """Run events until the queue drains or ``until`` is reached.

        When ``until`` is given and the run is not stopped early via
        :meth:`stop`, the clock is advanced to exactly ``until`` on return
        (even if the queue drained earlier), so callers can treat it as
        "simulate this much virtual time".
        """
        if not (_obs.metrics_on or _obs.tracing_on):
            self._dispatch(until)
            return
        # Observed run: wall-time the loop and publish counter deltas
        # once at the end.  Per-event cost is identical to the fast path.
        t0 = _obs.wall_clock()
        tracing = _obs.tracing_on
        if tracing:
            from repro.obs.tracer import TRACER
            TRACER.begin("engine.run", "engine")
        fired_before = self._fired
        try:
            self._dispatch(until)
        finally:
            if _obs.metrics_on:
                self._publish_obs(_obs.wall_clock() - t0)
            if tracing:
                TRACER.end("engine.run", "engine",
                           events=self._fired - fired_before)

    def _dispatch(self, until: Optional[int]) -> None:
        """The dispatch loop: pop, skip cancelled, fire, recycle."""
        self._stopped = False
        limit = float("inf") if until is None else until
        queue = self._queue
        pop = heappop
        free = self._free
        refcount = getrefcount
        llen = len
        now = self.now
        while queue:
            entry = pop(queue)
            handle = entry[2]
            # Expected refs: `entry` tuple + `handle` + getrefcount arg;
            # anything more means a caller still holds the handle.
            if handle.cancelled:
                if refcount(handle) == 3 and llen(free) < _POOL_MAX:
                    free.append(handle)
                continue
            t = entry[0]
            if t > limit:
                heappush(queue, entry)  # leave it for a later run
                break
            if t != now:
                self.now = now = t
            fn = handle.fn
            handle.fn = None
            # Counted on the instance, not in a local, so ``pending`` is
            # exact when read from inside a callback.
            self._fired += 1
            fn()  # type: ignore[misc]  # live handles carry a fn
            if refcount(handle) == 3 and llen(free) < _POOL_MAX:
                free.append(handle)
            if self._stopped:
                return
        if until is not None and self.now < until:
            self.now = until

    def run_until_idle(self) -> None:
        """Run until no active events remain."""
        self.run()

    def stop(self) -> None:
        """Request :meth:`run` to return after the current event."""
        self._stopped = True

    def _publish_obs(self, wall_s: float) -> None:
        """Push counter deltas since the last publish into the metrics
        registry (one call per observed :meth:`run`)."""
        from repro.obs.metrics import REGISTRY
        base = self._obs_base
        scheduled = self._seq
        fired = self._fired
        cancels = self._cancels
        misses = self._pool_misses
        REGISTRY.counter("engine.runs").inc()
        REGISTRY.counter("engine.events_scheduled").inc(scheduled - base[0])
        REGISTRY.counter("engine.events_fired").inc(fired - base[1])
        REGISTRY.counter("engine.events_cancelled").inc(cancels - base[2])
        REGISTRY.counter("engine.pool_misses").inc(misses - base[3])
        REGISTRY.counter("engine.pool_hits").inc(
            (scheduled - misses) - (base[0] - base[3]))
        self._obs_base = [scheduled, fired, cancels, misses]
        REGISTRY.gauge("engine.pending_events").set(self.pending)
        REGISTRY.gauge("engine.pool_free").set(len(self._free))
        REGISTRY.histogram("engine.run_wall_s").observe(wall_s)

    @property
    def pending(self) -> int:
        """Number of active (non-cancelled) events still queued."""
        return self._seq - self._fired - self._cancels

    @property
    def events_processed(self) -> int:
        """Total events executed since construction (diagnostics)."""
        return self._fired

    @property
    def events_cancelled(self) -> int:
        """Total in-queue cancellations since construction (diagnostics)."""
        return self._cancels
