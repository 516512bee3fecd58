"""The KTAU measurement system.

This module is the in-kernel half of KTAU: it owns the per-task performance
structures hung off the simulated process control block, performs the
activation-stack inclusive/exclusive accounting, writes trace records, and
charges measurement overhead back into simulated time (which is what makes
the perturbation study meaningful).

Semantics reproduced from the paper:

* **Entry/exit events** — high-resolution (TSC cycle) timing; an
  activation-stack depth is tracked and used to compute inclusive and
  exclusive time.  Inclusive time is only accumulated for the *outermost*
  activation of a recursive event.
* **Atomic events** — stand-alone events carrying a value (e.g. network
  packet sizes); count/sum/min/max are kept.
* **Event mapping** — numeric IDs bound on first firing through the
  kernel's :class:`~repro.core.registry.EventRegistry`.
* **Process life-cycle** — structures are allocated at process creation
  and preserved in a zombie store at exit until a client (e.g. runKtau)
  reaps them.
* **Process-centric attribution** — kernel events are recorded against
  whatever task is *current* on the CPU, including interrupt handling that
  merely happens to run in that task's context; the user-level (TAU)
  context active at event entry is always tracked, powering the merged
  user/kernel views.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.chainsum import add_extensions, layout
from repro.core.config import KtauBuildConfig, KtauRuntimeControl
from repro.core.counters import TaskCounters, rates_for_path
from repro.core.overhead import OverheadModel, ZeroOverheadModel
from repro.core.registry import EventRegistry, InstrumentationPoint, PointKind
from repro.core.tracebuf import ATOMIC, ENTRY, EXIT, TraceBuffer
from repro.obs import runtime as _obs
from repro.sim.clock import CycleClock


class InstrumentationImbalanceError(RuntimeError):
    """Strict-mode sanitizer: the activation stack was misused.

    In the default (paper-faithful) mode an unmatched exit is counted in
    ``KtauTaskData.unmatched_exits`` and the sample dropped — correct for
    a production kernel where mid-region enable/disable legitimately
    unbalances the stack.  Strict mode is the development-time companion
    to the ``ktaulint`` static balance rule (KTAU101/KTAU102): it raises
    at the first imbalance, naming the instrumentation point, so the
    dynamic check validates what the static pass claims.
    """


class PerfData:
    """Profile counters for one entry/exit event in one task."""

    __slots__ = ("count", "incl_cycles", "excl_cycles")

    def __init__(self) -> None:
        self.count = 0
        self.incl_cycles = 0
        self.excl_cycles = 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.count, self.incl_cycles, self.excl_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerfData(count={self.count}, incl={self.incl_cycles}, excl={self.excl_cycles})"


class AtomicData:
    """Profile counters for one atomic event in one task."""

    __slots__ = ("count", "sum", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value: int) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.count, self.sum, self.min or 0, self.max or 0)


class _StackEntry:
    """One activation-stack frame."""

    __slots__ = ("event_id", "entry_cycles", "child_cycles", "user_ctx",
                 "entry_pmc")

    def __init__(self, event_id: int, entry_cycles: int, user_ctx: Optional[str],
                 entry_pmc: Optional[tuple[int, int, int, int, int]]):
        self.event_id = event_id
        self.entry_cycles = entry_cycles
        self.child_cycles = 0
        self.user_ctx = user_ctx
        #: PMC register snapshot taken at entry (cycles, insn, l2 misses,
        #: minor faults, major faults); None when counters are off
        self.entry_pmc = entry_pmc


class _Level:
    """One span of a chain laid out for one :class:`Ktau`: its point, its
    own cost in cycles and its PMC rates."""

    __slots__ = ("point", "cycles", "rates")

    def __init__(self, point: InstrumentationPoint, cycles: int, rates):
        self.point = point
        self.cycles = cycles
        self.rates = rates


class _Chain:
    """A span chain laid out for :meth:`Ktau.record`: its levels
    (outermost first) and the leaf's atomic point, resolved once per
    firing-state version.  ``event_ids`` (outermost first) and
    ``atomic_id`` are set while a call can be summed; ``rows`` caches its
    :func:`~repro.core.chainsum.layout` for one ``step_cycles``, and
    ``sums`` a summed call's terms by its pass count."""

    __slots__ = ("levels", "atomic", "distinct", "version", "event_ids",
                 "atomic_id", "rows_key", "rows", "sums")

    def __init__(self, chain, registry: EventRegistry, clock: CycleClock):
        self.levels: list[_Level] = []
        span = chain
        while span is not None:
            rates = span.rates
            self.levels.append(_Level(
                registry.point(span.name), clock.cycles_for_ns(span.cost_ns),
                rates if rates is not None else rates_for_path(span.name)))
            leaf, span = span, span.child
        self.atomic = (None if leaf.atomic is None
                       else registry.point(leaf.atomic, PointKind.ATOMIC))
        points = {level.point for level in self.levels}
        self.distinct = len(points) == len(self.levels)
        self.version: Optional[int] = None
        self.event_ids: Optional[tuple[int, ...]] = None
        self.atomic_id: Optional[int] = None
        self.rows_key: object = ()
        self.rows: tuple = ()
        self.sums: dict[int, tuple] = {}

    def terms(self, build: KtauBuildConfig, step_cycles: Optional[int],
              n: int) -> tuple:
        """The terms of a summed call of ``n`` passes: ``(closes, span,
        starts, stops, order, firings, extras)``.  ``closes`` are
        ``(event_id, count, incl, excl)``, innermost first; ``span`` is
        the call's length; ``starts`` and ``stops`` count its start and
        stop draws (one stop per exit), taken in the
        :meth:`~repro.core.overhead.OverheadModel.charge` ``order``;
        ``firings`` counts its points' firings; ``extras`` is the
        layout's."""
        if self.rows_key != step_cycles:
            self.rows = layout(build, self, step_cycles)
            self.rows_key, self.sums = step_cycles, {}
        rows, head_cycles, step, (h, b, a), extras = self.rows
        closes = [(event_id, 1, incl + n * step, excl) if enclosing
                  else (event_id, n, n * incl, n * excl)
                  for event_id, enclosing, incl, excl in rows]
        terms = self.sums[n] = (closes, head_cycles + n * step,
                                h + n * (b + a), h + n * b,
                                (h, b + a, b, n), 2 * h + n * (2 * b + a),
                                extras)
        return terms


class KtauTaskData:
    """KTAU's per-process measurement structure (lives in the PCB).

    Attributes
    ----------
    profile / atomic:
        Event-ID-indexed counter tables.
    stack:
        The activation stack used for inclusive/exclusive accounting.
    trace:
        Circular trace buffer, present when tracing is built in.
    user_context:
        Name of the innermost user-level (TAU) routine currently active in
        this process, or ``None``; maintained by the TAU layer, consumed by
        the merge support.
    context_pairs:
        ``(user_context, event_id) -> [count, excl_cycles]`` attribution
        map (the merged-view data source).
    pending_overhead_ns:
        Measurement overhead charged but not yet folded into simulated
        time; the CPU executor drains this into the task's next burst.
    """

    __slots__ = (
        "pid", "comm", "profile", "atomic", "stack", "trace", "user_context",
        "context_pairs", "pending_overhead_ns", "overhead_cycles",
        "active_counts", "unmatched_exits", "frozen",
        "counters", "counter_profile", "callgraph",
    )

    def __init__(self, pid: int, comm: str, trace: Optional[TraceBuffer]):
        self.pid = pid
        self.comm = comm
        self.profile: dict[int, PerfData] = {}
        self.atomic: dict[int, AtomicData] = {}
        self.stack: list[_StackEntry] = []
        self.trace = trace
        self.user_context: Optional[str] = None
        self.context_pairs: dict[tuple[str, int], list[int]] = {}
        self.pending_overhead_ns = 0
        self.overhead_cycles = 0
        self.active_counts: dict[int, int] = {}
        self.unmatched_exits = 0
        #: Set when the process dies; further recording is a no-op so that
        #: late generator teardown cannot corrupt the zombie profile.
        self.frozen = False
        #: the task's simulated PMCs, installed by the kernel at
        #: registration when the counters extension is built in; entry
        #: and exit snapshot them, and kernel span chains advance them
        self.counters: Optional[TaskCounters] = None
        #: event_id -> [count, incl cycles, incl instructions,
        #: incl l2 misses, incl minor faults, incl major faults]
        self.counter_profile: dict[int, list[int]] = {}
        #: (parent key, event_id) -> [count, incl cycles]; parent key is
        #: "K:<event>" for a kernel parent, "U:<routine>" for the user
        #: context at a stack root, or "" for a bare root
        self.callgraph: dict[tuple[str, int], list[int]] = {}


class Ktau:
    """One kernel's KTAU measurement system.

    Parameters
    ----------
    clock:
        The node's TSC.
    build:
        Compile-time configuration (which groups exist, tracing, merge).
    control:
        Boot/runtime enable flags; defaults to "everything compiled is on".
    overhead:
        Cost model for measurement operations; ``None`` selects the paper's
        Table 4 model only if the caller provides an RNG-backed model, so
        the default here is zero overhead (callers building real kernels
        pass a proper model).
    strict:
        Opt-in sanitizer mode.  When true, activation-stack imbalance
        (an exit with no matching entry, out of LIFO order, or a task
        dying with spans still open) raises
        :class:`InstrumentationImbalanceError` naming the point, and
        per-task trace buffers raise
        :class:`~repro.core.tracebuf.TraceOverflowError` on record loss.
        Default off: production behaviour (count and drop) is unchanged.
    """

    def __init__(self, clock: CycleClock, build: KtauBuildConfig,
                 control: Optional[KtauRuntimeControl] = None,
                 overhead: Optional[OverheadModel] = None,
                 strict: bool = False):
        self.clock = clock
        self.build = build
        self.control = control if control is not None else KtauRuntimeControl(build)
        self.overhead = overhead if overhead is not None else ZeroOverheadModel()
        self.overhead.bind(clock.hz, build.tracing)
        #: a disabled point's flag check, in cycles and in ns
        check = self.overhead.DISABLED_CHECK_CYCLES
        self._check = (check, clock.ns_for_cycles(check))
        self.strict = strict
        self.registry = EventRegistry()
        self.tasks: dict[int, KtauTaskData] = {}
        self.zombies: dict[int, KtauTaskData] = {}
        # Hot-path accelerators.  Firing state is invariant until the
        # runtime control changes, so it is cached by point against the
        # control's version counter.  Span chains are laid out once, by
        # chain object, and resolved once per version.
        self._state_cache: dict[InstrumentationPoint, int] = {}
        self._state_cache_version = -1
        self._chains: dict[object, _Chain] = {}
        # Harness observability (repro.obs): always-on plain counters for
        # the firing-state cache, published as deltas at flush points
        # (task exit, /proc snapshot) — never per firing.
        self._firings = 0
        self._cache_misses = 0
        self._cache_invalidations = 0
        self._counter_samples = 0
        self._obs_base = [0, 0, 0, 0]

    # ------------------------------------------------------------------
    # Process life-cycle (engaged on fork/exit)
    # ------------------------------------------------------------------
    def register_task(self, pid: int, comm: str) -> KtauTaskData:
        """Allocate measurement structures for a newly created process."""
        if pid in self.tasks:
            raise ValueError(f"pid {pid} already registered")
        trace = None
        if self.build.tracing:
            trace = TraceBuffer(self.build.trace_buffer_entries,
                                strict=self.strict)
        data = KtauTaskData(pid, comm, trace)
        self.tasks[pid] = data
        return data

    def on_task_exit(self, pid: int) -> None:
        """Move a dying process's data to the zombie store for later reaping."""
        data = self.tasks.pop(pid, None)
        if data is not None:
            if self.strict and data.stack:
                open_points = ", ".join(
                    f"'{self.registry.name_of(frame.event_id)}'"
                    for frame in data.stack)
                raise InstrumentationImbalanceError(
                    f"task {pid} ({data.comm}) exited with "
                    f"{len(data.stack)} instrumentation span(s) still "
                    f"open: {open_points} (every entry needs a matching "
                    f"exit before process exit)")
            self.zombies[pid] = data
            if _obs.metrics_on:
                self._publish_obs(data)

    def reap(self, pid: int) -> Optional[KtauTaskData]:
        """Remove and return a zombie's data (runKtau's extraction step)."""
        return self.zombies.pop(pid, None)

    # ------------------------------------------------------------------
    # The three instrumentation macros
    # ------------------------------------------------------------------
    def _fire(self, data: KtauTaskData, point: InstrumentationPoint) -> int:
        """Count a firing of ``point`` in ``data``'s task and return its
        firing state, charging a disabled point's flag check (the enabled
        paths charge their draws in line)."""
        self._firings += 1
        state = (self._state_cache.get(point)
                 if self.control.version == self._state_cache_version else None)
        if state is None:
            state = self._resolve_state(point)
        if state == 1:
            cycles, ns = self._check
            data.pending_overhead_ns += ns
            data.overhead_cycles += cycles
        return state

    def _resolve_state(self, point: InstrumentationPoint) -> int:
        """Firing state of ``point`` when the in-line cache check misses:
        0 = no-op, 1 = compiled but disabled (flag check), 2 = enabled."""
        control = self.control
        if control.version != self._state_cache_version:
            self._state_cache.clear()
            self._state_cache_version = control.version
            self._cache_invalidations += 1
        state = self._state_cache.get(point)
        if state is None:
            self._cache_misses += 1
            if not control.group_compiled(point.group):
                state = 0
            elif not control.group_enabled(point.group):
                state = 1
            elif not control.point_enabled(point.name):
                state = 1  # per-point runtime disable: flag-check cost only
            else:
                state = 2
            self._state_cache[point] = state
        return state

    def entry(self, data: KtauTaskData, point: InstrumentationPoint,
              at_cycles: Optional[int] = None) -> None:
        """Entry/exit macro: entry side.

        ``at_cycles`` lets kernel paths whose durations are computed ahead
        of time (interrupt/softirq sequences) stamp events at their true
        positions instead of the current TSC.
        """
        if data.frozen or self._fire(data, point) != 2:
            return
        event_id = point.event_id
        if event_id is None:
            event_id = self.registry.bind(point)
        self._open(data, event_id,
                   self.clock.read() if at_cycles is None else at_cycles)

    def exit(self, data: KtauTaskData, point: InstrumentationPoint,
             at_cycles: Optional[int] = None) -> None:
        """Entry/exit macro: exit side."""
        if data.frozen or self._fire(data, point) != 2:
            return
        event_id = point.event_id
        if event_id is None:
            # Exit without any prior entry firing (e.g. enabled mid-region).
            data.unmatched_exits += 1
            if self.strict:
                raise InstrumentationImbalanceError(
                    f"exit for '{point.name}' in task {data.pid} "
                    f"({data.comm}) but that point never fired an entry")
            return
        if not data.stack or data.stack[-1].event_id != event_id:
            # Mid-region enable/disable can unbalance the stack; KTAU guards
            # with depth checks and drops the sample.
            data.unmatched_exits += 1
            if self.strict:
                if data.stack:
                    innermost = self.registry.name_of(data.stack[-1].event_id)
                    detail = (f"innermost open entry is '{innermost}' "
                              f"(depth {len(data.stack)})")
                else:
                    detail = "the activation stack is empty"
                raise InstrumentationImbalanceError(
                    f"unmatched exit for '{point.name}' in task {data.pid} "
                    f"({data.comm}): {detail}")
            return
        self._close(data, self.clock.read() if at_cycles is None else at_cycles)

    def _open(self, data: KtauTaskData, event_id: int, now: int) -> None:
        """Push an activation frame for an enabled entry stamped ``now``."""
        counters = data.counters
        data.stack.append(_StackEntry(
            event_id, now, data.user_context,
            None if counters is None else counters.read()))
        active = data.active_counts
        active[event_id] = active.get(event_id, 0) + 1
        cycles, ns = self.overhead.draw_start()
        if data.trace is not None:
            data.trace.append(now, event_id, ENTRY, 0)
        data.pending_overhead_ns += ns
        data.overhead_cycles += cycles

    def _close(self, data: KtauTaskData, now: int) -> None:
        """Close the innermost frame (the caller checked it is the exiting
        point's) with an enabled exit stamped ``now``."""
        stack = data.stack
        frame = stack.pop()
        event_id = frame.event_id
        incl = now - frame.entry_cycles
        excl = incl - frame.child_cycles
        if excl < 0:
            excl = 0
        perf = data.profile.get(event_id)
        if perf is None:
            perf = PerfData()
            data.profile[event_id] = perf
        perf.count += 1
        remaining = data.active_counts.get(event_id, 1) - 1
        data.active_counts[event_id] = remaining
        if remaining == 0:
            perf.incl_cycles += incl
        perf.excl_cycles += excl
        if stack:
            stack[-1].child_cycles += incl
        if frame.user_ctx is not None:
            key = (frame.user_ctx, event_id)
            pair = data.context_pairs.get(key)
            if pair is None:
                data.context_pairs[key] = [1, excl]
            else:
                pair[0] += 1
                pair[1] += excl
        if frame.entry_pmc is not None:
            pmc = data.counters.read()
            base = frame.entry_pmc
            stats = data.counter_profile.get(event_id)
            if stats is None:
                data.counter_profile[event_id] = [
                    1, pmc[0] - base[0], pmc[1] - base[1], pmc[2] - base[2],
                    pmc[3] - base[3], pmc[4] - base[4]]
            else:
                stats[0] += 1
                stats[1] += pmc[0] - base[0]
                stats[2] += pmc[1] - base[1]
                stats[3] += pmc[2] - base[2]
                stats[4] += pmc[3] - base[3]
                stats[5] += pmc[4] - base[4]
            self._counter_samples += 1
        if self.build.callgraph:
            if stack:
                parent = f"K:{self.registry.name_of(stack[-1].event_id)}"
            elif frame.user_ctx is not None:
                parent = f"U:{frame.user_ctx}"
            else:
                parent = ""
            edge = data.callgraph.get((parent, event_id))
            if edge is None:
                data.callgraph[(parent, event_id)] = [1, incl]
            else:
                edge[0] += 1
                edge[1] += incl
        cycles, ns = self.overhead.draw_stop()
        if data.trace is not None:
            data.trace.append(now, event_id, EXIT, 0)
        data.pending_overhead_ns += ns
        data.overhead_cycles += cycles

    def atomic(self, data: KtauTaskData, point: InstrumentationPoint, value: int,
               at_cycles: Optional[int] = None) -> None:
        """Atomic-event macro: a stand-alone event carrying a value."""
        if point.kind != PointKind.ATOMIC:
            raise ValueError(f"{point.name} is not an atomic point")
        if data.frozen or self._fire(data, point) != 2:
            return
        event_id = point.event_id
        if event_id is None:
            event_id = self.registry.bind(point)
        stats = data.atomic.get(event_id)
        if stats is None:
            stats = AtomicData()
            data.atomic[event_id] = stats
        stats.record(value)
        cycles, ns = self.overhead.draw_atomic()
        if data.trace is not None:
            stamp = self.clock.read() if at_cycles is None else at_cycles
            data.trace.append(stamp, event_id, ATOMIC, value)
        data.pending_overhead_ns += ns
        data.overhead_cycles += cycles

    # ------------------------------------------------------------------
    # Kernel span chains
    # ------------------------------------------------------------------
    def record(self, data: KtauTaskData, chain, t_cycles: int,
               values: Optional[Sequence[int]] = None,
               step_cycles: Optional[int] = None) -> int:
        """Record a kernel span chain's events from ``t_cycles`` on; returns
        the closing stamp.

        ``chain`` is read by duck typing (a :class:`~repro.kernel.irq.KSpan`:
        ``name``, ``cost_ns``, ``child``, ``atomic``, ``rates``): spans
        nested one in the next, each laying out its own cost before its
        child.  It is laid out once per measurement system and kept by
        object, so callers pass long-lived templates.  When the task has
        PMCs (``data.counters``), each span advances them by its own cost
        at its path's rates between its entry and exit snapshots.

        ``values`` runs the leaf once per value, back to back inside one
        pass of the spans enclosing it, and the leaf's ``atomic`` point
        fires with the value just before the leaf exits.  With
        ``step_cycles`` the whole chain runs once per value instead: pass
        ``i`` opens at ``t_cycles + i * step_cycles`` and all its spans
        close at that start plus ``step_cycles``.  ``values=None`` records
        one pass of a chain whose leaf has no atomic.

        Outside strict mode, for a live task whose chain points are all
        enabled, distinct and not already open, the call is summed in one
        step, in every build.  Profiles, merge pairs, the parent frame's
        child time, the firing count and the atomic's totals are added
        once; so are the counter profile and the PMCs (each span's advance
        is truncated on its own, as ``TaskCounters.advance`` does), the
        call-graph edges, and the trace records, appended in the per-event
        order with one ``extend``.  The overhead draws are charged with
        one :meth:`~repro.core.overhead.OverheadModel.charge`, each draw
        rounded to nanoseconds on its own and in the per-event order
        wherever a sampler refills, so the samplers' streams and the
        pending overhead match the per-event result; points bind in the
        per-event order.  Every other call (a strict build, a frozen task, a point
        that does not fire, a repeated or already open point) is walked:
        each span's entry and exit, and the atomic, fire one by one
        through the macros' firing check.  Only a live call outside
        strict mode resolves its points before the first fires, so a
        strict ring overflow that aborts a call leaves the firing-cache
        counts the per-call macros would.
        """
        plan = self._chains.get(chain)
        if plan is None:
            plan = self._chains[chain] = _Chain(chain, self.registry,
                                                self.clock)
        if not (data.frozen or self.strict):
            if plan.version != self.control.version:
                self._resolve(plan)
            if plan.event_ids is not None and not any(
                    map(data.active_counts.get, plan.event_ids)):
                return self._sum(data, plan, t_cycles, values, step_cycles)
        return self._walk(data, plan, t_cycles, values, step_cycles)

    def _resolve(self, plan: _Chain) -> None:
        """Resolve ``plan`` under the current firing-state version; when a
        call can be summed, bind its points (spans outermost first, the
        atomic last) and keep their event IDs."""
        levels, atomic = plan.levels, plan.atomic
        states = [self._resolve_state(level.point) for level in levels]
        plan.version = self.control.version
        plan.event_ids = None
        if (plan.distinct and all(state == 2 for state in states)
                and (atomic is None or self._resolve_state(atomic) == 2)):
            bind = self.registry.bind
            plan.event_ids = tuple(bind(level.point) for level in levels)
            plan.atomic_id = None if atomic is None else bind(atomic)

    def _walk(self, data: KtauTaskData, plan: _Chain, t: int,
              values: Optional[Sequence[int]],
              step_cycles: Optional[int]) -> int:
        """:meth:`record` event by event, each point resolved as it fires
        (a frozen task records only its PMCs)."""
        live = not data.frozen
        levels = plan.levels
        split = 0 if step_cycles is not None else len(levels) - 1
        head, body = levels[:split], levels[split:]
        for level in head:
            t = self._enter(data, level, t)
        for value in values if values is not None else (None,):
            start = t
            for level in body:
                t = self._enter(data, level, t)
            if step_cycles is not None:
                t = start + step_cycles
            if live:
                if plan.atomic is not None:
                    self.atomic(data, plan.atomic, value, t)
                for level in reversed(body):
                    self._leave(data, level, t)
        if live:
            for level in reversed(head):
                self._leave(data, level, t)
        return t

    def _enter(self, data: KtauTaskData, level: _Level, t: int) -> int:
        """Fire ``level``'s entry at ``t`` and lay out its cost; returns
        the stamp its child opens at."""
        point = level.point
        if not data.frozen and self._fire(data, point) == 2:
            event_id = point.event_id
            if event_id is None:
                event_id = self.registry.bind(point)
            self._open(data, event_id, t)
        cycles = level.cycles
        if cycles and data.counters is not None:
            data.counters.advance(cycles, True, level.rates)
        return t + cycles

    def _leave(self, data: KtauTaskData, level: _Level, t: int) -> None:
        """Fire ``level``'s exit at ``t`` (its frame is the innermost)."""
        if self._fire(data, level.point) == 2:
            self._close(data, t)

    def _sum(self, data: KtauTaskData, plan: _Chain, t: int,
             values: Optional[Sequence[int]],
             step_cycles: Optional[int]) -> int:
        """:meth:`record` in one accounting step."""
        n = 1 if values is None else len(values)
        terms = plan.sums.get(n) if plan.rows_key == step_cycles else None
        if terms is None:
            terms = plan.terms(self.build, step_cycles, n)
        closes, span, starts, stops, order, firings, extras = terms
        active = data.active_counts
        for event_id in plan.event_ids:  # opened and closed again
            active[event_id] = 0
        if plan.atomic_id is not None:
            stats = data.atomic.get(plan.atomic_id)
            if stats is None:
                stats = data.atomic[plan.atomic_id] = AtomicData()
            stats.count += n
            stats.sum += sum(values)
            low, high = min(values), max(values)
            if stats.min is None or low < stats.min:
                stats.min = low
            if stats.max is None or high > stats.max:
                stats.max = high
        user_ctx = data.user_context
        profile, pairs = data.profile, data.context_pairs
        # Innermost first, the order the per-event path closes them in.
        for event_id, count, incl, excl in closes:
            perf = profile.get(event_id)
            if perf is None:
                perf = profile[event_id] = PerfData()
            perf.count += count
            perf.incl_cycles += incl
            perf.excl_cycles += excl
            if user_ctx is not None:
                pair = pairs.get((user_ctx, event_id))
                if pair is None:
                    pairs[(user_ctx, event_id)] = [count, excl]
                else:
                    pair[0] += count
                    pair[1] += excl
        if extras is not None:
            add_extensions(data, extras, closes, t, values,
                           self.registry.name_of)
            if extras[0] is not None and data.counters is not None:
                self._counter_samples += stops  # one per exit
        if data.stack:
            data.stack[-1].child_cycles += span
        cycles, ns = self.overhead.charge(starts, stops, order)
        data.pending_overhead_ns += ns
        data.overhead_cycles += cycles
        self._firings += firings
        return t + span

    # ------------------------------------------------------------------
    # Harness observability (repro.obs)
    # ------------------------------------------------------------------
    def _publish_obs(self, data: Optional[KtauTaskData] = None) -> None:
        """Publish firing-cache deltas (and, at a task exit, that task's
        trace-buffer totals) into the harness metrics registry.

        Called only when collection is on; daemons that never exit are
        captured by the snapshot-time delta publish instead.
        """
        from repro.obs.metrics import REGISTRY
        base = self._obs_base
        firings = self._firings
        misses = self._cache_misses
        invalidations = self._cache_invalidations
        counter_samples = self._counter_samples
        REGISTRY.counter("ktau.firings").inc(firings - base[0])
        REGISTRY.counter("ktau.firing_cache_misses").inc(misses - base[1])
        REGISTRY.counter("ktau.firing_cache_hits").inc(
            (firings - misses) - (base[0] - base[1]))
        REGISTRY.counter("ktau.cache_invalidations").inc(
            invalidations - base[2])
        REGISTRY.counter("ktau.counter_samples").inc(
            counter_samples - base[3])
        self._obs_base = [firings, misses, invalidations, counter_samples]
        if data is not None:
            REGISTRY.counter("ktau.tasks_exited").inc()
            REGISTRY.counter("ktau.unmatched_exits").inc(data.unmatched_exits)
            trace = data.trace
            if trace is not None:
                REGISTRY.counter("tracebuf.records_written").inc(
                    trace.total_records)
                REGISTRY.counter("tracebuf.records_lost").inc(
                    trace.lost_count)

    # ------------------------------------------------------------------
    # Snapshot access (backing for /proc/ktau reads)
    # ------------------------------------------------------------------
    def snapshot(self, pids: Optional[list[int]] = None,
                 include_zombies: bool = False) -> dict[int, KtauTaskData]:
        """Live references to task data for the requested scope.

        ``/proc/ktau`` serialises from these references at read time; there
        is no kernel-side session state (reads can race with updates, as in
        the real implementation).
        """
        if _obs.metrics_on:
            self._publish_obs()
        pool: dict[int, KtauTaskData] = dict(self.tasks)
        if include_zombies:
            for pid, data in self.zombies.items():
                pool.setdefault(pid, data)
        if pids is None:
            return pool
        return {pid: pool[pid] for pid in pids if pid in pool}
