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
  context active at event entry is tracked when ``merge_context`` is
  built in, powering the merged user/kernel views.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.core.config import KtauBuildConfig, KtauRuntimeControl
from repro.core.counters import TaskCounters, rates_for_path
from repro.core.overhead import OverheadModel, ZeroOverheadModel
from repro.core.registry import EventRegistry, InstrumentationPoint, PointKind
from repro.core.tracebuf import TraceBuffer, TraceKind, TraceRecord
from repro.obs import runtime as _obs
from repro.sim.clock import CycleClock
from repro.sim.units import SEC


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
        map (the merged-view data source), kept when ``merge_context``.
    pending_overhead_ns:
        Measurement overhead charged but not yet folded into simulated
        time; the CPU executor drains this into the task's next burst.
    """

    __slots__ = (
        "pid", "comm", "profile", "atomic", "stack", "trace", "user_context",
        "context_pairs", "pending_overhead_ns", "overhead_cycles",
        "active_counts", "unmatched_exits", "frozen",
        "counter_source", "counter_profile", "callgraph",
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
        #: callable returning the task's PMC snapshot (cycles, insn,
        #: l2 misses, minor faults, major faults), installed by the
        #: kernel at registration when the counters extension is built in
        self.counter_source = None
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
        self.strict = strict
        self.registry = EventRegistry()
        self.tasks: dict[int, KtauTaskData] = {}
        self.zombies: dict[int, KtauTaskData] = {}
        # Hot-path accelerators.  Firing state is invariant until the
        # runtime control changes, so it is cached against the control's
        # version counter, by point and (for span trees) by name.  Span
        # costs take few distinct values, so their cycle counts are
        # memoised.  Each charge rounds its own cycles to ns in line, the
        # same expression as ``clock.ns_for_cycles``.
        self._state_cache: dict[InstrumentationPoint, int] = {}
        self._span_cache: dict[str, tuple[InstrumentationPoint, int]] = {}
        self._state_cache_version = -1
        self._cycles_of: dict[int, int] = {}
        # Runs of identical spans are summed only in the plain profiling
        # build, whose spans write nothing per activation but the totals.
        self._runs_ok = not (build.tracing or build.counters
                             or build.callgraph or strict)
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
    def _flag_check(self, data: KtauTaskData) -> None:
        """Charge a disabled point's flag check (the enabled paths charge
        their draws in line)."""
        cycles = self.overhead.disabled_check_cycles
        if cycles:
            data.pending_overhead_ns += self.clock.ns_for_cycles(cycles)
            data.overhead_cycles += cycles

    def _resolve_state(self, point: InstrumentationPoint) -> int:
        """Firing state of ``point`` when the in-line cache check misses:
        0 = no-op, 1 = compiled but disabled (flag check), 2 = enabled."""
        control = self.control
        if control.version != self._state_cache_version:
            self._state_cache.clear()
            self._span_cache.clear()
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
        if data.frozen:
            return
        self._firings += 1
        state = (self._state_cache.get(point)
                 if self.control.version == self._state_cache_version else None)
        if state is None:
            state = self._resolve_state(point)
        if state != 2:
            if state:
                self._flag_check(data)
            return
        event_id = point.event_id
        if event_id is None:
            event_id = self.registry.bind(point)
        self._open(data, event_id,
                   self.clock.read() if at_cycles is None else at_cycles)

    def exit(self, data: KtauTaskData, point: InstrumentationPoint,
             at_cycles: Optional[int] = None) -> None:
        """Entry/exit macro: exit side."""
        if data.frozen:
            return
        self._firings += 1
        state = (self._state_cache.get(point)
                 if self.control.version == self._state_cache_version else None)
        if state is None:
            state = self._resolve_state(point)
        if state != 2:
            if state:
                self._flag_check(data)
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
        data.stack.append(_StackEntry(
            event_id, now, data.user_context,
            data.counter_source() if self.build.counters
            and data.counter_source is not None else None))
        active = data.active_counts
        active[event_id] = active.get(event_id, 0) + 1
        cost = self.overhead.start_cycles()
        if data.trace is not None:
            data.trace.append(TraceRecord(now, event_id, TraceKind.ENTRY))
            cost += self.overhead.trace_extra_cycles
        if cost:
            data.pending_overhead_ns += round(cost * SEC / self.clock.hz)
            data.overhead_cycles += cost

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
        if self.build.merge_context and frame.user_ctx is not None:
            key = (frame.user_ctx, event_id)
            pair = data.context_pairs.get(key)
            if pair is None:
                data.context_pairs[key] = [1, excl]
            else:
                pair[0] += 1
                pair[1] += excl
        if self.build.counters and data.counter_source is not None \
                and frame.entry_pmc is not None:
            pmc = data.counter_source()
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
        cost = self.overhead.stop_cycles()
        if data.trace is not None:
            data.trace.append(TraceRecord(now, event_id, TraceKind.EXIT))
            cost += self.overhead.trace_extra_cycles
        if cost:
            data.pending_overhead_ns += round(cost * SEC / self.clock.hz)
            data.overhead_cycles += cost

    def atomic(self, data: KtauTaskData, point: InstrumentationPoint, value: int,
               at_cycles: Optional[int] = None) -> None:
        """Atomic-event macro: a stand-alone event carrying a value."""
        if point.kind != PointKind.ATOMIC:
            raise ValueError(f"{point.name} is not an atomic point")
        if data.frozen:
            return
        self._firings += 1
        state = (self._state_cache.get(point)
                 if self.control.version == self._state_cache_version else None)
        if state is None:
            state = self._resolve_state(point)
        if state != 2:
            if state:
                self._flag_check(data)
            return
        event_id = point.event_id
        if event_id is None:
            event_id = self.registry.bind(point)
        stats = data.atomic.get(event_id)
        if stats is None:
            stats = AtomicData()
            data.atomic[event_id] = stats
        stats.record(value)
        cost = self.overhead.atomic_cycles()
        if data.trace is not None:
            stamp = self.clock.read() if at_cycles is None else at_cycles
            data.trace.append(TraceRecord(stamp, event_id, TraceKind.ATOMIC, value))
            cost += self.overhead.trace_extra_cycles
        if cost:
            data.pending_overhead_ns += round(cost * SEC / self.clock.hz)
            data.overhead_cycles += cost

    # ------------------------------------------------------------------
    # Kernel span trees
    # ------------------------------------------------------------------
    def record_tree(self, data: KtauTaskData, tree, t_cycles: int,
                    counters: Optional[TaskCounters] = None,
                    end_cycles: Optional[int] = None) -> int:
        """Record a kernel span tree's events from ``t_cycles`` on.

        ``tree`` is read by duck typing (a :class:`~repro.kernel.irq.KSpan`:
        ``name``, ``cost_ns``, ``children``, ``atomics``, ``rates``).  A
        span's own cost is laid out before its children, so its exclusive
        time is its ``cost_ns``; its atomics fire just before it exits.
        With counters built in, each span advances ``counters`` by its own
        cost at its path's rates between its entry and exit snapshots.
        ``end_cycles``, when given, is the stamp the root and its chain of
        last children close on, instead of the sum of the laid-out costs.
        Returns the closing stamp.
        """
        live = not data.frozen
        if live:
            self._firings += 1
            hit = (self._span_cache.get(tree.name)
                   if self.control.version == self._state_cache_version
                   else None)
            if hit is None:
                point = self.registry.point(tree.name)
                hit = self._span_cache[tree.name] = (
                    point, self._resolve_state(point))
            point, state = hit
            if state == 2:
                event_id = point.event_id
                if event_id is None:
                    event_id = self.registry.bind(point)
                self._open(data, event_id, t_cycles)
            elif state:
                self._flag_check(data)
        cost_cycles = self._cycles_of.get(tree.cost_ns)
        if cost_cycles is None:
            cost_cycles = self._cycles_of[tree.cost_ns] = \
                self.clock.cycles_for_ns(tree.cost_ns)
        if cost_cycles and counters is not None and self.build.counters:
            rates = tree.rates
            counters.advance(cost_cycles, True, rates if rates is not None
                             else rates_for_path(tree.name))
        t = t_cycles + cost_cycles
        children = tree.children
        if children:
            if (self._runs_ok and end_cycles is None and len(children) > 1
                    and (run_end := self._record_leaf_run(
                        data, children, t)) is not None):
                t = run_end
            else:
                for child in children[:-1]:
                    t = self.record_tree(data, child, t, counters)
                t = self.record_tree(data, children[-1], t, counters,
                                     end_cycles)
        if end_cycles is not None:
            t = end_cycles
        for name, value in tree.atomics:
            self.atomic(data, self.registry.point(name, PointKind.ATOMIC),
                        value, t)
        if live:
            self._firings += 1
            if state == 2:
                self._close(data, t)
            elif state:
                self._flag_check(data)
        return t

    def _record_leaf_run(self, data: KtauTaskData, children,
                         t_cycles: int) -> Optional[int]:
        """:meth:`record_run` for siblings that are identical leaves (same
        name and cost, no children, one atomic of the same point), each
        closing at its start plus its cost; ``None`` when they are not."""
        first = children[0]
        name, cost_ns, atomics = first.name, first.cost_ns, first.atomics
        if first.children or len(atomics) != 1:
            return None
        atomic_name = atomics[0][0]
        values = []
        for child in children:
            atomics = child.atomics
            if (child.name != name or child.cost_ns != cost_ns
                    or child.children or len(atomics) != 1
                    or atomics[0][0] != atomic_name):
                return None
            values.append(atomics[0][1])
        return self.record_run(data, first, t_cycles, values,
                               self._cycles_for(cost_ns))

    def _cycles_for(self, ns: int) -> int:
        """``clock.cycles_for_ns``, memoised (span costs repeat)."""
        cycles = self._cycles_of.get(ns)
        if cycles is None:
            cycles = self._cycles_of[ns] = self.clock.cycles_for_ns(ns)
        return cycles

    def record_run(self, data: KtauTaskData, chain, t_cycles: int,
                   values: list[int], step_cycles: int) -> Optional[int]:
        """Record ``len(values)`` back-to-back activations of ``chain`` in
        one accounting step.

        ``chain`` is a span read like :meth:`record_tree`'s ``tree``
        whose descendants form a single-child chain of distinct names;
        its leaf's one atomic names the point that fires once per activation, carrying
        the next of ``values``.  Activation ``i`` opens at ``t_cycles +
        i * step_cycles`` with each span's cost laid out before its
        child, and every level closes at the activation's start plus
        ``step_cycles``.

        The result is that of recording the activations one by one
        through :meth:`record_tree`.  Profiles, merge pairs, the parent
        frame's child time, the firing count and the atomic's totals are
        added once per run.  The overhead draws are still taken one at a
        time in the per-activation order (each level's start, the
        atomic's, then the stops innermost first) and each is rounded to
        nanoseconds on its own, so the samplers' shared RNG stream and
        the pending overhead match to the nanosecond.  Points are bound
        in the per-event order: outer span first, the atomic last.

        Returns the closing stamp of the last activation, or ``None``,
        having recorded nothing, when the activations need the per-event
        path: a tracing, counters, call-graph or strict build, a frozen
        task, a point not enabled, or a chain event already open on the
        task's stack.
        """
        if not self._runs_ok or data.frozen or not values:
            return None
        registry = self.registry
        levels = []  # (point, open offset in cycles), outermost first
        offset = 0
        span = chain
        while True:
            hit = (self._span_cache.get(span.name)
                   if self.control.version == self._state_cache_version
                   else None)
            if hit is None:
                point = registry.point(span.name)
                hit = self._span_cache[span.name] = (
                    point, self._resolve_state(point))
            if hit[1] != 2:
                return None
            levels.append((hit[0], offset))
            offset += self._cycles_for(span.cost_ns)
            if not span.children:
                break
            span = span.children[0]
        atomic_point = registry.point(span.atomics[0][0], PointKind.ATOMIC)
        state = (self._state_cache.get(atomic_point)
                 if self.control.version == self._state_cache_version
                 else None)
        if state is None:
            state = self._resolve_state(atomic_point)
        if state != 2:
            return None
        event_ids = [registry.bind(point) for point, _ in levels]
        atomic_id = registry.bind(atomic_point)
        active = data.active_counts
        if any(active.get(event_id) for event_id in event_ids):
            return None

        n = len(values)
        for event_id in event_ids:  # opened and closed again
            active[event_id] = 0
        stats = data.atomic.get(atomic_id)
        if stats is None:
            stats = data.atomic[atomic_id] = AtomicData()
        stats.count += n
        stats.sum += sum(values)
        low, high = min(values), max(values)
        if stats.min is None or low < stats.min:
            stats.min = low
        if stats.max is None or high > stats.max:
            stats.max = high
        user_ctx = data.user_context if self.build.merge_context else None
        child_incl = 0
        for (_, offset), event_id in zip(reversed(levels),
                                         reversed(event_ids)):
            incl = step_cycles - offset
            excl = incl - child_incl
            if excl < 0:
                excl = 0
            perf = data.profile.get(event_id)
            if perf is None:
                perf = data.profile[event_id] = PerfData()
            perf.count += n
            perf.incl_cycles += n * incl
            perf.excl_cycles += n * excl
            if user_ctx is not None:
                pair = data.context_pairs.get((user_ctx, event_id))
                if pair is None:
                    data.context_pairs[(user_ctx, event_id)] = [n, n * excl]
                else:
                    pair[0] += n
                    pair[1] += n * excl
            child_incl = incl
        if data.stack:
            data.stack[-1].child_cycles += n * child_incl

        overhead = self.overhead
        depth = len(levels)
        hz = self.clock.hz
        costs = [draw() for draw in ((overhead.start_cycles,) * depth
                                     + (overhead.atomic_cycles,)
                                     + (overhead.stop_cycles,) * depth) * n]
        data.pending_overhead_ns += sum([round(cost * SEC / hz)
                                         for cost in costs])
        data.overhead_cycles += sum(costs)
        self._firings += n * (2 * depth + 1)
        return t_cycles + n * step_cycles

    @contextmanager
    def span(self, data: KtauTaskData, point: InstrumentationPoint) -> Iterator[None]:
        """Entry/exit pair as a context manager, usable across generator yields."""
        self.entry(data, point)
        try:
            yield
        finally:
            self.exit(data, point)

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
