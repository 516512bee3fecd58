"""The CPU scheduler and task executor.

An event-driven model of the Linux 2.6 O(1) scheduler, reduced to the
mechanisms the paper's experiments depend on:

* per-CPU runqueues with round-robin timeslices — timeslice expiry and
  runqueue wait produce **involuntary** scheduling;
* blocking on wait queues produces **voluntary** scheduling;
* wakeup preemption driven by a sleep-average interactivity estimate
  (a long-sleeping daemon preempts a CPU-bound MPI rank, Figure 2-C);
* weak CPU affinity with imperfect wakeup placement and cache-hot idle
  stealing — the mechanism behind the unpinned 64x2 runs' residual
  preemption (Figure 6) that pinning removes;
* hard pinning via ``cpus_allowed``.

Scheduling is *event-driven*, not tick-driven: timeslice expiry and burst
completion are scheduled analytically and retracted when plans change
(design choice 1 in DESIGN.md; the tick-driven ablation lives in the
benchmarks).

KTAU sees scheduling through the ``schedule`` (involuntary) and
``schedule_vol`` (voluntary) instrumentation points, fired *in the context
of the descheduled task*: the entry fires when the task leaves the CPU and
the exit when it gets back on, so the event's inclusive time is exactly
the time the process spent switched out — the paper's process-centric
semantics (§5.1).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.core.counters import rates_for_path
from repro.kernel.effects import Block, Compute, Exit, KCompute, Migrate, Syscall
from repro.kernel.params import (CACHE_HOT_NS, CTX_SWITCH_COST_NS,
                                 IDLE_WAKE_PROB, MINOR_FAULT_COST_NS,
                                 SLEEP_AVG_CAP_NS, TIMESLICE_NS,
                                 WAKEUP_MISPLACE_PROB,
                                 WAKEUP_PREEMPT_MARGIN_NS)
from repro.kernel.task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.sim.engine import EventHandle


class Cpu:
    """One logical CPU: a runqueue plus the currently executing task."""

    __slots__ = (
        "idx", "runqueue", "current",
        "burst_handle", "burst_started", "burst_planned", "burst_stolen",
        "burst_kernel", "expiry_handle", "expiry_deadline",
        "run_started", "stint_stolen", "switch_penalty_ns",
        "steal_retry_handle", "idle_since", "prev_task",
    )

    def __init__(self, idx: int):
        self.idx = idx
        self.runqueue: deque[Task] = deque()
        self.current: Optional[Task] = None
        # current burst
        self.burst_handle: Optional["EventHandle"] = None
        self.burst_started = 0
        self.burst_planned = 0
        self.burst_stolen = 0
        self.burst_kernel = False
        # timeslice
        self.expiry_handle: Optional["EventHandle"] = None
        self.expiry_deadline = 0
        # stint (continuous on-CPU period)
        self.run_started = 0
        self.stint_stolen = 0
        self.switch_penalty_ns = 0
        self.steal_retry_handle: Optional["EventHandle"] = None
        self.idle_since: Optional[int] = 0
        self.prev_task: Optional[Task] = None

    @property
    def idle(self) -> bool:
        return self.current is None and not self.runqueue

    def load(self) -> int:
        return len(self.runqueue) + (1 if self.current is not None else 0)

    def __repr__(self) -> str:  # pragma: no cover
        cur = self.current.pid if self.current else None
        return f"<Cpu{self.idx} current={cur} rq={len(self.runqueue)}>"


class Scheduler:
    """Per-node scheduler owning all CPUs and the task executor."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.cpus = [Cpu(i) for i in range(kernel.params.online_cpus)]
        self._rng = kernel.rng_hub.stream(f"sched.{kernel.name}")
        self._fault_rng = kernel.rng_hub.stream(f"fault.{kernel.name}")

    # ==================================================================
    # Public entry points
    # ==================================================================
    def start_task(self, task: Task, start_cpu: Optional[int] = None) -> None:
        """Place a newly created task on a runqueue."""
        if start_cpu is None or start_cpu not in task.cpus_allowed:
            start_cpu = min(task.cpus_allowed)
        task.last_cpu = start_cpu
        self._enqueue(task, start_cpu, allow_preempt=False)

    def wake(self, task: Task) -> None:
        """Make a blocked task runnable (the waker already dequeued it).

        Updates the sleep average, cancels any pending wakeup timer,
        chooses a CPU, and enqueues with wakeup-preemption semantics.
        """
        if task.state is not TaskState.BLOCKED:
            return  # already woken (timeout/wake race) or killed
        now = self.kernel.engine.now
        if task.wake_handle is not None:
            task.wake_handle.cancel()
            task.wake_handle = None
        task.blocked_on = None
        slept = now - task.blocked_at
        task.sleep_avg_ns = min(task.sleep_avg_ns + slept, SLEEP_AVG_CAP_NS)
        task.send_value = task.wake_value
        task.wake_value = None
        self._enqueue(task, self._pick_cpu(task), allow_preempt=True)

    def stretch(self, cpu_idx: int, delta_ns: int) -> None:
        """Interrupt-context work delays whatever ``cpu_idx`` is doing.

        Pushes the in-flight burst-completion and timeslice-expiry events
        ``delta_ns`` into the future and excludes the stolen time from the
        task's own consumption accounting.
        """
        if delta_ns <= 0:
            return
        cpu = self.cpus[cpu_idx]
        if cpu.current is None:
            return
        engine = self.kernel.engine
        cpu.burst_stolen += delta_ns
        cpu.stint_stolen += delta_ns
        if cpu.burst_handle is not None and cpu.burst_handle.active:
            cpu.burst_handle.cancel()
            end = cpu.burst_started + cpu.burst_planned + cpu.burst_stolen
            cpu.burst_handle = engine.schedule_at(end, self._burst_done_cb(cpu))
        if cpu.expiry_handle is not None and cpu.expiry_handle.active:
            cpu.expiry_handle.cancel()
            cpu.expiry_deadline += delta_ns
            cpu.expiry_handle = engine.schedule_at(
                cpu.expiry_deadline, self._expiry_cb(cpu))

    # ==================================================================
    # CPU selection and enqueueing
    # ==================================================================
    def _pick_cpu(self, task: Task) -> int:
        """Wakeup CPU placement (2.6-flavoured, see repro.kernel.params).

        Pinned tasks always go to their CPU.  Otherwise: the last CPU if
        it is free; else an idle allowed CPU; else — under placement
        pressure — occasionally a random allowed CPU (the imperfect-
        balancing abstraction), otherwise the least-loaded allowed CPU.
        """
        allowed = sorted(task.cpus_allowed)
        if len(allowed) == 1:
            return allowed[0]
        # Imperfect wake balancing first: occasionally the task lands on a
        # random allowed CPU even when a better one exists — the transient
        # co-location that idle stealing then has to untangle.
        if self._rng.random() < WAKEUP_MISPLACE_PROB:
            return int(allowed[int(self._rng.integers(len(allowed)))])
        last = task.last_cpu if task.last_cpu in task.cpus_allowed else allowed[0]
        last_cpu = self.cpus[last]
        if last_cpu.current is None:
            return last
        # Previous CPU busy: weak affinity mostly queues behind it anyway;
        # only sometimes does the wakeup find an idle CPU instead.
        idle = [i for i in allowed if self.cpus[i].idle]
        # IDLE_WAKE_PROB is 0.0, so this never moves the task, but the
        # draw stays: it advances the scheduler's RNG stream, and every
        # later placement (hence every seeded result) depends on it.
        if idle and self._rng.random() < IDLE_WAKE_PROB:
            return idle[0]
        if not idle:
            return min(allowed, key=lambda i: (self.cpus[i].load(), i != last))
        return last

    def _enqueue(self, task: Task, cpu_idx: int, allow_preempt: bool) -> None:
        cpu = self.cpus[cpu_idx]
        task.state = TaskState.READY
        task.last_cpu = cpu_idx
        cpu.runqueue.append(task)
        if cpu.current is None:
            self._cpu_reschedule(cpu)
            return
        if allow_preempt and self._should_preempt(task, cpu.current):
            # Wakeup preemption: the woken task runs immediately; the
            # runner goes right behind it (keeping its remaining slice).
            cpu.runqueue.remove(task)
            self._deschedule(cpu, voluntary=False, requeue=True, requeue_front=True)
            cpu.runqueue.appendleft(task)
            self._cpu_reschedule(cpu)
        elif cpu.expiry_handle is None:
            # The runner had the CPU to itself (no expiry armed); now that
            # it has competition, arm its slice.
            self._arm_expiry(cpu)

    def tick_balance(self, cpu_idx: int) -> None:
        """Timer-tick rebalancing for an idle CPU.

        Linux 2.6 idle CPUs pull queued work at their next tick (plus the
        newly-idle pull in :meth:`_cpu_reschedule`), so a task woken
        behind a busy CPU can wait up to one tick before an idle sibling
        rescues it — the bounded-but-real stall that unpinned co-located
        ranks pay and pinning avoids.
        """
        cpu = self.cpus[cpu_idx]
        if cpu.current is None:
            self._cpu_reschedule(cpu)

    def _should_preempt(self, woken: Task, running: Task) -> bool:
        if running.is_idle:
            return True
        return (woken.sleep_avg_ns
                > running.sleep_avg_ns + WAKEUP_PREEMPT_MARGIN_NS)

    # ==================================================================
    # Deschedule / reschedule
    # ==================================================================
    def _ktau_sched_out(self, task: Task, voluntary: bool) -> None:
        if task.ktau is None:
            return
        kernel = self.kernel
        name = "schedule_vol" if voluntary else "schedule"
        # Split-phase span by design: the scheduling-wait span opens when
        # the task is descheduled and closes in _ktau_sched_in when it is
        # scheduled back — no per-function analysis can pair these.
        kernel.ktau.entry(task.ktau, kernel.point(name))  # ktaulint: disable=KTAU101
        task.last_deschedule_reason = "vol" if voluntary else "invol"

    def _ktau_sched_in(self, task: Task) -> None:
        if task.ktau is None or task.last_deschedule_reason is None:
            return
        kernel = self.kernel
        name = "schedule_vol" if task.last_deschedule_reason == "vol" else "schedule"
        # Closes the split-phase span opened in _ktau_sched_out above.
        kernel.ktau.exit(task.ktau, kernel.point(name))  # ktaulint: disable=KTAU102
        task.last_deschedule_reason = None

    def _deschedule(self, cpu: Cpu, voluntary: bool, requeue: bool,
                    requeue_front: bool = False) -> None:
        """Take ``cpu.current`` off the CPU, closing out its accounting."""
        task = cpu.current
        assert task is not None
        now = self.kernel.engine.now
        ran = now - cpu.run_started - cpu.stint_stolen
        if ran < 0:
            ran = 0
        task.sleep_avg_ns = max(0, task.sleep_avg_ns - ran)
        task.timeslice_ns = max(0, task.timeslice_ns - ran)
        # Suspend the in-flight burst, remembering the unconsumed remainder.
        if cpu.burst_handle is not None:
            if cpu.burst_handle.active:
                cpu.burst_handle.cancel()
                consumed = now - cpu.burst_started - cpu.burst_stolen
                remaining = cpu.burst_planned - consumed
                task.pending_burst_ns = max(0, remaining)
                self._charge_time(task, max(0, consumed), cpu.burst_kernel)
            cpu.burst_handle = None
        if cpu.expiry_handle is not None:
            cpu.expiry_handle.cancel()
            cpu.expiry_handle = None
        if voluntary:
            task.nvcsw += 1
        else:
            task.nivcsw += 1
        task.last_ran_at = now
        task.last_cpu = cpu.idx
        self._ktau_sched_out(task, voluntary)
        cpu.prev_task = task
        cpu.current = None
        if requeue:
            task.state = TaskState.READY
            if requeue_front:
                cpu.runqueue.appendleft(task)
            else:
                cpu.runqueue.append(task)

    def _cpu_reschedule(self, cpu: Cpu) -> None:
        """Pick the next task for an empty CPU (with idle stealing)."""
        if cpu.current is not None:
            return
        task: Optional[Task] = None
        if cpu.runqueue:
            task = cpu.runqueue.popleft()
        else:
            task = self._try_steal(cpu)
        if task is None:
            if cpu.idle_since is None:
                cpu.idle_since = self.kernel.engine.now
            return
        self._run_task(cpu, task)

    def _try_steal(self, cpu: Cpu) -> Optional[Task]:
        """Newly-idle balancing: pull a non-cache-hot task from a sibling.

        If every candidate is still cache-hot, a retry is armed at the
        earliest cooling time so the idle CPU is not stranded.
        """
        now = self.kernel.engine.now
        best: Optional[tuple[int, Cpu, Task]] = None
        earliest_cool: Optional[int] = None
        for other in self.cpus:
            if other is cpu or len(other.runqueue) == 0:
                continue
            for cand in other.runqueue:
                if cpu.idx not in cand.cpus_allowed:
                    continue
                cool_at = cand.last_ran_at + CACHE_HOT_NS
                if cool_at > now:
                    if earliest_cool is None or cool_at < earliest_cool:
                        earliest_cool = cool_at
                    continue
                load = other.load()
                if best is None or load > best[0]:
                    best = (load, other, cand)
                break  # only consider the head-most eligible task per queue
        if best is not None:
            _, victim_cpu, task = best
            victim_cpu.runqueue.remove(task)
            task.last_cpu = cpu.idx
            return task
        if earliest_cool is not None and cpu.steal_retry_handle is None:
            def retry() -> None:
                cpu.steal_retry_handle = None
                if cpu.current is None:
                    self._cpu_reschedule(cpu)
            cpu.steal_retry_handle = self.kernel.engine.schedule_at(
                earliest_cool, retry)
        return None

    def _run_task(self, cpu: Cpu, task: Task) -> None:
        now = self.kernel.engine.now
        if cpu.idle_since is not None:
            cpu.idle_since = None
        task.state = TaskState.RUNNING
        cpu.current = task
        cpu.run_started = now
        cpu.stint_stolen = 0
        if cpu.prev_task is not task:
            cpu.switch_penalty_ns = CTX_SWITCH_COST_NS
        self._ktau_sched_in(task)
        # O(1) semantics: an expired slice refills on the next run.
        if task.timeslice_ns <= 0:
            task.timeslice_ns = TIMESLICE_NS
        self._arm_expiry(cpu)
        self._advance(cpu)

    def _arm_expiry(self, cpu: Cpu) -> None:
        if cpu.expiry_handle is not None:
            cpu.expiry_handle.cancel()
        task = cpu.current
        assert task is not None
        cpu.expiry_deadline = self.kernel.engine.now + max(task.timeslice_ns, 1)
        cpu.expiry_handle = self.kernel.engine.schedule_at(
            cpu.expiry_deadline, self._expiry_cb(cpu))

    def _expiry_cb(self, cpu: Cpu):
        def on_expiry() -> None:
            cpu.expiry_handle = None
            task = cpu.current
            if task is None:
                return
            if not cpu.runqueue:
                # Nobody waiting: refill the slice and keep running.
                task.timeslice_ns = TIMESLICE_NS
                self._arm_expiry(cpu)
                return
            self._deschedule(cpu, voluntary=False, requeue=True)
            self._cpu_reschedule(cpu)
        return on_expiry

    # ==================================================================
    # The executor: driving task generators
    # ==================================================================
    def _advance(self, cpu: Cpu) -> None:
        """Drive ``cpu.current``'s frame stack until time must pass."""
        kernel = self.kernel
        task = cpu.current
        assert task is not None
        while True:
            if task.pending_signals:
                if self._handle_signals(cpu, task):
                    return  # task died
            if task.pending_burst_ns > 0:
                self._start_burst(cpu)
                return
            frame = task.frames[-1]
            try:
                if task.pending_exception is not None:
                    exc = task.pending_exception
                    task.pending_exception = None
                    effect = frame.throw(exc)
                else:
                    effect = frame.send(task.send_value)
                    task.send_value = None
            except StopIteration as stop:
                task.frames.pop()
                if task.frames:
                    task.send_value = stop.value
                    continue
                self._do_exit(cpu, task, 0)
                return
            except Exception as exc:  # propagate through the frame stack
                task.frames.pop()
                if task.frames:
                    task.pending_exception = exc
                    continue
                # Unhandled at the outermost frame: the process dies (the
                # moral equivalent of an un-caught signal/abort).
                task.exit_exception = exc
                self._do_exit(cpu, task, -1)
                return
            if isinstance(effect, Compute):
                task.pending_burst_ns = effect.ns
                task.pending_burst_kernel = False
                self._maybe_minor_fault(task)
            elif isinstance(effect, KCompute):
                task.pending_burst_ns = effect.ns
                task.pending_burst_kernel = True
            elif isinstance(effect, Syscall):
                try:
                    handler = kernel.syscalls.dispatch(task, effect.name,
                                                       effect.args)
                except Exception as exc:  # ENOSYS and friends -> caller
                    task.pending_exception = exc
                    continue
                task.frames.append(handler)
                task.send_value = None
            elif isinstance(effect, Block):
                self._block(cpu, task, effect)
                return
            elif isinstance(effect, Exit):
                self._do_exit(cpu, task, effect.code)
                return
            elif isinstance(effect, Migrate):
                if self._apply_migration(cpu, task, effect.cpus):
                    return  # migrated off this CPU; resumes elsewhere
            else:
                raise TypeError(f"task {task} yielded non-effect {effect!r}")

    def _apply_migration(self, cpu: Cpu, task: Task, cpus: set[int]) -> bool:
        """Apply a running task's affinity change; True if it left this CPU."""
        online = set(range(self.kernel.params.online_cpus))
        allowed = cpus & online
        if not allowed:
            # Deliver EINVAL into the caller at its next resumption.
            task.pending_exception = ValueError(
                f"affinity mask {sorted(cpus)} has no online CPUs "
                f"(online={sorted(online)})")
            return False
        task.cpus_allowed = allowed
        if cpu.idx in allowed:
            return False
        self._deschedule(cpu, voluntary=False, requeue=False)
        self._enqueue(task, min(allowed), allow_preempt=True)
        self._cpu_reschedule(cpu)
        return True

    def _start_burst(self, cpu: Cpu) -> None:
        task = cpu.current
        assert task is not None
        extra = cpu.switch_penalty_ns
        cpu.switch_penalty_ns = 0
        # Fold accumulated measurement overhead into real time.
        if task.ktau is not None and task.ktau.pending_overhead_ns:
            extra += task.ktau.pending_overhead_ns
            task.ktau.pending_overhead_ns = 0
        if task.tau is not None and task.tau.pending_overhead_ns:
            extra += task.tau.pending_overhead_ns
            task.tau.pending_overhead_ns = 0
        task.pending_burst_ns += extra
        planned = task.pending_burst_ns
        dilation = self.kernel.params.smp_compute_dilation
        if dilation > 0 and not task.is_idle:
            for other in self.cpus:
                if (other is not cpu and other.current is not None
                        and not other.current.is_idle):
                    planned = int(planned * (1.0 + dilation))
                    break
        cpu.burst_started = self.kernel.engine.now
        cpu.burst_planned = planned
        task.pending_burst_ns = planned
        cpu.burst_stolen = 0
        cpu.burst_kernel = task.pending_burst_kernel
        cpu.burst_handle = self.kernel.engine.schedule(
            cpu.burst_planned, self._burst_done_cb(cpu))

    def _burst_done_cb(self, cpu: Cpu):
        def on_done() -> None:
            cpu.burst_handle = None
            task = cpu.current
            if task is None:  # pragma: no cover - retracted races
                return
            self._charge_time(task, cpu.burst_planned, cpu.burst_kernel)
            task.pending_burst_ns = 0
            self._advance(cpu)
        return on_done

    def _charge_time(self, task: Task, ns: int, kernel_mode: bool) -> None:
        if kernel_mode:
            task.stime_ns += ns
        else:
            task.utime_ns += ns
        # Advance the simulated PMCs at mode-specific rates, skipping
        # cycles already advanced out-of-band (TX spans, fault paths)
        # whose time is folded into this burst.
        cycles = self.kernel.clock.cycles_for_ns(ns)
        ahead = task.pmc_ahead_cycles
        if ahead:
            skip = cycles if ahead >= cycles else ahead
            task.pmc_ahead_cycles = ahead - skip
            cycles -= skip
        if cycles:
            rates = None if kernel_mode else task.pmc_user_rates
            task.counters.advance(cycles, kernel_mode, rates)

    def _block(self, cpu: Cpu, task: Task, effect: Block) -> None:
        now = self.kernel.engine.now
        effect.waitq.add(task)
        task.blocked_on = effect.waitq
        task.blocked_at = now
        task.state = TaskState.BLOCKED
        if effect.timeout_ns is not None:
            task.wake_handle = self.kernel.engine.schedule(
                effect.timeout_ns, self._timeout_cb(task))
        self._deschedule(cpu, voluntary=True, requeue=False)
        self._cpu_reschedule(cpu)

    def _timeout_cb(self, task: Task):
        def on_timeout() -> None:
            task.wake_handle = None
            if task.blocked_on is None:
                return
            task.blocked_on.remove(task)
            task.wake_value = None
            self.wake(task)
        return on_timeout

    def _maybe_minor_fault(self, task: Task) -> None:
        """Occasionally a user burst begins with a minor page fault."""
        params = self.kernel.params
        if params.minor_fault_prob <= 0 or task.ktau is None:
            return
        if self._fault_rng.random() >= params.minor_fault_prob:
            return
        kernel = self.kernel
        t0 = kernel.clock.read()
        t1 = t0 + kernel.clock.cycles_for_ns(MINOR_FAULT_COST_NS)
        point = kernel.point("do_page_fault")
        kernel.ktau.entry(task.ktau, point, at_cycles=t0)
        if params.ktau.counters:
            # Advance the fault's cycles between the entry/exit PMC
            # snapshots so the counter delta lands on do_page_fault; the
            # cost itself is folded into the upcoming user burst, so
            # mark those cycles as already advanced.
            fault_cycles = t1 - t0
            task.counters.fault(major=False)
            task.counters.advance(fault_cycles, True,
                                  rates_for_path("do_page_fault"))
            task.pmc_ahead_cycles += fault_cycles
        kernel.ktau.exit(task.ktau, point, at_cycles=t1)
        task.pending_burst_ns += MINOR_FAULT_COST_NS

    # ==================================================================
    # Signals and exit
    # ==================================================================
    def _handle_signals(self, cpu: Cpu, task: Task) -> bool:
        """Deliver pending signals; returns True if the task died."""
        kernel = self.kernel
        while task.pending_signals:
            sig = task.pending_signals.pop(0)
            if task.ktau is not None:
                t0 = kernel.clock.read()
                t1 = t0 + kernel.clock.cycles_for_ns(2_000)
                # signal_deliver (the handler-setup leg) nests inside the
                # do_signal dispatch span, as in the kernel's signal path.
                td0 = t0 + kernel.clock.cycles_for_ns(500)
                td1 = t1 - kernel.clock.cycles_for_ns(500)
                kernel.ktau.entry(task.ktau, kernel.point("do_signal"), at_cycles=t0)
                kernel.ktau.entry(task.ktau, kernel.point("signal_deliver"), at_cycles=td0)
                kernel.ktau.exit(task.ktau, kernel.point("signal_deliver"), at_cycles=td1)
                kernel.ktau.exit(task.ktau, kernel.point("do_signal"), at_cycles=t1)
            if sig == 9:  # SIGKILL
                self._do_exit(cpu, task, -9)
                return True
        return False

    def _do_exit(self, cpu: Cpu, task: Task, code: int) -> None:
        # Consumed bursts were charged at their completion events; nothing
        # is in flight when the executor reaches an exit.
        now = self.kernel.engine.now
        if cpu.burst_handle is not None:  # pragma: no cover - defensive
            cpu.burst_handle.cancel()
            cpu.burst_handle = None
        if cpu.expiry_handle is not None:
            cpu.expiry_handle.cancel()
            cpu.expiry_handle = None
        task.state = TaskState.EXITED
        task.exit_time_ns = now
        task.exit_code = code
        self._close_frames(task)
        cpu.prev_task = task
        cpu.current = None
        self.kernel.on_task_exited(task)
        for callback in task.exit_callbacks:
            callback(task)
        task.exit_callbacks.clear()
        self._cpu_reschedule(cpu)

    @staticmethod
    def _close_frames(task: Task) -> None:
        """Unwind a dying task's generator stack *now*.

        Closing each frame runs its ``finally`` blocks (instrumentation
        exits, TAU timer stops) at the task's exit time instead of at
        garbage-collection time, which would stamp events with an
        arbitrary future clock.
        """
        while task.frames:
            frame = task.frames.pop()
            frame.close()

    def kill_blocked(self, task: Task) -> None:
        """Force a blocked/ready task to terminate without scheduling it.

        Used for teardown (killing daemons at experiment end).
        """
        if task.state is TaskState.EXITED:
            return
        if task.blocked_on is not None:
            task.blocked_on.remove(task)
            task.blocked_on = None
        if task.wake_handle is not None:
            task.wake_handle.cancel()
            task.wake_handle = None
        for cpu in self.cpus:
            try:
                cpu.runqueue.remove(task)
            except ValueError:
                pass
        task.state = TaskState.EXITED
        task.exit_time_ns = self.kernel.engine.now
        task.exit_code = -9
        # A blocked/ready task still has its split-phase scheduling-wait
        # span open (entered in _ktau_sched_out, normally closed when the
        # task is scheduled back in).  The kill ends that wait now; close
        # the span first so the syscall exits fired by frame unwinding
        # below pop in LIFO order instead of being dropped as unmatched.
        self._ktau_sched_in(task)
        self._close_frames(task)
        self.kernel.on_task_exited(task)
        for callback in task.exit_callbacks:
            callback(task)
        task.exit_callbacks.clear()
