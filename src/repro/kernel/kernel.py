"""The per-node kernel façade.

One :class:`Kernel` is one booted node: clock, KTAU measurement system,
scheduler, interrupt controller, syscall table, NIC, timer tick, and the
process table.  The cluster layer creates one per node and wires NICs
together through the network model.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.core.config import KtauRuntimeControl
from repro.core.measurement import Ktau
from repro.core.overhead import OverheadModel, ZeroOverheadModel
from repro.core.procfs import KtauProcFS
from repro.core.registry import InstrumentationPoint, PointKind
from repro.kernel.irq import IrqController, KSpan
from repro.kernel.net.nic import Nic
from repro.kernel.net.socket import StreamSocket
from repro.kernel.params import (KSOFTIRQD_DELAY_NS, SOFTIRQ_OVERLOAD_THRESHOLD_NS,
                                 SOFTIRQ_OVERLOAD_WINDOW_NS, TCP_TX_COST_NS,
                                 TIMER_TICK_COST_NS, KernelParams)
from repro.kernel.sched import Scheduler
from repro.kernel.syscalls import SyscallTable
from repro.kernel.task import Task
from repro.kernel.net import tcp as tcp_mod
from repro.kernel.usermode import UserContext
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine
from repro.sim.rng import RngHub


class Kernel:
    """A simulated Linux kernel instance (one node)."""

    def __init__(self, engine: Engine, params: KernelParams, name: str,
                 rng_hub: RngHub):
        self.engine = engine
        self.params = params
        self.name = name
        self.rng_hub = rng_hub
        boot_rng = rng_hub.stream(f"boot.{name}")
        self.clock = CycleClock(engine, params.hz,
                                boot_offset_cycles=int(boot_rng.integers(1 << 40)))
        if params.ktau.is_patched:
            overhead: OverheadModel = OverheadModel(rng_hub.stream(f"ktau-ovh.{name}"))
        else:
            overhead = ZeroOverheadModel()
        control = KtauRuntimeControl.from_boot_cmdline(params.ktau,
                                                       params.boot_cmdline)
        self.ktau = Ktau(self.clock, params.ktau, control=control,
                         overhead=overhead)
        self.sched = Scheduler(self)
        self.irq = IrqController(self)
        self.syscalls = SyscallTable(self)
        self.nic = Nic(self)
        self.ktau_proc = KtauProcFS(self.ktau)

        # Process table.  PID numbering starts at a node-specific base so
        # per-node PID spaces look like real, independently booted kernels.
        self._next_pid = int(boot_rng.integers(800, 20_000))
        self.tasks: dict[int, Task] = {}
        self.all_tasks: list[Task] = []

        # The idle task: interrupt work on an idle CPU is attributed here.
        self.swapper = Task(0, "swapper", self, behavior=None)
        self.swapper.is_idle = True
        if params.ktau.is_patched:
            self.swapper.ktau = self.ktau.register_task(0, "swapper")
            if params.ktau.counters:
                # Interrupt work on an idle CPU advances the idle task's
                # PMCs — the same process-centric attribution as time.
                self.swapper.ktau.counters = self.swapper.counters

        self._rx = tcp_mod.RxPath(params.cache_mismatch_factor)
        self._tx = tcp_mod.TxPath(TCP_TX_COST_NS, self.clock)
        # The timer tick's runs: every tick's, and every 16th tick's.
        apic = KSpan("smp_apic_timer_interrupt", TIMER_TICK_COST_NS)
        softirq = KSpan("do_softirq", 1_000, KSpan("run_timer_softirq", 2_000))
        self._tick_runs = (((apic, None),), ((apic, None), (softirq, None)))
        self._tick_work = (apic.total_ns, apic.total_ns + softirq.total_ns)
        self._tick_count = 0
        # Per-CPU bottom-half backlog: softirq work on one CPU serialises,
        # so concentrating all device IRQs on CPU0 (no irq-balancing)
        # delays packet delivery — the imbalance mechanism of §5.2.
        self._softirq_busy_until = [0] * params.online_cpus
        # ksoftirqd overload tracking: (window start, work in window).
        self._softirq_window = [[0, 0] for _ in range(params.online_cpus)]
        if params.timer_tick_ns:
            self._start_ticks()

    # ------------------------------------------------------------------
    # Instrumentation points
    # ------------------------------------------------------------------
    def point(self, name: str) -> InstrumentationPoint:
        """The entry/exit instrumentation point called ``name``."""
        return self.ktau.registry.point(name, PointKind.ENTRY_EXIT)

    def atomic_point(self, name: str) -> InstrumentationPoint:
        """The atomic instrumentation point called ``name``."""
        return self.ktau.registry.point(name, PointKind.ATOMIC)

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def spawn(self, behavior: Callable[[UserContext], Generator],
              comm: str, cpus_allowed: Optional[set[int]] = None,
              start_cpu: Optional[int] = None) -> Task:
        """Create and start a process running ``behavior``.

        ``behavior`` is called with a :class:`UserContext` and must return
        the process's generator.  KTAU structures are attached here —
        the measurement system is "engaged whenever a process is created".
        """
        pid = self._next_pid
        self._next_pid += 1
        task = Task(pid, comm, self, behavior=None, cpus_allowed=cpus_allowed)
        if self.params.ktau.is_patched:
            task.ktau = self.ktau.register_task(pid, comm)
            if self.params.ktau.counters:
                task.ktau.counters = task.counters
        ctx = UserContext(self, task)
        task.frames.append(behavior(ctx))
        self.tasks[pid] = task
        self.all_tasks.append(task)
        # Start through a zero-delay event: spawn returns before the task
        # executes its first instruction, so callers can attach profilers
        # or other state to the fresh task deterministically.
        self.engine.schedule(0, lambda: self.sched.start_task(task, start_cpu))
        return task

    def on_task_exited(self, task: Task) -> None:
        """Scheduler callback: detach measurement data, drop from the table."""
        self.tasks.pop(task.pid, None)
        if task.ktau is not None:
            task.ktau.frozen = True
            self.ktau.on_task_exit(task.pid)

    def send_signal(self, task: Task, sig: int) -> None:
        """Queue a signal; a blocked target is woken to take delivery."""
        if not task.alive:
            return
        task.pending_signals.append(sig)
        if task.blocked_on is not None:
            task.blocked_on.remove(task)
            task.wake_value = None
            self.sched.wake(task)

    # ------------------------------------------------------------------
    # Network receive entry point (called by the NIC arrival event)
    # ------------------------------------------------------------------
    def net_rx(self, sock: StreamSocket, segments: list[int]) -> None:
        cpu = self.irq.route(sock.flow_hash)
        mismatch = cpu != sock.consumer_cpu
        per_seg = self._rx.per_seg_ns[mismatch]
        sock.rx_proc_calls += len(segments)
        sock.rx_proc_ns += per_seg * len(segments)
        now = self.engine.now
        work = per_seg * len(segments)

        # ksoftirqd overload deferral (see repro.kernel.params): too much
        # bottom-half work on a busy CPU punts further groups to
        # ksoftirqd's schedule.
        window = self._softirq_window[cpu]
        if now - window[0] > SOFTIRQ_OVERLOAD_WINDOW_NS:
            window[0] = now
            window[1] = 0
        window[1] += work
        defer = 0
        cpu_busy = self.sched.cpus[cpu].current is not None
        if cpu_busy and window[1] > SOFTIRQ_OVERLOAD_THRESHOLD_NS:
            defer = KSOFTIRQD_DELAY_NS

        backlog = max(0, self._softirq_busy_until[cpu] - now) + defer
        if backlog > 0:
            # Queue behind earlier softirq work (and ksoftirqd latency).
            # The bottom half re-evaluates the mismatch flag when it runs.
            self.engine.schedule(backlog, lambda: self._net_rx_bh(sock, segments, cpu))
            self._softirq_busy_until[cpu] = now + backlog + self._rx.work_ns(
                mismatch, len(segments))
            return
        self._net_rx_bh(sock, segments, cpu)

    def _net_rx_bh(self, sock: StreamSocket, segments: list[int], cpu: int) -> None:
        mismatch = cpu != sock.consumer_cpu
        rx = self._rx
        done = self.irq.deliver(cpu, rx.work_ns(mismatch, len(segments)),
                                ((rx.hard, None),
                                 (rx.softirq[mismatch], segments)))
        if done > self._softirq_busy_until[cpu]:
            self._softirq_busy_until[cpu] = done
        nbytes = sum(segments)
        self.engine.schedule_at(done, lambda: sock.deliver(nbytes))

    # ------------------------------------------------------------------
    # Timer tick
    # ------------------------------------------------------------------
    def _start_ticks(self) -> None:
        period = self.params.timer_tick_ns
        assert period is not None
        ncpus = self.params.online_cpus
        for cpu_idx in range(ncpus):
            stagger = ((cpu_idx + 1) * period) // (ncpus + 1)
            self.engine.schedule(stagger, self._tick_cb(cpu_idx))

    def _tick_cb(self, cpu_idx: int):
        def on_tick() -> None:
            self._tick_count += 1
            softirq = self._tick_count % 16 == 0
            self.irq.deliver(cpu_idx, self._tick_work[softirq],
                             self._tick_runs[softirq])
            # rebalance_tick: idle CPUs pull queued work from busy siblings.
            self.sched.tick_balance(cpu_idx)
            period = self.params.timer_tick_ns
            assert period is not None
            self.engine.schedule(period, self._tick_cb(cpu_idx))
        return on_tick

    # ------------------------------------------------------------------
    # /proc odds and ends
    # ------------------------------------------------------------------
    def cpuinfo(self) -> str:
        """What /proc/cpuinfo shows — the Chiba anomaly is visible here:
        a 2-CPU node whose kernel 'erroneously detected only a single
        processor' reports one entry."""
        mhz = self.params.hz / 1e6
        blocks = []
        for i in range(self.params.online_cpus):
            blocks.append(f"processor\t: {i}\ncpu MHz\t\t: {mhz:.3f}\n")
        return "\n".join(blocks)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Kernel {self.name} cpus={self.params.online_cpus} tasks={len(self.tasks)}>"
