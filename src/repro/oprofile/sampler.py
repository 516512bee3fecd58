"""The sampling engine and its daemon.

A profiling interrupt fires on every CPU each ``period_ns`` (OProfile
uses NMI-driven performance-counter overflow; the simulated equivalent
is a dedicated periodic interrupt).  Each firing attributes one sample
to whatever the CPU was doing:

* an idle CPU samples as ``("idle", "poll_idle")``;
* a running task samples its innermost *kernel* event if its KTAU
  activation stack is non-empty (we are in the kernel), otherwise its
  innermost user routine (TAU context) or plain ``"user"``.

Samples accumulate in fixed-size per-CPU buffers; like the real tool, a
full buffer **drops** samples until the daemon drains it — one concrete
mechanism behind sampling's accuracy problems.  The sampling interrupt
itself costs CPU and is visible to KTAU (it is, after all, interrupt
work in somebody's context).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.kernel.irq import KSpan
from repro.sim.units import MSEC, USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


@dataclass(frozen=True)
class Sample:
    """One statistical sample."""

    time_ns: int
    cpu: int
    pid: int
    comm: str
    symbol: str  # kernel event, user routine, or "user"/"poll_idle"


class OProfileSampler:
    """Per-node sampling engine."""

    def __init__(self, kernel: "Kernel", period_ns: int = 1 * MSEC,
                 buffer_capacity: int = 4096,
                 sample_cost_ns: int = 2 * USEC):
        self.kernel = kernel
        self.period_ns = period_ns
        self.buffer_capacity = buffer_capacity
        #: the profiling interrupt, the same span for every sample
        self._irq = KSpan("do_IRQ", sample_cost_ns)
        self.buffers: list[list[Sample]] = [
            [] for _ in range(kernel.params.online_cpus)]
        self.dropped = 0
        self.total_samples = 0
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the profiling interrupt on every CPU (staggered)."""
        if self._running:
            return
        self._running = True
        for cpu_idx in range(self.kernel.params.online_cpus):
            stagger = (cpu_idx + 1) * self.period_ns // (
                self.kernel.params.online_cpus + 1)
            self.kernel.engine.schedule(stagger, self._tick_cb(cpu_idx))

    def stop(self) -> None:
        self._running = False

    def _tick_cb(self, cpu_idx: int):
        def fire() -> None:
            if not self._running:
                return
            self._take_sample(cpu_idx)
            self.kernel.engine.schedule(self.period_ns, self._tick_cb(cpu_idx))
        return fire

    # ------------------------------------------------------------------
    def _resolve_symbol(self, task: Optional["Task"]) -> tuple[int, str, str]:
        if task is None:
            return (0, "idle", "poll_idle")
        data = task.ktau
        if data is not None and data.stack:
            name = self.kernel.ktau.registry.name_of(data.stack[-1].event_id)
            return (task.pid, task.comm, name)
        if data is not None and data.user_context:
            return (task.pid, task.comm, data.user_context)
        tau = task.tau
        if tau is not None and tau.stack:
            return (task.pid, task.comm, tau.stack[-1].name)
        return (task.pid, task.comm, "user")

    def _take_sample(self, cpu_idx: int) -> None:
        kernel = self.kernel
        cpu = kernel.sched.cpus[cpu_idx]
        pid, comm, symbol = self._resolve_symbol(cpu.current)
        self.total_samples += 1
        buffer = self.buffers[cpu_idx]
        if len(buffer) >= self.buffer_capacity:
            self.dropped += 1
        else:
            buffer.append(Sample(kernel.engine.now, cpu_idx, pid, comm, symbol))
        # the profiling interrupt itself costs CPU in the current context
        kernel.irq.deliver(cpu_idx, self._irq.total_ns, ((self._irq, None),),
                           count_irq=False)

    # ------------------------------------------------------------------
    def drain(self) -> list[Sample]:
        """Remove and return all buffered samples (the daemon's read)."""
        out: list[Sample] = []
        for buffer in self.buffers:
            out.extend(buffer)
            buffer.clear()
        out.sort(key=lambda s: s.time_ns)
        return out


class OProfileDaemon:
    """``oprofiled``: periodically drains the sample buffers.

    The daemon is a real process on the node — the "requirement of a
    daemon" the paper counts against this model — and its drain work
    costs CPU proportional to the volume moved.
    """

    DRAIN_COST_PER_SAMPLE_NS = 300

    def __init__(self, sampler: OProfileSampler, period_ns: int = 200 * MSEC):
        self.sampler = sampler
        self.period_ns = period_ns
        self.samples: list[Sample] = []
        self.task = None

    def start(self):
        def behavior(ctx):
            while True:
                yield from ctx.sleep(self.period_ns)
                drained = self.sampler.drain()
                self.samples.extend(drained)
                cost = max(10 * USEC,
                           len(drained) * self.DRAIN_COST_PER_SAMPLE_NS)
                yield from ctx.compute(cost)

        self.task = self.sampler.kernel.spawn(behavior, "oprofiled")
        return self.task

    def stop(self) -> None:
        self.samples.extend(self.sampler.drain())
        if self.task is not None and self.task.alive:
            self.sampler.kernel.sched.kill_blocked(self.task)
