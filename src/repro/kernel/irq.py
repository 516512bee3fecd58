"""Hard IRQs, softirqs (bottom halves), and asynchronous kernel work.

Interrupt-context work is modelled as *span chains*: named, costed kernel
routines nested one in the next (``do_IRQ { eth_interrupt }``, ``do_softirq
{ net_rx_action { tcp_v4_rcv x k } }``), each a per-kernel template.
Delivering a sequence of ``(chain, values)`` runs to a CPU:

1. picks the target context — the task currently running there, or the
   node's idle task (``swapper``) when the CPU is idle; this is exactly
   KTAU's process-centric attribution of interrupt work to whatever
   process context it happens to run in;
2. records KTAU entry/exit events for every span with explicit timestamps
   through :meth:`~repro.core.measurement.Ktau.record` (the whole
   sequence is computed synchronously at delivery time);
3. *stretches* whatever the CPU was executing by the work's inclusive
   duration, which the caller passes in, plus the measurement overhead
   the recording charged — the mechanism by which interrupt load (and
   instrumentation perturbation) delays application progress.

Only a patched kernel records; an unpatched one ignores the runs it is
handed.  Templates are built with their kernel or device, so delivering
builds no spans.

IRQ routing implements the paper's two regimes: everything to CPU0 (the
Chiba default, source of Figure 8's bimodal interrupt distribution) or
flow-hash balancing across online CPUs (``irq_balance`` enabled).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task

#: Entry points that execute in (simulated) interrupt or softirq
#: context: everything statically reachable from these must be
#: non-blocking — no waitqueue sleeps, no context switches.  The
#: KTAU7xx lint pass (:mod:`repro.lint.contexts`) reads this tuple from
#: the AST and proves the property over the call graph, exactly as
#: lockdep would at run time.  Qualified names are ``Class.method`` (any
#: module) or ``module.function``.
IRQ_CONTEXT_ROOTS: tuple[str, ...] = (
    "IrqController.deliver",
    "Kernel.net_rx",
    "Kernel._net_rx_bh",
    "Nic.transmit_group",
)

#: Sanctioned handoffs out of interrupt context.  ``Scheduler.wake`` is
#: the simulation's ``try_to_wake_up``: callable from IRQ context, and
#: everything past it (dispatch, driving the woken task's generator)
#: runs in the *woken task's* context — the simulation compresses
#: irq-exit-then-schedule() into one synchronous call.  The KTAU7xx
#: reachability analysis therefore stops at these functions; reaching a
#: blocking operation without passing through one is a violation.
IRQ_CONTEXT_BOUNDARIES: tuple[str, ...] = (
    "Scheduler.wake",
    "Scheduler.tick_balance",
)


class KSpan:
    """A costed kernel routine for interrupt-context execution, and the
    chain of routines nested in it.

    ``cost_ns`` is this routine's *own* (exclusive) work; ``child``, if
    any, executes after it, inside the routine.  ``atomic`` names the
    atomic point a leaf fires just before it exits, once per value it is
    recorded with.  ``rates`` overrides the per-path PMC cost model for
    this span (the TCP receive path uses it to fold the SMP cache-mismatch
    factor into the miss rate); ``None`` falls back to the
    :data:`repro.core.counters.PATH_RATES` table.  ``total_ns`` is one
    pass's inclusive duration.  A chain never changes after it is built,
    so each kernel builds its chains once, as templates.
    """

    __slots__ = ("name", "cost_ns", "child", "atomic", "rates", "total_ns")

    def __init__(self, name: str, cost_ns: int,
                 child: Optional["KSpan"] = None,
                 atomic: Optional[str] = None, rates=None):
        self.name = name
        self.cost_ns = int(cost_ns)
        self.child = child
        self.atomic = atomic
        self.rates = rates
        self.total_ns = self.cost_ns + (0 if child is None else child.total_ns)

    def __repr__(self) -> str:  # pragma: no cover
        return f"KSpan({self.name}, {self.cost_ns}ns, child={self.child!r})"


class IrqController:
    """Per-node interrupt delivery and routing."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._rng = kernel.rng_hub.stream(f"irq.{kernel.name}")
        #: cumulative per-CPU hard-IRQ count (diagnostics / procfs)
        self.irq_counts: list[int] = [0] * kernel.params.online_cpus

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, flow_hash: Optional[int] = None) -> int:
        """CPU that services the next device interrupt.

        Without irq-balancing, every device IRQ goes to CPU0.  With
        balancing, IRQs are spread by flow hash so a given connection's
        interrupts consistently land on one CPU (the behaviour that makes
        cache mismatch a per-connection property in Figure 10).
        """
        ncpus = self.kernel.params.online_cpus
        if ncpus == 1:
            return 0
        if not self.kernel.params.irq_balance:
            return min(self.kernel.params.irq_target_cpu, ncpus - 1)
        if flow_hash is None:
            return int(self._rng.integers(ncpus))
        return flow_hash % ncpus

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deliver(self, cpu_idx: int, work_ns: int,
                runs: Sequence[tuple[KSpan, Optional[Sequence[int]]]] = (),
                count_irq: bool = True) -> int:
        """Run ``work_ns`` of interrupt-context work on CPU ``cpu_idx``.

        ``runs`` are the ``(chain, values)`` pairs that work records, one
        after another (``values`` as in
        :meth:`~repro.core.measurement.Ktau.record`); their inclusive
        durations sum to ``work_ns``.  An unpatched kernel records
        nothing and ignores the runs passed.
        Returns the completion time (engine ns) so callers can schedule
        follow-on actions (e.g. waking a socket reader) at the moment the
        bottom half actually finishes.
        """
        kernel = self.kernel
        cpu = kernel.sched.cpus[cpu_idx]
        target: "Task" = cpu.current if cpu.current is not None else kernel.swapper
        data = target.ktau
        now_ns = kernel.engine.now
        if count_irq:
            self.irq_counts[cpu_idx] += 1

        total = work_ns
        if data is not None:
            before = data.pending_overhead_ns
            t = kernel.clock.cycles_at(now_ns)
            for chain, values in runs:
                # Interrupt time is stolen from the victim's burst (never
                # charged by ``_charge_time``): only the spans advance PMCs.
                t = kernel.ktau.record(data, chain, t, values)
            # Interrupt-context measurement cost is paid immediately (it
            # extends the interrupt, not the task's next burst).
            total += data.pending_overhead_ns - before
            data.pending_overhead_ns = before

        if cpu.current is not None:
            kernel.sched.stretch(cpu_idx, total)
        return now_ns + total
