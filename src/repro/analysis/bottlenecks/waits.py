"""Per-rank wait-interval reconstruction from merged user+kernel traces.

The scheduler instruments descheduling as split-phase KTAU spans:
``schedule_vol`` (voluntary — the task blocked in-kernel) and
``schedule`` (involuntary — preempted), opened at sched-out and closed
at sched-in.  Inside a merged timeline these spans are *lost time*: the
process existed but made no progress.  This module walks one rank's
merged events, pairs those spans (and interrupt frames that stole the
CPU while the task was running), and classifies each into one of four
wait kinds:

* ``tcp_recv_stall`` — a voluntary wait whose enclosing kernel stack
  contains ``tcp_recvmsg``: the rank blocked waiting for bytes that a
  remote rank had not yet sent.  These are the waits the report stage
  can attribute to a *remote* rank via the MPI message log.
* ``voluntary_wait`` — any other voluntary scheduling wait (nanosleep,
  disk I/O completion, ...).
* ``preemption`` — an involuntary ``schedule`` span: the CPU was taken
  by a competing task (the paper's daemon/intruder interference).
* ``irq_preemption`` — an outermost ``do_IRQ`` / ``do_softirq`` /
  ``smp_apic_timer_interrupt`` frame charged to the process context:
  interrupt work that ran on the rank's CPU at its expense.

Reconstruction is tolerant by construction of the circular trace
buffer's truncation: exits with no matching entry on the stack are
dropped (the entry was overwritten), and entries never closed by the
end of the trace produce no interval.  Timestamps convert from
node-local cycles to engine-global nanoseconds via the node's clock
parameters so that intervals from different nodes are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.tracemerge import TimelineEvent
from repro.sim.units import SEC

#: Wait kinds (values appear in report JSON; keep stable).
TCP_RECV_STALL = "tcp_recv_stall"
VOLUNTARY_WAIT = "voluntary_wait"
PREEMPTION = "preemption"
IRQ_PREEMPTION = "irq_preemption"

#: Kernel entry points whose outermost frames count as IRQ preemption.
_IRQ_ROOTS = ("do_IRQ", "do_softirq", "smp_apic_timer_interrupt")

#: Split-phase scheduling-wait span names.
_SCHED_NAMES = ("schedule", "schedule_vol")


@dataclass(frozen=True)
class WaitInterval:
    """One reconstructed interval of lost time on one rank.

    ``start_ns``/``end_ns`` are engine-global nanoseconds (node-local
    cycles dealigned by boot offset and frequency); ``kernel_path`` is
    the ``>``-joined kernel stack including the wait's own frame (e.g.
    ``sys_readv>sock_recvmsg>tcp_recvmsg>schedule_vol``);
    ``user_context`` is the innermost user routine active when the wait
    began (``""`` outside any user timer); ``remote_rank`` is filled by
    the report stage when the message flow names the rank whose late
    send caused a ``tcp_recv_stall``.
    """

    rank: int
    node: str
    pid: int
    kind: str
    start_ns: int
    end_ns: int
    kernel_path: str
    user_context: str
    remote_rank: Optional[int] = None

    @property
    def duration_s(self) -> float:
        """Length of the interval in (virtual) seconds."""
        return (self.end_ns - self.start_ns) / SEC


def _to_global_ns(cycles: int, hz: float, boot_offset_cycles: int) -> int:
    """Node-local timer cycles → engine-global nanoseconds."""
    return int(round((cycles - boot_offset_cycles) * SEC / hz))


def extract_waits(merged: list[TimelineEvent], *, rank: int, node: str,
                  pid: int, hz: float,
                  boot_offset_cycles: int = 0) -> list[WaitInterval]:
    """Reconstruct a rank's wait intervals from its merged timeline.

    Walks the timestamp-ordered merged events once, maintaining the user
    and kernel call stacks, and emits a :class:`WaitInterval` for every
    paired scheduling-wait span and every outermost IRQ frame.  Orphaned
    exits (entry lost to circular-buffer wraparound) and unclosed
    entries (trace ended mid-span) are silently dropped, mirroring
    ``monitor.interval_view``'s tolerance of imperfect snapshots.
    """
    waits: list[WaitInterval] = []
    user_stack: list[str] = []
    # kernel stack frames: (name, entry cycles, user context, irq_root?)
    kernel_stack: list[tuple[str, int, str, bool]] = []
    # name -> frames of that name on the kernel stack
    open_names: dict[str, int] = {}
    # frames on the kernel stack that are IRQ roots (0 or 1)
    open_irq = 0

    for cycles, name, layer, is_entry, _value, _atomic in merged:
        if layer == "user":
            if is_entry:
                user_stack.append(name)
            elif user_stack and user_stack[-1] == name:
                user_stack.pop()
            elif name in user_stack:
                while user_stack and user_stack[-1] != name:
                    user_stack.pop()
                if user_stack:
                    user_stack.pop()
            continue

        if is_entry:
            irq_root = not open_irq and name in _IRQ_ROOTS
            open_irq += irq_root
            open_names[name] = open_names.get(name, 0) + 1
            kernel_stack.append((name, cycles,
                                 user_stack[-1] if user_stack else "",
                                 irq_root))
            continue

        # Kernel exit (or an atomic point, which never matches a frame).
        if not open_names.get(name):
            continue
        # Pop frames lost to truncation until the matching entry.
        while True:
            fname, start_cycles, uctx, irq_root = kernel_stack.pop()
            open_names[fname] -= 1
            open_irq -= irq_root
            if fname == name:
                break

        if name == "schedule_vol":
            kind = (TCP_RECV_STALL if open_names.get("tcp_recvmsg")
                    else VOLUNTARY_WAIT)
        elif name == "schedule":
            kind = PREEMPTION
        elif irq_root:
            kind = IRQ_PREEMPTION
        else:
            continue

        start_ns = _to_global_ns(start_cycles, hz, boot_offset_cycles)
        end_ns = _to_global_ns(cycles, hz, boot_offset_cycles)
        if end_ns <= start_ns:
            continue
        path = ">".join([f[0] for f in kernel_stack] + [name])
        waits.append(WaitInterval(rank=rank, node=node, pid=pid, kind=kind,
                                  start_ns=start_ns, end_ns=end_ns,
                                  kernel_path=path, user_context=uctx))
    return waits
