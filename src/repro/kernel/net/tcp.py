"""TCP path cost model and span templates.

The receive path for a frame group of *k* segments is::

    do_IRQ { eth_interrupt }
    do_softirq { net_rx_action { tcp_v4_rcv  x k  (+ pkt_rx atomics) } }

``tcp_v4_rcv`` carries the per-segment receive cost, dilated by the cache
mismatch factor when the servicing CPU differs from the consuming task's
CPU — data received by the kernel on one CPU but destined for a thread on
the other pays cross-CPU cache traffic (§5.2: "the dilation in TCP
processing times seen in the 64x2 run is very likely cache related").
:class:`RxPath` holds one kernel's receive path: the group's inclusive
time in closed form, and the span chains a patched kernel records it
with (``do_softirq``'s, one per mismatch flag, runs its ``tcp_v4_rcv``
leaf once per segment).

The transmit path records, per segment, ``tcp_sendmsg { ip_queue_xmit {
dev_queue_xmit } }`` nested inside the ``sys_writev``/``sock_sendmsg``
syscall spans; the cost split keeps ``tcp_sendmsg`` the dominant exclusive
component, matching kernel reality.  :class:`TxPath` holds one kernel's
transmit path: a segment's cost and cycles, and the chain every segment
records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.counters import rates_for_path, scale_miss_rate
from repro.kernel.irq import KSpan
from repro.kernel.params import (IRQ_COST_NS, SOFTIRQ_DISPATCH_COST_NS,
                                 TCP_RX_COST_NS)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task
    from repro.sim.clock import CycleClock

#: Fraction of the per-segment TX cost attributed to each routine.
TX_SPLIT = (("tcp_sendmsg", 0.60), ("ip_queue_xmit", 0.23), ("dev_queue_xmit", 0.17))


class RxPath:
    """One kernel's receive path: closed-form durations and span chains.

    ``per_seg_ns`` and ``softirq`` are indexed by the cache-mismatch flag
    (``False``, ``True``); a frame group records ``hard`` once and
    ``softirq[mismatch]`` with its segment sizes.  ``mismatch_factor``
    is the kernel's ``cache_mismatch_factor``.
    """

    __slots__ = ("per_seg_ns", "hard", "softirq", "_fixed_ns")

    def __init__(self, mismatch_factor: float):
        #: per-segment receive-processing cost
        self.per_seg_ns = (TCP_RX_COST_NS,
                           int(TCP_RX_COST_NS * mismatch_factor))
        self.hard = KSpan("do_IRQ", IRQ_COST_NS,
                          KSpan("eth_interrupt", 1_000))
        # The PMU dimension of the cache-locality model: a mismatched
        # receive dilates processing time *and* inflates the L2 miss rate
        # by the same factor, so counter views can tell "slow because more
        # work" from "slow because cache-hostile".
        rates = rates_for_path("tcp_v4_rcv")
        self.softirq = tuple(
            KSpan("do_softirq", SOFTIRQ_DISPATCH_COST_NS, KSpan("net_rx_action", 1_000,
                  KSpan("tcp_v4_rcv", per_seg, atomic="net.pkt_rx_bytes",
                        rates=leaf_rates)))
            for per_seg, leaf_rates in zip(self.per_seg_ns, (
                rates, scale_miss_rate(rates, mismatch_factor))))
        self._fixed_ns = self.hard.total_ns + SOFTIRQ_DISPATCH_COST_NS + 1_000

    def work_ns(self, mismatch: bool, nsegs: int) -> int:
        """Inclusive duration of a group of ``nsegs`` segments."""
        return self._fixed_ns + nsegs * int(self.per_seg_ns[mismatch])


class TxPath:
    """One kernel's transmit path: a segment's cost and span chain.

    ``cost`` is the per-segment transmit cost in ns (the kernel's is
    :data:`~repro.kernel.params.TCP_TX_COST_NS`).
    """

    __slots__ = ("cost_ns", "seg_cycles", "pmc_cycles", "chain")

    def __init__(self, cost: int, clock: "CycleClock"):
        (send, send_frac), (queue, queue_frac), (dev, _) = TX_SPLIT
        send_ns = int(cost * send_frac)
        queue_ns = int(cost * queue_frac)
        dev_ns = cost - send_ns - queue_ns
        #: per-segment transmit cost
        self.cost_ns = cost
        # Each segment ends at its whole cost in cycles, which can differ
        # from the sum of the legs' rounded cycles at some clock rates.
        self.seg_cycles = clock.cycles_for_ns(cost)
        #: the PMC cycles a segment's legs advance inside their spans
        self.pmc_cycles = sum(map(clock.cycles_for_ns,
                                  (send_ns, queue_ns, dev_ns)))
        self.chain = KSpan(send, send_ns, KSpan(queue, queue_ns, KSpan(
            dev, dev_ns, atomic="net.pkt_tx_bytes")))


def record_tx_spans(kernel: "Kernel", task: "Task", segments: list[int]) -> int:
    """Record per-segment transmit spans for ``task``; returns total cost.

    Timestamps are laid out explicitly over the burst the caller is about
    to execute, so the sender-side kernel profile and trace show the real
    nesting (``tcp_sendmsg`` under the open ``sock_sendmsg`` span) even
    though the whole group is simulated as one kernel-compute burst.
    Each segment is one pass of the chain, ending at its whole cost.
    """
    tx = kernel._tx
    data = task.ktau
    if data is not None and segments:
        kernel.ktau.record(data, tx.chain, kernel.clock.read(), segments,
                           tx.seg_cycles)
        if kernel.params.ktau.counters:
            # The legs advanced the PMCs inside their spans; the cost is
            # folded into the caller's upcoming kernel burst, so mark
            # those cycles as already advanced.
            task.pmc_ahead_cycles += len(segments) * tx.pmc_cycles
    return tx.cost_ns * len(segments)
