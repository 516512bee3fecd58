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
time in closed form, and immutable span templates that a patched kernel
assembles into the two trees (only ``do_softirq`` and ``net_rx_action``
are new per group; ``do_IRQ`` and the ``tcp_v4_rcv`` leaves are shared).

The transmit path records, per segment, ``tcp_sendmsg { ip_queue_xmit {
dev_queue_xmit } }`` nested inside the ``sys_writev``/``sock_sendmsg``
syscall spans; the cost split keeps ``tcp_sendmsg`` the dominant exclusive
component, matching kernel reality.  :class:`TxPath` holds one kernel's
transmit path: the leg costs, a segment's cycles, and one immutable tree
per segment size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.counters import rates_for_path, scale_miss_rate
from repro.kernel.irq import KSpan

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.params import NetParams
    from repro.kernel.task import Task
    from repro.sim.clock import CycleClock

#: Fraction of the per-segment TX cost attributed to each routine.
TX_SPLIT = (("tcp_sendmsg", 0.60), ("ip_queue_xmit", 0.23), ("dev_queue_xmit", 0.17))


class RxPath:
    """One kernel's receive path: closed-form durations and span templates.

    Everything is indexed by the cache-mismatch flag (``False``, ``True``).
    """

    __slots__ = ("per_seg_ns", "_hard", "_rates", "_leaves", "_softirq_ns",
                 "_fixed_ns")

    def __init__(self, net: "NetParams"):
        cost = net.tcp_rx_cost_ns
        #: per-segment receive-processing cost
        self.per_seg_ns = (cost, int(cost * net.cache_mismatch_factor))
        self._hard = KSpan("do_IRQ", net.irq_cost_ns,
                           children=[KSpan("eth_interrupt", 1_000)])
        # The PMU dimension of the cache-locality model: a mismatched
        # receive dilates processing time *and* inflates the L2 miss rate
        # by the same factor, so counter views can tell "slow because more
        # work" from "slow because cache-hostile".
        rates = rates_for_path("tcp_v4_rcv")
        self._rates = (rates, scale_miss_rate(rates, net.cache_mismatch_factor))
        # ``tcp_v4_rcv`` leaves by segment size (segments are MTU-sized
        # but the last, so there are few sizes)
        self._leaves: tuple[dict[int, KSpan], dict[int, KSpan]] = ({}, {})
        self._softirq_ns = int(net.softirq_dispatch_cost_ns)
        self._fixed_ns = self._hard.total_ns + self._softirq_ns + 1_000

    def work_ns(self, mismatch: bool, nsegs: int) -> int:
        """Inclusive duration of a group of ``nsegs`` segments' trees."""
        return self._fixed_ns + nsegs * int(self.per_seg_ns[mismatch])

    def trees(self, mismatch: bool, segments: list[int]) -> tuple[KSpan, KSpan]:
        """The span trees a frame group of ``segments`` records."""
        leaves = self._leaves[mismatch]
        rcv_spans = []
        for seg in segments:
            leaf = leaves.get(seg)
            if leaf is None:
                leaf = leaves[seg] = KSpan(
                    "tcp_v4_rcv", self.per_seg_ns[mismatch],
                    atomics=[("net.pkt_rx_bytes", seg)],
                    rates=self._rates[mismatch])
            rcv_spans.append(leaf)
        return (self._hard,
                KSpan("do_softirq", self._softirq_ns,
                      children=[KSpan("net_rx_action", 1_000,
                                      children=rcv_spans)]))


class TxPath:
    """One kernel's transmit path: leg costs and span templates."""

    __slots__ = ("cost_ns", "seg_cycles", "pmc_cycles", "_legs", "_trees")

    def __init__(self, net: "NetParams", clock: "CycleClock"):
        cost = net.tcp_tx_cost_ns
        (send, send_frac), (queue, queue_frac), (dev, _) = TX_SPLIT
        send_ns = int(cost * send_frac)
        queue_ns = int(cost * queue_frac)
        #: per-segment transmit cost
        self.cost_ns = cost
        self._legs = ((send, send_ns), (queue, queue_ns),
                      (dev, cost - send_ns - queue_ns))
        # Each segment ends at its whole cost in cycles, which can differ
        # from the sum of the legs' rounded cycles at some clock rates.
        self.seg_cycles = clock.cycles_for_ns(cost)
        #: the PMC cycles a segment's legs advance inside their spans
        self.pmc_cycles = sum(clock.cycles_for_ns(ns) for _, ns in self._legs)
        # trees by segment size (segments are MTU-sized but the last)
        self._trees: dict[int, KSpan] = {}

    def tree(self, seg: int) -> KSpan:
        """The span tree one segment of ``seg`` bytes records."""
        tree = self._trees.get(seg)
        if tree is None:
            (send, send_ns), (queue, queue_ns), (dev, dev_ns) = self._legs
            tree = self._trees[seg] = KSpan(send, send_ns, children=[
                KSpan(queue, queue_ns, children=[
                    KSpan(dev, dev_ns, atomics=[("net.pkt_tx_bytes", seg)])])])
        return tree


def record_tx_spans(kernel: "Kernel", task: "Task", segments: list[int]) -> int:
    """Record per-segment transmit spans for ``task``; returns total cost.

    Timestamps are laid out explicitly over the burst the caller is about
    to execute, so the sender-side kernel profile and trace show the real
    nesting (``tcp_sendmsg`` under the open ``sock_sendmsg`` span) even
    though the whole group is simulated as one kernel-compute burst.
    Where KTAU allows, the segments are recorded as one run
    (:meth:`~repro.core.measurement.Ktau.record_run`) of the first
    segment's tree.
    """
    tx = kernel._tx
    data = task.ktau
    if data is not None and segments:
        seg_cycles = tx.seg_cycles
        t = kernel.clock.read()
        ktau = kernel.ktau
        if ktau.record_run(data, tx.tree(segments[0]), t, segments,
                           seg_cycles) is None:
            for seg in segments:
                t = ktau.record_tree(data, tx.tree(seg), t, task.counters,
                                     end_cycles=t + seg_cycles)
        if kernel.params.ktau.counters:
            # The legs advanced the PMCs inside their spans; the cost is
            # folded into the caller's upcoming kernel burst, so mark
            # those cycles as already advanced.
            task.pmc_ahead_cycles += len(segments) * tx.pmc_cycles
    return tx.cost_ns * len(segments)
