"""TCP path cost model and span-tree builders.

The receive path for a frame group of *k* segments is::

    do_IRQ { eth_interrupt }
    do_softirq { net_rx_action { tcp_v4_rcv  x k  (+ pkt_rx atomics) } }

``tcp_v4_rcv`` carries the per-segment receive cost, dilated by the cache
mismatch factor when the servicing CPU differs from the consuming task's
CPU — data received by the kernel on one CPU but destined for a thread on
the other pays cross-CPU cache traffic (§5.2: "the dilation in TCP
processing times seen in the 64x2 run is very likely cache related").

The transmit path records, per segment, ``tcp_sendmsg { ip_queue_xmit {
dev_queue_xmit } }`` nested inside the ``sys_writev``/``sock_sendmsg``
syscall spans; the cost split keeps ``tcp_sendmsg`` the dominant exclusive
component, matching kernel reality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.counters import rates_for_path, scale_miss_rate
from repro.kernel.irq import KSpan

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.net.socket import StreamSocket
    from repro.kernel.task import Task

#: Fraction of the per-segment TX cost attributed to each routine.
TX_SPLIT = (("tcp_sendmsg", 0.60), ("ip_queue_xmit", 0.23), ("dev_queue_xmit", 0.17))


def rx_cost_ns(kernel: "Kernel", mismatch: bool) -> int:
    """Per-segment receive-processing cost on ``kernel``'s CPUs."""
    net = kernel.params.net
    cost = net.tcp_rx_cost_ns
    if mismatch:
        cost = int(cost * net.cache_mismatch_factor)
    return cost


def build_rx_trees(kernel: "Kernel", sock: "StreamSocket", segments: list[int],
                   irq_cpu: int) -> list[KSpan]:
    """Interrupt-context span trees for an arriving frame group."""
    net = kernel.params.net
    mismatch = irq_cpu != sock.consumer_cpu
    per_seg = rx_cost_ns(kernel, mismatch)
    # The PMU dimension of the cache-locality model: a mismatched
    # receive dilates processing time *and* inflates the L2 miss rate by
    # the same factor, so counter views can tell "slow because more
    # work" from "slow because cache-hostile".
    rx_rates = rates_for_path("tcp_v4_rcv")
    if mismatch:
        rx_rates = scale_miss_rate(rx_rates, net.cache_mismatch_factor)
    rcv_spans = [
        KSpan("tcp_v4_rcv", per_seg, atomics=[("net.pkt_rx_bytes", seg)],
              rates=rx_rates)
        for seg in segments
    ]
    hard = KSpan("do_IRQ", net.irq_cost_ns, children=[KSpan("eth_interrupt", 1_000)])
    soft = KSpan("do_softirq", net.softirq_dispatch_cost_ns,
                 children=[KSpan("net_rx_action", 1_000, children=rcv_spans)])
    return [hard, soft]


def record_tx_spans(kernel: "Kernel", task: "Task", segments: list[int]) -> int:
    """Record per-segment transmit spans for ``task``; returns total cost.

    Timestamps are laid out explicitly over the burst the caller is about
    to execute, so the sender-side kernel profile and trace show the real
    nesting (``tcp_sendmsg`` under the open ``sock_sendmsg`` span) even
    though the whole group is simulated as one kernel-compute burst.
    """
    cost = kernel.params.net.tcp_tx_cost_ns
    data = task.ktau
    if data is not None and segments:
        clock = kernel.clock
        (send, send_frac), (queue, queue_frac), (dev, _) = TX_SPLIT
        send_ns = int(cost * send_frac)
        queue_ns = int(cost * queue_frac)
        leaf = KSpan(dev, cost - send_ns - queue_ns)
        tree = KSpan(send, send_ns,
                     children=[KSpan(queue, queue_ns, children=[leaf])])
        # Each segment ends at its whole cost in cycles, which can differ
        # from the sum of the legs' rounded cycles at some clock rates.
        seg_cycles = clock.cycles_for_ns(cost)
        t = clock.read()
        for seg in segments:
            leaf.atomics = [("net.pkt_tx_bytes", seg)]
            t = kernel.ktau.record_tree(data, tree, t, task.counters,
                                        end_cycles=t + seg_cycles)
        if kernel.params.ktau.counters:
            # The legs advanced the PMCs inside their spans; the cost is
            # folded into the caller's upcoming kernel burst, so mark
            # those cycles as already advanced.
            task.pmc_ahead_cycles += len(segments) * sum(
                clock.cycles_for_ns(ns)
                for ns in (send_ns, queue_ns, leaf.cost_ns))
    return cost * len(segments)
