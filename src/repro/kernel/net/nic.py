"""The Ethernet NIC.

One NIC per node (the Chiba nodes had a single Ethernet interface — the
paper speculates about "contention for the single Ethernet interface" in
the 64x2 runs, and this model makes that contention real: all ranks on a
node serialise through one transmit link).

Transmit: segments are serialised at link bandwidth; up to
``coalesce_segments`` consecutive segments of one write are carried as a
single delivery ("frame group"), modelling interrupt mitigation.  When a
group finishes serialising, its send-buffer bytes are released (waking
blocked writers) and an arrival is scheduled on the destination after the
link latency.  Arrival raises the receive interrupt path built by
:mod:`repro.kernel.net.tcp`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.units import SEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.net.socket import StreamSocket


class Nic:
    """Per-node network interface with a bandwidth-serialised TX path."""

    #: Max segments per delivered frame group (interrupt coalescing).
    coalesce_segments = 8

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.busy_until = 0
        self.rx_busy_until = 0
        self.tx_bytes_total = 0
        self.tx_groups_total = 0
        self.rx_bytes_total = 0
        #: wire fault hook (:mod:`repro.faults`): called per frame group
        #: as ``hook(src_kernel, dst_kernel, nbytes) -> Optional[int]``
        #: and returns extra delivery delay in ns (loss/retransmission,
        #: latency spikes, partitions) or ``None`` to drop the group at
        #: the wire (destination crashed).  ``None`` hook = healthy link:
        #: the transmit path pays one ``is not None`` test and nothing
        #: else, keeping fault-free runs byte-identical.
        self.fault_hook = None
        #: frame groups dropped at the wire by the fault hook.
        self.dropped_groups = 0

    def transmit_group(self, sock: "StreamSocket", segments: list[int]) -> None:
        """Queue a group of segments for transmission on ``sock``.

        The caller has already reserved send-buffer space and paid the
        kernel-side transmit CPU cost; this models only the wire.
        """
        engine = self.kernel.engine
        nbytes = sum(segments)
        bw = self.kernel.params.net.bandwidth_bytes_per_sec
        serialize_ns = (nbytes * SEC) // bw
        start = max(engine.now, self.busy_until)
        done = start + serialize_ns
        self.busy_until = done
        self.tx_bytes_total += nbytes
        self.tx_groups_total += 1

        def on_serialized() -> None:
            sock.release_sndbuf(nbytes)

        engine.schedule_at(done, on_serialized)

        latency = self.kernel.params.net.latency_ns
        dst = sock.dst_kernel
        if self.fault_hook is not None:
            verdict = self.fault_hook(self.kernel, dst, nbytes)
            if verdict is None:
                # Dropped at the wire: the sender's buffer was released
                # above (it cannot see the loss), the receiver never
                # hears the bytes — a half-open stall, as on a real
                # crashed peer.
                self.dropped_groups += 1
                return
            latency += verdict

        def on_first_byte() -> None:
            # Receive-side serialisation: the destination's single
            # Ethernet interface is a bandwidth bottleneck of its own, so
            # concurrent inbound flows queue on the receiving wire (the
            # "contention for the single Ethernet interface" of §5.2).
            # For a solo flow, receive overlaps transmit cut-through style
            # and the group costs one wire time end to end; under fan-in
            # the receive NIC becomes the bottleneck and delivery slips.
            rx_nic = dst.nic
            rx_bw = dst.params.net.bandwidth_bytes_per_sec
            rx_start = max(engine.now, rx_nic.rx_busy_until)
            rx_done = rx_start + (nbytes * SEC) // rx_bw
            rx_nic.rx_busy_until = rx_done
            rx_nic.rx_bytes_total += nbytes
            engine.schedule_at(rx_done, lambda: dst.net_rx(sock, segments))

        # First byte reaches the destination one link latency after
        # transmission begins.
        engine.schedule_at(start + latency, on_first_byte)
