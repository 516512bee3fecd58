"""Sockets and pipes.

A :class:`StreamSocket` is one *direction* of a TCP connection between two
nodes: a writer endpoint on the source kernel and a reader endpoint on the
destination kernel.  The MPI layer opens two (one per direction) between
each communicating rank pair.  Flow control is the send buffer: writers
block when ``sndbuf`` is full and are woken as the NIC drains it.  Readers
block on an empty receive queue and are woken by the bottom half that
delivered new data.

``consumer_cpu`` tracks where the reading task last issued a receive; the
TCP receive path compares it with the CPU servicing the interrupt to decide
whether the cache-locality dilation applies (Figure 10's mechanism).

A :class:`Pipe` is the intra-node analogue used by the LMBENCH-style
context-switch benchmark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.params import SNDBUF_BYTES
from repro.kernel.waitqueue import WaitQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class StreamSocket:
    """One direction of a cross-node byte stream.

    ``sock_id`` must be unique within one simulation and is assigned by
    whatever layer opens connections (the cluster network); keeping the
    counter there — rather than in a module global — keeps repeated
    experiments in one process bit-for-bit reproducible.
    """

    __slots__ = (
        "sock_id", "src_kernel", "dst_kernel", "flow_hash",
        "sndbuf_bytes", "sndbuf_used", "snd_waitq",
        "rx_available", "rcv_waitq", "consumer_cpu",
        "tx_bytes_total", "rx_bytes_total", "tx_segments_total",
        "rx_proc_calls", "rx_proc_ns",
    )

    def __init__(self, src_kernel: "Kernel", dst_kernel: "Kernel", sock_id: int):
        self.sock_id = sock_id
        self.src_kernel = src_kernel
        self.dst_kernel = dst_kernel
        # Stable per-connection hash: with irq-balancing on, a connection's
        # interrupts consistently land on one CPU.
        self.flow_hash = self.sock_id * 2654435761 % (2 ** 31)
        self.sndbuf_bytes = SNDBUF_BYTES
        self.sndbuf_used = 0
        self.snd_waitq = WaitQueue(f"sock{self.sock_id}.snd")
        self.rx_available = 0
        self.rcv_waitq = WaitQueue(f"sock{self.sock_id}.rcv")
        self.consumer_cpu = 0
        self.tx_bytes_total = 0
        self.rx_bytes_total = 0
        self.tx_segments_total = 0
        # Per-flow receive-processing accounting: total tcp_v4_rcv calls
        # and their kernel time on this connection, dilation included.
        # This is the per-flow ground truth behind the Figure 10 analysis
        # (KTAU attributes softirq time to whatever context it interrupts,
        # so per-connection cost needs flow-level bookkeeping).
        self.rx_proc_calls = 0
        self.rx_proc_ns = 0

    # -- sender side ------------------------------------------------------
    @property
    def sndbuf_free(self) -> int:
        return self.sndbuf_bytes - self.sndbuf_used

    def reserve_sndbuf(self, nbytes: int) -> None:
        self.sndbuf_used += nbytes

    def release_sndbuf(self, nbytes: int) -> None:
        """NIC drained ``nbytes``; wake one blocked writer if any."""
        self.sndbuf_used -= nbytes
        if self.sndbuf_used < 0:  # pragma: no cover - invariant guard
            raise RuntimeError("sndbuf underflow")
        woken = self.snd_waitq.wake_one()
        if woken is not None:
            self.src_kernel.sched.wake(woken)

    # -- receiver side ----------------------------------------------------
    def deliver(self, nbytes: int) -> None:
        """Bottom half queued ``nbytes``; wake one blocked reader if any."""
        self.rx_available += nbytes
        self.rx_bytes_total += nbytes
        woken = self.rcv_waitq.wake_one()
        if woken is not None:
            self.dst_kernel.sched.wake(woken)

    def consume(self, nbytes: int) -> None:
        self.rx_available -= nbytes
        if self.rx_available < 0:  # pragma: no cover - invariant guard
            raise RuntimeError("socket rx underflow")

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<StreamSocket #{self.sock_id} {self.src_kernel.name}->"
                f"{self.dst_kernel.name} rx={self.rx_available}>")


class Pipe:
    """An intra-node byte pipe (for the lat_ctx-style ping-pong)."""

    __slots__ = ("kernel", "capacity", "used", "read_waitq", "write_waitq")

    def __init__(self, kernel: "Kernel", capacity: int = 65_536):
        self.kernel = kernel
        self.capacity = capacity
        self.used = 0
        self.read_waitq = WaitQueue("pipe.read")
        self.write_waitq = WaitQueue("pipe.write")

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def put(self, nbytes: int) -> None:
        self.used += nbytes
        woken = self.read_waitq.wake_one()
        if woken is not None:
            self.kernel.sched.wake(woken)

    def take(self, nbytes: int) -> None:
        self.used -= nbytes
        if self.used < 0:  # pragma: no cover - invariant guard
            raise RuntimeError("pipe underflow")
        woken = self.write_waitq.wake_one()
        if woken is not None:
            self.kernel.sched.wake(woken)
