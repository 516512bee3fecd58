"""LMBENCH-style micro-benchmarks for the simulated kernel.

The paper exercises LMBENCH on its KTAU-patched testbeds as a controlled,
well-understood kernel workload.  Three probes are reproduced:

* :func:`lat_syscall` — null system call latency (``getppid`` loop);
* :func:`lat_ctx` — context-switch latency via a two-process pipe
  ping-pong;
* :func:`bw_tcp` — socket streaming bandwidth between two nodes.

Each returns a *result holder* populated when the simulation runs; the
caller drives the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.kernel.net.socket import Pipe
from repro.sim.units import SEC


@dataclass
class LatencyResult:
    """Measured latency (populated after the simulation runs)."""

    iterations: int = 0
    total_ns: int = 0

    @property
    def per_op_us(self) -> float:
        if self.iterations == 0:
            return float("nan")
        return self.total_ns / self.iterations / 1000.0


@dataclass
class BandwidthResult:
    """Measured streaming bandwidth."""

    nbytes: int = 0
    elapsed_ns: int = 0

    @property
    def mb_per_s(self) -> float:
        if self.elapsed_ns == 0:
            return float("nan")
        return (self.nbytes / (1024 * 1024)) / (self.elapsed_ns / SEC)


def lat_syscall(kernel, iterations: int = 1000) -> LatencyResult:
    """Spawn the null-syscall latency probe on ``kernel``."""
    result = LatencyResult()

    def behavior(ctx):
        t0 = ctx.now
        for _ in range(iterations):
            yield from ctx.syscall("sys_getppid")
        result.iterations = iterations
        result.total_ns = ctx.now - t0

    kernel.spawn(behavior, "lat_syscall")
    return result


def lat_ctx(kernel, rounds: int = 500) -> LatencyResult:
    """Two processes ping-pong a byte through two pipes.

    Each round is two context switches; ``per_op_us`` reports the
    one-way (single switch) latency like lmbench's ``lat_ctx -s 0 2``.
    """
    result = LatencyResult()
    ping = Pipe(kernel)
    pong = Pipe(kernel)

    def player_a(ctx):
        t0 = ctx.now
        for _ in range(rounds):
            yield from ctx.syscall("sys_write", pipe=ping, nbytes=1)
            yield from ctx.syscall("sys_read", pipe=pong, nbytes=1)
        result.iterations = rounds * 2
        result.total_ns = ctx.now - t0

    def player_b(ctx):
        for _ in range(rounds):
            yield from ctx.syscall("sys_read", pipe=ping, nbytes=1)
            yield from ctx.syscall("sys_write", pipe=pong, nbytes=1)

    # Same CPU forces a real context switch per hop.
    kernel.spawn(player_a, "lat_ctx.a", cpus_allowed={0})
    kernel.spawn(player_b, "lat_ctx.b", cpus_allowed={0})
    return result


def bw_tcp(src_kernel, dst_kernel, network,
           nbytes: int = 4 * 1024 * 1024) -> BandwidthResult:
    """Stream ``nbytes`` from ``src_kernel`` to ``dst_kernel`` in 64 KiB
    writes.

    ``network`` is the :class:`repro.cluster.network.ClusterNetwork`
    owning connection identity.
    """
    result = BandwidthResult()
    channel = ("bw_tcp", network.connection_count)
    sock = network.connect(src_kernel, dst_kernel, channel)

    def sender(ctx):
        sent = 0
        while sent < nbytes:
            n = min(65_536, nbytes - sent)
            yield from ctx.syscall("sys_writev", sock=sock, nbytes=n)
            sent += n

    def receiver(ctx):
        t0: Optional[int] = None
        got = 0
        while got < nbytes:
            r = yield from ctx.syscall("sys_readv", sock=sock, nbytes=nbytes - got)
            if t0 is None:
                t0 = ctx.now
            got += r
        result.nbytes = nbytes
        result.elapsed_ns = ctx.now - (t0 or 0)

    src_kernel.spawn(sender, "bw_tcp.tx")
    dst_kernel.spawn(receiver, "bw_tcp.rx")
    return result
