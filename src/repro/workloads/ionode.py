"""I/O-node workload (the §6 / ZeptoOS BG/L direction).

BG/L-style systems funnel compute-node I/O through dedicated I/O nodes:
each compute node's I/O library ships write requests over the network to
a ``ciod`` daemon on the I/O node, which performs the actual file-system
writes and acknowledges.  Evaluating that pipeline is exactly what the
paper says KTAU will be used for next — and it stresses the two kernel
subsystems at once (network receive processing and block I/O), which is
where the merged views earn their keep.

This module provides the two programs (client and per-client ciod
service task) plus a harness-independent request protocol:

* request:  ``REQUEST_HEADER_BYTES`` header + payload over the client's
  socket to the I/O node;
* service:  ``sys_pwrite64`` of the payload to the I/O node's disk
  (write-cache, periodic ``sys_fsync`` barriers);
* reply:    ``ACK_BYTES`` acknowledgement back to the client.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.sim.units import MSEC

REQUEST_HEADER_BYTES = 64
ACK_BYTES = 32


@dataclass(frozen=True)
class IoNodeParams:
    """One I/O-node experiment configuration."""

    nrequests: int = 20
    request_bytes: int = 65_536
    think_ns: int = 5 * MSEC  # client compute between requests
    fsync_every: int = 8  # ciod barrier period (0 = never)
    sync_writes: bool = False


@dataclass
class ClientStats:
    """Filled by a client task as its requests complete."""

    latencies_ns: list[int] = field(default_factory=list)

    def mean_ms(self) -> float:
        if not self.latencies_ns:
            return float("nan")
        return sum(self.latencies_ns) / len(self.latencies_ns) / 1e6


def client_program(params: IoNodeParams, to_ionode, from_ionode,
                   stats: ClientStats):
    """A compute-node application: think, write, wait for the ack."""

    def behavior(ctx):
        tau = ctx.task.tau
        timer = tau.timer if tau is not None else (lambda n: nullcontext())
        for _ in range(params.nrequests):
            with timer("compute()"):
                yield from ctx.compute(params.think_ns)
            t0 = ctx.now
            with timer("io_write()"):
                yield from ctx.syscall(
                    "sys_writev", sock=to_ionode,
                    nbytes=REQUEST_HEADER_BYTES + params.request_bytes)
                got = 0
                while got < ACK_BYTES:
                    r = yield from ctx.syscall("sys_readv", sock=from_ionode,
                                               nbytes=ACK_BYTES - got)
                    got += r
            stats.latencies_ns.append(ctx.now - t0)

    return behavior


def ciod_service(params: IoNodeParams, from_client, to_client, disk):
    """One ciod service task: drain a client's requests to the disk."""

    def behavior(ctx):
        want = REQUEST_HEADER_BYTES + params.request_bytes
        for index in range(params.nrequests):
            got = 0
            while got < want:
                r = yield from ctx.syscall("sys_readv", sock=from_client,
                                           nbytes=want - got)
                got += r
            yield from ctx.syscall("sys_pwrite64", dev=disk,
                                   nbytes=params.request_bytes,
                                   sync=params.sync_writes)
            if params.fsync_every and (index + 1) % params.fsync_every == 0:
                yield from ctx.syscall("sys_fsync", dev=disk)
            yield from ctx.syscall("sys_writev", sock=to_client,
                                   nbytes=ACK_BYTES)
        # final barrier: everything durable before the service exits
        yield from ctx.syscall("sys_fsync", dev=disk)

    return behavior
