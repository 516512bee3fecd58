"""An MPI-like message layer over the simulated kernel's sockets.

Point-to-point semantics: each directed rank pair communicates over its
own TCP connection (opened lazily); messages carry a fixed envelope and
are matched in order per pair — sufficient for the deterministic
neighbour/wavefront patterns of LU and Sweep3D.  ``MPI_Send`` really
issues ``sys_writev`` on the simulated kernel (descending through
``sock_sendmsg → tcp_sendmsg``), and ``MPI_Recv`` really blocks in
``tcp_recvmsg`` — which is how the paper's merged views (kernel activity
*inside* MPI routines, Figures 2-E and 4) arise naturally here.

Collectives are binomial trees built from the same point-to-point
primitives, as in MPICH of the era.

When the process is TAU-instrumented, public MPI entry points run inside
TAU timers (``MPI_Send()``, ``MPI_Recv()``, ...); internal tree traffic
stays inside the collective's own timer, like PMPI internals.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional

from repro.kernel.net.socket import StreamSocket

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machines import Cluster
    from repro.cluster.node import Node
    from repro.kernel.task import Task
    from repro.kernel.usermode import UserContext

#: Bytes of message envelope (tag, size, source) carried on the wire.
ENVELOPE_BYTES = 32


class MpiWorld:
    """Shared state of one MPI job: rank → node/task directory."""

    def __init__(self, cluster: "Cluster", nranks: int):
        self.cluster = cluster
        self.size = nranks
        self.rank_nodes: list[Optional["Node"]] = [None] * nranks
        self.rank_tasks: list[Optional["Task"]] = [None] * nranks
        #: rank -> its :class:`MpiRank` handle, filled in as rank
        #: processes start (the bottleneck analyzer reads message logs
        #: through this after the run).
        self.rank_mpi: list[Optional["MpiRank"]] = [None] * nranks

    def sock(self, src_rank: int, dst_rank: int) -> StreamSocket:
        src_node = self.rank_nodes[src_rank]
        dst_node = self.rank_nodes[dst_rank]
        assert src_node is not None and dst_node is not None
        return self.cluster.network.connect(
            src_node.kernel, dst_node.kernel, (src_rank, dst_rank))


class Request:
    """A posted non-blocking receive, completed by :meth:`MpiRank.wait`."""

    __slots__ = ("peer", "nbytes", "done")

    def __init__(self, peer: int, nbytes: int):
        self.peer = peer
        self.nbytes = nbytes
        self.done = False


class MpiRank:
    """The per-rank MPI handle bound to a process context."""

    def __init__(self, world: MpiWorld, rank: int, ctx: "UserContext"):
        self.world = world
        self.rank = rank
        self.ctx = ctx
        self.bytes_sent = 0
        self.bytes_received = 0
        #: message-flow log: ``(op, peer, nbytes, start_ns, end_ns)`` per
        #: wire operation, in engine (global) nanoseconds.  Host-side
        #: bookkeeping only — appending costs no simulated time, so
        #: instrumented and historical runs stay byte-identical.  The
        #: lost-time analyzer uses it to name the remote rank behind a
        #: TCP receive stall (traces alone carry no peer identity).
        self.msg_log: list[tuple[str, int, int, int, int]] = []

    @property
    def size(self) -> int:
        return self.world.size

    # ------------------------------------------------------------------
    def _tau(self, name: str):
        tau = self.ctx.task.tau
        return tau.timer(name) if tau is not None else nullcontext()

    def _send_raw(self, dst: int, nbytes: int):
        sock = self.world.sock(self.rank, dst)
        start_ns = self.world.cluster.engine.now
        yield from self.ctx.syscall("sys_writev", sock=sock,
                                    nbytes=nbytes + ENVELOPE_BYTES)
        self.bytes_sent += nbytes
        self.msg_log.append(("send", dst, nbytes, start_ns,
                             self.world.cluster.engine.now))

    def _recv_raw(self, src: int, nbytes: int):
        sock = self.world.sock(src, self.rank)
        want = nbytes + ENVELOPE_BYTES
        got = 0
        start_ns = self.world.cluster.engine.now
        while got < want:
            r = yield from self.ctx.syscall("sys_readv", sock=sock,
                                            nbytes=want - got)
            got += r
        self.bytes_received += nbytes
        self.msg_log.append(("recv", src, nbytes, start_ns,
                             self.world.cluster.engine.now))

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, dst: int, nbytes: int):
        """Blocking standard send (buffered: returns when handed to the NIC)."""
        with self._tau("MPI_Send()"):
            yield from self._send_raw(dst, nbytes)

    def recv(self, src: int, nbytes: int):
        """Blocking receive of a message of known size from ``src``."""
        with self._tau("MPI_Recv()"):
            yield from self._recv_raw(src, nbytes)

    def irecv(self, src: int, nbytes: int) -> Request:
        """Post a non-blocking receive (completed in :meth:`wait`)."""
        return Request(src, nbytes)

    def wait(self, request: Request):
        """Complete a posted request."""
        if request.done:
            return
        with self._tau("MPI_Wait()"):
            yield from self._recv_raw(request.peer, request.nbytes)
        request.done = True

    # ------------------------------------------------------------------
    # Collectives (binomial trees, MPICH-style)
    # ------------------------------------------------------------------
    def _bcast_tree(self, nbytes: int):
        size = self.size
        rank = self.rank
        mask = 1
        while mask < size:
            if rank & mask:
                yield from self._recv_raw(rank - mask, nbytes)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if rank + mask < size:
                yield from self._send_raw(rank + mask, nbytes)
            mask >>= 1

    def _reduce_tree(self, nbytes: int):
        size = self.size
        rank = self.rank
        mask = 1
        while mask < size:
            if rank & mask:
                yield from self._send_raw(rank - mask, nbytes)
                break
            if rank + mask < size:
                yield from self._recv_raw(rank + mask, nbytes)
                # combining cost for the reduction operator
                yield from self.ctx.compute(200 + nbytes // 64)
            mask <<= 1

    def allreduce(self, nbytes: int):
        with self._tau("MPI_Allreduce()"):
            yield from self._reduce_tree(nbytes)
            yield from self._bcast_tree(nbytes)

    def barrier(self):
        with self._tau("MPI_Barrier()"):
            yield from self._reduce_tree(8)
            yield from self._bcast_tree(8)
