"""The system-call layer.

Handlers are generators driven by the CPU executor on the calling task's
frame stack, so they consume simulated CPU time (``KCompute``), block on
wait queues, and get preempted like real kernel code.  Every handler runs
inside its ``sys_*`` KTAU instrumentation span (applied by the dispatch
wrapper), giving syscalls the process-centric attribution the paper
describes as the easy case ("serviced inside the kernel relative to the
context of the calling process").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.kernel.effects import Block, Exit, KCompute, Migrate
from repro.kernel.net import tcp
from repro.kernel.net.nic import Nic
from repro.kernel.net.socket import Pipe, StreamSocket
from repro.kernel.params import MTU_BYTES, SYSCALL_ENTRY_COST_NS
from repro.sim.units import USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task

Handler = Callable[..., Generator[Any, Any, Any]]


class SyscallError(Exception):
    """Raised for unknown syscalls or bad arguments."""


class SyscallTable:
    """Per-kernel syscall dispatch."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._handlers: dict[str, Handler] = {
            "sys_writev": sys_writev,
            "sys_readv": sys_readv,
            "sys_read": sys_read,
            "sys_write": sys_write,
            "sys_nanosleep": sys_nanosleep,
            "sys_gettimeofday": sys_gettimeofday,
            "sys_getppid": sys_getppid,
            "sys_sched_setaffinity": sys_sched_setaffinity,
            "sys_exit": sys_exit,
            "sys_pwrite64": sys_pwrite64,
            "sys_fsync": sys_fsync,
        }

    def dispatch(self, task: "Task", name: str, args: dict[str, Any]):
        handler = self._handlers.get(name)
        if handler is None:
            raise SyscallError(f"unknown syscall {name!r}")
        return self._wrap(task, name, handler, args)

    def _wrap(self, task: "Task", name: str, handler: Handler, args: dict[str, Any]):
        kernel = self.kernel
        data = task.ktau
        if data is not None:
            kernel.ktau.entry(data, kernel.point(name))
        try:
            yield KCompute(SYSCALL_ENTRY_COST_NS)
            result = yield from handler(kernel, task, **args)
        finally:
            if data is not None:
                kernel.ktau.exit(data, kernel.point(name))
        return result


# ---------------------------------------------------------------------------
# Socket I/O
# ---------------------------------------------------------------------------
def sys_writev(kernel: "Kernel", task: "Task", sock: StreamSocket, nbytes: int):
    """Vectored socket write: the MPI send path.

    Segments the payload at the MTU, reserves send-buffer space (blocking
    when full — the NIC wakes writers as it drains), pays the per-segment
    transmit CPU cost, and hands frame groups to the NIC.
    """
    data = task.ktau
    mtu = MTU_BYTES
    group_max = Nic.coalesce_segments
    if data is not None:
        kernel.ktau.entry(data, kernel.point("sock_sendmsg"))
    try:
        remaining = nbytes
        while remaining > 0:
            # Build the next frame group within MTU/coalescing limits.
            segments: list[int] = []
            group_bytes = 0
            while remaining > 0 and len(segments) < group_max:
                seg = min(mtu, remaining)
                segments.append(seg)
                group_bytes += seg
                remaining -= seg
            while sock.sndbuf_free < group_bytes:
                yield Block(sock.snd_waitq)
            sock.reserve_sndbuf(group_bytes)
            sock.tx_segments_total += len(segments)
            sock.tx_bytes_total += group_bytes
            cost = tcp.record_tx_spans(kernel, task, segments)
            yield KCompute(cost)
            kernel.nic.transmit_group(sock, segments)
    finally:
        if data is not None:
            kernel.ktau.exit(data, kernel.point("sock_sendmsg"))
    return nbytes


def sys_readv(kernel: "Kernel", task: "Task", sock: StreamSocket, nbytes: int):
    """Vectored socket read: the MPI receive path.

    Returns up to ``nbytes`` as soon as *any* data is available, blocking
    (voluntary scheduling, inside the ``tcp_recvmsg`` span) while the
    receive queue is empty.
    """
    data = task.ktau
    if data is not None:
        kernel.ktau.entry(data, kernel.point("sock_recvmsg"))
        kernel.ktau.entry(data, kernel.point("tcp_recvmsg"))
    try:
        sock.consumer_cpu = task.last_cpu
        while sock.rx_available == 0:
            yield Block(sock.rcv_waitq)
            sock.consumer_cpu = task.last_cpu
        take = min(sock.rx_available, nbytes)
        # copy_to_user cost, proportional to the copied volume
        yield KCompute(1 * USEC + (take * 300) // 4096)
        sock.consume(take)
    finally:
        if data is not None:
            kernel.ktau.exit(data, kernel.point("tcp_recvmsg"))
            kernel.ktau.exit(data, kernel.point("sock_recvmsg"))
    return take


# ---------------------------------------------------------------------------
# Pipes (LMBENCH lat_ctx)
# ---------------------------------------------------------------------------
def sys_write(kernel: "Kernel", task: "Task", pipe: Pipe, nbytes: int):
    """Write to a pipe, blocking while it is full."""
    while pipe.free < nbytes:
        yield Block(pipe.write_waitq)
    yield KCompute(2 * USEC)
    pipe.put(nbytes)
    return nbytes


def sys_read(kernel: "Kernel", task: "Task", pipe: Pipe, nbytes: int):
    """Read from a pipe, blocking while it is empty."""
    while pipe.used == 0:
        yield Block(pipe.read_waitq)
    take = min(pipe.used, nbytes)
    yield KCompute(2 * USEC)
    pipe.take(take)
    return take


# ---------------------------------------------------------------------------
# Block I/O
# ---------------------------------------------------------------------------
def sys_pwrite64(kernel: "Kernel", task: "Task", dev, nbytes: int,
                 sync: bool = False):
    """Write ``nbytes`` to a block device.

    Async (default): pay the submit path, queue at the device, return —
    write-cache semantics.  ``sync=True`` blocks in the request wait
    queue until the disk interrupt completes the request.
    """
    from repro.kernel.waitqueue import WaitQueue

    data = task.ktau
    # copy_from_user + page-cache insertion
    yield KCompute(2 * USEC + (nbytes * 350) // 4096)
    if data is not None:
        kernel.ktau.entry(data, kernel.point("generic_make_request"))
        kernel.ktau.entry(data, kernel.point("__make_request"))
    try:
        yield KCompute(3 * USEC)  # request build + elevator merge
        waiter = WaitQueue(f"pwrite.{task.pid}") if sync else None
        dev.submit(nbytes, waiter)
    finally:
        if data is not None:
            kernel.ktau.exit(data, kernel.point("__make_request"))
            kernel.ktau.exit(data, kernel.point("generic_make_request"))
    if sync:
        yield Block(waiter)
    return nbytes


def sys_fsync(kernel: "Kernel", task: "Task", dev):
    """Block until the device's queue drains (write barrier)."""
    yield KCompute(2 * USEC)
    if not dev.idle:
        yield Block(dev.flush_waitq)
    return 0


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------
def sys_nanosleep(kernel: "Kernel", task: "Task", ns: int):
    """Sleep for ``ns`` (a timer wakeup; voluntary scheduling)."""
    from repro.kernel.waitqueue import WaitQueue

    yield KCompute(1 * USEC)
    if ns > 0:
        wq = WaitQueue(f"nanosleep.{task.pid}")
        yield Block(wq, timeout_ns=ns)
    return 0


def sys_gettimeofday(kernel: "Kernel", task: "Task"):
    """The heavyweight timing call LTT used (contrast with KTAU's TSC)."""
    yield KCompute(600)
    return kernel.engine.now // 1000  # microseconds


def sys_getppid(kernel: "Kernel", task: "Task"):
    """The classic null-syscall-latency probe (LMBENCH lat_syscall)."""
    yield KCompute(300)
    return 1


def sys_sched_setaffinity(kernel: "Kernel", task: "Task", cpus: set[int]):
    """Set the calling task's CPU affinity mask."""
    yield KCompute(2 * USEC)
    # Affinity of the *calling* task is applied by the executor while this
    # frame is suspended (see effects.Migrate).
    yield Migrate(set(cpus))
    return 0


def sys_exit(kernel: "Kernel", task: "Task", code: int = 0):
    """Terminate the calling process with ``code``."""
    yield KCompute(3 * USEC)
    yield Exit(code)
