"""The block-I/O subsystem.

Added for the §6 / ZeptoOS direction of the KTAU work ("we will be
evaluating I/O node performance of the BG/L system"): an I/O node's
kernel is dominated by the interplay of network receive processing and
block-device writes, so a credible I/O-node experiment needs a disk.

The model is an IDE-era spindle: a single request queue serialised at
the device, per-request positioning (seek + rotational) cost plus
byte-rate transfer, completion signalled by a disk interrupt
(``do_IRQ { ide_intr }`` + ``end_request``) that wakes a synchronous
writer.  Writes go through the write cache by default: ``sys_pwrite64``
returns once the request is queued (paying the kernel submit path), and
``sys_fsync`` blocks until the device drains — the usual semantics a
``ciod``-style I/O daemon builds on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.irq import KSpan
from repro.kernel.waitqueue import WaitQueue
from repro.sim.units import SEC, USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class BlockDevice:
    """One disk attached to a node."""

    #: ~6 ms average positioning (seek + rotational).
    SEEK_NS = 6_000_000
    #: ~35 MB/s media rate.
    BYTES_PER_SEC = 35_000_000
    #: sequential-access bonus: back-to-back requests skip most of the
    #: positioning cost, like an elevator fed a streaming writer.
    SEQUENTIAL_FACTOR = 0.15
    #: the disk interrupt's handler cost.
    IRQ_COST_NS = 5 * USEC
    #: the ``end_request`` completion handler's cost.
    END_REQUEST_COST_NS = 8 * USEC

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        # The completion's chains are the same for every request (only
        # ``end_request``'s size differs), and so is its inclusive duration.
        self._irq = KSpan("do_IRQ", self.IRQ_COST_NS,
                          KSpan("ide_intr", 2 * USEC))
        self._end = KSpan("end_request", self.END_REQUEST_COST_NS,
                          atomic="io.bio_bytes")
        self._work_ns = self._irq.total_ns + self._end.total_ns
        self.busy_until = 0
        self.flush_waitq = WaitQueue("blkdev.flush")
        self.requests_completed = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    def submit(self, nbytes: int, waiter_wq: WaitQueue | None) -> int:
        """Queue a write; returns its completion time (engine ns).

        Device-side completion raises the disk interrupt on the IRQ CPU
        (attributed to whatever runs there), runs ``end_request``, wakes
        ``waiter_wq`` (sync writes) and any fsync barriers that drained.
        """
        engine = self.kernel.engine
        transfer = (nbytes * SEC) // self.BYTES_PER_SEC
        if self.busy_until > engine.now:
            # queue not idle: the elevator keeps the head in the area
            seek = int(self.SEEK_NS * self.SEQUENTIAL_FACTOR)
            start = self.busy_until
        else:
            seek = self.SEEK_NS
            start = engine.now
        done = start + seek + transfer
        self.busy_until = done
        self.bytes_written += nbytes

        def on_complete() -> None:
            self.requests_completed += 1
            kernel = self.kernel
            cpu = kernel.irq.route(flow_hash=None)
            finish = kernel.irq.deliver(cpu, self._work_ns, (
                (self._irq, None), (self._end, (nbytes,))))

            def wake_waiters() -> None:
                if waiter_wq is not None:
                    woken = waiter_wq.wake_one()
                    if woken is not None:
                        kernel.sched.wake(woken)
                if self.busy_until <= kernel.engine.now:
                    for task in self.flush_waitq.wake_all():
                        kernel.sched.wake(task)

            engine.schedule_at(finish, wake_waiters)

        engine.schedule_at(done, on_complete)
        return done

    @property
    def idle(self) -> bool:
        return self.busy_until <= self.kernel.engine.now
