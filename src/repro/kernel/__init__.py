"""A discrete-event simulated Linux kernel.

This package is the substrate KTAU measures.  One :class:`~repro.kernel.kernel.Kernel`
instance models one node's OS: tasks with process control blocks, per-CPU
runqueues with timeslice scheduling and affinity, hard IRQs with optional
irq-balancing, softirq (bottom-half) processing, a system-call layer, a
TCP/socket network path with an SMP cache-locality cost model, timers,
signals, and page-fault exceptions.

All five program–OS interaction mechanisms the paper enumerates —
system calls, exceptions, interrupts (hard and soft), scheduling, and
signals — exist as explicit simulated code paths carrying KTAU
instrumentation points.

:class:`~repro.kernel.params.KernelParams` holds the fields experiments
set on a node's kernel; the calibrated cost model (scheduler, TCP path,
timer tick, page faults) is module constants in :mod:`repro.kernel.params`.
"""

from repro.kernel.effects import Compute, KCompute, Syscall, Block, Exit
from repro.kernel.params import KernelParams
from repro.kernel.task import Task, TaskState
from repro.kernel.kernel import Kernel

__all__ = [
    "Compute", "KCompute", "Syscall", "Block", "Exit",
    "KernelParams",
    "Task", "TaskState", "Kernel",
]
