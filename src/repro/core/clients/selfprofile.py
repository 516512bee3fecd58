"""Self-profiling client: a process reading its own kernel profile.

Demonstrates libKtau's SELF mode and the online, daemon-free access path
the paper emphasises (TAU uses exactly this to merge kernel data into its
own output at measurement points).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.libktau import LibKtau, Scope
from repro.core.wire import TaskProfileDump
from repro.sim.units import MSEC, USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


def self_profiling_task(kernel: "Kernel", phases: int = 5,
                        snapshots: list[TaskProfileDump] | None = None):
    """Spawn a process that snapshots its own profile between phases.

    Returns ``(task, snapshots)``; each phase computes for 5 ms, then reads
    its own kernel profile through /proc/ktau (SELF scope) — so the list
    shows monotonically growing counters, observed online, without any
    daemon.
    """
    if snapshots is None:
        snapshots = []

    def behavior(ctx):
        lib = LibKtau(kernel.ktau_proc, self_pid=ctx.task.pid)
        for phase in range(phases):
            yield from ctx.compute(5 * MSEC)
            yield from ctx.sleep(1 * MSEC)  # generate some scheduling events
            # The read itself costs syscalls + copies.
            yield from ctx.compute(30 * USEC)
            profiles = lib.read_profiles(scope=Scope.SELF)
            snapshots.append(profiles[ctx.task.pid])

    task = kernel.spawn(behavior, "selfprof")
    return task, snapshots
