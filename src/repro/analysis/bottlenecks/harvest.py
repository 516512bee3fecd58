"""Collecting bottleneck-analyzer inputs from a completed traced job.

One :class:`RankTrace` per rank bundles everything the report stage
needs: the merged user+kernel timeline, the clock parameters that map
its node-local cycles onto the engine's global nanoseconds, and the
rank's MPI message-flow log (which names the peer behind every wire
operation — the traces alone carry no peer identity).

Harvesting is read-only with respect to the simulation: it runs after
:meth:`repro.cluster.launch.MpiJob.run` returns, drains each rank's
kernel trace buffer through :class:`repro.core.libktau.LibKtau`, and
pairs it with the TAU profiler dump via
:func:`repro.analysis.tracemerge.merge_traces`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tracemerge import TimelineEvent, merge_traces
from repro.cluster.launch import MpiJob
from repro.core.libktau import LibKtau


@dataclass(frozen=True)
class RankTrace:
    """One rank's analyzer inputs: merged timeline + clock + message log."""

    rank: int
    pid: int
    node: str
    hz: float
    boot_offset_cycles: int
    merged: list[TimelineEvent] = field(default_factory=list)
    #: ``(op, peer, nbytes, start_ns, end_ns)`` per wire operation, in
    #: engine nanoseconds (see :attr:`repro.cluster.mpi.MpiRank.msg_log`).
    msg_log: list[tuple[str, int, int, int, int]] = field(default_factory=list)


def harvest_bottleneck_inputs(job: MpiJob) -> list[RankTrace]:
    """Gather per-rank merged traces and message logs from a finished job.

    Requires the job to have been launched with ``tau_tracing=True`` on
    a cluster built with kernel tracing enabled; raises ``ValueError``
    otherwise, since wait reconstruction is impossible without the
    event-level traces.
    """
    out: list[RankTrace] = []
    for rank in range(job.world.size):
        task = job.world.rank_tasks[rank]
        node = job.world.rank_nodes[rank]
        profiler = job.profilers[rank]
        mpi = job.world.rank_mpi[rank]
        assert task is not None and node is not None and mpi is not None
        if profiler is None or not profiler.tracing:
            raise ValueError(
                "bottleneck analysis needs tau_tracing=True "
                f"(rank {rank} has no user trace)")
        udump = profiler.dump()
        ktrace = LibKtau(node.kernel.ktau_proc).read_trace(task.pid)
        if not ktrace.records:
            raise ValueError(
                "bottleneck analysis needs kernel tracing enabled "
                f"(rank {rank} on {node.name} produced no kernel trace)")
        clock = node.kernel.clock
        out.append(RankTrace(rank=rank, pid=task.pid, node=node.name,
                             hz=clock.hz,
                             boot_offset_cycles=clock.boot_offset_cycles,
                             merged=merge_traces(udump, ktrace),
                             msg_log=list(mpi.msg_log)))
    return out
