"""Collecting bottleneck-analyzer inputs from a completed traced job.

One :class:`RankTrace` per rank bundles everything the report stage
needs: the rank's wait intervals and its MPI message-flow log (which
names the peer behind every wire operation — the traces alone carry no
peer identity).

Harvesting is read-only with respect to the simulation: it runs after
:meth:`repro.cluster.launch.MpiJob.run` returns and takes one rank at a
time: it drains the rank's kernel trace buffer through
:class:`repro.core.libktau.LibKtau`, merges it with the TAU profiler
dump (:func:`repro.analysis.tracemerge.merge_traces`) and reduces the
merged timeline to its wait intervals
(:func:`repro.analysis.bottlenecks.waits.extract_waits`), mapping its
node-local cycles onto the engine's global nanoseconds with the node's
clock.  The timeline is dropped before the next rank's drain, so the
harvest holds one rank's trace at a time, not the whole job's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.bottlenecks.waits import WaitInterval, extract_waits
from repro.analysis.tracemerge import merge_traces
from repro.cluster.launch import MpiJob
from repro.core.libktau import LibKtau


@dataclass(frozen=True)
class RankTrace:
    """One rank's analyzer inputs: wait intervals + message log."""

    rank: int
    pid: int
    node: str
    #: the rank's wait intervals, in timeline order
    waits: list[WaitInterval] = field(default_factory=list)
    #: ``(op, peer, nbytes, start_ns, end_ns)`` per wire operation, in
    #: engine nanoseconds (see :attr:`repro.cluster.mpi.MpiRank.msg_log`).
    msg_log: list[tuple[str, int, int, int, int]] = field(default_factory=list)


def harvest_bottleneck_inputs(job: MpiJob) -> list[RankTrace]:
    """Gather per-rank wait intervals and message logs from a finished job.

    Requires the job to have been launched with ``tau_tracing=True`` on
    a cluster built with kernel tracing enabled; raises ``ValueError``
    otherwise, since wait reconstruction is impossible without the
    event-level traces.
    """
    return [_harvest_rank(job, rank) for rank in range(job.world.size)]


def _harvest_rank(job: MpiJob, rank: int) -> RankTrace:
    """One rank's :class:`RankTrace`; its traces die with this frame."""
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
    waits = extract_waits(merge_traces(udump, ktrace), rank=rank,
                          node=node.name, pid=task.pid, hz=clock.hz,
                          boot_offset_cycles=clock.boot_offset_cycles)
    return RankTrace(rank=rank, pid=task.pid, node=node.name, waits=waits,
                     msg_log=list(mpi.msg_log))
