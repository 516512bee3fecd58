"""Harvesting and summarising job performance data.

:func:`harvest_job` plays the role of TAU's post-mortem collection: it
pulls each rank's kernel profile (through libKtau, zombies included),
each rank's TAU profile, whole-node profiles for the node views, and IRQ
routing counts, into plain data that the figure/table harnesses consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.launch import MpiJob
from repro.core.libktau import LibKtau
from repro.core.points import SCHED_INVOLUNTARY_POINT, SCHED_VOLUNTARY_POINT
from repro.core.wire import TaskProfileDump
from repro.tau.profiler import TauProfileDump


@dataclass
class RankData:
    """Everything harvested for one MPI rank."""

    rank: int
    pid: int
    node: str
    hz: float
    exec_ns: int
    kprofile: Optional[TaskProfileDump]
    uprofile: Optional[TauProfileDump]
    #: inbound-flow receive processing: (tcp_v4_rcv calls, kernel ns)
    #: summed over this rank's connections (Figure 10's metric)
    flow_rx_calls: int = 0
    flow_rx_ns: int = 0

    # -- kernel-profile accessors (seconds) -----------------------------
    def _perf_s(self, event: str, inclusive: bool = True) -> float:
        if self.kprofile is None:
            return 0.0
        perf = self.kprofile.perf.get(event)
        if perf is None:
            return 0.0
        return (perf[1] if inclusive else perf[2]) / self.hz

    def voluntary_sched_s(self) -> float:
        """Total voluntary scheduling (blocked waiting) time."""
        return self._perf_s(SCHED_VOLUNTARY_POINT)

    def involuntary_sched_s(self) -> float:
        """Total involuntary scheduling (preemption/runqueue) time."""
        return self._perf_s(SCHED_INVOLUNTARY_POINT)

    def interrupt_activity_s(self) -> float:
        """Figure 8's metric: total interrupt-context time (hard IRQs plus
        bottom halves) that ran in this rank's context."""
        if self.kprofile is None:
            return 0.0
        total = 0
        for event in ("do_IRQ", "smp_apic_timer_interrupt", "do_softirq"):
            perf = self.kprofile.perf.get(event)
            if perf is not None:
                total += perf[1]
        return total / self.hz

    def flow_rx_per_call_us(self) -> float:
        """Mean kernel time per TCP receive operation on this rank's flows."""
        if self.flow_rx_calls == 0:
            return float("nan")
        return self.flow_rx_ns / self.flow_rx_calls / 1000.0

    # -- user-profile accessors ------------------------------------------
    def user_excl_s(self, routine: str) -> float:
        if self.uprofile is None:
            return 0.0
        perf = self.uprofile.perf.get(routine)
        if perf is None:
            return 0.0
        return perf[2] / self.hz


@dataclass
class JobData:
    """Harvested data for one job run."""

    exec_time_s: float
    ranks: list[RankData]
    #: node name -> {pid: profile} for every process that ran on the node
    node_profiles: dict[str, dict[int, TaskProfileDump]] = field(default_factory=dict)
    #: node name -> per-CPU hard-IRQ counts
    node_irq_counts: dict[str, list[int]] = field(default_factory=dict)
    #: node name -> {pid: comm}
    node_comms: dict[str, dict[int, str]] = field(default_factory=dict)

    def rank(self, r: int) -> RankData:
        return self.ranks[r]


def harvest_job(job: MpiJob) -> JobData:
    """Collect all performance data from a completed job."""
    assert job.end_ns is not None, "run the job before harvesting"
    ranks: list[RankData] = []
    node_profiles: dict[str, dict[int, TaskProfileDump]] = {}
    node_irq_counts: dict[str, list[int]] = {}
    node_comms: dict[str, dict[int, str]] = {}

    seen_nodes: set[str] = set()
    for node in {job.world.rank_nodes[r].name: job.world.rank_nodes[r]
                 for r in range(job.world.size)}.values():
        if node.name in seen_nodes:
            continue
        seen_nodes.add(node.name)
        kernel = node.kernel
        if kernel.params.ktau.is_patched:
            lib = LibKtau(kernel.ktau_proc)
            node_profiles[node.name] = lib.read_profiles(include_zombies=True)
        else:
            node_profiles[node.name] = {}
        node_irq_counts[node.name] = list(kernel.irq.irq_counts)
        node_comms[node.name] = {t.pid: t.comm for t in kernel.all_tasks}
        node_comms[node.name][0] = "swapper"

    # Per-rank inbound-flow receive stats (Figure 10's metric).
    flow_calls = [0] * job.world.size
    flow_ns = [0] * job.world.size
    for channel, sock in job.cluster.network.connections():
        if (isinstance(channel, tuple) and len(channel) == 2
                and isinstance(channel[0], int) and isinstance(channel[1], int)
                and 0 <= channel[1] < job.world.size):
            flow_calls[channel[1]] += sock.rx_proc_calls
            flow_ns[channel[1]] += sock.rx_proc_ns

    for r in range(job.world.size):
        node = job.world.rank_nodes[r]
        task = job.world.rank_tasks[r]
        assert node is not None and task is not None
        kprofile = node_profiles.get(node.name, {}).get(task.pid)
        profiler = job.profilers[r]
        uprofile = profiler.dump() if profiler is not None else None
        ranks.append(RankData(
            rank=r, pid=task.pid, node=node.name, hz=node.kernel.clock.hz,
            exec_ns=job.rank_exec_ns[r] if job.rank_exec_ns else 0,
            kprofile=kprofile, uprofile=uprofile,
            flow_rx_calls=flow_calls[r], flow_rx_ns=flow_ns[r]))

    return JobData(exec_time_s=job.exec_time_s, ranks=ranks,
                   node_profiles=node_profiles,
                   node_irq_counts=node_irq_counts,
                   node_comms=node_comms)
