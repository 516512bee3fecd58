"""Figure 2: the controlled §5.1 experiments (panels A–E).

* **A** — kernel-wide per-node view of a 16-process LU run on 8 nodes
  with an artificial interference process on one node: that node shows
  visibly more scheduling time.
* **B** — process-centric view of the perturbed node: the interference
  process is identified as the most active non-LU process.
* **C** — voluntary vs involuntary scheduling of 4 LU ranks on the 4-CPU
  SMP (``neutron``) with a cycle-stealing daemon pinned to CPU0: LU-0
  suffers involuntary scheduling; the other three wait voluntarily.
* **D** — merged user/kernel profile vs the TAU-only profile of one
  rank: kernel routines appear as first-class rows and user exclusive
  times shrink to their "true" values.
* **E** — merged user/kernel trace of one ``MPI_Send()``: the send's
  kernel path (``sys_writev → sock_sendmsg → tcp_sendmsg``) plus
  unrelated bottom-half activity captured in the same window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.profiles import JobData, harvest_job
from repro.analysis.tracemerge import (TimelineEvent, events_within,
                                       merge_traces)
from repro.analysis.views import kernel_wide_view, node_process_view
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba, make_neutron
from repro.cluster.daemons import start_busy_daemon
from repro.cluster.node import Node
from repro.core.config import KtauBuildConfig
from repro.core.libktau import LibKtau
from repro.experiments.common import run_job
from repro.kernel.task import Task
from repro.monitor import MonitorConfig, MonitorData, integrated_timeline
from repro.parallel import run_replications
from repro.sim.units import MSEC, SEC
from repro.tau.merge import MergedRow, merged_profile
from repro.workloads.interference import overhead_process
from repro.workloads.lu import LuParams, lu_app

#: LU scaled for the controlled runs (16 and 4 ranks).
CONTROLLED_LU = LuParams(niters=8, iter_compute_ns=80 * MSEC,
                         halo_bytes=32_768, sweep_msg_bytes=4_096,
                         inorm=4, pipeline_fill_frac=0.03)

PERTURBED_NODE_INDEX = 7


def spawn_intruder(node: Node) -> Task:
    """Start the paper's anomaly on ``node``: sleep, then a CPU-intensive
    busy loop, scaled to our run length (the paper uses 10 s sleep / 3 s
    busy)."""
    intruder = node.kernel.spawn(
        overhead_process(sleep_ns=600 * MSEC, busy_ns=200 * MSEC), "overhead")
    node.daemons.append(intruder)
    return intruder


# ---------------------------------------------------------------------------
# Panels A and B (plus the data panel D reuses)
# ---------------------------------------------------------------------------
@dataclass
class Fig2ABResult:
    data: JobData
    perturbed_node: str
    interference_pid: int
    #: node -> total scheduling seconds (kernel-wide view, panel A)
    sched_by_node: dict[str, float]
    #: node -> involuntary (preemption) seconds only — the component the
    #: interference process inflates on its own node
    invol_by_node: dict[str, float]
    #: pid -> (comm, kernel seconds) on the perturbed node (panel B)
    node_processes: dict[int, tuple[str, float]]
    #: online-monitor harvest when the run was monitored (else None)
    monitor: Optional[MonitorData] = None
    #: integrated user/kernel Chrome-trace JSON for the monitored run
    timeline: Optional[str] = None
    #: applied-fault log when the run was faulted (else None)
    injected: Optional[list] = None


def run_fig2ab(seed: int = 1,
               monitor_config: Optional[MonitorConfig] = None,
               fault_plan=None, spare_nodes: int = 0) -> Fig2ABResult:
    """16-rank LU over 8 dual-CPU nodes, interference on node 7.

    With ``monitor_config`` the run happens under an online
    :class:`~repro.monitor.ClusterMonitor` (one KTAUD per node, attached
    through the launcher's ``node_setup`` hook): the result then carries
    the harvested monitor data — whose alerts should point at exactly
    the perturbed node — and the integrated user/kernel timeline.

    ``spare_nodes`` adds rank-free nodes past the placement (monitored
    like the rest) and ``fault_plan`` arms a
    :class:`~repro.faults.plan.FaultPlan` against the cluster after
    launch — the chaos harness targets the spares so node-scoped faults
    cannot propagate through LU's messages.  Both default off, leaving
    the run byte-identical to the historical experiment.
    """
    cluster = make_chiba(nnodes=8 + spare_nodes, seed=seed)
    node = cluster.nodes[PERTURBED_NODE_INDEX]
    intruder = spawn_intruder(node)
    job, monitor, injected = run_job(
        cluster, 16, lu_app(CONTROLLED_LU), limit_s=600,
        monitor_config=monitor_config, fault_plan=fault_plan,
        placement=block_placement(2, 16), comm_prefix="lu")
    data = harvest_job(job)
    monitor_data = None
    timeline = None
    if monitor is not None:
        monitor_data = monitor.harvest()
        timeline = integrated_timeline(monitor_data, job)
    cluster.teardown()

    hz = data.ranks[0].hz
    wide = kernel_wide_view(data.node_profiles, hz,
                            events=("schedule", "schedule_vol"))
    sched_by_node = {node_name: sum(events.values())
                     for node_name, events in wide.items()}
    invol = kernel_wide_view(data.node_profiles, hz, events=("schedule",))
    invol_by_node = {node_name: sum(events.values())
                     for node_name, events in invol.items()}
    perturbed = node.name
    processes = node_process_view(data.node_profiles[perturbed], hz,
                                  data.node_comms.get(perturbed))
    return Fig2ABResult(data=data, perturbed_node=perturbed,
                        interference_pid=intruder.pid,
                        sched_by_node=sched_by_node,
                        invol_by_node=invol_by_node,
                        node_processes=processes,
                        monitor=monitor_data, timeline=timeline,
                        injected=injected)


# ---------------------------------------------------------------------------
# Panel C: voluntary vs involuntary on the 4-CPU SMP
# ---------------------------------------------------------------------------
@dataclass
class Fig2CResult:
    #: per LU rank: (voluntary seconds, involuntary seconds)
    sched: list[tuple[float, float]]
    exec_time_s: float


def run_fig2c(seed: int = 1) -> Fig2CResult:
    """4-rank LU on neutron with a busy daemon pinned to CPU0."""
    cluster = make_neutron(seed=seed)
    start_busy_daemon(cluster.nodes[0], pin_cpu=0,
                      period_ns=100 * MSEC, busy_ns=40 * MSEC)
    job = launch_mpi_job(cluster, 4, lu_app(CONTROLLED_LU),
                         placement=block_placement(4, 4), comm_prefix="lu")
    job.run(limit_s=600)
    data = harvest_job(job)
    cluster.teardown()
    sched = [(r.voluntary_sched_s(), r.involuntary_sched_s())
             for r in data.ranks]
    return Fig2CResult(sched=sched, exec_time_s=data.exec_time_s)


# ---------------------------------------------------------------------------
# Panel D: merged vs TAU-only profile for one rank
# ---------------------------------------------------------------------------
@dataclass
class Fig2DResult:
    rank: int
    merged_rows: list[MergedRow]
    #: routine -> TAU-only exclusive seconds
    tau_only_excl_s: dict[str, float]
    hz: float

    def merged_excl_s(self, name: str) -> float:
        for row in self.merged_rows:
            if row.name == name:
                return row.excl_cycles / self.hz
        return 0.0

    def kernel_rows(self) -> list[MergedRow]:
        return [r for r in self.merged_rows if r.layer == "kernel"]


def build_fig2d(data: JobData, rank: int = 0) -> Fig2DResult:
    """Panel D: merged vs TAU-only profile comparison for one rank."""
    rd = data.ranks[rank]
    assert rd.uprofile is not None and rd.kprofile is not None
    rows = merged_profile(rd.uprofile, rd.kprofile)
    tau_only = {name: excl / rd.hz
                for name, (_c, _i, excl) in rd.uprofile.perf.items()}
    return Fig2DResult(rank=rank, merged_rows=rows,
                       tau_only_excl_s=tau_only, hz=rd.hz)


# ---------------------------------------------------------------------------
# Panel E: merged user/kernel trace of one MPI_Send
# ---------------------------------------------------------------------------
@dataclass
class Fig2EResult:
    rank: int
    window: list[TimelineEvent]
    hz: float
    full_timeline_len: int = 0
    kernel_events_in_window: list[str] = field(default_factory=list)


def run_fig2e(seed: int = 1, occurrence: int = 2) -> Fig2EResult:
    """A small traced LU run; zoom into one MPI_Send of rank 0."""
    params = LuParams(niters=2, iter_compute_ns=20 * MSEC, halo_bytes=16_384,
                      sweep_msg_bytes=8_192, inorm=0, pipeline_fill_frac=0.05)
    cluster = make_chiba(nnodes=4, seed=seed,
                         ktau=KtauBuildConfig.full(tracing=True))
    job = launch_mpi_job(cluster, 4, lu_app(params),
                         placement=block_placement(1, 4),
                         tau_tracing=True, comm_prefix="lu")
    job.run(limit_s=600)

    rank = 0
    node = job.world.rank_nodes[rank]
    task = job.world.rank_tasks[rank]
    assert node is not None and task is not None
    lib = LibKtau(node.kernel.ktau_proc)
    ktrace = lib.read_trace(task.pid)
    profiler = job.profilers[rank]
    assert profiler is not None
    merged = merge_traces(profiler.dump(), ktrace)
    window = events_within(merged, "MPI_Send()", occurrence=occurrence)
    cluster.teardown()
    return Fig2EResult(
        rank=rank, window=window, hz=node.kernel.clock.hz,
        full_timeline_len=len(merged),
        kernel_events_in_window=[name for _c, name, layer, is_entry, _v, _a
                                 in window if layer == "kernel" and is_entry])


# ---------------------------------------------------------------------------
# The whole figure at once
# ---------------------------------------------------------------------------
@dataclass
class Fig2Result:
    """All five panels of Figure 2 (D is derived from A/B's run)."""

    ab: Fig2ABResult
    c: Fig2CResult
    d: Fig2DResult
    e: Fig2EResult


def run_fig2_all(seed: int = 1, workers: int | None = None) -> Fig2Result:
    """Run every Figure 2 experiment; panels fan out across workers.

    The three underlying simulations (the 8-node chiba run behind panels
    A/B/D, the neutron run behind C, and the traced run behind E) are
    independent, so they run as replication cells; panel D is then
    derived in-process from the A/B data.
    """
    results = run_replications({
        "ab": lambda: run_fig2ab(seed),
        "c": lambda: run_fig2c(seed),
        "e": lambda: run_fig2e(seed),
    }, workers=workers)
    ab = results["ab"]
    return Fig2Result(ab=ab, c=results["c"], d=build_fig2d(ab.data),
                      e=results["e"])


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def render_ab(result: Fig2ABResult) -> str:
    """Render panels A and B."""
    from repro.analysis.render import ascii_bargraph

    out = ascii_bargraph(sorted(result.sched_by_node.items()),
                         title="Figure 2-A: scheduling time by node "
                               "(kernel-wide view)")
    out += ascii_bargraph(sorted(result.invol_by_node.items()),
                          title="Figure 2-A (detail): involuntary "
                                "scheduling by node")
    rows = sorted(((f"{comm}({pid})", t)
                   for pid, (comm, t) in result.node_processes.items()),
                  key=lambda kv: -kv[1])[:10]
    out += ascii_bargraph(rows, title=f"Figure 2-B: processes on "
                                      f"{result.perturbed_node}")
    return out


def render_c(result: Fig2CResult) -> str:
    """Render panel C."""
    from repro.analysis.render import ascii_table

    rows = [(f"LU-{i}", vol, inv) for i, (vol, inv) in enumerate(result.sched)]
    return ascii_table(("rank", "voluntary (s)", "involuntary (s)"), rows,
                       floatfmt=".4f",
                       title="Figure 2-C: voluntary vs involuntary scheduling")


def render_e(result: Fig2EResult) -> str:
    """Render panel E's merged trace window."""
    from repro.analysis.tracemerge import render_timeline

    header = (f"Figure 2-E: kernel activity within MPI_Send() "
              f"(rank {result.rank})\n")
    return header + render_timeline(result.window, result.hz)
