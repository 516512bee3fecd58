"""The §6 counter-dimension demo: catch what the time dimension cannot.

The Figure 2-A setup — 16-rank LU over 8 dual-CPU chiba nodes, one
intruder on node 7 — but the intruder is a *cache thrasher*
(:func:`repro.workloads.interference.cache_thrasher_process`): it
computes for only ~4 ms out of every ~600 ms, far too little cycle
theft for the time-rate MAD detector or the interference activity floor
to notice.  What it does steal is cache — its user-mode PMC rates are
set to :data:`THRASH_RATES` after spawn — so on a counters build the
node-wide interval L2 miss rate multiplies, and the monitor's counter
dimension (:data:`repro.monitor.alerts.COUNTER_OUTLIER`) flags exactly
the thrasher's node while every time-dimension detector stays silent.

That separation *is* the demo's acceptance criterion:
:attr:`CountersDemoResult.counter_only_detection` holds when the
thrasher node drew a counter outlier and no node anywhere drew a
time-rate ``NODE_OUTLIER``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.counterview import counter_rate_table, counters_to_doc
from repro.analysis.profiles import JobData, harvest_job
from repro.cluster.launch import block_placement
from repro.cluster.machines import make_chiba
from repro.core.config import KtauBuildConfig
from repro.core.counters import PmcRates
from repro.experiments.common import run_job
from repro.experiments.fig2_controlled import CONTROLLED_LU
from repro.monitor import (COUNTER_OUTLIER, NODE_OUTLIER, MonitorConfig,
                           MonitorData)
from repro.sim.units import MSEC
from repro.workloads.interference import cache_thrasher_process
from repro.workloads.lu import lu_app

#: User-mode PMC rates assigned to the thrasher after spawn: a quarter
#: of the normal IPC and two orders of magnitude more L2 misses than
#: the default user-mode rates — a process whose working set never fits.
THRASH_RATES = PmcRates(ipc=0.25, l2_miss_per_kcycle=150.0)

#: The intruder's node, mirroring Figure 2-A's perturbed node.
THRASHER_NODE_INDEX = 7


@dataclass
class CountersDemoResult:
    """Everything the demo's assertions, CLI and artifact need."""

    data: JobData
    thrasher_node: str
    thrasher_pid: int
    monitor: MonitorData

    @property
    def counter_outlier_nodes(self) -> list[str]:
        """Nodes flagged by the counter dimension."""
        return self.monitor.alert_nodes(COUNTER_OUTLIER)

    @property
    def time_outlier_nodes(self) -> list[str]:
        """Nodes flagged by the time-rate MAD detector."""
        return self.monitor.alert_nodes(NODE_OUTLIER)

    @property
    def counter_only_detection(self) -> bool:
        """The §6 claim: only the counter dimension sees the thrasher."""
        return (self.thrasher_node in self.counter_outlier_nodes
                and not self.time_outlier_nodes)

    def to_doc(self) -> dict:
        """Canonical-JSON-ready report of the run."""
        return {
            "thrasher_node": self.thrasher_node,
            "thrasher_pid": self.thrasher_pid,
            "counter_outlier_nodes": self.counter_outlier_nodes,
            "time_outlier_nodes": self.time_outlier_nodes,
            "counter_only_detection": self.counter_only_detection,
            "counters": counters_to_doc(self.data.node_profiles),
            "monitor": self.monitor.to_doc(),
        }


def run_counters_demo(seed: int = 1) -> CountersDemoResult:
    """Monitored counters-build LU run with a cache thrasher on one node.

    The monitor runs with the default :class:`~repro.monitor.MonitorConfig`
    and the calibrated detector thresholds of
    :mod:`repro.monitor.cluster_monitor` — nothing is tuned toward the
    demo's conclusion.
    """
    cluster = make_chiba(nnodes=8, seed=seed,
                         ktau=KtauBuildConfig.full(counters=True))
    node = cluster.nodes[THRASHER_NODE_INDEX]
    intruder = node.kernel.spawn(
        cache_thrasher_process(sleep_ns=600 * MSEC, busy_ns=4 * MSEC),
        "thrash")
    # spawn() returns before the task runs its first instruction, so
    # assigning the hostile user-mode rates here is deterministic: every
    # cycle the thrasher ever executes is counted at these rates.
    intruder.pmc_user_rates = THRASH_RATES
    node.daemons.append(intruder)

    job, monitor, _injected = run_job(
        cluster, 16, lu_app(CONTROLLED_LU), limit_s=600,
        monitor_config=MonitorConfig(),
        placement=block_placement(2, 16), comm_prefix="lu")
    data = harvest_job(job)
    monitor_data = monitor.harvest()
    cluster.teardown()
    return CountersDemoResult(data=data, thrasher_node=node.name,
                              thrasher_pid=intruder.pid,
                              monitor=monitor_data)


def render_demo(result: CountersDemoResult, top: int = 12) -> str:
    """Terminal report: counter table, per-dimension verdicts, alerts."""
    from repro.analysis.counterview import render_counter_table
    from repro.monitor.dashboard import render_dashboard

    rows = counter_rate_table(result.data.node_profiles, min_cycles=10_000)
    out = [render_counter_table(rows, top=top,
                                title="hottest (node, path) counter rates"),
           f"thrasher: pid {result.thrasher_pid} on {result.thrasher_node}",
           f"counter outliers: {result.counter_outlier_nodes or 'none'}",
           f"time outliers:    {result.time_outlier_nodes or 'none'}",
           f"counter-only detection: {result.counter_only_detection}",
           "",
           render_dashboard(result.monitor)]
    return "\n".join(out)
