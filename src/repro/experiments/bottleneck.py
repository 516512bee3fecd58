"""Traced runs for the lost-time bottleneck analyzer.

The Figure 2 experiments collect *profiles*; the bottleneck analyzer
needs event-level *traces* plus the MPI message-flow log, so these are
separate launchers (the historical fig2 entry points stay byte-pinned
by the goldens).  Each builds a cluster with kernel tracing compiled
in, runs an LU job with ``tau_tracing=True``, harvests the merged
traces, and returns a deterministic
:class:`~repro.analysis.bottlenecks.report.BottleneckReport` — plus the
online monitor's view when a :class:`~repro.monitor.MonitorConfig` is
supplied.

* :func:`run_bottleneck_fig2` — the acceptance scenario: 16 ranks on 8
  dual-CPU nodes with the interference intruder on node 7; the report
  must rank that node as the cluster-wide top blocker.
* :func:`run_bottleneck_lu` — a small clean 8-rank run, cheap enough
  for the determinism goldens.
* :func:`run_bottleneck_noise` — the clean 4-node cluster with a
  cycle-stealing ``busyd`` planted on one node.
* :func:`run_bottleneck_chiba` — the same topology as fig2 with no
  intruder: the wavefront's own serialization, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.bottlenecks import (BottleneckReport, build_report,
                                        harvest_bottleneck_inputs)
from repro.cluster.daemons import start_busy_daemon
from repro.cluster.launch import block_placement
from repro.cluster.machines import make_chiba
from repro.core.config import KtauBuildConfig
from repro.experiments.common import run_job
from repro.experiments.fig2_controlled import (CONTROLLED_LU,
                                               PERTURBED_NODE_INDEX,
                                               spawn_intruder)
from repro.monitor import MonitorConfig, MonitorData
from repro.obs import runtime as _obs
from repro.sim.units import MSEC
from repro.workloads.lu import LuParams, lu_app

#: LU scaled down for the cheap traced runs (8 ranks on 4 nodes).
SMALL_LU = LuParams(niters=3, iter_compute_ns=8 * MSEC, halo_bytes=8_192,
                    sweep_msg_bytes=2_048, inorm=2)

#: LU for the noise scenario (and the ``repro monitor`` demo, the same
#: cluster untraced): long enough (~0.5 s wall) for the planted cycle
#: stealer's periodic bursts to actually land on the ranks.
NOISE_LU = LuParams(niters=6, iter_compute_ns=60 * MSEC, halo_bytes=16_384,
                    sweep_msg_bytes=2_048, inorm=2, pipeline_fill_frac=0.03)

#: Trace-buffer entries for the traced runs: the controlled fig2 run
#: emits tens of thousands of kernel events per rank, so the default
#: 4096-entry ring would wrap and truncate the early iterations.
TRACE_ENTRIES = 1 << 16


@dataclass
class BottleneckRunResult:
    """A traced run's analyzer output (and monitor view, if monitored)."""

    report: BottleneckReport
    #: node the scenario actually perturbed (``None`` for clean runs).
    perturbed_node: Optional[str] = None
    monitor: Optional[MonitorData] = None


def _publish_maxrss(phase: str) -> None:
    """With obs metrics on, publish the process's peak RSS so far, in MiB,
    as gauge ``bottleneck.maxrss_mb.<phase>`` (``ru_maxrss`` is in KiB on
    Linux), so a run's metrics show which phase sets the high-water
    mark."""
    if _obs.metrics_on:
        import resource

        from repro.obs.metrics import REGISTRY
        REGISTRY.gauge(f"bottleneck.maxrss_mb.{phase}").set(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def _traced_run(nnodes: int, nranks: int, params: LuParams, seed: int, *,
                top_k: int, procs_per_node: int = 2, pin: bool = False,
                monitor_config: Optional[MonitorConfig] = None,
                intruder_node: Optional[int] = None,
                busyd_node: Optional[int] = None) -> BottleneckRunResult:
    """Shared launcher for every traced bottleneck scenario."""
    cluster = make_chiba(
        nnodes=nnodes, seed=seed,
        ktau=KtauBuildConfig.full().with_tracing(TRACE_ENTRIES))
    perturbed = None
    if intruder_node is not None:
        node = cluster.nodes[intruder_node]
        spawn_intruder(node)
        perturbed = node.name
    if busyd_node is not None:
        node = cluster.nodes[busyd_node]
        start_busy_daemon(node, pin_cpu=0, period_ns=80 * MSEC,
                          busy_ns=30 * MSEC)
        perturbed = node.name
    job, monitor, _injected = run_job(
        cluster, nranks, lu_app(params), limit_s=600,
        monitor_config=monitor_config,
        placement=block_placement(procs_per_node, nranks),
        comm_prefix="lu", tau_tracing=True, pin=pin)
    _publish_maxrss("run")
    inputs = harvest_bottleneck_inputs(job)
    _publish_maxrss("harvest")
    report = build_report(inputs, top_k=top_k, seed=seed)
    _publish_maxrss("report")
    monitor_data = monitor.harvest() if monitor is not None else None
    cluster.teardown()
    return BottleneckRunResult(report=report, perturbed_node=perturbed,
                               monitor=monitor_data)


def run_bottleneck_fig2(seed: int = 1, *, top_k: int = 10,
                        monitor_config: Optional[MonitorConfig] = None,
                        ) -> BottleneckRunResult:
    """The acceptance run: fig2's perturbed 16-rank LU, traced.

    Same topology and intruder as
    :func:`repro.experiments.fig2_controlled.run_fig2ab` (16 ranks, 8
    dual-CPU nodes, the overhead process on node 7) with tracing on.
    The report's top blocker must be the perturbed node, reached through
    remote-rank "who blocks whom" chains.  Pass ``monitor_config`` with
    ``bottleneck_top_k > 0`` to also run the streaming attributor — it
    emits a matching :data:`~repro.monitor.BOTTLENECK` alert online.
    """
    return _traced_run(8, 16, CONTROLLED_LU, seed, top_k=top_k,
                       monitor_config=monitor_config,
                       intruder_node=PERTURBED_NODE_INDEX)


def run_bottleneck_lu(seed: int = 1, *, top_k: int = 8,
                      monitor_config: Optional[MonitorConfig] = None,
                      ) -> BottleneckRunResult:
    """A clean small traced LU run (8 ranks, 4 nodes) — determinism pin."""
    return _traced_run(4, 8, SMALL_LU, seed, top_k=top_k,
                       monitor_config=monitor_config)


def run_bottleneck_noise(seed: int = 1, *, top_k: int = 8,
                         monitor_config: Optional[MonitorConfig] = None,
                         ) -> BottleneckRunResult:
    """The small run with a cycle-stealing ``busyd`` on node 2.

    Ranks are pinned to their slot CPUs (the monitor demo's setup), so
    the daemon on ccn002's CPU0 genuinely contends with that node's
    slot-0 rank instead of the scheduler migrating the rank away.
    """
    return _traced_run(4, 8, NOISE_LU, seed, top_k=top_k, pin=True,
                       monitor_config=monitor_config, busyd_node=2)


def run_bottleneck_chiba(seed: int = 1, *, top_k: int = 10,
                         monitor_config: Optional[MonitorConfig] = None,
                         ) -> BottleneckRunResult:
    """The fig2 topology with no intruder: pure wavefront serialization."""
    return _traced_run(8, 16, CONTROLLED_LU, seed, top_k=top_k,
                       monitor_config=monitor_config)
