"""Shared experiment configuration and run machinery.

The Chiba-City experiments (§5.2/§5.3) all run LU or Sweep3D on a
128-node slice under a handful of configurations that differ in
placement, pinning, irq-balancing, anomaly injection, and instrumentation
build.  :class:`ChibaConfig` captures one such configuration;
:func:`run_chiba_app` builds the cluster, launches, runs, and harvests.
:func:`run_job` is the launch-and-run step every experiment shares,
including the setup of monitored and faulted runs.

**Scaling.** The paper's runs take hundreds of wall seconds per
configuration on real hardware; the bench-scale parameters below shrink
per-iteration compute and message sizes while preserving structure
(compute/communication ratio, message counts, wavefront shape).
EXPERIMENTS.md records the scale factor next to every paper-vs-measured
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro import obs
from repro.analysis.profiles import JobData, harvest_job
from repro.cluster.launch import MpiJob, block_placement, launch_mpi_job
from repro.cluster.machines import Cluster, make_chiba
from repro.core.config import KtauBuildConfig
from repro.core.points import Group
from repro.monitor import (ClusterMonitor, MonitorConfig, MonitorData,
                           integrated_timeline)
from repro.sim.units import MSEC
from repro.workloads.lu import LuParams, lu_app
from repro.workloads.sweep3d import Sweep3dParams, sweep3d_app


@dataclass(frozen=True)
class ChibaConfig:
    """One §5.2-style run configuration.

    ``anomaly`` puts the node that hosts ranks 61 and 125 (node 61 under
    the era's cyclic placement) into the single-detected-CPU fault state
    of ccn10.
    """

    label: str
    nranks: int = 128
    procs_per_node: int = 1
    pin: bool = False
    cpu_offset: int = 0  # shift of the slot→CPU mapping (Fig 9's control)
    irq_balance: bool = False
    irq_target_cpu: int = 0  # IRQ CPU when balancing is off
    anomaly: bool = False
    seed: int = 1
    ktau: KtauBuildConfig = field(default_factory=KtauBuildConfig)
    enabled_groups: Optional[frozenset[Group]] = None  # None = all compiled
    tau_enabled: bool = True
    tau_tracing: bool = False

    def with_seed(self, seed: int) -> "ChibaConfig":
        return replace(self, seed=seed)


#: The node index hosting ranks 61 and 125 under cyclic 2-per-node
#: placement of 128 ranks on 64 nodes (the paper's ccn10).
ANOMALY_NODE = 61

#: The five configurations of Figures 5/6 and Table 2.
STANDARD_CHIBA_CONFIGS: tuple[ChibaConfig, ...] = (
    ChibaConfig(label="128x1", procs_per_node=1),
    ChibaConfig(label="64x2 Anomaly", procs_per_node=2, anomaly=True),
    ChibaConfig(label="64x2", procs_per_node=2),
    ChibaConfig(label="64x2 Pinned", procs_per_node=2, pin=True),
    ChibaConfig(label="64x2 Pin,I-Bal", procs_per_node=2, pin=True,
                irq_balance=True),
)


def bench_lu_params(scale: float = 1.0) -> LuParams:
    """Bench-scale LU parameters, calibrated so the five-configuration
    sweep reproduces Table 2's ordering and rough factors (see module
    docstring on scaling).  ``scale`` shrinks compute and message volume
    together for quick tests."""
    params = LuParams(niters=8, iter_compute_ns=200 * MSEC,
                      halo_bytes=131_072, sweep_msg_bytes=4_096,
                      inorm=4, pipeline_fill_frac=0.02)
    return params.scaled(scale) if scale != 1.0 else params


def bench_sweep_params(scale: float = 1.0) -> Sweep3dParams:
    """Bench-scale Sweep3D parameters (same calibration philosophy)."""
    params = Sweep3dParams(niters=3, octant_compute_ns=80 * MSEC,
                           face_bytes=4_096, pipeline_fill_frac=0.01)
    return params.scaled(scale) if scale != 1.0 else params


def run_job(cluster: Cluster, nranks: int, app, *, limit_s: float,
            monitor_config: Optional[MonitorConfig] = None,
            fault_plan=None, **launch
            ) -> tuple[MpiJob, Optional[ClusterMonitor], Optional[list]]:
    """Launch and run one MPI job, under the online monitor and a fault
    plan when given them.

    The one place that knows the order a monitored run is set up in: a
    KTAUD starts on each node as the launcher places ranks there, the
    rank-free (spare) nodes are attached after the launch, and the fault
    plan is armed against the fully monitored cluster just before the
    run.  ``launch`` goes to :func:`launch_mpi_job` unchanged.  Returns
    the finished job, the monitor (``None`` when unmonitored) and the
    applied-fault log (``None`` without a plan); harvesting and teardown
    stay with the caller.
    """
    monitor = None
    if monitor_config is not None:
        monitor = ClusterMonitor(cluster, monitor_config)
    job = launch_mpi_job(cluster, nranks, app,
                         node_setup=monitor.attach_node if monitor else None,
                         **launch)
    if monitor is not None:
        # Spare nodes host no ranks, so the launcher's node_setup hook
        # never saw them; monitor them too.
        for node in cluster.nodes:
            if node.name not in monitor.node_hz:
                monitor.attach_node(node)
    injected = None
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector
        injector = FaultInjector(cluster, fault_plan, monitor=monitor)
        injector.arm()
        injected = injector.injected
    job.run(limit_s=limit_s)
    return job, monitor, injected


@dataclass
class ChibaRun:
    """One Chiba configuration's harvests.

    ``monitor`` and ``timeline`` are set when the run was monitored,
    ``injected`` (the applied-fault log) when a fault plan was armed.
    """

    data: JobData
    monitor: Optional[MonitorData] = None
    #: integrated user/kernel Chrome-trace JSON of the monitored run.
    timeline: Optional[str] = None
    injected: Optional[list] = None


def run_chiba_app(config: ChibaConfig, app_name: str, params,
                  limit_s: float = 3600.0) -> JobData:
    """Run one application under one configuration and harvest it.

    ``app_name`` is ``"lu"`` or ``"sweep3d"``; ``params`` the matching
    parameter dataclass.
    """
    with obs.span(f"chiba:{config.label}:{app_name}:seed{config.seed}",
                  "experiment", nranks=config.nranks):
        return _run_chiba_app(config, app_name, params, limit_s).data


def run_monitored_chiba_app(config: ChibaConfig, app_name: str, params,
                            monitor_config: MonitorConfig,
                            limit_s: float = 3600.0,
                            fault_plan=None, spare_nodes: int = 0
                            ) -> ChibaRun:
    """Run one configuration under the online cluster monitor.

    Same run machinery as :func:`run_chiba_app`, plus one streaming
    KTAUD per used node; returns the harvested job data, the monitor
    harvest, the integrated user/kernel timeline JSON and the
    applied-fault log.

    ``spare_nodes`` adds monitored rank-free nodes past the placement
    and ``fault_plan`` arms a fault plan after launch (the chaos
    harness's knobs; both default off and change nothing when off).
    """
    with obs.span(f"chiba:{config.label}:{app_name}:seed{config.seed}:mon",
                  "experiment", nranks=config.nranks):
        return _run_chiba_app(config, app_name, params, limit_s,
                              monitor_config, fault_plan, spare_nodes)


def _run_chiba_app(config: ChibaConfig, app_name: str, params,
                   limit_s: float,
                   monitor_config: Optional[MonitorConfig] = None,
                   fault_plan=None, spare_nodes: int = 0) -> ChibaRun:
    nnodes_used = config.nranks // config.procs_per_node + spare_nodes
    anomaly_nodes = (ANOMALY_NODE,) if config.anomaly else ()
    if config.anomaly and config.procs_per_node == 1:
        raise ValueError("the anomaly experiment is a 2-per-node configuration")
    tweak = None
    if config.irq_target_cpu:
        def tweak(_i, params):
            return params.with_(irq_target_cpu=config.irq_target_cpu)
    cluster = make_chiba(nnodes=nnodes_used, seed=config.seed,
                         irq_balance=config.irq_balance,
                         anomaly_nodes=anomaly_nodes, ktau=config.ktau,
                         tweak=tweak)
    if config.enabled_groups is not None:
        for node in cluster.nodes:
            node.kernel.ktau.control.disable_all()
            node.kernel.ktau.control.enable(*config.enabled_groups)

    if app_name == "lu":
        app = lu_app(params)
    elif app_name == "sweep3d":
        app = sweep3d_app(params)
    else:
        raise ValueError(f"unknown app {app_name!r}")

    job, monitor, injected = run_job(
        cluster, config.nranks, app, limit_s=limit_s,
        monitor_config=monitor_config, fault_plan=fault_plan,
        placement=block_placement(config.procs_per_node, config.nranks),
        pin=config.pin, cpu_offset=config.cpu_offset,
        tau_enabled=config.tau_enabled,
        tau_tracing=config.tau_tracing, comm_prefix=app_name)
    run = ChibaRun(data=harvest_job(job), injected=injected)
    if monitor is not None:
        run.monitor = monitor.harvest()
        run.timeline = integrated_timeline(run.monitor, job)
    cluster.teardown()
    return run
