"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`
to a live cluster through scheduled engine events.

Every fault fires as an ordinary simulation event at its planned
virtual instant, so injection is ordered deterministically against all
other simulated activity; the only randomness (RNG-chosen targets,
per-frame loss draws) comes from the cluster's seeded RNG hub.  Plans
front-load their whole schedule at arm time; fault instants far beyond
the engine's calendar-queue span simply land in its ordered overflow
lane, so even an hours-out fault costs the dispatch hot path nothing
until its epoch approaches.  With no plan armed, none of the hooks the
injector uses exist at run time — ``Nic.fault_hook`` stays ``None``,
``Ktaud.suspended_until_ns`` stays ``0``, ``KtauProcFS.failing`` stays
``False`` — so a fault-free run is byte-identical to a build without
this module (the BENCH A/B row).

Crash semantics: a :class:`~repro.faults.plan.NodeCrash` SIGKILLs every
process the node's kernel still tracks (delivery happens through the
ordinary scheduler signal path, so even a mid-burst task dies at its
next scheduling point) and marks the node down, which makes the wire
hook drop frames addressed to it.  Killing a node that hosts ranks of a
synchronised MPI job will, realistically, stall the surviving ranks —
the run then ends with the cluster's run-limit error, which is the
correct observable for an unhandled rank death.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cluster.daemons import start_pressure_daemon, start_standard_daemons
from repro.cluster.network import ClusterNetwork
from repro.faults.plan import (CollectorPartition, ClockDrift, FaultPlan,
                               KtaudHang, KtaudKill, LatencySpike, NodeCrash,
                               PacketLoss, ProcfsFlap, TracePressure,
                               WirePartition)
from repro.obs import runtime as _obs
from repro.sim.units import MSEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machines import Cluster
    from repro.cluster.node import Node
    from repro.monitor.cluster_monitor import ClusterMonitor

#: "Forever" for open-ended fault windows (far past any run horizon).
_NEVER = 1 << 62

#: Era-Linux minimum TCP retransmission timeout charged per lost frame.
RTO_NS = 200 * MSEC


class FaultInjector:
    """Arms one materialized fault plan against one cluster.

    Parameters
    ----------
    cluster:
        The cluster to fault.
    plan:
        The plan; RNG-chosen targets are resolved immediately via
        :meth:`~repro.faults.plan.FaultPlan.materialize`.
    monitor:
        The run's :class:`~repro.monitor.cluster_monitor.ClusterMonitor`,
        required for collection-scope faults (delivery filtering) and
        for restarting KTAUD on reboot.
    """

    def __init__(self, cluster: "Cluster", plan: FaultPlan,
                 monitor: Optional["ClusterMonitor"] = None):
        self.cluster = cluster
        self.monitor = monitor
        self.plan = plan.materialize(cluster)
        #: log of applied faults: ``{"t_ns", "kind", "node"}`` dicts in
        #: application order (deterministic).
        self.injected: list[dict] = []
        self._armed = False
        self._net_rng = None
        self._node_by_kernel = {id(node.kernel): node
                                for node in cluster.nodes}
        # Active wire windows, precomputed from the plan (gated by time
        # inside the hook, so installation order does not matter).
        self._loss = [(f.at_ns, f.until_ns, f.rate, f.nodes)
                      for f in self.plan.faults if isinstance(f, PacketLoss)]
        self._latency = [(f.at_ns, f.until_ns, f.extra_ns, f.nodes)
                         for f in self.plan.faults
                         if isinstance(f, LatencySpike)]
        self._partitions = [(f.at_ns, f.until_ns, frozenset(f.group_a),
                             frozenset(f.group_b))
                            for f in self.plan.faults
                            if isinstance(f, WirePartition)]
        # Collection-scope delivery-drop windows by node name.
        self._collect: dict[str, list[tuple[int, int]]] = {}
        for f in self.plan.faults:
            if isinstance(f, CollectorPartition):
                for index in f.nodes:
                    name = cluster.nodes[index].name
                    until = f.until_ns if f.until_ns is not None else _NEVER
                    self._collect.setdefault(name, []).append(
                        (f.at_ns, until))

    # -- arming ----------------------------------------------------------
    def arm(self) -> None:
        """Install hooks and schedule every fault's application event."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        if self._collect:
            if self.monitor is None:
                raise ValueError("collection-scope faults need a monitor")
            self.monitor.delivery_filter = self._delivery_filter
        if self._loss or self._latency or self._partitions:
            if self._loss:
                self._net_rng = self.cluster.rng.stream("faults.net")
            ClusterNetwork.install_wire_fault(
                [node.kernel for node in self.cluster.nodes],
                self._wire_hook)
        engine = self.cluster.engine
        for fault in self.plan.faults:
            engine.schedule_at(fault.at_ns, self._fire_cb(fault))

    def _fire_cb(self, fault):
        def fire() -> None:
            self._apply(fault)
            node = None
            if fault.node is not None:
                node = self.cluster.nodes[fault.node].name
            self.injected.append({"t_ns": self.cluster.engine.now,
                                  "kind": fault.kind, "node": node})
            if _obs.metrics_on:
                from repro.obs.metrics import REGISTRY
                REGISTRY.counter("faults.injected").inc()
                REGISTRY.counter(f"faults.injected.{fault.kind}").inc()
        return fire

    # -- application -----------------------------------------------------
    def _apply(self, fault) -> None:
        if isinstance(fault, NodeCrash):
            self._apply_crash(fault)
        elif isinstance(fault, KtaudKill):
            node = self.cluster.nodes[fault.node]
            if node.ktaud is not None and node.ktaud.task is not None:
                node.kernel.send_signal(node.ktaud.task, 9)
        elif isinstance(fault, KtaudHang):
            node = self.cluster.nodes[fault.node]
            if node.ktaud is not None:
                node.ktaud.suspended_until_ns = (
                    fault.until_ns if fault.until_ns is not None else _NEVER)
        elif isinstance(fault, ProcfsFlap):
            node = self.cluster.nodes[fault.node]
            node.kernel.ktau_proc.failing = True
            self.cluster.engine.schedule_at(
                fault.until_ns, self._procfs_heal_cb(node))
        elif isinstance(fault, TracePressure):
            node = self.cluster.nodes[fault.node]
            task = start_pressure_daemon(
                node, period_ns=fault.period_ns,
                burst_syscalls=fault.burst_syscalls)
            self.cluster.engine.schedule_at(
                fault.until_ns, self._kill_task_cb(node, task))
        elif isinstance(fault, ClockDrift):
            node = self.cluster.nodes[fault.node]
            node.kernel.clock.set_drift(fault.ppm, fault.at_ns)
        # Window faults (collection/wire) act through the hooks installed
        # at arm time; their events exist for the log and metrics only.

    def _apply_crash(self, fault: NodeCrash) -> None:
        node = self.cluster.nodes[fault.node_index]
        node.down = True
        kernel = node.kernel
        for pid in sorted(kernel.tasks):
            task = kernel.tasks[pid]
            if task.alive:
                kernel.send_signal(task, 9)
        if fault.reboot_at_ns is not None:
            self.cluster.engine.schedule_at(
                fault.reboot_at_ns, self._reboot_cb(node))

    def _reboot_cb(self, node: "Node"):
        def reboot() -> None:
            node.down = False
            node.daemons = [t for t in node.daemons if t.alive]
            start_standard_daemons(node)
            if self.monitor is not None \
                    and node.name in self.monitor.node_hz:
                self.monitor.restart_ktaud(node)
        return reboot

    def _procfs_heal_cb(self, node: "Node"):
        def heal() -> None:
            node.kernel.ktau_proc.failing = False
        return heal

    def _kill_task_cb(self, node: "Node", task):
        def kill() -> None:
            if task.alive:
                node.kernel.send_signal(task, 9)
        return kill

    # -- hooks -----------------------------------------------------------
    def _delivery_filter(self, name: str, snap) -> bool:
        """Monitor delivery filter: False while ``name`` is partitioned."""
        for start, until in self._collect.get(name, ()):
            if start <= snap.time_ns < until:
                return False
        return True

    def _wire_hook(self, src_kernel, dst_kernel, nbytes: int) -> Optional[int]:
        """NIC fault hook: extra delivery delay in ns, or None to drop."""
        dst_node = self._node_by_kernel[id(dst_kernel)]
        if dst_node.down:
            return None
        now = self.cluster.engine.now
        src = self._node_by_kernel[id(src_kernel)].index
        dst = dst_node.index
        extra = 0
        for start, until, extra_ns, nodes in self._latency:
            if start <= now < until and (nodes is None or src in nodes
                                         or dst in nodes):
                extra += extra_ns
        for start, until, group_a, group_b in self._partitions:
            if start <= now < until and (
                    (src in group_a and dst in group_b)
                    or (src in group_b and dst in group_a)):
                # Delivery held until the partition heals.
                extra += until - now
        for start, until, rate, nodes in self._loss:
            if start <= now < until and (nodes is None or src in nodes
                                         or dst in nodes):
                # Each loss costs one retransmission timeout; repeated
                # losses of the retransmission compound geometrically.
                while self._net_rng.random() < rate:
                    extra += RTO_NS
        return extra
