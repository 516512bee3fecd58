"""The cluster monitor: one KTAUD per node, detection per interval.

:class:`ClusterMonitor` attaches a streaming KTAUD daemon to every node
(:class:`~repro.core.clients.ktaud.Ktaud` with an ``on_snapshot``
callback and a small retention cap), turns each snapshot into a
:class:`~repro.monitor.intervals.NodeInterval`, feeds bounded time
series, and — whenever every *live* node has reported interval *k* —
runs the cross-node MAD detector plus the per-node interference check
and appends typed alerts.

Collection is allowed to degrade: per-node staleness tracking turns a
quiet snapshot stream into ``NODE_STALE`` / ``NODE_LOST`` /
``NODE_RECOVERED`` alerts, intervals close as *partial* cluster views
once a node stops reporting (or when the reporting frontier leaves a
bucket behind), and a recovered node's interval stream is realigned
instead of crashing the pipeline.  On a fault-free run none of this
machinery fires and the behaviour is exactly the historical all-nodes
rule — byte-identical output, as the determinism tests assert.

The daemons are real simulated processes: their extraction reads cost
CPU on the monitored nodes, so monitoring perturbs the application
exactly the way §2 of the paper says a daemon-based model does.  The
*analysis* side (callbacks, series, detection) is host-side Python over
simulated measurements only, so a monitored run remains bit-reproducible
— serial vs parallel equivalence is asserted in the determinism tests.

:meth:`ClusterMonitor.harvest` returns :class:`MonitorData`, a plain
picklable record (series, alerts, node clock metadata) that travels
through :mod:`repro.parallel` workers and serialises canonically via
:func:`monitor_data_to_json`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.analysis.export import canonical_json
from repro.analysis.views import interval_view, pmc_interval_view
from repro.core.clients.ktaud import Ktaud, KtaudSnapshot
from repro.core.points import SCHED_INVOLUNTARY_POINT
from repro.monitor.alerts import (COUNTER_OUTLIER, INTERFERENCE, NODE_LOST,
                                  NODE_OUTLIER, NODE_RECOVERED, NODE_STALE,
                                  Alert, alerts_to_doc, sort_key)
from repro.monitor.detect import flag_outliers
from repro.monitor.intervals import NodeInterval
from repro.monitor.series import SeriesStore
from repro.obs import runtime as _obs
from repro.sim.units import MSEC, SEC

import statistics

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machines import Cluster
    from repro.cluster.node import Node

#: Synthetic metric name for whole-node non-voluntary kernel activity.
ACTIVITY_METRIC = "activity"

#: Synthetic metric name for the node-wide interval L2 miss rate
#: (misses per kilocycle executed) — present only on counters builds.
COUNTER_MISS_METRIC = "l2_miss_per_kcycle"

#: Synthetic metric name for node-wide interval instructions per cycle.
COUNTER_IPC_METRIC = "ipc"

#: Comm prefixes of application ranks (``launch_mpi_job`` comms are
#: ``"<prefix>.<rank>"``); these are never interference.
APP_PREFIXES = ("lu.", "app.", "sweep3d.")


# Detector and collection tuning.  The values are calibrated on the
# Figure 2-A reproduction: they flag the interference-perturbed node and
# the intruder process while staying silent on the standard daemon set
# and on LU's own synchronisation behaviour.

#: kernel events watched by the cross-node outlier detector
#: (involuntary scheduling is the paper's perturbation signature).
WATCH_EVENTS: tuple[str, ...] = (SCHED_INVOLUNTARY_POINT,)
#: modified z-score threshold for node outliers.
MAD_THRESHOLD = 3.5
#: absolute excess over the cluster median (seconds per interval)
#: a node must show before it can be flagged.  Calibrated above the
#: few-millisecond scheduling spikes LU's own synchronisation
#: produces on healthy nodes.
MIN_ABS_S = 0.008
#: cross-node detection needs a population; below this it is off.
MIN_NODES = 4
#: per-interval kernel activity (seconds) a non-app process must
#: reach to be flagged as interference on its own...
INTERFERENCE_MIN_S = 0.010
#: ...and at least this fraction of the interval.
INTERFERENCE_FRAC = 0.05
#: when a node IS an outlier, its most active non-app process is
#: blamed (the paper's A-then-B workflow: a user-mode cycle stealer
#: shows up mostly as its *victims'* involuntary scheduling, so the
#: culprit's own kernel footprint only has to clear this small bar).
ATTRIBUTION_MIN_S = 0.0005
#: comms never flagged: the monitor's own daemons and the idle task.
IGNORE_COMMS: tuple[str, ...] = ("ktaud", "swapper")
#: ring-buffer capacity per (node, metric) series.
SERIES_CAPACITY = 1024
#: per-node KTAUD snapshot retention (the monitor differences
#: consecutive snapshots online, so two is enough).
MAX_SNAPSHOTS = 2
#: a node silent for this many extraction periods is ``NODE_STALE``.
#: Healthy inter-snapshot gaps are barely over one period, so this
#: never fires on a fault-free run.
STALE_AFTER_PERIODS = 2.5
#: ...and for this many is ``NODE_LOST``: intervals close without it.
LOST_AFTER_PERIODS = 6.0
#: a pending interval is force-closed (partial view) once the newest
#: reported interval is this far ahead of it.
BUCKET_LAG = 2
#: intervals longer than this many periods (outage spans after a
#: recovery realignment) are excluded from cross-node outlier
#: comparison — their per-interval values are not comparable.
MAX_INTERVAL_PERIODS = 1.6
#: modified z-score threshold for the counter dimension's cross-node
#: miss-rate outlier detector (runs only when the monitored kernels
#: carry the counters build option).
COUNTER_MAD_THRESHOLD = 3.5
#: absolute excess (L2 misses per kilocycle) over the cluster median
#: a node must show before a counter outlier fires.  Healthy nodes
#: running the same binary agree within a fraction of a miss per
#: kilocycle; a cache thrasher multiplies the node rate.
COUNTER_MIN_ABS = 0.5


@dataclass(frozen=True)
class MonitorConfig:
    """The settings of one monitored run; the detector thresholds are
    the module constants above."""

    #: KTAUD extraction period on every node.
    period_ns: int = 200 * MSEC
    #: size of the streaming lost-time attributor's (node, path) ranking
    #: (:mod:`repro.monitor.bottleneck`); 0 disables the attributor,
    #: keeping historical monitored runs byte-identical.
    bottleneck_top_k: int = 0


@dataclass
class MonitorData:
    """Harvested monitor state: plain data, canonical serialisation."""

    period_ns: int
    start_ns: int
    end_ns: int
    nodes: list[str]
    node_hz: dict[str, float]
    node_boot_offset: dict[str, int]
    snapshots: int
    intervals: int
    dropped_snapshots: int
    dropped_points: int
    #: node -> metric -> retained (time_ns, value_s) points
    series: dict[str, dict[str, list[tuple[int, float]]]] = field(default_factory=dict)
    alerts: list[Alert] = field(default_factory=list)
    #: final health per node: ``live`` / ``stale`` / ``lost``.
    node_health: dict[str, str] = field(default_factory=dict)
    #: snapshots suppressed by a collection-fault delivery filter.
    dropped_deliveries: int = 0
    #: interval streams realigned after a node recovered.
    realigned: int = 0
    #: streaming attributor's final top-K (node, path, lost_s) ranking;
    #: empty when the attributor was off.
    bottleneck: list[dict] = field(default_factory=list)

    def alert_nodes(self, kind: Optional[str] = None) -> list[str]:
        """Sorted distinct nodes with alerts (optionally of one kind)."""
        return sorted({a.node for a in self.alerts
                       if kind is None or a.kind == kind})

    def to_doc(self) -> dict:
        """JSON-able document (tuple points flattened to lists)."""
        return {
            "period_ns": self.period_ns,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "nodes": list(self.nodes),
            "node_hz": dict(self.node_hz),
            "node_boot_offset": dict(self.node_boot_offset),
            "snapshots": self.snapshots,
            "intervals": self.intervals,
            "dropped_snapshots": self.dropped_snapshots,
            "dropped_points": self.dropped_points,
            "series": {node: {metric: [[t, v] for t, v in points]
                              for metric, points in metrics.items()}
                       for node, metrics in self.series.items()},
            "alerts": alerts_to_doc(self.alerts),
            "node_health": dict(self.node_health),
            "dropped_deliveries": self.dropped_deliveries,
            "realigned": self.realigned,
            "bottleneck": [dict(entry) for entry in self.bottleneck],
        }


def monitor_data_to_json(data: MonitorData) -> str:
    """Canonical byte-stable JSON of a harvested monitored run."""
    return canonical_json(data.to_doc())


class ClusterMonitor:
    """Online monitor over every (or a subset of) node(s) of a cluster.

    Usage::

        cluster = make_chiba(nnodes=8, seed=1)
        monitor = ClusterMonitor(cluster)
        monitor.attach()                      # before launching the job
        job = launch_mpi_job(...); job.run()
        data = monitor.harvest()              # plain MonitorData
        print(render_dashboard(data))
    """

    def __init__(self, cluster: "Cluster", config: Optional[MonitorConfig] = None):
        self.cluster = cluster
        self.config = config or MonitorConfig()
        self.series = SeriesStore(SERIES_CAPACITY)
        self.alerts: list[Alert] = []
        self.attributor = None
        if self.config.bottleneck_top_k > 0:
            from repro.monitor.bottleneck import StreamingBottleneckAttributor
            self.attributor = StreamingBottleneckAttributor(self.config)
        self.daemons: list[Ktaud] = []
        self.node_names: list[str] = []
        self.node_hz: dict[str, float] = {}
        self.node_boot_offset: dict[str, int] = {}
        self.snapshots_seen = 0
        self.intervals_done = 0
        #: collection-fault hook (:mod:`repro.faults`): called as
        #: ``filter(node_name, snapshot) -> bool`` before a snapshot is
        #: consumed; ``False`` suppresses the delivery (the report was
        #: partitioned away), exercising the staleness machinery without
        #: perturbing any simulated state.  ``None`` = deliver all.
        self.delivery_filter = None
        #: deliveries suppressed by :attr:`delivery_filter`.
        self.dropped_deliveries = 0
        #: interval streams realigned after a stale/lost node recovered.
        self.realigned = 0
        self._start_ns: dict[str, int] = {}
        self._prev: dict[str, KtaudSnapshot] = {}
        self._next_index: dict[str, int] = {}
        self._buckets: dict[int, dict[str, NodeInterval]] = {}
        self._last_seen_ns: dict[str, int] = {}
        self._health: dict[str, str] = {}
        self._frontier = 0
        self._max_closed = -1

    # -- attachment ------------------------------------------------------
    def attach(self) -> None:
        """Start a streaming KTAUD on every node of the cluster."""
        for node in self.cluster.nodes:
            self.attach_node(node)

    def attach_node(self, node: "Node") -> None:
        """Start a streaming KTAUD on one node and subscribe to it."""
        name = node.name
        if name in self.node_hz:
            raise ValueError(f"node {name!r} is already monitored")
        self._start_daemon(node)
        self.node_names.append(name)
        self.node_hz[name] = node.kernel.clock.hz
        self.node_boot_offset[name] = node.kernel.clock.boot_offset_cycles
        self._start_ns[name] = self.cluster.engine.now
        self._next_index[name] = 0
        self._last_seen_ns[name] = self.cluster.engine.now
        self._health[name] = "live"

    def restart_ktaud(self, node: "Node") -> None:
        """Start a fresh KTAUD on an already-monitored node.

        The reboot path of the fault injector: the node's previous
        daemon died with the crash; its replacement resumes the snapshot
        stream and the recovery machinery realigns the interval stream.
        The differencing base is kept — the first post-reboot interval
        spans the outage and is excluded from cross-node comparison.
        """
        if node.name not in self.node_hz:
            raise ValueError(f"node {node.name!r} is not monitored")
        self._start_daemon(node)

    def _start_daemon(self, node: "Node") -> None:
        name = node.name

        def on_snapshot(snap: KtaudSnapshot, _name: str = name) -> None:
            self._on_snapshot(_name, snap)

        daemon = Ktaud(node.kernel, period_ns=self.config.period_ns,
                       on_snapshot=on_snapshot,
                       max_snapshots=MAX_SNAPSHOTS)
        daemon.start()
        node.ktaud = daemon
        self.daemons.append(daemon)

    def stop(self) -> None:
        """Kill the monitor daemons (e.g. before reusing the cluster)."""
        for daemon in self.daemons:
            daemon.stop()

    # -- the stream ------------------------------------------------------
    def _on_snapshot(self, name: str, snap: KtaudSnapshot) -> None:
        """One node reported: build its interval, maybe close buckets."""
        if self.delivery_filter is not None \
                and not self.delivery_filter(name, snap):
            # The report was partitioned away before reaching the
            # monitor.  The node keeps extracting (and paying CPU); the
            # monitor just stops hearing from it and the staleness
            # machinery takes over.
            self.dropped_deliveries += 1
            if _obs.metrics_on:
                from repro.obs.metrics import REGISTRY
                REGISTRY.counter("monitor.dropped_deliveries").inc()
            self._check_health(snap.time_ns)
            return
        self.snapshots_seen += 1
        self._note_alive(name, snap.time_ns)
        prev = self._prev.get(name)
        start_ns = prev.time_ns if prev is not None else self._start_ns[name]
        deltas = interval_view(prev.profiles if prev is not None else None,
                               snap.profiles)
        pmc_deltas = pmc_interval_view(
            prev.profiles if prev is not None else None, snap.profiles)
        comms = {pid: dump.comm for pid, dump in snap.profiles.items()}
        index = self._next_index[name]
        if index <= self._max_closed:
            # The node fell behind closed intervals (outage, recovery):
            # realign its stream to the first still-open interval.  The
            # realigned interval spans the whole gap, so _detect excludes
            # it from cross-node comparison by length.
            index = self._max_closed + 1
            self.realigned += 1
        self._next_index[name] = index + 1
        self._prev[name] = snap
        interval = NodeInterval(node=name, index=index, start_ns=start_ns,
                                end_ns=snap.time_ns,
                                hz=self.node_hz[name],
                                deltas=deltas, comms=comms,
                                pmc_deltas=pmc_deltas)
        for event in WATCH_EVENTS:
            self.series.append(name, event, snap.time_ns,
                               interval.event_excl_s(event))
        self.series.append(name, ACTIVITY_METRIC, snap.time_ns,
                           interval.activity_s())
        if pmc_deltas:
            # Counter series exist only on counters builds, so a
            # counters-off monitored run serialises byte-identically to
            # the historical format.
            self.series.append(name, COUNTER_MISS_METRIC, snap.time_ns,
                               interval.miss_per_kcycle())
            self.series.append(name, COUNTER_IPC_METRIC, snap.time_ns,
                               interval.ipc())
        if _obs.metrics_on:
            from repro.obs.metrics import REGISTRY
            REGISTRY.counter("monitor.snapshots").inc()
        bucket = self._buckets.setdefault(index, {})
        bucket[name] = interval
        if index > self._frontier:
            self._frontier = index
        self._check_health(snap.time_ns)
        self._maybe_close(index)
        self._close_lagged()

    # -- collection health -----------------------------------------------
    def _note_alive(self, name: str, now_ns: int) -> None:
        """A delivery arrived from ``name``: recover it if it was quiet."""
        if self._health[name] != "live":
            silent = now_ns - self._last_seen_ns[name]
            self._health[name] = "live"
            self._append_health(NODE_RECOVERED, name, now_ns, silent)
            if _obs.metrics_on:
                from repro.obs.metrics import REGISTRY
                REGISTRY.counter("monitor.nodes_recovered").inc()
        self._last_seen_ns[name] = now_ns

    def _check_health(self, now_ns: int) -> None:
        """Advance staleness state for every node, driven by sim time.

        Called on each delivery, so transitions are evaluated roughly
        once per period per live node; if the *entire* cluster goes
        silent no further deliveries arrive and no transition fires —
        the monitor is an observer, it schedules no events of its own.
        """
        period = self.config.period_ns
        stale_ns = int(STALE_AFTER_PERIODS * period)
        lost_ns = int(LOST_AFTER_PERIODS * period)
        for node in self.node_names:
            health = self._health[node]
            if health == "lost":
                continue
            silent = now_ns - self._last_seen_ns[node]
            if silent >= lost_ns:
                self._health[node] = "lost"
                self._append_health(NODE_LOST, node, now_ns, silent)
                if _obs.metrics_on:
                    from repro.obs.metrics import REGISTRY
                    REGISTRY.counter("monitor.nodes_lost").inc()
            elif silent >= stale_ns and health == "live":
                self._health[node] = "stale"
                self._append_health(NODE_STALE, node, now_ns, silent)
                if _obs.metrics_on:
                    from repro.obs.metrics import REGISTRY
                    REGISTRY.counter("monitor.nodes_stale").inc()

    def _append_health(self, kind: str, node: str, now_ns: int,
                       silent_ns: int) -> None:
        period = self.config.period_ns
        self.alerts.append(Alert(
            kind=kind, interval=self._frontier, time_ns=now_ns, node=node,
            metric="health", value_s=silent_ns / SEC,
            baseline_s=period / SEC, score=silent_ns / period))

    # -- interval closing ------------------------------------------------
    def _maybe_close(self, index: int) -> None:
        """Close ``index`` if every *live* node has reported it.

        With the whole cluster healthy this is exactly the historical
        all-nodes rule; quiet nodes stop holding intervals open once the
        staleness machinery marks them, which is what keeps partial
        cluster views flowing during an outage.
        """
        bucket = self._buckets.get(index)
        if bucket is None:
            return
        live = [n for n in self.node_names if self._health[n] == "live"]
        if live and all(n in bucket for n in live):
            self._close(index)

    def _close_lagged(self) -> None:
        """Force-close pending intervals the frontier has left behind."""
        limit = self._frontier - BUCKET_LAG
        for index in sorted(self._buckets):
            if index <= limit:
                self._close(index)
            else:
                break

    def _close(self, index: int) -> None:
        bucket = self._buckets.pop(index)
        if index > self._max_closed:
            self._max_closed = index
        self._detect(index, bucket)
        if self.attributor is not None:
            self.alerts.extend(self.attributor.observe(index, bucket))

    # -- detection -------------------------------------------------------
    def _is_app(self, comm: str) -> bool:
        return comm.startswith(APP_PREFIXES)

    def _detect(self, index: int, bucket: dict[str, NodeInterval]) -> None:
        """Interval ``index`` closed: run the detectors on whoever reported.

        The bucket holds every node that delivered this interval — all of
        them on a healthy cluster, a partial view during an outage.
        Cross-node comparison uses only intervals of normal length;
        realigned post-recovery intervals span a whole outage and their
        per-interval values are not comparable.
        """
        nalerts = 0
        nodes = sorted(bucket)
        period_s = self.config.period_ns / SEC
        comparable = [node for node in nodes
                      if bucket[node].wall_s
                      <= MAX_INTERVAL_PERIODS * period_s]
        outlier_nodes: set[str] = set()
        if len(comparable) >= MIN_NODES:
            for event in WATCH_EVENTS:
                values = [bucket[node].event_excl_s(event)
                          for node in comparable]
                center = statistics.median(values)
                for i, score in flag_outliers(values, MAD_THRESHOLD,
                                              MIN_ABS_S):
                    interval = bucket[comparable[i]]
                    outlier_nodes.add(comparable[i])
                    self.alerts.append(Alert(
                        kind=NODE_OUTLIER, interval=index,
                        time_ns=interval.end_ns, node=comparable[i],
                        metric=event,
                        value_s=values[i], baseline_s=center, score=score))
                    nalerts += 1
        # The counter dimension: a cache-hostile intruder executes too
        # few cycles to move the time-rate detectors above, but its L2
        # miss rate inflates the whole node's interval rate (§6).  Only
        # nodes whose kernels carry the counters build report PMC data.
        counter_nodes = [node for node in comparable
                         if bucket[node].pmc_deltas]
        if len(counter_nodes) >= MIN_NODES:
            rates = [bucket[node].miss_per_kcycle()
                     for node in counter_nodes]
            center = statistics.median(rates)
            for i, score in flag_outliers(rates, COUNTER_MAD_THRESHOLD,
                                          COUNTER_MIN_ABS):
                interval = bucket[counter_nodes[i]]
                self.alerts.append(Alert(
                    kind=COUNTER_OUTLIER, interval=index,
                    time_ns=interval.end_ns, node=counter_nodes[i],
                    metric=COUNTER_MISS_METRIC,
                    value_s=rates[i], baseline_s=center, score=score))
                nalerts += 1
                if _obs.metrics_on:
                    from repro.obs.metrics import REGISTRY
                    REGISTRY.counter("monitor.counter_alerts").inc()
        for node in nodes:
            interval = bucket[node]
            activity = interval.activity_by_pid()
            suspects: dict[int, float] = {}
            for pid in sorted(activity):
                comm = interval.comms.get(pid, "?")
                if pid == 0 or comm in IGNORE_COMMS or self._is_app(comm):
                    continue
                suspects[pid] = activity[pid]
            flagged: set[int] = set()
            # Standalone check: a kernel-heavy intruder clears the
            # activity floor on its own, outlier or not.
            floor = max(INTERFERENCE_MIN_S,
                        INTERFERENCE_FRAC * interval.wall_s)
            for pid in sorted(suspects):
                if suspects[pid] >= floor:
                    flagged.add(pid)
            # Attribution: on an outlier node, blame the most active
            # non-app process (a user-mode cycle stealer's footprint is
            # mostly its victims' involuntary scheduling, so the bar is
            # much lower here).
            if node in outlier_nodes and suspects:
                top = max(sorted(suspects), key=lambda p: suspects[p])
                if suspects[top] >= ATTRIBUTION_MIN_S:
                    flagged.add(top)
            for pid in sorted(flagged):
                self.alerts.append(Alert(
                    kind=INTERFERENCE, interval=index,
                    time_ns=interval.end_ns, node=node,
                    metric=ACTIVITY_METRIC, value_s=suspects[pid],
                    baseline_s=interval.wall_s,
                    score=suspects[pid] / interval.wall_s
                    if interval.wall_s > 0 else 0.0,
                    pid=pid, comm=interval.comms.get(pid, "?")))
                nalerts += 1
        self.intervals_done += 1
        if _obs.metrics_on:
            from repro.obs.metrics import REGISTRY
            REGISTRY.counter("monitor.intervals").inc()
            if nalerts:
                REGISTRY.counter("monitor.alerts").inc(nalerts)

    # -- harvest ---------------------------------------------------------
    def harvest(self) -> MonitorData:
        """Snapshot the monitor's state into plain, picklable data."""
        series: dict[str, dict[str, list[tuple[int, float]]]] = {}
        for node, metric in self.series.keys():
            ring = self.series.get(node, metric)
            assert ring is not None
            series.setdefault(node, {})[metric] = ring.points()
        end_ns = max((snap.time_ns for snap in self._prev.values()),
                     default=min(self._start_ns.values(), default=0))
        start_ns = min(self._start_ns.values(), default=0)
        return MonitorData(
            period_ns=self.config.period_ns,
            start_ns=start_ns, end_ns=end_ns,
            nodes=list(self.node_names),
            node_hz=dict(self.node_hz),
            node_boot_offset=dict(self.node_boot_offset),
            snapshots=self.snapshots_seen,
            intervals=self.intervals_done,
            dropped_snapshots=sum(d.dropped for d in self.daemons),
            dropped_points=self.series.total_dropped(),
            series=series,
            alerts=sorted(self.alerts, key=sort_key),
            node_health=dict(self._health),
            dropped_deliveries=self.dropped_deliveries,
            realigned=self.realigned,
            bottleneck=(self.attributor.top(self.config.bottleneck_top_k)
                        if self.attributor is not None else []))
