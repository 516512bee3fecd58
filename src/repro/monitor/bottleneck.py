"""Online top-K lost-time attribution over the monitor's snapshot stream.

The streaming counterpart of :mod:`repro.analysis.bottlenecks`: where
the offline analyzer replays full merged traces post-mortem, this
attributor consumes the same per-node KTAUD interval deltas the
:class:`~repro.monitor.cluster_monitor.ClusterMonitor` already builds,
and maintains a running cluster-wide ranking of lost time by
(node, kernel path) — no traces, no extra simulated cost.

Per closed interval it accumulates each node's exclusive seconds in the
lost-time kernel paths (involuntary scheduling and interrupt work — the
direct-loss signals; voluntary waits need message flow to attribute and
stay offline), then runs the same cross-node MAD outlier test the
monitor uses.  When a flagged node is also the *cumulative* top
blocker, a :data:`~repro.monitor.alerts.BOTTLENECK` alert is emitted —
once per distinct (node, path) at the top, so a persistent intruder
produces one actionable alert rather than one per interval.

Everything here is host-side analysis over simulated measurements, so a
monitored run with the attributor enabled stays byte-reproducible; the
determinism suite compares serial vs parallel monitored runs with it
switched on.
"""

from __future__ import annotations

import statistics
from typing import Optional

from repro.core.points import SCHED_INVOLUNTARY_POINT
from repro.monitor.alerts import BOTTLENECK, Alert
from repro.monitor.cluster_monitor import (MAD_THRESHOLD, MAX_INTERVAL_PERIODS,
                                           MIN_ABS_S, MIN_NODES,
                                           MonitorConfig)
from repro.monitor.detect import flag_outliers
from repro.monitor.intervals import NodeInterval
from repro.obs import runtime as _obs
from repro.sim.units import SEC

#: Kernel paths whose per-interval exclusive time is direct lost time.
LOST_TIME_EVENTS: tuple[str, ...] = (SCHED_INVOLUNTARY_POINT, "do_IRQ",
                                     "do_softirq")


class StreamingBottleneckAttributor:
    """Running (node, path) lost-time ranking fed by closed intervals."""

    def __init__(self, config: MonitorConfig):
        self.config = config
        #: cumulative lost seconds per (node, path).
        self._lost: dict[tuple[str, str], float] = {}
        self._last_alert: Optional[tuple[str, str]] = None
        self.intervals_seen = 0
        self.alerts_emitted = 0

    def observe(self, index: int,
                bucket: dict[str, NodeInterval]) -> list[Alert]:
        """Consume one closed interval; return any BOTTLENECK alerts.

        Mirrors the monitor's detection discipline: accumulation covers
        every node that reported, the outlier test only the nodes whose
        interval has comparable length, and nothing fires below the
        :data:`~repro.monitor.cluster_monitor.MIN_NODES` population.
        """
        self.intervals_seen += 1
        nodes = sorted(bucket)
        for node in nodes:
            for event in LOST_TIME_EVENTS:
                value = bucket[node].event_excl_s(event)
                if value > 0:
                    key = (node, event)
                    self._lost[key] = self._lost.get(key, 0.0) + value

        period_s = self.config.period_ns / SEC
        comparable = [node for node in nodes
                      if bucket[node].wall_s
                      <= MAX_INTERVAL_PERIODS * period_s]
        alerts: list[Alert] = []
        if len(comparable) < MIN_NODES:
            return alerts
        top = self.top(1)
        top_node = top[0]["node"] if top else None
        for event in LOST_TIME_EVENTS:
            values = [bucket[node].event_excl_s(event)
                      for node in comparable]
            center = statistics.median(values)
            for i, score in flag_outliers(values, MAD_THRESHOLD, MIN_ABS_S):
                node = comparable[i]
                if node != top_node or self._last_alert == (node, event):
                    continue
                self._last_alert = (node, event)
                self.alerts_emitted += 1
                alerts.append(Alert(
                    kind=BOTTLENECK, interval=index,
                    time_ns=bucket[node].end_ns, node=node, metric=event,
                    value_s=values[i], baseline_s=center, score=score))
                if _obs.metrics_on:
                    from repro.obs.metrics import REGISTRY
                    REGISTRY.counter("bottleneck.stream_alerts").inc()
        return alerts

    def top(self, k: int) -> list[dict]:
        """The current top-``k`` (node, path) lost-time ranking.

        Canonically ordered (descending lost time, then node, then
        path) and JSON-able — this is what
        :class:`~repro.monitor.cluster_monitor.MonitorData` carries.
        """
        ranked = sorted(self._lost.items(),
                        key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        return [{"node": node, "path": path, "lost_s": lost}
                for (node, path), lost in ranked[:k]]
