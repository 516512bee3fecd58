"""Tests for the online cluster monitor: series, detection, alerts,
the monitored Figure 2 experiment, timeline export, and the dashboard."""

import json

import pytest

from repro.analysis.views import interval_view
from repro.cluster.daemons import STANDARD_DAEMON_COMMS, start_busy_daemon
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.core.wire import TaskProfileDump
from repro.monitor import (Alert, ClusterMonitor, INTERFERENCE,
                           MonitorConfig, NODE_LOST, NODE_OUTLIER,
                           NODE_STALE, NodeInterval, RingSeries, SeriesStore,
                           alerts_to_doc, flag_outliers, integrated_timeline,
                           mad, monitor_data_to_json, render_dashboard)
from repro.monitor.detect import SCORE_CAP
from repro.obs.tracer import validate_trace_events
from repro.sim.units import MSEC, SEC
from repro.workloads.lu import LuParams, lu_app

SMALL_LU = LuParams(niters=6, iter_compute_ns=60 * MSEC, halo_bytes=16_384,
                    sweep_msg_bytes=2_048, inorm=2, pipeline_fill_frac=0.03)


# ---------------------------------------------------------------------------
# Ring series
# ---------------------------------------------------------------------------
class TestRingSeries:
    def test_append_and_points(self):
        ring = RingSeries(capacity=4)
        for i in range(3):
            ring.append(i * 10, float(i))
        assert ring.points() == [(0, 0.0), (10, 1.0), (20, 2.0)]
        assert ring.values() == [0.0, 1.0, 2.0]
        assert ring.last() == (20, 2.0)
        assert len(ring) == 3
        assert ring.dropped == 0

    def test_eviction_keeps_most_recent(self):
        ring = RingSeries(capacity=3)
        for i in range(10):
            ring.append(i, float(i))
        assert ring.points() == [(7, 7.0), (8, 8.0), (9, 9.0)]
        assert ring.dropped == 7

    def test_empty(self):
        ring = RingSeries(capacity=2)
        assert ring.points() == [] and ring.last() is None and len(ring) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingSeries(capacity=0)

    def test_store_keys_sorted_and_dropped_total(self):
        store = SeriesStore(capacity=2)
        store.append("nodeB", "m", 0, 1.0)
        store.append("nodeA", "m", 0, 1.0)
        for t in range(5):
            store.append("nodeB", "m", t, float(t))
        assert store.keys() == [("nodeA", "m"), ("nodeB", "m")]
        assert store.total_dropped() == 4
        assert store.get("nodeA", "m").values() == [1.0]
        assert store.get("nodeC", "m") is None


# ---------------------------------------------------------------------------
# MAD detection
# ---------------------------------------------------------------------------
class TestDetect:
    def test_mad_basics(self):
        assert mad([]) == 0.0
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 3.0, 4.0, 100.0]) == pytest.approx(1.0)

    def test_too_few_values(self):
        assert flag_outliers([1.0, 100.0]) == []

    def test_obvious_outlier_flagged(self):
        values = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 9.0]
        flagged = flag_outliers(values, threshold=3.5)
        assert [i for i, _s in flagged] == [7]
        assert flagged[0][1] > 3.5

    def test_one_sided(self):
        # a node with unusually LITTLE activity is not an outlier
        values = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 0.0]
        assert flag_outliers(values, threshold=3.5) == []

    def test_degenerate_mad_uses_absolute_floor(self):
        values = [0.0] * 7 + [0.02]
        flagged = flag_outliers(values, threshold=3.5, min_abs=0.008)
        assert flagged == [(7, SCORE_CAP)]
        # below the floor: silence, even though MAD is zero
        assert flag_outliers([0.0] * 7 + [0.004], threshold=3.5,
                             min_abs=0.008) == []

    def test_uniform_values_are_silent(self):
        assert flag_outliers([1.0] * 8, threshold=3.5) == []


# ---------------------------------------------------------------------------
# Intervals and alerts
# ---------------------------------------------------------------------------
class TestIntervalAndAlerts:
    def interval(self):
        return NodeInterval(
            node="n0", index=3, start_ns=100_000_000, end_ns=200_000_000,
            hz=1e9,
            deltas={1: {"schedule": (2, 3_000_000, 3_000_000),
                        "schedule_vol": (5, 90_000_000, 90_000_000)},
                    2: {"sys_read": (4, 2_000_000, 1_000_000)}},
            comms={1: "app.0", 2: "crond"})

    def test_interval_accessors(self):
        iv = self.interval()
        assert iv.wall_s == pytest.approx(0.1)
        assert iv.event_excl_s("schedule") == pytest.approx(0.003)
        assert iv.event_excl_s("missing") == 0.0
        # voluntary sleep excluded from activity
        assert iv.activity_by_pid() == {1: pytest.approx(0.003),
                                        2: pytest.approx(0.001)}
        assert iv.activity_s() == pytest.approx(0.004)

    def test_alert_describe_and_doc(self):
        outlier = Alert(kind=NODE_OUTLIER, interval=3, time_ns=200_000_000,
                        node="n0", metric="schedule", value_s=0.003,
                        baseline_s=0.0001, score=12.5)
        interference = Alert(kind=INTERFERENCE, interval=3,
                             time_ns=200_000_000, node="n0",
                             metric="activity", value_s=0.02,
                             baseline_s=0.1, score=0.2, pid=9, comm="evil")
        assert "outlier" in outlier.describe()
        assert "evil(9)" in interference.describe()
        doc = alerts_to_doc([interference, outlier])
        # canonical order: outlier (pid None -> -1) before interference
        assert [d["kind"] for d in doc] == [INTERFERENCE, NODE_OUTLIER]
        assert doc[0]["comm"] == "evil"
        json.dumps(doc)  # JSON-clean


# ---------------------------------------------------------------------------
# The live monitor on a small cluster with a planted cycle stealer
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def planted_run():
    cluster = make_chiba(nnodes=4, seed=1)
    start_busy_daemon(cluster.nodes[2], pin_cpu=0,
                      period_ns=80 * MSEC, busy_ns=30 * MSEC)
    monitor = ClusterMonitor(cluster, MonitorConfig(period_ns=100 * MSEC))
    job = launch_mpi_job(cluster, 4, lu_app(SMALL_LU),
                         placement=block_placement(1, 4), pin=True,
                         comm_prefix="lu", node_setup=monitor.attach_node)
    job.run(limit_s=600)
    data = monitor.harvest()
    timeline = integrated_timeline(data, job)
    cluster.teardown()
    return data, timeline


class TestClusterMonitor:
    def test_flags_exactly_the_planted_node(self, planted_run):
        data, _ = planted_run
        assert data.alert_nodes() == ["ccn002"]
        assert data.alert_nodes(NODE_OUTLIER) == ["ccn002"]

    def test_interference_attributed_to_the_daemon(self, planted_run):
        data, _ = planted_run
        culprits = {a.comm for a in data.alerts if a.kind == INTERFERENCE}
        assert culprits == {"busyd"}
        # the monitor's own daemons and standard housekeeping stay silent
        flagged_comms = {a.comm for a in data.alerts if a.comm}
        assert "ktaud" not in flagged_comms
        assert not (flagged_comms & set(STANDARD_DAEMON_COMMS))

    def test_nodes_attached_and_streams_bounded(self, planted_run):
        data, _ = planted_run
        assert data.nodes == ["ccn000", "ccn001", "ccn002", "ccn003"]
        assert data.snapshots >= 4 * data.intervals
        # the retention cap keeps raw snapshot hoarding bounded
        assert data.dropped_snapshots == data.snapshots - 2 * len(data.nodes)
        for node in data.nodes:
            assert set(data.series[node]) == {"activity", "schedule"}

    def test_harvest_serialises_canonically(self, planted_run):
        data, _ = planted_run
        payload = monitor_data_to_json(data)
        doc = json.loads(payload)
        assert doc["nodes"] == data.nodes
        assert len(doc["alerts"]) == len(data.alerts)
        # canonical: same data serialises to the same bytes
        assert monitor_data_to_json(data) == payload

    def test_timeline_validates_and_carries_both_layers(self, planted_run):
        data, timeline = planted_run
        spans, instants = validate_trace_events(timeline)
        assert spans > 0
        assert instants == len(data.alerts)
        doc = json.loads(timeline)
        cats = {r.get("cat") for r in doc["traceEvents"]}
        assert "kernel" in cats and "user" in cats and "alert" in cats
        names = {r["args"]["name"] for r in doc["traceEvents"]
                 if r["ph"] == "M" and r["name"] == "process_name"}
        assert names == set(data.nodes)

    def test_dashboard_renders(self, planted_run):
        data, _ = planted_run
        text = render_dashboard(data)
        assert "ccn002" in text and "busyd" in text
        assert "!ccn002" in text  # the flagged-node marker
        assert "alerts" in text

    def test_double_attach_rejected(self):
        cluster = make_chiba(nnodes=2, seed=3)
        monitor = ClusterMonitor(cluster)
        monitor.attach_node(cluster.nodes[0])
        with pytest.raises(ValueError):
            monitor.attach_node(cluster.nodes[0])
        assert cluster.nodes[0].ktaud is not None
        assert cluster.nodes[1].ktaud is None
        cluster.teardown()


# ---------------------------------------------------------------------------
# The acceptance experiment: monitored Figure 2-A/B
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def monitored_fig2():
    from repro.experiments.fig2_controlled import run_fig2ab

    return run_fig2ab(seed=1, monitor_config=MonitorConfig(
        period_ns=100 * MSEC))


class TestMonitoredFig2:
    def test_flags_exactly_the_perturbed_node(self, monitored_fig2):
        result = monitored_fig2
        data = result.monitor
        assert data is not None
        assert data.alert_nodes() == [result.perturbed_node]

    def test_intruder_identified(self, monitored_fig2):
        data = monitored_fig2.monitor
        culprits = {(a.comm, a.pid) for a in data.alerts
                    if a.kind == INTERFERENCE}
        assert culprits == {("overhead", monitored_fig2.interference_pid)}

    def test_online_view_matches_postmortem(self, monitored_fig2):
        """The monitor's streaming view agrees with the figure's own
        post-mortem analysis about which node was perturbed."""
        result = monitored_fig2
        worst = max(result.invol_by_node, key=result.invol_by_node.get)
        assert result.monitor.alert_nodes(NODE_OUTLIER) == [worst]

    def test_timeline_validates(self, monitored_fig2):
        timeline = monitored_fig2.timeline
        assert timeline is not None
        spans, instants = validate_trace_events(timeline)
        assert spans >= 16  # at least one span per rank + intervals
        assert instants == len(monitored_fig2.monitor.alerts)

    def test_unmonitored_run_has_no_monitor_fields(self):
        # the default path carries no monitor artefacts (and pays no cost)
        from repro.experiments.fig2_controlled import Fig2ABResult

        assert Fig2ABResult.__dataclass_fields__["monitor"].default is None
        assert Fig2ABResult.__dataclass_fields__["timeline"].default is None


# ---------------------------------------------------------------------------
# Graceful degradation: a node that stops snapshotting mid-run
# ---------------------------------------------------------------------------
DEGRADED = MonitorConfig(period_ns=20 * MSEC, min_nodes=4,
                         stale_after_periods=2.5, lost_after_periods=6.0)


def _idle(duration_ns):
    """A do-nothing foreground task that keeps the run alive."""

    def behavior(ctx):
        yield from ctx.sleep(duration_ns)

    return behavior


@pytest.fixture(scope="module")
def silenced_run():
    """ccn001's KTAUD is killed 70ms into a 400ms run: its snapshots
    stop but the monitor keeps closing partial intervals for the rest."""
    cluster = make_chiba(nnodes=4, seed=5)
    monitor = ClusterMonitor(cluster, DEGRADED)
    monitor.attach()
    victim = cluster.nodes[1]
    cluster.engine.schedule_at(
        70 * MSEC,
        lambda: victim.kernel.send_signal(victim.ktaud.task, 9))
    watched = [node.kernel.spawn(_idle(400 * MSEC), f"app.{node.index}")
               for node in cluster.nodes]
    cluster.run_until_complete(watched, limit_ns=10 * SEC)
    data = monitor.harvest()
    cluster.teardown()
    return data


class TestDegradedMonitor:
    def test_silent_node_goes_stale_then_lost(self, silenced_run):
        data = silenced_run
        assert data.alert_nodes(NODE_STALE) == ["ccn001"]
        assert data.alert_nodes(NODE_LOST) == ["ccn001"]
        assert data.node_health == {"ccn000": "live", "ccn001": "lost",
                                    "ccn002": "live", "ccn003": "live"}

    def test_stale_precedes_lost(self, silenced_run):
        times = {a.kind: a.time_ns for a in silenced_run.alerts
                 if a.kind in (NODE_STALE, NODE_LOST)}
        assert times[NODE_STALE] < times[NODE_LOST]

    def test_partial_intervals_keep_closing(self, silenced_run):
        data = silenced_run
        # the run spans ~20 periods; losing a node must not stall closure
        assert data.intervals >= 10
        # the silent node's series freezes at the kill; the rest keep
        # reporting until the end of the run
        last = {node: data.series[node]["activity"][-1][0]
                for node in data.nodes}
        assert last["ccn001"] < min(v for n, v in last.items()
                                    if n != "ccn001")

    def test_degraded_harvest_serialises_canonically(self, silenced_run):
        payload = monitor_data_to_json(silenced_run)
        doc = json.loads(payload)
        assert doc["node_health"]["ccn001"] == "lost"
        assert monitor_data_to_json(silenced_run) == payload


# ---------------------------------------------------------------------------
# interval_view under pid churn (a profiled pid disappears mid-interval)
# ---------------------------------------------------------------------------
def _dump(pid, comm, perf):
    return TaskProfileDump(pid=pid, comm=comm, perf=perf)


class TestIntervalViewPidChurn:
    def test_exited_pid_drops_out(self):
        prev = {7: _dump(7, "app", {"sys_read": (5, 500, 400)}),
                9: _dump(9, "helper", {"sys_read": (2, 200, 100)})}
        curr = {7: _dump(7, "app", {"sys_read": (8, 900, 700)})}
        # pid 9 exited between snapshots: it drops out, no negative deltas
        assert interval_view(prev, curr) == {7: {"sys_read": (3, 400, 300)}}

    def test_reused_pid_counts_from_zero(self):
        prev = {7: _dump(7, "app", {"sys_read": (50, 5000, 4000)})}
        curr = {7: _dump(7, "app2", {"sys_read": (3, 300, 200)})}
        # the counter went backwards: pid 7 exited and was reused
        assert interval_view(prev, curr) == {7: {"sys_read": (3, 300, 200)}}

    def test_new_pid_contributes_totals(self):
        curr = {4: _dump(4, "newborn", {"schedule": (2, 20, 20)})}
        assert interval_view({}, curr) == {4: {"schedule": (2, 20, 20)}}

    def test_first_snapshot_yields_lifetime_totals(self):
        curr = {7: _dump(7, "app", {"sys_read": (5, 500, 400)})}
        assert interval_view(None, curr) == {7: {"sys_read": (5, 500, 400)}}

    def test_idle_interval_is_empty(self):
        snap = {7: _dump(7, "app", {"sys_read": (5, 500, 400)})}
        assert interval_view(snap, snap) == {}
