"""Lost-time attribution: wait extraction, charging, streaming, dashboard."""

import pytest

from repro.analysis.bottlenecks import (IRQ_PREEMPTION, PREEMPTION,
                                        TCP_RECV_STALL, VOLUNTARY_WAIT,
                                        RankTrace, build_report,
                                        extract_waits, render_report,
                                        report_to_json)
from repro.analysis.bottlenecks.report import COMPUTE_PATH
from repro.monitor import (BOTTLENECK, Alert, MonitorConfig, MonitorData,
                           NodeInterval, StreamingBottleneckAttributor,
                           format_node_row, render_dashboard)
from repro.sim.units import MSEC, SEC


def k(cycles, name, entry):
    return (cycles, name, "kernel", entry, 0, False)


def u(cycles, name, entry):
    return (cycles, name, "user", entry, 0, False)


def waits_of(events, **kw):
    kw.setdefault("rank", 0)
    kw.setdefault("node", "n0")
    kw.setdefault("pid", 1)
    kw.setdefault("hz", 1e9)
    return extract_waits(events, **kw)


class TestExtractWaits:
    def test_tcp_recv_stall_with_path_and_user_context(self):
        events = [
            u(1_000, "MPI_Recv()", True),
            k(1_100, "sys_readv", True),
            k(1_200, "sock_recvmsg", True),
            k(1_300, "tcp_recvmsg", True),
            k(2_000, "schedule_vol", True),
            k(10_000, "schedule_vol", False),
            k(10_100, "tcp_recvmsg", False),
            k(10_200, "sock_recvmsg", False),
            k(10_300, "sys_readv", False),
            u(10_400, "MPI_Recv()", False),
        ]
        (wait,) = waits_of(events)
        assert wait.kind == TCP_RECV_STALL
        assert wait.kernel_path == \
            "sys_readv>sock_recvmsg>tcp_recvmsg>schedule_vol"
        assert wait.user_context == "MPI_Recv()"
        assert (wait.start_ns, wait.end_ns) == (2_000, 10_000)
        assert wait.duration_s == pytest.approx(8_000 / SEC)

    def test_bare_voluntary_wait_and_preemption(self):
        events = [
            k(100, "sys_nanosleep", True),
            k(200, "schedule_vol", True), k(900, "schedule_vol", False),
            k(950, "sys_nanosleep", False),
            k(2_000, "schedule", True), k(5_000, "schedule", False),
        ]
        vol, pre = waits_of(events)
        assert vol.kind == VOLUNTARY_WAIT
        assert vol.kernel_path == "sys_nanosleep>schedule_vol"
        assert pre.kind == PREEMPTION
        assert pre.kernel_path == "schedule"

    def test_outermost_irq_frame_only(self):
        events = [
            k(100, "do_IRQ", True),
            k(150, "eth_interrupt", True), k(300, "eth_interrupt", False),
            k(350, "do_softirq", True), k(800, "do_softirq", False),
            k(900, "do_IRQ", False),
        ]
        (irq,) = waits_of(events)
        assert irq.kind == IRQ_PREEMPTION
        assert irq.kernel_path == "do_IRQ"

    def test_truncated_trace_orphan_exits_and_unclosed_entries(self):
        # Circular-buffer wraparound: leading exits with no entry, and a
        # final entry with no exit — neither produces an interval.
        events = [
            k(50, "tcp_recvmsg", False), k(60, "sys_readv", False),
            k(100, "schedule", True), k(400, "schedule", False),
            k(500, "schedule_vol", True),
        ]
        (pre,) = waits_of(events)
        assert pre.kind == PREEMPTION

    def test_cycles_convert_through_hz_and_boot_offset(self):
        events = [k(10_450, "schedule", True), k(10_900, "schedule", False)]
        (wait,) = waits_of(events, hz=0.45e9, boot_offset_cycles=10_000)
        assert wait.start_ns == 1_000
        assert wait.end_ns == 2_000


def stall_rank(rank, node, pid, start, end, recv_from=None, log_span=None):
    """A RankTrace whose only wait is one tcp_recv_stall."""
    events = [
        k(start - 300, "sys_readv", True),
        k(start - 200, "sock_recvmsg", True),
        k(start - 100, "tcp_recvmsg", True),
        k(start, "schedule_vol", True), k(end, "schedule_vol", False),
        k(end + 100, "tcp_recvmsg", False),
        k(end + 200, "sock_recvmsg", False),
        k(end + 300, "sys_readv", False),
    ]
    log = []
    if recv_from is not None:
        lo, hi = log_span or (start - 300, end + 300)
        log.append(("recv", recv_from, 1024, lo, hi))
    return RankTrace(rank=rank, pid=pid, node=node,
                     waits=extract_waits(events, rank=rank, node=node,
                                         pid=pid, hz=1e9),
                     msg_log=log)


def preempted_rank(rank, node, pid, start, end):
    events = [k(start, "schedule", True), k(end, "schedule", False)]
    return RankTrace(rank=rank, pid=pid, node=node,
                     waits=extract_waits(events, rank=rank, node=node,
                                         pid=pid, hz=1e9),
                     msg_log=[])


class TestBuildReport:
    def test_stall_charged_to_preempted_remote(self):
        inputs = [
            stall_rank(0, "a", 1, 2_000, 10_000, recv_from=1),
            preempted_rank(1, "b", 2, 1_500, 9_500),
        ]
        report = build_report(inputs, top_k=5, seed=7)
        (chain,) = report.chains
        assert (chain.waiter_rank, chain.blocker_rank) == (0, 1)
        assert chain.blocker_state == "preempted"
        assert chain.via == "schedule"
        # the stall charges remotely AND rank 1's own preemption directly
        assert report.blockers[0][0] == "b"
        top = report.paths[0]
        assert (top.node, top.path) == ("b", "schedule")
        assert top.charged_ns == 8_000 and top.direct_ns == 8_000

    def test_transitive_resolution_reaches_the_cascade_root(self):
        inputs = [
            stall_rank(0, "a", 1, 2_000, 10_000, recv_from=1),
            stall_rank(1, "b", 2, 1_500, 11_000, recv_from=2),
            preempted_rank(2, "c", 3, 1_000, 12_000),
        ]
        report = build_report(inputs, top_k=5)
        # rank 0's stall skips its immediate blocker (rank 1, itself
        # stalled on rank 2) and charges the cascade root directly
        chain = next(c for c in report.chains if c.waiter_rank == 0)
        assert chain.blocker_rank == 2
        assert chain.blocker_state == "preempted"
        assert report.top_blocker == "c"

    def test_computing_blocker_charges_compute_pseudo_path(self):
        inputs = [
            stall_rank(0, "a", 1, 2_000, 10_000, recv_from=1),
            RankTrace(rank=1, pid=2, node="b",
                      waits=extract_waits([], rank=1, node="b", pid=2,
                                          hz=1e9),
                      msg_log=[]),
        ]
        report = build_report(inputs, top_k=5)
        (chain,) = report.chains
        assert chain.blocker_state == "computing"
        assert chain.via == COMPUTE_PATH
        assert report.paths[0].node == "b"

    def test_uncovered_stall_stays_unattributed(self):
        inputs = [stall_rank(0, "a", 1, 2_000, 10_000)]
        report = build_report(inputs, top_k=5)
        assert report.chains == ()
        assert report.unattributed_stall_ns == 8_000
        assert report.paths[0].node == "a"  # charged to the waiter itself

    def test_report_json_is_canonical_and_renders(self):
        inputs = [
            stall_rank(0, "a", 1, 2_000, 10_000, recv_from=1),
            preempted_rank(1, "b", 2, 1_500, 9_500),
        ]
        report = build_report(inputs, top_k=5, seed=3)
        doc = report_to_json(report)
        assert doc == report_to_json(build_report(inputs, top_k=5, seed=3))
        assert '"schema":"bottleneck-report-v1"' in doc
        text = render_report(report)
        assert "Who blocks whom" in text and "r1@b" in text


def interval(node, index, sched_s, irq_s=0.0, hz=1e9,
             period_ns=200 * MSEC):
    start = index * period_ns
    deltas = {7: {"schedule": (1, 0, int(sched_s * hz)),
                  "do_IRQ": (1, 0, int(irq_s * hz))}}
    return NodeInterval(node=node, index=index, start_ns=start,
                        end_ns=start + period_ns, hz=hz, deltas=deltas,
                        comms={7: "lu.0"})


class TestStreamingAttributor:
    def make(self, top_k=3):
        return StreamingBottleneckAttributor(
            MonitorConfig(bottleneck_top_k=top_k))

    def test_alerts_once_on_the_cumulative_top_outlier(self):
        attributor = self.make()
        bucket = {f"n{i}": interval(f"n{i}", 0, 0.001) for i in range(3)}
        bucket["hot"] = interval("hot", 0, 0.050)
        alerts = attributor.observe(0, bucket)
        (alert,) = alerts
        assert alert.kind == BOTTLENECK
        assert (alert.node, alert.metric) == ("hot", "schedule")
        assert "cluster bottleneck" in alert.describe()
        # same outlier next interval: no duplicate alert
        bucket1 = {name: interval(iv.node, 1, 0.050 if name == "hot"
                                  else 0.001)
                   for name, iv in bucket.items()}
        assert attributor.observe(1, bucket1) == []

    def test_top_ranking_is_cumulative_and_ordered(self):
        attributor = self.make()
        attributor.observe(0, {
            "a": interval("a", 0, 0.030, irq_s=0.002),
            "b": interval("b", 0, 0.001),
            "c": interval("c", 0, 0.001),
            "d": interval("d", 0, 0.001),
        })
        top = attributor.top(2)
        assert top[0] == {"node": "a", "path": "schedule",
                          "lost_s": pytest.approx(0.030)}
        assert top[1]["path"] == "do_IRQ"

    def test_below_min_nodes_accumulates_but_stays_silent(self):
        attributor = self.make()
        alerts = attributor.observe(0, {"a": interval("a", 0, 0.050)})
        assert alerts == []
        assert attributor.top(1)[0]["node"] == "a"


def monitor_data(bottleneck):
    return MonitorData(
        period_ns=200 * MSEC, start_ns=0, end_ns=SEC,
        nodes=["ccn000", "ccn001"],
        node_hz={"ccn000": 1e9, "ccn001": 1e9},
        node_boot_offset={"ccn000": 0, "ccn001": 0},
        snapshots=4, intervals=2, dropped_snapshots=0, dropped_points=0,
        series={"ccn000": {"activity": [(100, 0.01)]},
                "ccn001": {"activity": [(100, 0.02)]}},
        node_health={"ccn000": "live", "ccn001": "live"},
        bottleneck=bottleneck)


class TestDashboardLostTime:
    def test_row_has_no_lost_column_without_data(self):
        row = format_node_row("ccn000", 6, [0.01], 0.02, 8, False)
        assert row.startswith("  ccn000 |")
        assert "lost" not in row

    def test_row_renders_lost_column_when_present(self):
        row = format_node_row("ccn000", 6, [0.01], 0.02, 8, True,
                              lost_s=0.0123)
        assert row.startswith(" !ccn000 |")
        assert row.endswith("12.3 ms lost")

    def test_dashboard_panel_only_with_attribution_data(self):
        plain = render_dashboard(monitor_data([]))
        assert "lost-time attribution" not in plain
        assert "ms lost" not in plain
        ranked = render_dashboard(monitor_data(
            [{"node": "ccn001", "path": "schedule", "lost_s": 0.05}]))
        assert "lost-time attribution (streaming top 1):" in ranked
        assert "ccn001" in ranked and "50.0 ms" in ranked
        # the activity rows carry the column only for attributed nodes
        lines = [l for l in ranked.splitlines() if "ms lost" in l]
        assert len(lines) == 1 and "ccn001" in lines[0]

    def test_monitor_doc_carries_bottleneck_ranking(self):
        doc = monitor_data([{"node": "ccn001", "path": "schedule",
                             "lost_s": 0.05}]).to_doc()
        assert doc["bottleneck"] == [{"node": "ccn001", "path": "schedule",
                                      "lost_s": 0.05}]


class TestNoiseScenario:
    def test_busyd_node_is_the_top_blocker(self):
        from repro.experiments.bottleneck import run_bottleneck_noise

        res = run_bottleneck_noise(seed=1)
        assert res.perturbed_node == "ccn002"
        assert res.report.top_blocker == "ccn002"
        # the pinned victim rank on ccn002 eats the daemon's bursts
        # directly as involuntary scheduling
        (rank2,) = [r for r in res.report.ranks if r.rank == 2]
        assert rank2.node == "ccn002"
        assert rank2.preemption_ns > 0
        # and the stolen cycles surface remotely: other nodes' ranks
        # stall on messages charged back to ccn002's schedule path
        assert any(p.node == "ccn002" and p.path == "schedule"
                   and p.charged_ns > 0 for p in res.report.paths)


class TestAlertKind:
    def test_bottleneck_describe_line(self):
        alert = Alert(kind=BOTTLENECK, interval=3, time_ns=700_000_000,
                      node="ccn007", metric="schedule", value_s=0.0525,
                      baseline_s=0.0001, score=42.0)
        line = alert.describe()
        assert "ccn007" in line and "cluster bottleneck" in line
        assert "52.5 ms" in line
