"""Tests for the analysis layer: CDFs, histograms, views, rendering."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.cdf import bimodality_gap, cdf_points, median, quantile
from repro.analysis.histogram import histogram, outlier_ranks
from repro.analysis.render import ascii_bargraph, ascii_table, cdf_sparkline
from repro.analysis.related_work import (TABLE1, render_table1,
                                         tools_with_explicit_parallel_support,
                                         tools_with_full_merge)
from repro.analysis.views import (group_breakdown, interval_view,
                                  kernel_wide_view, node_process_view)
from repro.core.wire import TaskProfileDump


class TestCdf:
    def test_points_monotone(self):
        xs, fracs = cdf_points([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert list(fracs) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty(self):
        xs, fracs = cdf_points([])
        assert xs.size == 0 and fracs.size == 0

    def test_median_quantile(self):
        values = list(range(1, 102))
        assert median(values) == 51
        assert quantile(values, 0.0) == 1
        assert np.isnan(median([]))

    def test_bimodality_detects_two_clusters(self):
        bimodal = [0.0] * 10 + [10.0] * 10
        unimodal = list(np.linspace(0, 10, 20))
        assert bimodality_gap(bimodal) > 0.9
        assert bimodality_gap(unimodal) < 0.2

    def test_bimodality_degenerate(self):
        assert bimodality_gap([5.0]) == 0.0
        assert bimodality_gap([5.0, 5.0, 5.0]) == 0.0

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_property_cdf_is_valid_distribution(self, values):
        xs, fracs = cdf_points(values)
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(fracs) > 0)
        assert fracs[-1] == pytest.approx(1.0)
        assert 0 < fracs[0] <= 1.0


class TestHistogram:
    def test_counts_sum_to_n(self):
        counts, edges = histogram([1, 2, 2, 3, 9], bins=4)
        assert counts.sum() == 5
        assert len(edges) == 5

    def test_outliers_low_side(self):
        values = [10.0] * 50 + [0.5, 0.4]
        out = outlier_ranks(values, k=3.0, side="low")
        assert set(out) == {50, 51}

    def test_outliers_high_and_both(self):
        values = [1.0] * 30 + [99.0]
        assert outlier_ranks(values, side="high") == [30]
        assert outlier_ranks(values, side="both") == [30]
        assert outlier_ranks(values, side="low") == []

    def test_outliers_empty(self):
        assert outlier_ranks([]) == []


def _dump(pid, comm, perf):
    d = TaskProfileDump(pid=pid, comm=comm)
    for name, (count, incl, excl, group) in perf.items():
        d.perf[name] = (count, incl, excl)
        d.groups[name] = group
    return d


class TestViews:
    HZ = 1e9

    def profiles(self):
        return {
            "node0": {
                1: _dump(1, "app", {"schedule": (2, 100, 100, "sched"),
                                    "sys_read": (5, 50, 40, "syscall")}),
                2: _dump(2, "daemon", {"schedule_vol": (9, 900, 900, "sched")}),
            },
            "node1": {
                3: _dump(3, "app", {"schedule": (1, 10, 10, "sched")}),
            },
        }

    def test_kernel_wide_all_events(self):
        view = kernel_wide_view(self.profiles(), self.HZ)
        assert view["node0"]["schedule"] == pytest.approx(100 / self.HZ)
        assert view["node0"]["schedule_vol"] == pytest.approx(900 / self.HZ)

    def test_kernel_wide_filtered(self):
        view = kernel_wide_view(self.profiles(), self.HZ, events=("schedule",))
        assert "sys_read" not in view["node0"]
        assert "schedule_vol" not in view["node0"]

    def test_node_process_view_excludes_voluntary_sleep(self):
        view = node_process_view(self.profiles()["node0"], self.HZ)
        assert view[2][0] == "daemon"
        # the daemon's 900 cycles are schedule_vol (sleep): excluded
        assert view[2][1] == 0.0
        # the app's preemption (schedule) and syscall time count
        assert view[1][1] == pytest.approx(140 / self.HZ)
        # opting in to voluntary wait restores the old total
        full = node_process_view(self.profiles()["node0"], self.HZ,
                                 include_voluntary_wait=True)
        assert full[2][1] == pytest.approx(900 / self.HZ)

    def test_group_breakdown(self):
        d = self.profiles()["node0"][1]
        groups = group_breakdown(d, self.HZ)
        assert groups == {"sched": pytest.approx(100 / self.HZ),
                          "syscall": pytest.approx(40 / self.HZ)}


class TestIntervalView:
    def test_empty_snapshots(self):
        assert interval_view(None, {}) == {}
        assert interval_view({}, {}) == {}

    def test_first_snapshot_yields_lifetime_totals(self):
        curr = {1: _dump(1, "app", {"sys_read": (5, 50, 40, "syscall")})}
        view = interval_view(None, curr)
        assert view == {1: {"sys_read": (5, 50, 40)}}

    def test_delta_between_consecutive_snapshots(self):
        prev = {1: _dump(1, "app", {"sys_read": (5, 50, 40, "syscall"),
                                    "schedule": (2, 30, 30, "sched")})}
        curr = {1: _dump(1, "app", {"sys_read": (8, 80, 64, "syscall"),
                                    "schedule": (2, 30, 30, "sched")})}
        view = interval_view(prev, curr)
        # unchanged events drop out; changed ones show their delta only
        assert view == {1: {"sys_read": (3, 30, 24)}}

    def test_idle_interval_is_empty(self):
        snap = {1: _dump(1, "app", {"sys_read": (5, 50, 40, "syscall")})}
        assert interval_view(snap, snap) == {}

    def test_exited_pid_drops_out(self):
        prev = {1: _dump(1, "app", {"sys_read": (5, 50, 40, "syscall")}),
                2: _dump(2, "gone", {"sys_read": (1, 10, 10, "syscall")})}
        curr = {1: _dump(1, "app", {"sys_read": (6, 60, 48, "syscall")})}
        assert set(interval_view(prev, curr)) == {1}

    def test_pid_reuse_counter_reset(self):
        # pid 7 exited and was reused by a fresh process whose counters
        # went "backwards": its current totals count, not a negative delta
        prev = {7: _dump(7, "old", {"sys_read": (100, 1000, 900, "syscall")})}
        curr = {7: _dump(7, "new", {"sys_read": (2, 20, 16, "syscall")})}
        view = interval_view(prev, curr)
        assert view == {7: {"sys_read": (2, 20, 16)}}

    def test_new_event_on_known_pid(self):
        prev = {1: _dump(1, "app", {"sys_read": (5, 50, 40, "syscall")})}
        curr = {1: _dump(1, "app", {"sys_read": (5, 50, 40, "syscall"),
                                    "schedule": (1, 9, 9, "sched")})}
        assert interval_view(prev, curr) == {1: {"schedule": (1, 9, 9)}}


class TestRender:
    def test_bargraph_scales(self):
        out = ascii_bargraph([("a", 1.0), ("bb", 2.0)], width=10)
        lines = out.strip().splitlines()
        assert lines[0].startswith("a ")
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_bargraph_empty(self):
        assert "no data" in ascii_bargraph([])

    def test_table_alignment(self):
        out = ascii_table(("name", "value"), [("x", 1.5), ("longer", 22.25)])
        lines = out.splitlines()
        assert len({len(l) for l in lines if l}) <= 2  # consistent width

    def test_sparkline(self):
        xs, fracs = cdf_points([1, 2, 3, 4, 5])
        line = cdf_sparkline(xs, fracs)
        assert line.startswith("[1") and line.endswith("5]")
        assert cdf_sparkline(*cdf_points([7, 7, 7])) == "| all ranks at 7 |"


class TestRelatedWork:
    def test_eleven_rows(self):
        assert len(TABLE1) == 11

    def test_only_ktau_has_full_merge(self):
        assert tools_with_full_merge() == ["KTAU+TAU"]

    def test_only_ktau_has_explicit_parallel(self):
        assert tools_with_explicit_parallel_support() == ["KTAU+TAU"]

    def test_render_contains_all_tools(self):
        text = render_table1()
        for row in TABLE1:
            assert row.tool in text
