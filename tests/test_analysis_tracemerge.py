"""Tests for merged user/kernel trace timelines."""

from repro.analysis.tracemerge import (events_within, merge_traces,
                                       render_timeline)
from repro.core.tracebuf import ATOMIC, ENTRY, EXIT
from repro.core.wire import TraceDump
from repro.tau.profiler import TauProfileDump


def make_udump(trace):
    return TauProfileDump(pid=1, comm="app", node="n", rank=0, hz=1e9,
                          trace=trace)


def make_ktrace(records):
    return TraceDump(pid=1, lost=0, records=records)


class TestMergeTraces:
    def test_interleaves_by_timestamp(self):
        udump = make_udump([(10, "MPI_Send()", True), (100, "MPI_Send()", False)])
        ktrace = make_ktrace([
            (20, "sys_writev", ENTRY, 0),
            (90, "sys_writev", EXIT, 0),
        ])
        merged = merge_traces(udump, ktrace)
        assert [(e[1], e[3]) for e in merged] == [
            ("MPI_Send()", True), ("sys_writev", True),
            ("sys_writev", False), ("MPI_Send()", False)]

    def test_equal_timestamp_nesting_preserved(self):
        # kernel exit, user exit, user entry, kernel entry — all at t=50
        udump = make_udump([(0, "rhs", True), (50, "rhs", False),
                            (50, "MPI_Send()", True), (200, "MPI_Send()", False)])
        ktrace = make_ktrace([
            (10, "do_page_fault", ENTRY, 0),
            (50, "do_page_fault", EXIT, 0),
            (50, "sys_writev", ENTRY, 0),
            (199, "sys_writev", EXIT, 0),
        ])
        merged = merge_traces(udump, ktrace)
        names = [(e[1], e[3]) for e in merged]
        assert names == [
            ("rhs", True), ("do_page_fault", True),
            ("do_page_fault", False), ("rhs", False),
            ("MPI_Send()", True), ("sys_writev", True),
            ("sys_writev", False), ("MPI_Send()", False)]

    def test_atomic_records_carried(self):
        udump = make_udump([])
        ktrace = make_ktrace([(5, "net.pkt_tx_bytes", ATOMIC, 1500)])
        merged = merge_traces(udump, ktrace)
        assert merged == [(5, "net.pkt_tx_bytes", "kernel", False, 1500, True)]


class TestEventsWithin:
    def timeline(self):
        udump = make_udump([
            (0, "MPI_Send()", True), (50, "MPI_Send()", False),
            (100, "MPI_Send()", True), (180, "MPI_Send()", False),
        ])
        ktrace = make_ktrace([
            (110, "sys_writev", ENTRY, 0),
            (170, "sys_writev", EXIT, 0),
        ])
        return merge_traces(udump, ktrace)

    def test_selects_requested_occurrence(self):
        window = events_within(self.timeline(), "MPI_Send()", occurrence=1)
        assert window[0][0] == 100
        assert window[-1][0] == 180
        assert any(e[1] == "sys_writev" for e in window)

    def test_first_occurrence_excludes_later_kernel_events(self):
        window = events_within(self.timeline(), "MPI_Send()", occurrence=0)
        assert all(e[1] != "sys_writev" for e in window)

    def test_missing_occurrence_returns_empty(self):
        assert events_within(self.timeline(), "MPI_Send()", occurrence=5) == []
        assert events_within(self.timeline(), "nope") == []


class TestEdgeCases:
    def test_out_of_order_records_are_sorted(self):
        # KTAUD drains per-CPU ring buffers independently, so the raw
        # record stream is not globally timestamp-ordered.
        udump = make_udump([(100, "MPI_Send()", True),
                            (10, "rhs", True), (90, "rhs", False),
                            (200, "MPI_Send()", False)])
        ktrace = make_ktrace([
            (180, "sys_writev", EXIT, 0),
            (20, "do_page_fault", ENTRY, 0),
            (120, "sys_writev", ENTRY, 0),
            (80, "do_page_fault", EXIT, 0),
        ])
        merged = merge_traces(udump, ktrace)
        assert [e[0] for e in merged] == sorted(e[0] for e in merged)
        assert [(e[1], e[3]) for e in merged] == [
            ("rhs", True), ("do_page_fault", True),
            ("do_page_fault", False), ("rhs", False),
            ("MPI_Send()", True), ("sys_writev", True),
            ("sys_writev", False), ("MPI_Send()", False)]

    def test_truncated_trace_after_pressure_loss(self):
        # A TracePressure window wraps the ring buffer: the drain reports
        # lost records and opens mid-interval, with exits whose entries
        # were overwritten.  The merge must not invent or drop events.
        udump = make_udump([(0, "MPI_Recv()", True),
                            (500, "MPI_Recv()", False)])
        ktrace = TraceDump(pid=1, lost=37, records=[
            (40, "tcp_recvmsg", EXIT, 0),
            (50, "sock_recvmsg", EXIT, 0),
            (60, "sys_readv", EXIT, 0),
            (100, "sys_readv", ENTRY, 0),
            (400, "sys_readv", EXIT, 0),
        ])
        merged = merge_traces(udump, ktrace)
        assert len(merged) == 7
        window = events_within(merged, "MPI_Recv()")
        assert [e[1] for e in window[1:4]] == [
            "tcp_recvmsg", "sock_recvmsg", "sys_readv"]
        # rendering tolerates the leading orphan exits (depth never
        # goes negative, later nesting stays correct)
        text = render_timeline(merged, hz=1e9)
        assert "sys_readv" in text

    def test_pid_churn_between_dump_and_trace(self):
        # A recycled pid: the kernel trace was drained under a different
        # pid than the TAU dump reports.  Merging keys on timestamps
        # alone, so the integrated timeline still assembles.
        udump = make_udump([(10, "MPI_Send()", True),
                            (90, "MPI_Send()", False)])
        ktrace = TraceDump(pid=4242, lost=0, records=[
            (20, "sys_writev", ENTRY, 0),
            (80, "sys_writev", EXIT, 0),
        ])
        assert udump.pid != ktrace.pid
        merged = merge_traces(udump, ktrace)
        assert [(e[1], e[2]) for e in merged] == [
            ("MPI_Send()", "user"), ("sys_writev", "kernel"),
            ("sys_writev", "kernel"), ("MPI_Send()", "user")]


class TestRenderTimeline:
    def test_renders_nesting(self):
        events = [
            (0, "MPI_Send()", "user", True, 0, False),
            (100, "sys_writev", "kernel", True, 0, False),
            (900, "sys_writev", "kernel", False, 0, False),
            (1000, "MPI_Send()", "user", False, 0, False),
        ]
        text = render_timeline(events, hz=1e9)
        lines = text.splitlines()
        assert "> MPI_Send()" in lines[0]
        assert lines[1].index("sys_writev") > lines[0].index("MPI_Send()")

    def test_atomic_keeps_the_depth(self):
        """An atomic inside a span renders at that span's inner depth and
        does not close it: what follows stays at its own depth."""
        udump = make_udump([(0, "MPI_Send()", True), (100, "MPI_Send()", False)])
        ktrace = make_ktrace([
            (10, "tcp_sendmsg", ENTRY, 0),
            (20, "net.pkt_tx_bytes", ATOMIC, 1448),
            (20, "tcp_sendmsg", EXIT, 0),
            (30, "tcp_sendmsg", ENTRY, 0),
            (40, "net.pkt_tx_bytes", ATOMIC, 0),
            (40, "tcp_sendmsg", EXIT, 0),
        ])
        lines = render_timeline(merge_traces(udump, ktrace), hz=1e9).splitlines()

        def indent(line):
            body = line.split(" U ")[-1].split(" K ")[-1]
            return len(body) - len(body.lstrip())

        assert [indent(line) for line in lines] == [0, 2, 4, 2, 2, 4, 2, 0]
        assert lines[2].endswith("* net.pkt_tx_bytes = 1448")
        assert lines[-1].endswith("< MPI_Send()")

    def test_empty(self):
        assert "empty" in render_timeline([], hz=1e9)
