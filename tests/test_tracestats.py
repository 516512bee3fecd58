"""Tests for trace reduction and trace-vs-profile cross-validation."""

import pytest

from repro.analysis.tracestats import cross_validate, reduce_trace
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.core.config import KtauBuildConfig
from repro.core.libktau import LibKtau
from repro.core.tracebuf import ATOMIC, ENTRY, EXIT
from repro.core.wire import TraceDump
from repro.sim.units import MSEC
from repro.workloads.lu import LuParams, lu_app


def trace_of(records):
    return TraceDump(pid=1, lost=0, records=records)


class TestReduceTrace:
    def test_flat_event(self):
        red = reduce_trace(trace_of([
            (100, "a", ENTRY, 0),
            (300, "a", EXIT, 0),
        ]))
        assert red.perf["a"] == (1, 200, 200)
        assert red.states["a"].min_cycles == 200

    def test_nested_exclusive(self):
        red = reduce_trace(trace_of([
            (0, "outer", ENTRY, 0),
            (10, "inner", ENTRY, 0),
            (40, "inner", EXIT, 0),
            (50, "outer", EXIT, 0),
        ]))
        assert red.perf["outer"] == (1, 50, 20)
        assert red.perf["inner"] == (1, 30, 30)

    def test_recursion_outermost_inclusive(self):
        red = reduce_trace(trace_of([
            (0, "r", ENTRY, 0),
            (10, "r", ENTRY, 0),
            (20, "r", EXIT, 0),
            (30, "r", EXIT, 0),
        ]))
        count, incl, excl = red.perf["r"]
        assert count == 2
        assert incl == 30  # outermost only
        assert excl == 30  # 10 inner + 20 outer-minus-child

    def test_unmatched_and_unclosed_counted(self):
        red = reduce_trace(trace_of([
            (0, "lost", EXIT, 0),
            (10, "open", ENTRY, 0),
        ]))
        assert red.unmatched_exits == 1
        assert red.unclosed_entries == 1

    def test_atomic_records_ignored(self):
        red = reduce_trace(trace_of([
            (5, "pkt", ATOMIC, 1500),
        ]))
        assert not red.perf


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def traced_run(self):
        """A loss-free traced run: big buffers, small workload."""
        params = LuParams(niters=2, iter_compute_ns=5 * MSEC, halo_bytes=8192,
                          sweep_msg_bytes=2048, inorm=0)
        cluster = make_chiba(
            nnodes=2, seed=41,
            ktau=KtauBuildConfig.full(tracing=True).with_tracing(entries=65536))
        job = launch_mpi_job(cluster, 2, lu_app(params),
                             placement=block_placement(1, 2))
        job.run(limit_s=300)
        node = job.world.rank_nodes[0]
        task = job.world.rank_tasks[0]
        lib = LibKtau(node.kernel.ktau_proc)
        profile = lib.read_profiles(include_zombies=True)[task.pid]
        trace = lib.read_trace(task.pid)
        hz = node.kernel.clock.hz
        cluster.teardown()
        return profile, trace, hz

    def test_trace_reconstruction_matches_profile_exactly(self, traced_run):
        """The headline invariant: profiling and tracing share the same
        instrumentation, so a loss-free trace reconstructs the profile."""
        profile, trace, _hz = traced_run
        assert trace.lost == 0
        issues = cross_validate(profile, trace, ignore_incomplete=False)
        assert issues == []

    def test_lossy_trace_flagged_not_failed(self):
        """With a tiny ring buffer the trace is lossy; validation must
        degrade to the can't-exceed check instead of reporting noise."""
        params = LuParams(niters=2, iter_compute_ns=5 * MSEC, halo_bytes=8192,
                          sweep_msg_bytes=2048, inorm=0)
        cluster = make_chiba(
            nnodes=2, seed=42,
            ktau=KtauBuildConfig.full(tracing=True).with_tracing(entries=64))
        job = launch_mpi_job(cluster, 2, lu_app(params),
                             placement=block_placement(1, 2))
        job.run(limit_s=300)
        node = job.world.rank_nodes[0]
        task = job.world.rank_tasks[0]
        lib = LibKtau(node.kernel.ktau_proc)
        profile = lib.read_profiles(include_zombies=True)[task.pid]
        trace = lib.read_trace(task.pid)
        cluster.teardown()
        assert trace.lost > 0  # the ring really overflowed
        issues = cross_validate(profile, trace)
        assert issues == []  # truncation-explained gaps are not errors
