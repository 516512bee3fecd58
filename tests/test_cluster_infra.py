"""Tests for machines, daemons, launching, and harvesting."""

import pytest

from repro.analysis.profiles import harvest_job
from repro.cluster.daemons import STANDARD_DAEMONS, start_standard_daemons
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba, make_neuronic, make_neutron
from repro.core.config import KtauBuildConfig
from repro.sim.units import MSEC, SEC
from repro.workloads.lu import LuParams, lu_app

SMALL_LU = LuParams(niters=2, iter_compute_ns=5 * MSEC, halo_bytes=4096,
                    sweep_msg_bytes=2048, inorm=0)


class TestMachines:
    def test_chiba_nodes(self):
        cluster = make_chiba(nnodes=4)
        assert len(cluster.nodes) == 4
        kernel = cluster.nodes[0].kernel
        assert kernel.params.hz == 450e6
        assert kernel.params.online_cpus == 2

    def test_anomaly_node_detects_one_cpu(self):
        cluster = make_chiba(nnodes=4, anomaly_nodes=(2,))
        assert cluster.nodes[2].kernel.params.online_cpus == 1
        assert cluster.nodes[1].kernel.params.online_cpus == 2
        assert "processor" in cluster.nodes[2].kernel.cpuinfo()
        assert cluster.nodes[2].kernel.cpuinfo().count("processor") == 1

    def test_neutron_is_4way_smp(self):
        cluster = make_neutron()
        assert cluster.nodes[0].kernel.params.online_cpus == 4
        assert cluster.nodes[0].kernel.params.hz == 550e6

    def test_neuronic(self):
        cluster = make_neuronic()
        assert len(cluster.nodes) == 16
        assert cluster.nodes[0].kernel.params.hz == 2.8e9

    def test_vanilla_build_option(self):
        cluster = make_chiba(nnodes=1, ktau=KtauBuildConfig.vanilla())
        assert not cluster.nodes[0].kernel.params.ktau.is_patched


class TestDaemons:
    def test_standard_set_started_once(self):
        cluster = make_chiba(nnodes=1)
        node = cluster.nodes[0]
        start_standard_daemons(node)
        assert len(node.daemons) == len(STANDARD_DAEMONS)
        comms = {t.comm for t in node.daemons}
        assert "syslogd" in comms

    def test_daemons_do_periodic_work(self):
        cluster = make_chiba(nnodes=1)
        node = cluster.nodes[0]
        start_standard_daemons(node)
        cluster.engine.run(until=3 * SEC)
        syslogd = next(t for t in node.daemons if t.comm == "syslogd")
        assert syslogd.utime_ns > 0
        assert syslogd.nvcsw >= 2

    def test_teardown_kills_daemons(self):
        cluster = make_chiba(nnodes=1)
        start_standard_daemons(cluster.nodes[0])
        cluster.engine.run(until=1 * SEC)
        cluster.teardown()
        assert all(not t.alive for t in cluster.nodes[0].kernel.all_tasks
                   if t.comm in {c for c, _p, _w in STANDARD_DAEMONS})

    def test_teardown_leaves_scheduling_spans_balanced(self):
        # Daemons killed while blocked in sys_nanosleep still have the
        # split-phase scheduling-wait span open; kill_blocked must close
        # it before unwinding frames so the syscall exits pair in LIFO
        # order (regression: 16 unmatched exits per 4-node teardown).
        cluster = make_chiba(nnodes=4)
        for node in cluster.nodes:
            start_standard_daemons(node)
        cluster.engine.run(until=1 * SEC)
        cluster.teardown()
        unmatched = sum(t.ktau.unmatched_exits
                        for node in cluster.nodes
                        for t in node.kernel.all_tasks
                        if t.ktau is not None)
        assert unmatched == 0


class TestLaunchAndHarvest:
    def test_job_runs_to_completion(self):
        cluster = make_chiba(nnodes=4)
        job = launch_mpi_job(cluster, 4, lu_app(SMALL_LU),
                             placement=block_placement(1, 4))
        job.run()
        assert job.exec_time_s > 0
        assert all(t.exit_code == 0 for t in job.tasks)
        cluster.teardown()

    def test_rank_dying_from_exception_fails_the_run(self):
        """A rank killed by an unhandled exception must not pass for a
        finished job; its peers, blocked on it, must not run to the limit."""
        bug = ValueError("bug in rank 1")

        def app(ctx, mpi):
            yield from ctx.compute(2 * MSEC)
            if mpi.rank == 1:
                raise bug
            yield from mpi.barrier()

        cluster = make_chiba(nnodes=2)
        job = launch_mpi_job(cluster, 4, app, placement=block_placement(2, 4))
        with pytest.raises(RuntimeError, match=r"rank 1 \(app\.1\)") as info:
            job.run(limit_s=60)
        assert info.value.__cause__ is bug
        assert job.tasks[1].exit_code == -1
        assert job.tasks[1].exit_exception is bug
        assert cluster.engine.now < 1 * SEC
        cluster.teardown()

    def test_pinning_applied(self):
        cluster = make_chiba(nnodes=2)
        job = launch_mpi_job(cluster, 4, lu_app(SMALL_LU),
                             placement=block_placement(2, 4), pin=True)
        job.run()
        for rank, task in enumerate(job.tasks):
            assert task.cpus_allowed == {rank // 2}
        cluster.teardown()

    def test_cpu_offset_shifts_pin(self):
        cluster = make_chiba(nnodes=4)
        job = launch_mpi_job(cluster, 4, lu_app(SMALL_LU),
                             placement=block_placement(1, 4), pin=True,
                             cpu_offset=1)
        job.run()
        assert all(t.cpus_allowed == {1} for t in job.tasks)
        cluster.teardown()

    def test_harvest_collects_everything(self):
        cluster = make_chiba(nnodes=4)
        job = launch_mpi_job(cluster, 4, lu_app(SMALL_LU),
                             placement=block_placement(1, 4))
        job.run()
        data = harvest_job(job)
        assert len(data.ranks) == 4
        for r in data.ranks:
            assert r.kprofile is not None
            assert r.uprofile is not None
            assert r.voluntary_sched_s() > 0
            assert r.uprofile.perf["main()"][1] > 0
        assert len(data.node_profiles) == 4
        assert all(len(counts) == 2 for counts in data.node_irq_counts.values())
        cluster.teardown()

    def test_harvest_flow_stats(self):
        cluster = make_chiba(nnodes=4)
        job = launch_mpi_job(cluster, 4, lu_app(SMALL_LU),
                             placement=block_placement(1, 4))
        job.run()
        data = harvest_job(job)
        assert sum(r.flow_rx_calls for r in data.ranks) > 0
        for r in data.ranks:
            if r.flow_rx_calls:
                assert 20 <= r.flow_rx_per_call_us() <= 50
        cluster.teardown()

    def test_unpatched_kernel_harvest(self):
        cluster = make_chiba(nnodes=2, ktau=KtauBuildConfig.vanilla())
        job = launch_mpi_job(cluster, 2, lu_app(SMALL_LU),
                             placement=block_placement(1, 2),
                             tau_enabled=False)
        job.run()
        data = harvest_job(job)
        assert all(r.kprofile is None for r in data.ranks)
        assert all(r.voluntary_sched_s() == 0.0 for r in data.ranks)
        cluster.teardown()

    def test_run_limit_raises_on_deadlock(self):
        cluster = make_chiba(nnodes=2)

        def deadlock(ctx, mpi):
            # both ranks receive first: classic deadlock
            peer = 1 - mpi.rank
            yield from mpi.recv(peer, 100)
            yield from mpi.send(peer, 100)

        job = launch_mpi_job(cluster, 2, deadlock,
                             placement=block_placement(1, 2))
        with pytest.raises(RuntimeError, match="limit"):
            job.run(limit_s=0.5)
