"""Tests for measurement-overhead compensation of KTAU profiles."""

import pytest

from repro.analysis.compensate import (compensate, estimated_overhead_cycles,
                                       total_estimated_overhead_s)
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.core.config import KtauBuildConfig
from repro.core.libktau import LibKtau
from repro.sim.units import MSEC
from repro.workloads.lu import LuParams, lu_app


class TestCompensation:
    def test_estimate_formula(self):
        assert estimated_overhead_cycles(100) == int(100 * (244.4 + 295.3))

    def test_compensated_profile_reduces_times(self):
        params = LuParams(niters=2, iter_compute_ns=4 * MSEC,
                          halo_bytes=8_192, sweep_msg_bytes=4_096)
        cluster = make_chiba(nnodes=2, seed=33,
                             ktau=KtauBuildConfig(callgraph=True))
        job = launch_mpi_job(cluster, 2, lu_app(params),
                             placement=block_placement(1, 2),
                             start_daemons=False)
        job.run(limit_s=300)
        node = job.world.rank_nodes[0]
        lib = LibKtau(node.kernel.ktau_proc)
        dump = lib.read_profiles(include_zombies=True)[job.tasks[0].pid]
        fixed = compensate(dump)
        for name, (count, incl, excl) in dump.perf.items():
            fcount, fincl, fexcl = fixed.perf[name]
            assert fcount == count
            assert fincl <= incl
            assert fexcl <= excl
        # a high-count event loses a measurable amount
        busiest = max(dump.perf, key=lambda n: dump.perf[n][0])
        assert fixed.perf[busiest][2] < dump.perf[busiest][2]
        # parents' inclusive compensation >= their own-only correction
        writev = dump.perf["sys_writev"]
        own = estimated_overhead_cycles(writev[0])
        assert writev[1] - fixed.perf["sys_writev"][1] > own
        cluster.teardown()

    def test_total_overhead_estimate(self):
        from repro.core.wire import TaskProfileDump

        dump = TaskProfileDump(pid=1, comm="x")
        dump.perf["a"] = (10, 1000, 1000)
        dump.perf["b"] = (5, 500, 500)
        est = total_estimated_overhead_s(dump, hz=1e9)
        # int() truncation in the cycle estimate: allow one cycle of slack
        assert est == pytest.approx(15 * (244.4 + 295.3) / 1e9, abs=2e-9)
