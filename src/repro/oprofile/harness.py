"""A canned sampling-vs-KTAU comparison run (used by the CLI and bench)."""

from __future__ import annotations

from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.core.libktau import LibKtau
from repro.oprofile.compare import ComparisonRow, compare_with_ktau
from repro.oprofile.sampler import OProfileDaemon, OProfileSampler
from repro.sim.units import MSEC
from repro.workloads.lu import LuParams, lu_app


#: The LU rank observed by both KTAU and the sampler (one rank per node).
WATCHED_RANK = 3


def run_comparison(seed: int = 17
                   ) -> tuple[list[ComparisonRow], OProfileDaemon]:
    """Observe one LU rank with both KTAU and a 1 kHz sampler."""
    params = LuParams(niters=6, iter_compute_ns=60 * MSEC, halo_bytes=32_768,
                      sweep_msg_bytes=4_096, inorm=3)
    cluster = make_chiba(nnodes=4, seed=seed)
    node = cluster.nodes[WATCHED_RANK]
    sampler = OProfileSampler(node.kernel, period_ns=1 * MSEC)
    daemon = OProfileDaemon(sampler, period_ns=100 * MSEC)
    job = launch_mpi_job(cluster, 4, lu_app(params),
                         placement=block_placement(1, 4))
    sampler.start()
    daemon.start()
    job.run()
    sampler.stop()
    daemon.stop()
    task = job.world.rank_tasks[WATCHED_RANK]
    lib = LibKtau(node.kernel.ktau_proc)
    kdump = lib.read_profiles(include_zombies=True)[task.pid]
    rows = compare_with_ktau(daemon.samples, sampler.period_ns, kdump,
                             node.kernel.clock.hz, pid=task.pid,
                             udump=job.profilers[WATCHED_RANK].dump())
    cluster.teardown()
    return rows, daemon
