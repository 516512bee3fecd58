"""Tests for the MPI-like message layer."""

import pytest

from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.sim.units import MSEC


def run_app(nranks, app, nnodes=None, procs_per_node=1, seed=1, tau=False,
            limit_s=120.0):
    nnodes = nnodes or nranks // procs_per_node
    cluster = make_chiba(nnodes=nnodes, seed=seed)
    job = launch_mpi_job(cluster, nranks, app,
                         placement=block_placement(procs_per_node, nranks),
                         tau_enabled=tau, start_daemons=False)
    job.run(limit_s=limit_s)
    cluster.teardown()
    return job


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        log = []

        def app(ctx, mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, 1000)
                yield from mpi.recv(1, 2000)
                log.append(("rank0", mpi.bytes_sent, mpi.bytes_received))
            else:
                yield from mpi.recv(0, 1000)
                yield from mpi.send(0, 2000)
                log.append(("rank1", mpi.bytes_sent, mpi.bytes_received))

        run_app(2, app)
        assert ("rank0", 1000, 2000) in log
        assert ("rank1", 2000, 1000) in log

    def test_messages_arrive_in_order(self):
        sizes = [100, 5000, 1, 2500]
        seen = []

        def app(ctx, mpi):
            if mpi.rank == 0:
                for size in sizes:
                    yield from mpi.send(1, size)
            else:
                for size in sizes:
                    yield from mpi.recv(0, size)
                    seen.append(size)

        run_app(2, app)
        assert seen == sizes

    def test_irecv_wait(self):
        order = []

        def app(ctx, mpi):
            if mpi.rank == 0:
                req = mpi.irecv(1, 500)
                order.append("posted")
                yield from ctx.compute(5 * MSEC)
                yield from mpi.wait(req)
                order.append("completed")
                yield from mpi.wait(req)  # idempotent
            else:
                yield from mpi.send(0, 500)

        run_app(2, app)
        assert order == ["posted", "completed"]

    def test_send_does_not_need_receiver_posted(self):
        """Buffered send semantics: sender proceeds, receiver gets it later."""
        times = {}

        def app(ctx, mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, 800)
                times["sent"] = ctx.now
            else:
                yield from ctx.sleep(50 * MSEC)
                yield from mpi.recv(0, 800)
                times["received"] = ctx.now

        run_app(2, app)
        assert times["sent"] < 10 * MSEC
        assert times["received"] >= 50 * MSEC


class TestCollectives:
    @pytest.mark.parametrize("nranks", [2, 4, 8])
    def test_barrier_synchronizes(self, nranks):
        after = []

        def app(ctx, mpi):
            if mpi.rank == 0:
                yield from ctx.compute(20 * MSEC)  # straggler
            yield from mpi.barrier()
            after.append(ctx.now)

        run_app(nranks, app)
        assert len(after) == nranks
        assert min(after) >= 20 * MSEC  # nobody escapes before the straggler

    @pytest.mark.parametrize("nranks", [2, 3, 4, 6, 7, 8])
    def test_allreduce_completes(self, nranks):
        done = []

        def app(ctx, mpi):
            yield from mpi.allreduce(64)
            done.append(mpi.rank)

        run_app(nranks, app, nnodes=nranks)
        assert sorted(done) == list(range(nranks))


class TestTauWrapping:
    def test_mpi_timers_recorded(self):
        def app(ctx, mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, 3000)
            else:
                yield from mpi.recv(0, 3000)
            yield from mpi.barrier()

        job = run_app(2, app, tau=True)
        dump0 = job.profilers[0].dump()
        dump1 = job.profilers[1].dump()
        assert "MPI_Send()" in dump0.perf
        assert "MPI_Recv()" in dump1.perf
        assert "MPI_Barrier()" in dump0.perf
        assert "main()" in dump0.perf

    def test_collective_internals_not_counted_as_send(self):
        def app(ctx, mpi):
            yield from mpi.barrier()

        job = run_app(4, app, tau=True)
        dump = job.profilers[0].dump()
        assert "MPI_Send()" not in dump.perf  # tree traffic stays internal
        assert "MPI_Barrier()" in dump.perf


class TestPlacement:
    def test_cyclic_placement_pairs_ranks(self):
        place = block_placement(2, 128)
        assert place(61) == (61, 0)
        assert place(125) == (61, 1)  # ccn10's pair in the paper

    def test_one_per_node(self):
        place = block_placement(1, 8)
        assert [place(r)[0] for r in range(8)] == list(range(8))
