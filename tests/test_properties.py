"""Property-based tests: random programs against scheduler/kernel invariants."""

from hypothesis import given, settings, strategies as st

from repro.kernel.kernel import Kernel
from repro.kernel.params import KernelParams
from repro.kernel.task import TaskState
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.sim.units import MSEC, SEC, USEC

# A random "program" is a list of actions per task.
action = st.one_of(
    st.tuples(st.just("compute"), st.integers(10 * USEC, 20 * MSEC)),
    st.tuples(st.just("sleep"), st.integers(10 * USEC, 10 * MSEC)),
    st.tuples(st.just("getppid"), st.just(0)),
    st.tuples(st.just("gettimeofday"), st.just(0)),
)
program = st.lists(action, min_size=1, max_size=12)


def behavior_from(prog):
    def behavior(ctx):
        for kind, arg in prog:
            if kind == "compute":
                yield from ctx.compute(arg)
            elif kind == "sleep":
                yield from ctx.sleep(arg)
            elif kind == "getppid":
                yield from ctx.syscall("sys_getppid")
            elif kind == "gettimeofday":
                yield from ctx.gettimeofday()
    return behavior


@settings(max_examples=30, deadline=None)
@given(programs=st.lists(program, min_size=1, max_size=5),
       ncpus=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_random_programs_terminate_with_consistent_accounting(
        programs, ncpus, seed):
    engine = Engine()
    params = KernelParams(ncpus=ncpus, timer_tick_ns=None,
                          minor_fault_prob=0.01, smp_compute_dilation=0.05)
    kernel = Kernel(engine, params, "prop", RngHub(seed))
    tasks = [kernel.spawn(behavior_from(p), f"t{i}")
             for i, p in enumerate(programs)]
    engine.run(until=60 * SEC)

    for prog, task in zip(programs, tasks):
        # 1. everything terminates
        assert task.state is TaskState.EXITED
        # 2. CPU time bounded by wall time
        wall = task.runtime_ns()
        assert task.utime_ns + task.stime_ns <= wall + 1
        # 3. requested compute is a lower bound on user time
        requested = sum(arg for kind, arg in prog if kind == "compute")
        assert task.utime_ns >= requested
        # 4. KTAU structures fully unwound and consistent
        data = kernel.ktau.zombies[task.pid]
        assert not data.stack
        for perf in data.profile.values():
            assert perf.incl_cycles >= perf.excl_cycles >= 0

    # 5. the engine's virtual clock never ran away
    assert engine.now <= 60 * SEC


@settings(max_examples=20, deadline=None)
@given(nbytes=st.integers(1, 100_000), seed=st.integers(0, 1000))
def test_any_message_size_is_delivered_exactly(nbytes, seed):
    from repro.kernel.net.socket import StreamSocket

    engine = Engine()
    params = KernelParams(ncpus=2, timer_tick_ns=None, minor_fault_prob=0.0,
                          smp_compute_dilation=0.0)
    hub = RngHub(seed)
    k1 = Kernel(engine, params, "a", hub)
    k2 = Kernel(engine, params, "b", hub)
    sock = StreamSocket(k1, k2, sock_id=1)
    received = []

    def tx(ctx):
        yield from ctx.syscall("sys_writev", sock=sock, nbytes=nbytes)

    def rx(ctx):
        total = 0
        while total < nbytes:
            r = yield from ctx.syscall("sys_readv", sock=sock,
                                       nbytes=nbytes - total)
            total += r
        received.append(total)

    k1.spawn(tx, "tx")
    k2.spawn(rx, "rx")
    engine.run(until=120 * SEC)
    assert received == [nbytes]
    assert sock.rx_available == 0
    assert sock.sndbuf_used == 0


@settings(max_examples=15, deadline=None)
@given(nranks=st.sampled_from([2, 3, 4, 6, 8]), seed=st.integers(0, 100))
def test_collectives_always_complete(nranks, seed):
    from repro.cluster.launch import block_placement, launch_mpi_job
    from repro.cluster.machines import make_chiba

    done = []

    def app(ctx, mpi):
        yield from mpi.allreduce(16)
        yield from mpi.barrier()
        done.append(mpi.rank)

    cluster = make_chiba(nnodes=nranks, seed=seed)
    job = launch_mpi_job(cluster, nranks, app,
                         placement=block_placement(1, nranks),
                         tau_enabled=False, start_daemons=False)
    job.run(limit_s=300)
    cluster.teardown()
    assert sorted(done) == list(range(nranks))
