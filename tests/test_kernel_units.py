"""Unit tests for smaller kernel pieces: wait queues, effects, usermode,
the NIC, and the network layer glue."""

import pytest

from repro.cluster.network import ClusterNetwork
from repro.kernel.effects import (Block, Compute, Exit, KCompute, Migrate,
                                  Syscall)
from repro.kernel.kernel import Kernel
from repro.kernel.params import KernelParams
from repro.kernel.task import Task, TaskState
from repro.kernel.waitqueue import WaitQueue
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.sim.units import MSEC, SEC


def make_kernel(**kw):
    engine = Engine()
    params = KernelParams(ncpus=2, timer_tick_ns=None, minor_fault_prob=0.0,
                          smp_compute_dilation=0.0, **kw)
    return engine, Kernel(engine, params, "unit", RngHub(1))


class TestEffects:
    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1)
        with pytest.raises(ValueError):
            KCompute(-5)

    def test_syscall_defaults(self):
        effect = Syscall("sys_getppid")
        assert effect.args == {}

    def test_reprs(self):
        assert "Compute(5)" in repr(Compute(5))
        assert "Migrate([0, 1])" in repr(Migrate({1, 0}))
        assert "Exit(2)" in repr(Exit(2))


class TestWaitQueue:
    def make_task(self):
        engine, kernel = make_kernel()
        return Task(1, "t", kernel, behavior=None)

    def test_fifo_wake_order(self):
        wq = WaitQueue("q")
        engine, kernel = make_kernel()
        a = Task(1, "a", kernel, behavior=None)
        b = Task(2, "b", kernel, behavior=None)
        wq.add(a)
        wq.add(b)
        assert wq.wake_one("x") is a
        assert a.wake_value == "x"
        assert wq.wake_one() is b

    def test_wake_empty_returns_none(self):
        assert WaitQueue("q").wake_one() is None

    def test_remove(self):
        wq = WaitQueue("q")
        engine, kernel = make_kernel()
        task = Task(1, "t", kernel, behavior=None)
        wq.add(task)
        assert wq.remove(task)
        assert not wq.remove(task)
        assert len(wq) == 0

    def test_wake_all(self):
        wq = WaitQueue("q")
        engine, kernel = make_kernel()
        tasks = [Task(i, "t", kernel, behavior=None) for i in range(3)]
        for t in tasks:
            wq.add(t)
        assert wq.wake_all(7) == tasks
        assert all(t.wake_value == 7 for t in tasks)

    def test_contains(self):
        wq = WaitQueue("q")
        engine, kernel = make_kernel()
        task = Task(1, "t", kernel, behavior=None)
        assert task not in wq
        wq.add(task)
        assert task in wq


class TestUserContext:
    def test_now_and_tsc(self):
        engine, kernel = make_kernel()
        seen = {}

        def app(ctx):
            seen["now0"] = ctx.now
            seen["tsc0"] = ctx.read_tsc()
            yield from ctx.compute(10 * MSEC)
            seen["now1"] = ctx.now
            seen["tsc1"] = ctx.read_tsc()

        kernel.spawn(app, "app")
        engine.run_until_idle()
        assert seen["now1"] - seen["now0"] >= 10 * MSEC
        elapsed_cycles = seen["tsc1"] - seen["tsc0"]
        assert elapsed_cycles == kernel.clock.cycles_for_ns(
            seen["now1"] - seen["now0"])

    def test_repr(self):
        engine, kernel = make_kernel()
        task = kernel.spawn(lambda ctx: iter(()), "named")
        # the context lives in the task's frame; a fresh one for repr
        from repro.kernel.usermode import UserContext

        assert "named" in repr(UserContext(kernel, task))


class TestClusterNetwork:
    def test_connection_cached_per_channel(self):
        engine, k1 = make_kernel()
        _e2, k2 = make_kernel()
        net = ClusterNetwork()
        a = net.connect(k1, k2, (0, 1))
        b = net.connect(k1, k2, (0, 1))
        c = net.connect(k1, k2, (1, 0))
        assert a is b
        assert a is not c
        assert net.connection_count == 2

    def test_sock_ids_deterministic_sequence(self):
        engine, k1 = make_kernel()
        _e2, k2 = make_kernel()
        net = ClusterNetwork()
        first = net.connect(k1, k2, ("x", 0))
        second = net.connect(k1, k2, ("x", 1))
        assert second.sock_id == first.sock_id + 1


class TestKernelFacade:
    def test_pid_namespace_per_node(self):
        engine, kernel = make_kernel()
        _e2, other = make_kernel()
        a = kernel.spawn(lambda ctx: iter(()), "a")
        b = other.spawn(lambda ctx: iter(()), "b")
        # bases differ (seeded per node name/seed); both non-zero
        assert a.pid > 0 and b.pid > 0

    def test_point_lookups_keep_the_registry_kind_check(self):
        _engine, kernel = make_kernel()
        atomic = kernel.atomic_point("net.pkt_tx_bytes")
        assert kernel.atomic_point("net.pkt_tx_bytes") is atomic
        with pytest.raises(ValueError):
            kernel.point("net.pkt_tx_bytes")
        kernel.point("tcp_sendmsg")
        with pytest.raises(ValueError):
            kernel.atomic_point("tcp_sendmsg")

    def test_swapper_is_idle_task(self):
        engine, kernel = make_kernel()
        assert kernel.swapper.pid == 0
        assert kernel.swapper.is_idle
        assert kernel.swapper.ktau is not None

    def test_signal_to_dead_task_ignored(self):
        engine, kernel = make_kernel()
        task = kernel.spawn(lambda ctx: iter(()), "short")
        engine.run_until_idle()
        assert task.state is TaskState.EXITED
        kernel.send_signal(task, 9)  # no crash

    def test_nonkill_signal_records_do_signal(self):
        engine, kernel = make_kernel()

        def app(ctx):
            yield from ctx.compute(10 * MSEC)
            yield from ctx.compute(10 * MSEC)

        task = kernel.spawn(app, "app")
        engine.schedule(5 * MSEC, lambda: kernel.send_signal(task, 10))
        engine.run_until_idle()
        assert task.state is TaskState.EXITED  # survived SIGUSR1
        sig_id = kernel.ktau.registry.id_of("do_signal")
        assert sig_id is not None
        assert kernel.ktau.zombies[task.pid].profile[sig_id].count == 1
