"""Tests for the KTAU measurement system (instrumentation semantics)."""

import pytest

from repro.core.config import KtauBuildConfig, KtauRuntimeControl
from repro.core.measurement import Ktau
from repro.core.overhead import OverheadModel, ZeroOverheadModel
from repro.core.points import Group
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine
from repro.sim.rng import RngHub


HZ = 1e9  # 1 cycle == 1 ns for easy arithmetic


def make_ktau(build=None, overhead=None):
    engine = Engine()
    clock = CycleClock(engine, hz=HZ)
    ktau = Ktau(clock, build or KtauBuildConfig(), overhead=overhead)
    return engine, ktau


def advance(engine, ns):
    engine.schedule(ns, lambda: None)
    engine.run_until_idle()


class TestEntryExit:
    def test_inclusive_and_exclusive_flat(self):
        engine, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")
        ktau.entry(data, pt)
        advance(engine, 100)
        ktau.exit(data, pt)
        perf = data.profile[pt.event_id]
        assert perf.count == 1
        assert perf.incl_cycles == 100
        assert perf.excl_cycles == 100

    def test_nested_child_subtracted(self):
        engine, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        outer = ktau.registry.point("sys_writev")
        inner = ktau.registry.point("tcp_sendmsg")
        ktau.entry(data, outer)
        advance(engine, 10)
        ktau.entry(data, inner)
        advance(engine, 30)
        ktau.exit(data, inner)
        advance(engine, 5)
        ktau.exit(data, outer)
        assert data.profile[outer.event_id].incl_cycles == 45
        assert data.profile[outer.event_id].excl_cycles == 15
        assert data.profile[inner.event_id].incl_cycles == 30
        assert data.profile[inner.event_id].excl_cycles == 30

    def test_recursive_event_counts_outermost_inclusive_once(self):
        engine, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("do_softirq")
        ktau.entry(data, pt)
        advance(engine, 10)
        ktau.entry(data, pt)
        advance(engine, 10)
        ktau.exit(data, pt)
        advance(engine, 10)
        ktau.exit(data, pt)
        perf = data.profile[pt.event_id]
        assert perf.count == 2
        assert perf.incl_cycles == 30  # not 40: inner activation not re-added
        assert perf.excl_cycles == 30

    def test_unmatched_exit_dropped(self):
        engine, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        a = ktau.registry.point("sys_read")
        b = ktau.registry.point("sys_write")
        ktau.entry(data, a)
        ktau.exit(data, b)  # b never bound/entered
        assert data.unmatched_exits == 1
        assert not data.profile

    def test_explicit_timestamps(self):
        engine, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("do_IRQ")
        ktau.entry(data, pt, at_cycles=1000)
        ktau.exit(data, pt, at_cycles=1600)
        assert data.profile[pt.event_id].incl_cycles == 600


class TestAtomic:
    def test_atomic_statistics(self):
        from repro.core.registry import PointKind

        engine, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("net.pkt_tx_bytes", PointKind.ATOMIC)
        for value in (1500, 100, 900):
            ktau.atomic(data, pt, value)
        stats = data.atomic[pt.event_id]
        assert stats.count == 3
        assert stats.sum == 2500
        assert stats.min == 100
        assert stats.max == 1500

    def test_atomic_on_entryexit_point_rejected(self):
        engine, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")
        with pytest.raises(ValueError):
            ktau.atomic(data, pt, 1)


class TestControlStates:
    def test_not_compiled_is_total_noop(self):
        engine, ktau = make_ktau(build=KtauBuildConfig.vanilla())
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")
        ktau.entry(data, pt)
        ktau.exit(data, pt)
        assert not data.profile
        assert data.pending_overhead_ns == 0

    def test_disabled_charges_flag_check_only(self):
        build = KtauBuildConfig()
        engine = Engine()
        clock = CycleClock(engine, hz=HZ)
        control = KtauRuntimeControl(build, enabled_groups=frozenset())
        model = OverheadModel(RngHub(1).stream("t"))
        ktau = Ktau(clock, build, control=control, overhead=model)
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")
        ktau.entry(data, pt)
        ktau.exit(data, pt)
        assert not data.profile
        # two flag checks at 3 cycles == 6 ns at 1 GHz
        assert data.pending_overhead_ns == 6

    def test_runtime_enable_disable(self):
        build = KtauBuildConfig()
        control = KtauRuntimeControl(build)
        control.disable(Group.NET)
        assert not control.group_enabled(Group.NET)
        assert control.group_enabled(Group.SCHED)
        control.enable(Group.NET)
        assert control.group_enabled(Group.NET)

    def test_cannot_enable_uncompiled_group(self):
        build = KtauBuildConfig(compiled_groups=frozenset({Group.SCHED}))
        control = KtauRuntimeControl(build)
        with pytest.raises(ValueError):
            control.enable(Group.NET)

    def test_firing_state_cache_sees_every_toggle(self):
        """The hot-path firing-state cache must invalidate on every
        runtime-control mutation (it keys on the control's version)."""
        build = KtauBuildConfig()
        engine = Engine()
        clock = CycleClock(engine, hz=HZ)
        control = KtauRuntimeControl(build)
        ktau = Ktau(clock, build, control=control)
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")

        def measure_once():
            ktau.entry(data, pt)
            advance(engine, 10)
            ktau.exit(data, pt)

        measure_once()  # enabled: recorded (and cached as firing)
        assert data.profile[pt.event_id].count == 1
        control.disable(Group.SYSCALL)
        measure_once()  # group off: must NOT hit the stale cache
        assert data.profile[pt.event_id].count == 1
        control.enable(Group.SYSCALL)
        control.disable_points("sys_read")
        measure_once()  # per-point deny set consulted after re-enable
        assert data.profile[pt.event_id].count == 1
        control.enable_points("sys_read")
        measure_once()
        assert data.profile[pt.event_id].count == 2

    def test_mid_region_enable_does_not_corrupt(self):
        build = KtauBuildConfig()
        engine = Engine()
        clock = CycleClock(engine, hz=HZ)
        control = KtauRuntimeControl(build, enabled_groups=frozenset())
        ktau = Ktau(clock, build, control=control)
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")
        ktau.entry(data, pt)  # disabled: no stack push
        control.enable(Group.SYSCALL)
        ktau.exit(data, pt)  # enabled now, but no matching entry
        assert data.unmatched_exits == 1
        assert not data.stack


class TestOverheadCharging:
    def test_enabled_instrumentation_charges_time(self):
        model = OverheadModel(RngHub(1).stream("x"))
        engine, ktau = make_ktau(overhead=model)
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")
        ktau.entry(data, pt)
        ktau.exit(data, pt)
        assert data.pending_overhead_ns > 0
        assert data.overhead_cycles >= 160 + 214  # at least the minima

    def test_zero_model_charges_nothing(self):
        engine, ktau = make_ktau(overhead=ZeroOverheadModel())
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")
        ktau.entry(data, pt)
        ktau.exit(data, pt)
        assert data.pending_overhead_ns == 0


class TestLifecycle:
    def test_exit_moves_to_zombie_store(self):
        engine, ktau = make_ktau()
        ktau.register_task(5, "dying")
        ktau.on_task_exit(5)
        assert 5 not in ktau.tasks
        assert 5 in ktau.zombies

    def test_reap_removes_zombie(self):
        engine, ktau = make_ktau()
        ktau.register_task(5, "dying")
        ktau.on_task_exit(5)
        data = ktau.reap(5)
        assert data is not None and data.comm == "dying"
        assert ktau.reap(5) is None

    def test_duplicate_pid_rejected(self):
        engine, ktau = make_ktau()
        ktau.register_task(1, "a")
        with pytest.raises(ValueError):
            ktau.register_task(1, "b")

    def test_frozen_data_ignores_recording(self):
        engine, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")
        data.frozen = True
        ktau.entry(data, pt)
        advance(engine, 50)
        ktau.exit(data, pt)
        assert not data.profile

    def test_snapshot_scopes(self):
        engine, ktau = make_ktau()
        ktau.register_task(1, "a")
        ktau.register_task(2, "b")
        ktau.on_task_exit(2)
        assert set(ktau.snapshot()) == {1}
        assert set(ktau.snapshot(include_zombies=True)) == {1, 2}
        assert set(ktau.snapshot(pids=[2], include_zombies=True)) == {2}
        assert set(ktau.snapshot(pids=[99])) == set()


class TestContextPairs:
    def test_kernel_event_attributed_to_user_context(self):
        engine, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("schedule_vol")
        data.user_context = "MPI_Recv()"
        ktau.entry(data, pt)
        advance(engine, 40)
        data.user_context = "rhs"  # context at *entry* is what counts
        ktau.exit(data, pt)
        assert data.context_pairs[("MPI_Recv()", pt.event_id)] == [1, 40]

    def test_no_context_no_pair(self):
        engine, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("schedule")
        ktau.entry(data, pt)
        ktau.exit(data, pt)
        assert not data.context_pairs
