"""Tests for the §6 future-work extensions: per-point dynamic control,
boot options, performance counters, call-graph profiles, phase profiling."""

import pytest

from repro.analysis.callgraph import build_merged_callgraph, render_callgraph
from repro.core.config import KtauBuildConfig, KtauRuntimeControl
from repro.core.libktau import LibKtau, Scope
from repro.core.points import Group
from repro.kernel.kernel import Kernel
from repro.kernel.params import KernelParams
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.sim.units import MSEC, SEC
from repro.tau.phases import PhaseTracker
from repro.tau.profiler import TauProfiler


def make_kernel(ktau=None, boot_cmdline=""):
    engine = Engine()
    params = KernelParams(ncpus=2, timer_tick_ns=None, minor_fault_prob=0.0,
                          smp_compute_dilation=0.0,
                          ktau=ktau or KtauBuildConfig(),
                          boot_cmdline=boot_cmdline)
    return engine, Kernel(engine, params, "ext", RngHub(1))


class TestPerPointControl:
    def test_disabled_point_records_nothing(self):
        engine, kernel = make_kernel()
        lib = LibKtau(kernel.ktau_proc)
        lib.disable_points("sys_nanosleep")

        def app(ctx):
            yield from ctx.sleep(5 * MSEC)
            yield from ctx.syscall("sys_getppid")

        task = kernel.spawn(app, "app")
        engine.run_until_idle()
        dump = lib.read_profiles(Scope.OTHER, pids=[task.pid],
                                 include_zombies=True)[task.pid]
        assert "sys_nanosleep" not in dump.perf
        assert "sys_getppid" in dump.perf  # same group, still on
        # scheduling inside the sleep still recorded (different point)
        assert "schedule_vol" in dump.perf

    def test_reenable_at_runtime(self):
        engine, kernel = make_kernel()
        lib = LibKtau(kernel.ktau_proc)
        lib.disable_points("sys_getppid")

        def app(ctx):
            yield from ctx.syscall("sys_getppid")
            yield from ctx.sleep(1 * MSEC)
            yield from ctx.syscall("sys_getppid")

        task = kernel.spawn(app, "app")
        # re-enable mid-run, without any "reboot"
        engine.schedule(int(0.5 * MSEC), lambda: lib.enable_points("sys_getppid"))
        engine.run_until_idle()
        dump = lib.read_profiles(Scope.OTHER, pids=[task.pid],
                                 include_zombies=True)[task.pid]
        assert dump.perf["sys_getppid"][0] == 1  # only the second call

    def test_control_object_api(self):
        control = KtauRuntimeControl(KtauBuildConfig())
        control.disable_points("schedule", "do_IRQ")
        assert not control.point_enabled("schedule")
        assert control.point_enabled("schedule_vol")
        control.enable_points("schedule")
        assert control.point_enabled("schedule")
        assert control.disabled_points == frozenset({"do_IRQ"})


class TestBootOptions:
    def test_ktau_off(self):
        engine, kernel = make_kernel(boot_cmdline="ro root=/dev/sda1 ktau=off")
        assert kernel.ktau.control.enabled_groups == frozenset()

    def test_group_selection(self):
        engine, kernel = make_kernel(boot_cmdline="ktau.groups=sched,net")
        assert kernel.ktau.control.enabled_groups == \
            frozenset({Group.SCHED, Group.NET})

    def test_nopoints(self):
        engine, kernel = make_kernel(
            boot_cmdline="ktau.nopoints=sys_getppid,do_IRQ")
        assert not kernel.ktau.control.point_enabled("sys_getppid")
        assert kernel.ktau.control.point_enabled("sys_read")

    def test_default_cmdline_everything_on(self):
        engine, kernel = make_kernel()
        assert kernel.ktau.control.enabled_groups == \
            KtauBuildConfig().compiled_groups


class TestPerformanceCounters:
    def build(self):
        return make_kernel(ktau=KtauBuildConfig(counters=True))

    def test_counters_recorded_per_event(self):
        engine, kernel = self.build()

        def app(ctx):
            yield from ctx.sleep(2 * MSEC)
            yield from ctx.syscall("sys_getppid")

        task = kernel.spawn(app, "app")
        engine.run_until_idle()
        lib = LibKtau(kernel.ktau_proc)
        dump = lib.read_profiles(Scope.OTHER, pids=[task.pid],
                                 include_zombies=True)[task.pid]
        assert dump.counters, "no counter data recorded"
        count, cycles, insn, l2, minflt, majflt = dump.counters["sys_nanosleep"]
        assert count == 1
        assert insn > 0
        assert cycles >= insn  # kernel IPC < 1
        assert minflt == 0 and majflt == 0
        assert dump.pmc is not None
        assert dump.pmc[0] > 0  # lifetime executed cycles

    def test_counters_off_by_default(self):
        engine, kernel = make_kernel()

        def app(ctx):
            yield from ctx.syscall("sys_getppid")

        task = kernel.spawn(app, "app")
        engine.run_until_idle()
        lib = LibKtau(kernel.ktau_proc)
        dump = lib.read_profiles(Scope.OTHER, pids=[task.pid],
                                 include_zombies=True)[task.pid]
        assert not dump.counters

    def test_task_counters_advance_with_modes(self):
        engine, kernel = self.build()

        def app(ctx):
            yield from ctx.compute(10 * MSEC)

        task = kernel.spawn(app, "app")
        engine.run_until_idle()
        # ~0.9 IPC at 450 MHz over 10 ms of user time
        expected = 0.9 * kernel.clock.cycles_for_ns(10 * MSEC)
        assert task.counters.insn_retired == pytest.approx(expected, rel=0.05)
        assert task.counters.l2_misses > 0

    def test_ascii_roundtrip_with_counters(self):
        engine, kernel = self.build()

        def app(ctx):
            yield from ctx.sleep(1 * MSEC)

        task = kernel.spawn(app, "app")
        engine.run_until_idle()
        lib = LibKtau(kernel.ktau_proc)
        dumps = lib.read_profiles(include_zombies=True)
        back = lib.from_ascii(lib.to_ascii(dumps))
        assert back[task.pid].counters == dumps[task.pid].counters
        assert back[task.pid].pmc == dumps[task.pid].pmc


class TestCallgraph:
    def build(self):
        return make_kernel(ktau=KtauBuildConfig(callgraph=True))

    def test_kernel_edges_follow_nesting(self):
        engine, kernel = self.build()

        def app(ctx):
            tau = TauProfiler(ctx.task)
            ctx.task.tau = tau
            with tau.timer("main()"):
                yield from ctx.sleep(2 * MSEC)

        task = kernel.spawn(app, "app")
        engine.run_until_idle()
        lib = LibKtau(kernel.ktau_proc)
        dump = lib.read_profiles(include_zombies=True)[task.pid]
        assert ("U:main()", "sys_nanosleep") in dump.edges
        assert ("K:sys_nanosleep", "schedule_vol") in dump.edges

    def test_merged_callgraph_structure(self):
        engine, kernel = self.build()
        profilers = []

        def app(ctx):
            tau = TauProfiler(ctx.task)
            ctx.task.tau = tau
            profilers.append(tau)
            with tau.timer("main()"):
                with tau.timer("io_phase"):
                    yield from ctx.sleep(2 * MSEC)
                with tau.timer("compute_phase"):
                    yield from ctx.compute(3 * MSEC)

        task = kernel.spawn(app, "app")
        engine.run_until_idle()
        lib = LibKtau(kernel.ktau_proc)
        kdump = lib.read_profiles(include_zombies=True)[task.pid]
        graph = build_merged_callgraph(profilers[0].dump(), kdump)

        main = graph.lookup("U:main()")
        assert main is not None
        assert "U:io_phase" in main.children
        io_children = graph.lookup("U:io_phase").children.values()
        assert any(n.layer == "kernel" and n.name == "sys_nanosleep"
                   for n in io_children)
        sleep_node = graph.lookup("K:sys_nanosleep")
        assert "K:schedule_vol" in sleep_node.children

        text = render_callgraph(graph, hz=kernel.clock.hz)
        assert "main()" in text and "sys_nanosleep" in text

    def test_callgraph_off_by_default(self):
        engine, kernel = make_kernel()

        def app(ctx):
            yield from ctx.sleep(1 * MSEC)

        task = kernel.spawn(app, "app")
        engine.run_until_idle()
        lib = LibKtau(kernel.ktau_proc)
        assert not lib.read_profiles(include_zombies=True)[task.pid].edges


class TestPhaseProfiling:
    def test_per_phase_kernel_deltas(self):
        engine, kernel = make_kernel()
        trackers = []

        def app(ctx):
            ctx.task.tau = TauProfiler(ctx.task)
            phases = PhaseTracker(ctx)
            trackers.append(phases)
            yield from phases.begin("io")
            yield from ctx.sleep(5 * MSEC)
            yield from phases.end("io")
            yield from phases.begin("compute")
            yield from ctx.compute(8 * MSEC)
            yield from phases.end("compute")

        kernel.spawn(app, "app")
        engine.run_until_idle()
        phases = trackers[0]
        io = phases.result("io")
        compute = phases.result("compute")
        # the sleep's kernel events land in the io phase only
        assert io.kernel_delta.get("sys_nanosleep", (0, 0, 0))[0] == 1
        assert "sys_nanosleep" not in compute.kernel_delta
        assert io.kernel_seconds(kernel.clock.hz) > 0.004
        assert compute.duration_ns >= 8 * MSEC
        report = phases.report()
        assert "phase 'io'" in report

    def test_phase_misuse_raises(self):
        engine, kernel = make_kernel()
        errors = []

        def app(ctx):
            phases = PhaseTracker(ctx)
            yield from phases.begin("a")
            try:
                yield from phases.begin("b")
            except RuntimeError as exc:
                errors.append("double-begin")
            try:
                yield from phases.end("zzz")
            except RuntimeError:
                errors.append("wrong-end")
            yield from phases.end("a")

        kernel.spawn(app, "app")
        engine.run_until_idle()
        assert errors == ["double-begin", "wrong-end"]

    def test_tau_phase_timers_recorded(self):
        engine, kernel = make_kernel()
        profilers = []

        def app(ctx):
            tau = TauProfiler(ctx.task)
            ctx.task.tau = tau
            profilers.append(tau)
            phases = PhaseTracker(ctx)
            yield from phases.begin("solve")
            yield from ctx.compute(2 * MSEC)
            yield from phases.end("solve")

        kernel.spawn(app, "app")
        engine.run_until_idle()
        dump = profilers[0].dump()
        assert "phase:solve" in dump.perf
        assert ("", "phase:solve") in dump.edges  # call-path edge at root
