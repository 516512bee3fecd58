"""Tests for /proc/ktau and libKtau (the session-less protocol)."""

import pytest

from repro.core.config import KtauBuildConfig
from repro.core.libktau import LibKtau, Scope
from repro.core.measurement import Ktau
from repro.core.points import Group
from repro.core.procfs import KtauProcFS
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine


def make_stack():
    engine = Engine()
    ktau = Ktau(CycleClock(engine, hz=1e9), KtauBuildConfig(tracing=True))
    proc = KtauProcFS(ktau)
    return engine, ktau, proc


def record_some(engine, ktau, pid=1, comm="app"):
    data = ktau.register_task(pid, comm)
    pt = ktau.registry.point("sys_read")
    ktau.entry(data, pt)
    engine.schedule(100, lambda: None)
    engine.run_until_idle()
    ktau.exit(data, pt)
    return data


class TestProcProtocol:
    def test_size_then_read(self):
        engine, ktau, proc = make_stack()
        record_some(engine, ktau)
        size = proc.profile_size()
        data, full = proc.profile_read(size)
        assert len(data) == full == size

    def test_truncated_read_reports_full_size(self):
        engine, ktau, proc = make_stack()
        record_some(engine, ktau)
        size = proc.profile_size()
        data, full = proc.profile_read(size // 2)
        assert len(data) == size // 2
        assert full == size

    def test_growth_between_size_and_read(self):
        """The documented race: the profile grows after the size call."""
        engine, ktau, proc = make_stack()
        record_some(engine, ktau, pid=1)
        size = proc.profile_size()
        record_some(engine, ktau, pid=2)  # profile grows
        data, full = proc.profile_read(size)
        assert full > size  # kernel reports the new size
        assert len(data) == size  # short read

    def test_trace_read_is_destructive(self):
        engine, ktau, proc = make_stack()
        record_some(engine, ktau)
        size = proc.trace_size(1)
        assert size > 0
        data, full = proc.trace_read(1, size)
        assert len(data) == full
        # buffer drained: second read returns nothing
        assert proc.trace_size(1) > 0  # header still packs
        data2, full2 = proc.trace_read(1, 4096)
        from repro.core.wire import unpack_trace
        assert unpack_trace(data2).records == []

    def test_trace_of_unknown_pid(self):
        engine, ktau, proc = make_stack()
        assert proc.trace_size(999) == 0
        assert proc.trace_read(999, 100) == (b"", 0)

    def test_control_ioctl(self):
        engine, ktau, proc = make_stack()
        proc.ioctl_set_groups(False, [Group.NET])
        assert not ktau.control.group_enabled(Group.NET)
        proc.ioctl_set_groups(True, [Group.NET])
        assert ktau.control.group_enabled(Group.NET)


class TestLibKtau:
    def test_read_all_profiles(self):
        engine, ktau, proc = make_stack()
        record_some(engine, ktau, pid=1, comm="a")
        record_some(engine, ktau, pid=2, comm="b")
        lib = LibKtau(proc)
        dumps = lib.read_profiles(Scope.ALL)
        assert set(dumps) == {1, 2}
        assert dumps[1].perf["sys_read"][0] == 1

    def test_scope_self_requires_pid(self):
        engine, ktau, proc = make_stack()
        lib = LibKtau(proc)
        with pytest.raises(ValueError):
            lib.read_profiles(Scope.SELF)
        lib2 = LibKtau(proc, self_pid=1)
        record_some(engine, ktau, pid=1)
        record_some(engine, ktau, pid=2)
        assert set(lib2.read_profiles(Scope.SELF)) == {1}

    def test_scope_other_requires_pids(self):
        engine, ktau, proc = make_stack()
        lib = LibKtau(proc)
        with pytest.raises(ValueError):
            lib.read_profiles(Scope.OTHER)

    def test_retry_loop_handles_growth(self, monkeypatch):
        engine, ktau, proc = make_stack()
        record_some(engine, ktau, pid=1)
        lib = LibKtau(proc)
        real_size = proc.profile_size
        # Lie about the size once to force a retry.
        monkeypatch.setattr(proc, "profile_size",
                            lambda *a, **k: max(1, real_size(*a, **k) - 40))
        dumps = lib.read_profiles(Scope.ALL)
        assert 1 in dumps

    def test_read_trace(self):
        engine, ktau, proc = make_stack()
        record_some(engine, ktau, pid=1)
        lib = LibKtau(proc)
        dump = lib.read_trace(1)
        assert [name for _c, name, _k, _v in dump.records] == \
               ["sys_read", "sys_read"]

    def test_zombies_included_on_request(self):
        engine, ktau, proc = make_stack()
        record_some(engine, ktau, pid=1)
        ktau.on_task_exit(1)
        lib = LibKtau(proc)
        assert 1 not in lib.read_profiles(Scope.ALL)
        assert 1 in lib.read_profiles(Scope.ALL, include_zombies=True)

    def test_group_control_reaches_measurement(self):
        """disable_groups/enable_groups go libKtau -> procfs ioctl ->
        runtime control: a disabled group records nothing, others still
        record, and re-enabling needs no restart."""
        engine, ktau, proc = make_stack()
        lib = LibKtau(proc)
        data = ktau.register_task(1, "app")
        net = ktau.registry.point("tcp_sendmsg")
        fs = ktau.registry.point("sys_read")

        def call_both():
            for pt in (net, fs):
                ktau.entry(data, pt)
                ktau.exit(data, pt)
            perf = lib.read_profiles(Scope.ALL)[1].perf
            return (perf.get("tcp_sendmsg", (0,))[0],
                    perf.get("sys_read", (0,))[0])

        lib.disable_groups(Group.NET)
        assert call_both() == (0, 1)
        lib.enable_groups(Group.NET)
        assert call_both() == (1, 2)

    def test_rejected_enable_changes_nothing(self):
        """Enabling a compiled group together with an uncompiled one is
        rejected as a whole: the compiled group stays disabled, the
        control version (the firing-state cache key) does not move, and
        its points keep recording nothing."""
        engine = Engine()
        build = KtauBuildConfig(compiled_groups=frozenset({Group.BH}))
        ktau = Ktau(CycleClock(engine, hz=1e9), build)
        lib = LibKtau(KtauProcFS(ktau))
        data = ktau.register_task(1, "app")
        pt = ktau.registry.point("do_softirq")
        lib.disable_groups(Group.BH)
        ktau.entry(data, pt)  # warms the firing-state cache: disabled
        ktau.exit(data, pt)
        version = ktau.control.version
        with pytest.raises(ValueError):
            lib.enable_groups(Group.BH, Group.IRQ)
        assert not ktau.control.group_enabled(Group.BH)
        assert ktau.control.version == version
        ktau.entry(data, pt)
        ktau.exit(data, pt)
        assert "do_softirq" not in lib.read_profiles(Scope.ALL)[1].perf


class TestAsciiConversion:
    def test_roundtrip(self):
        engine, ktau, proc = make_stack()
        data = record_some(engine, ktau, pid=1)
        data.user_context = "main()"
        pt = ktau.registry.point("schedule")
        ktau.entry(data, pt)
        engine.schedule(5, lambda: None)
        engine.run_until_idle()
        ktau.exit(data, pt)
        lib = LibKtau(proc)
        dumps = lib.read_profiles(Scope.ALL)
        text = lib.to_ascii(dumps)
        back = lib.from_ascii(text)
        assert back.keys() == dumps.keys()
        assert back[1].perf == dumps[1].perf
        assert back[1].context_pairs == dumps[1].context_pairs

    def test_from_ascii_rejects_garbage(self):
        with pytest.raises(ValueError):
            LibKtau.from_ascii("not a dump")
        with pytest.raises(ValueError):
            LibKtau.from_ascii("#ktau-ascii v1\nperf before task 0 0 0 0\n")

    def test_format_profile_renders(self):
        engine, ktau, proc = make_stack()
        record_some(engine, ktau, pid=1, comm="myapp")
        lib = LibKtau(proc)
        dumps = lib.read_profiles(Scope.ALL)
        text = lib.format_profile(dumps[1], hz=1e9)
        assert "myapp" in text and "sys_read" in text
