"""Tests for the strict-mode runtime sanitizer (ktaulint's dynamic twin).

``Ktau(strict=True)`` turns the silent drop-and-count guards of the
non-strict measurement path into :class:`InstrumentationImbalanceError`
raises that name the offending instrumentation point, and propagates
strictness into per-task trace buffers so record loss raises
:class:`TraceOverflowError` instead of silently overwriting.
"""

import pytest

from repro.core.config import KtauBuildConfig
from repro.core.measurement import InstrumentationImbalanceError, Ktau
from repro.core.tracebuf import WORDS, TraceBuffer, TraceOverflowError
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine

HZ = 1e9


def make_ktau(build=None, strict=False):
    engine = Engine()
    clock = CycleClock(engine, hz=HZ)
    ktau = Ktau(clock, build or KtauBuildConfig(), strict=strict)
    return engine, ktau


def advance(engine, ns):
    engine.schedule(ns, lambda: None)
    engine.run_until_idle()


class TestStrictUnmatchedExit:
    def test_exit_with_empty_stack_raises_naming_point(self):
        _, ktau = make_ktau(strict=True)
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")
        ktau.entry(data, pt)
        ktau.exit(data, pt)
        with pytest.raises(InstrumentationImbalanceError) as exc:
            ktau.exit(data, pt)
        assert "'sys_read'" in str(exc.value)
        assert "activation stack is empty" in str(exc.value)

    def test_non_lifo_exit_names_both_points(self):
        _, ktau = make_ktau(strict=True)
        data = ktau.register_task(1, "t")
        outer = ktau.registry.point("sys_writev")
        inner = ktau.registry.point("tcp_sendmsg")
        ktau.entry(data, outer)
        ktau.entry(data, inner)
        with pytest.raises(InstrumentationImbalanceError) as exc:
            ktau.exit(data, outer)
        assert "'sys_writev'" in str(exc.value)
        assert "'tcp_sendmsg'" in str(exc.value)

    def test_exit_for_point_that_never_entered(self):
        _, ktau = make_ktau(strict=True)
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("do_signal")
        with pytest.raises(InstrumentationImbalanceError,
                           match="never fired an entry"):
            ktau.exit(data, pt)

    def test_balanced_usage_does_not_raise(self):
        engine, ktau = make_ktau(strict=True)
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")
        ktau.entry(data, pt)
        advance(engine, 100)
        ktau.exit(data, pt)
        assert data.profile[pt.event_id].count == 1
        assert data.unmatched_exits == 0


class TestStrictTaskExit:
    def test_task_exit_with_open_span_raises(self):
        _, ktau = make_ktau(strict=True)
        data = ktau.register_task(7, "leaky")
        ktau.entry(data, ktau.registry.point("schedule"))
        with pytest.raises(InstrumentationImbalanceError) as exc:
            ktau.on_task_exit(7)
        msg = str(exc.value)
        assert "task 7 (leaky)" in msg
        assert "'schedule'" in msg
        assert "1 instrumentation span(s) still open" in msg

    def test_task_exit_clean_goes_to_zombies(self):
        _, ktau = make_ktau(strict=True)
        ktau.register_task(7, "clean")
        ktau.on_task_exit(7)
        assert 7 in ktau.zombies


class TestStrictTraceBuffer:
    def test_overflow_raises_in_strict_mode(self):
        buf = TraceBuffer(2, strict=True)
        buf.append(1, 1, 0, 0)
        buf.append(2, 1, 0, 0)
        with pytest.raises(TraceOverflowError, match="capacity 2"):
            buf.append(3, 1, 0, 0)

    def test_drain_makes_room(self):
        buf = TraceBuffer(2, strict=True)
        buf.append(1, 1, 0, 0)
        buf.append(2, 1, 0, 0)
        assert len(buf.drain()) == 2 * WORDS
        buf.append(3, 1, 0, 0)  # no raise after drain

    def test_ktau_propagates_strict_into_task_buffers(self):
        build = KtauBuildConfig(tracing=True, trace_buffer_entries=4)
        _, ktau = make_ktau(build=build, strict=True)
        data = ktau.register_task(1, "t")
        assert data.trace is not None and data.trace.strict
        _, ktau_lax = make_ktau(build=build)
        lax = ktau_lax.register_task(1, "t")
        assert lax.trace is not None and not lax.trace.strict


class TestNonStrictUnchanged:
    """Default behavior must stay KTAU-faithful: count and drop, never raise."""

    def test_unmatched_exit_counts_and_drops(self):
        _, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        pt = ktau.registry.point("sys_read")
        ktau.entry(data, pt)
        ktau.exit(data, pt)
        ktau.exit(data, pt)  # silent in non-strict mode
        assert data.unmatched_exits == 1
        assert data.profile[pt.event_id].count == 1

    def test_never_entered_exit_counts_and_drops(self):
        _, ktau = make_ktau()
        data = ktau.register_task(1, "t")
        ktau.exit(data, ktau.registry.point("do_signal"))
        assert data.unmatched_exits == 1

    def test_task_exit_with_open_span_is_silent(self):
        _, ktau = make_ktau()
        data = ktau.register_task(7, "leaky")
        ktau.entry(data, ktau.registry.point("schedule"))
        ktau.on_task_exit(7)
        assert 7 in ktau.zombies

    def test_trace_overflow_overwrites_and_counts_loss(self):
        buf = TraceBuffer(2)
        for i in range(5):
            buf.append(i, 1, 0, 0)
        assert buf.lost_count == 3
        assert list(buf.drain()[0::WORDS]) == [3, 4]
