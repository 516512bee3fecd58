"""Tests for event mapping (registry), the overhead model and the
rounding of its charges."""

from itertools import islice

import numpy as np
import pytest

from repro.core.config import KtauBuildConfig
from repro.core.measurement import Ktau
from repro.core.overhead import OverheadModel, ZeroOverheadModel, _GammaTail
from repro.core.points import ALL_GROUPS, Group, group_of, POINT_GROUPS
from repro.core.registry import EventRegistry, PointKind
from repro.kernel.irq import KSpan
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.sim.units import SEC

#: The clock rates of the modelled machines.
RATES_HZ = (107e6, 450e6, 550e6, 2.8e9)


class TestPoints:
    def test_every_declared_point_has_a_group(self):
        for name, group in POINT_GROUPS.items():
            assert group in ALL_GROUPS
            assert group_of(name) is group

    def test_undeclared_point_raises(self):
        with pytest.raises(KeyError):
            group_of("not_a_kernel_symbol")

    def test_all_interaction_mechanisms_covered(self):
        # The paper's five program-OS interaction mechanisms all carry
        # instrumentation: syscalls, exceptions, interrupts, scheduling,
        # signals (plus the explicit bottom-half/net split).
        groups = set(POINT_GROUPS.values())
        for g in (Group.SYSCALL, Group.EXCEPTION, Group.IRQ, Group.SCHED,
                  Group.SIGNAL, Group.BH, Group.NET):
            assert g in groups


class TestEventRegistry:
    def test_ids_bind_in_first_arrival_order(self):
        reg = EventRegistry()
        a = reg.point("sys_read")
        b = reg.point("sys_write")
        # b fires first
        assert reg.bind(b) == 0
        assert reg.bind(a) == 1
        assert reg.name_of(0) == "sys_write"

    def test_bind_is_idempotent(self):
        reg = EventRegistry()
        pt = reg.point("schedule")
        assert reg.bind(pt) == reg.bind(pt) == 0
        assert reg.bound_count == 1

    def test_point_is_cached(self):
        reg = EventRegistry()
        assert reg.point("schedule") is reg.point("schedule")

    def test_kind_conflict_rejected(self):
        reg = EventRegistry()
        reg.point("net.pkt_tx_bytes", PointKind.ATOMIC)
        with pytest.raises(ValueError):
            reg.point("net.pkt_tx_bytes", PointKind.ENTRY_EXIT)

    def test_mapping_table_only_bound_points(self):
        reg = EventRegistry()
        reg.point("sys_read")  # declared, never fired
        fired = reg.point("schedule")
        reg.bind(fired)
        table = reg.mapping_table()
        assert table == [(0, "schedule", "sched")]

    def test_id_of_unfired_point_is_none(self):
        reg = EventRegistry()
        reg.point("sys_read")
        assert reg.id_of("sys_read") is None
        assert reg.id_of("never_declared") is None


class _Float64Tail:
    """A sampler as it was before int64 batches: ``int()`` of each
    element of a float64 batch drawn from the shared stream."""

    def __init__(self, tail, rng):
        self.tail, self.rng = tail, rng
        self.buf, self.pos, self.refills = [], 0, 0

    def sample(self) -> int:
        if self.pos >= len(self.buf):
            tail = self.tail
            self.buf = tail.minimum + self.rng.gamma(tail.k, tail.theta,
                                                     size=tail.BATCH)
            self.pos = 0
            self.refills += 1
        self.pos += 1
        return int(self.buf[self.pos - 1])


class TestOverheadModel:
    def test_matches_paper_statistics(self):
        model = OverheadModel(RngHub(3).stream("ovh"))
        start = model.sample_start_array(200_000)
        stop = model.sample_stop_array(200_000)
        # Table 4: start 244.4/236.3/160, stop 295.3/268.8/214.
        assert np.mean(start) == pytest.approx(244.4, rel=0.05)
        assert np.std(start) == pytest.approx(236.3, rel=0.08)
        assert np.min(start) >= 160
        assert np.mean(stop) == pytest.approx(295.3, rel=0.05)
        assert np.std(stop) == pytest.approx(268.8, rel=0.08)
        assert np.min(stop) >= 214

    def test_scalar_sampling_respects_minimum(self):
        model = OverheadModel(RngHub(3).stream("ovh2"))
        for _ in range(1000):
            assert model.start_cycles() >= 160
            assert model.stop_cycles() >= 214

    def test_deterministic_given_stream(self):
        a = OverheadModel(RngHub(7).stream("x"))
        b = OverheadModel(RngHub(7).stream("x"))
        assert [a.start_cycles() for _ in range(50)] == \
               [b.start_cycles() for _ in range(50)]

    def test_draws_equal_int_of_each_float64_draw(self):
        """The int64 batches hand out exactly ``int()`` of each float64
        draw, with start and stop sharing one stream and refilling at the
        same points."""
        model = OverheadModel(RngHub(11).stream("ovh"))
        rng = RngHub(11).stream("ovh")
        old = {"start": _Float64Tail(model._start, rng),
               "stop": _Float64Tail(model._stop, rng)}
        draws = (("start", model.start_cycles), ("stop", model.stop_cycles),
                 ("start", model.atomic_cycles))
        order = RngHub(5).stream("order").integers(0, 3, size=26_000)
        for pick in order:
            which, draw = draws[pick]
            value = draw()
            assert type(value) is int
            assert value == old[which].sample()
        assert old["start"].refills >= 3 and old["stop"].refills >= 3

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            _GammaTail(RngHub(1).stream("x"), 200.0, 100.0, 50.0)

    def test_zero_model(self):
        model = ZeroOverheadModel()
        assert model.start_cycles() == 0
        assert model.stop_cycles() == 0
        assert model.atomic_cycles() == 0
        assert model.DISABLED_CHECK_CYCLES == 0

    def test_zero_model_streams_yield_zero(self):
        model = ZeroOverheadModel()
        assert list(islice(model.starts, 100)) == [0] * 100
        assert list(islice(model.stops, 100)) == [0] * 100

    def test_streams_are_the_per_event_draws(self):
        """Draws taken from the streams and through the ``*_cycles``
        callables come from one sequence per sampler."""
        a = OverheadModel(RngHub(7).stream("x"))
        b = OverheadModel(RngHub(7).stream("x"))
        mixed = [a.start_cycles(), *islice(a.starts, 5000), a.atomic_cycles(),
                 a.stop_cycles(), *islice(a.stops, 3)]
        assert mixed == [*(b.start_cycles() for _ in range(5002)),
                         *(b.stop_cycles() for _ in range(4))]


def make_ktau(hz, overhead=None):
    return Ktau(CycleClock(Engine(), hz=hz), KtauBuildConfig(),
                overhead=overhead)


class TestRoundingMemo:
    @pytest.mark.parametrize("hz", RATES_HZ)
    def test_memo_is_round_of_each_charge(self, hz):
        """Over a full batch of start and stop draws, with and without the
        tracing extra, the memo holds ``round(c * SEC / hz)``."""
        model = OverheadModel(RngHub(13).stream("ovh"))
        draws = [*islice(model.starts, _GammaTail.BATCH),
                 *islice(model.stops, _GammaTail.BATCH)]
        memo = make_ktau(hz)._ns_of
        for cycles in draws + [c + model.TRACE_EXTRA_CYCLES for c in draws]:
            assert memo[cycles] == round(cycles * SEC / hz)

    @pytest.mark.parametrize("hz", RATES_HZ)
    def test_run_charges_each_draw_rounded(self, hz):
        """A recorded run's pending overhead is the sum of its draws, each
        rounded on its own, in the per-activation order."""
        ktau = make_ktau(hz, OverheadModel(RngHub(5).stream("ovh")))
        twin = OverheadModel(RngHub(5).stream("ovh"))
        data = ktau.register_task(1, "t")
        chain = KSpan("tcp_sendmsg", 900,
                      KSpan("dev_queue_xmit", 300, atomic="net.pkt_tx_bytes"))
        values = [1448] * 3000  # refills both samplers inside the run
        assert ktau.record(data, chain, 0, values=values,
                           step_cycles=1_000) == 3_000_000
        draws = []
        for _ in values:
            draws += [twin.start_cycles() for _ in range(3)]
            draws += [twin.stop_cycles() for _ in range(2)]
        assert data.overhead_cycles == sum(draws)
        assert data.pending_overhead_ns == sum(
            round(cycles * SEC / hz) for cycles in draws)

    def test_one_memo_per_clock_rate(self):
        """Kernels at one rate share a memo; kernels at different rates in
        one process keep separate ones."""
        slow, other, fast = (make_ktau(hz, OverheadModel(RngHub(3).stream("o")))
                             for hz in (450e6, 450e6, 550e6))
        assert slow._ns_of is other._ns_of
        assert slow._ns_of is not fast._ns_of
        for ktau in (slow, fast):
            data = ktau.register_task(1, "t")
            point = ktau.registry.point("sys_read")
            for _ in range(50):
                ktau.entry(data, point)
                ktau.exit(data, point)
        for hz, memo in ((450e6, slow._ns_of), (550e6, fast._ns_of)):
            assert memo and all(ns == round(cycles * SEC / hz)
                                for cycles, ns in memo.items())
