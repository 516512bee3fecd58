"""Tests for event mapping (registry), the overhead model and the
rounding of its charges."""

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
            assert model.draw_start()[0] >= 160
            assert model.draw_stop()[0] >= 214

    def test_deterministic_given_stream(self):
        a = OverheadModel(RngHub(7).stream("x"))
        b = OverheadModel(RngHub(7).stream("x"))
        assert [a.draw_start()[0] for _ in range(50)] == \
               [b.draw_start()[0] for _ in range(50)]

    def test_draws_equal_int_of_each_float64_draw(self):
        """The int64 batches hand out exactly ``int()`` of each float64
        draw, with start and stop sharing one stream and refilling at the
        same points."""
        model = OverheadModel(RngHub(11).stream("ovh"))
        rng = RngHub(11).stream("ovh")
        old = {"start": _Float64Tail(model._start, rng),
               "stop": _Float64Tail(model._stop, rng)}
        draws = (("start", model.draw_start), ("stop", model.draw_stop),
                 ("start", model.draw_atomic))
        order = RngHub(5).stream("order").integers(0, 3, size=26_000)
        for pick in order:
            which, draw = draws[pick]
            value = draw()[0]
            assert type(value) is int
            assert value == old[which].sample()
        assert old["start"].refills >= 3 and old["stop"].refills >= 3

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            _GammaTail(RngHub(1).stream("x"), 200.0, 100.0, 50.0)

    def test_zero_model(self):
        model = ZeroOverheadModel()
        assert model.draw_start()[0] == 0
        assert model.draw_stop()[0] == 0
        assert model.draw_atomic()[0] == 0
        assert model.DISABLED_CHECK_CYCLES == 0

    def test_zero_model_streams_yield_zero(self):
        model = ZeroOverheadModel()
        model.bind(450e6, True)
        for draw in (model.draw_start, model.draw_stop, model.draw_atomic):
            assert [draw() for _ in range(100)] == [(0, 0)] * 100
        assert model.charge(5000, 4000, (500, 9, 7, 500)) == (0, 0)

    def test_streams_are_the_per_event_draws(self):
        """Draws taken through a summed charge, the ``draw_*`` charges
        and an unbound twin's ``draw_*`` cycles come from one sequence per
        sampler."""
        a = OverheadModel(RngHub(7).stream("x"))
        b = OverheadModel(RngHub(7).stream("x"))
        a.bind(450e6, False)
        mixed = [a.draw_start()[0], a.charge(5000, 0, (0, 5000, 0, 1))[0],
                 a.draw_atomic()[0], a.draw_stop()[0],
                 a.charge(0, 3, (0, 0, 3, 1))[0]]
        starts = [b.draw_start()[0] for _ in range(5002)]
        stops = [b.draw_stop()[0] for _ in range(4)]
        assert mixed == [starts[0], sum(starts[1:5001]), starts[5001],
                         stops[0], sum(stops[1:])]

    def test_sample_runs_once_per_refill(self, monkeypatch):
        """``sample`` is called once per batch, whichever way the draws
        are taken (perfbench counts its calls as refills)."""
        model = OverheadModel(RngHub(7).stream("x"))
        model.bind(450e6, False)
        calls = []
        sample = _GammaTail.sample
        monkeypatch.setattr(_GammaTail, "sample", lambda tail, n: (
            calls.append(tail), sample(tail, n))[1])
        batch = _GammaTail.BATCH
        model.charge(2 * batch + 1, 0, (0, 2 * batch + 1, 0, 1))
        for _ in range(batch):
            model.draw_start()
        model.draw_start()[0]
        assert calls == [model._start] * 4


def make_ktau(hz, overhead=None):
    return Ktau(CycleClock(Engine(), hz=hz), KtauBuildConfig(),
                overhead=overhead)


def per_event(twin, order, extra, hz):
    """``(cycles, ns)`` of a summed call's draws taken one by one from the
    unbound ``twin`` in the per-event ``order``, and the samplers in the
    order they refilled."""
    head, pass_starts, pass_stops, n = order
    runs = [("start", head), *(("start", pass_starts),
                               ("stop", pass_stops)) * n, ("stop", head)]
    cycles, refills = [], []
    for which, k in runs:
        tail = getattr(twin, f"_{which}")
        for _ in range(k):
            if tail.pos == tail.BATCH:
                refills.append(which)
            cycles.append(tail.draw()[0] + extra)
    return (sum(cycles), sum(round(c * SEC / hz) for c in cycles)), refills


class TestLedger:
    #: Single draws that leave the start sampler 6 draws and the stop
    #: sampler 2 before a refill, so that a ``CROSSING`` call refills the
    #: start sampler first; and 5 and 1, so that it refills the stop one
    #: first.
    PRIMINGS = {"start_first": (_GammaTail.BATCH - 6, _GammaTail.BATCH - 2),
                "stop_first": (_GammaTail.BATCH - 5, _GammaTail.BATCH - 1)}
    #: one enclosing level, then three passes of three starts, two stops
    CROSSING = (1, 3, 2, 3)

    @pytest.mark.parametrize("hz", RATES_HZ)
    @pytest.mark.parametrize("tracing", [False, True])
    @pytest.mark.parametrize("priming", sorted(PRIMINGS))
    def test_charges_equal_the_per_event_draws(self, hz, tracing, priming):
        """Summed calls mixed with single start, stop and atomic draws
        charge what the per-event draws of an identically seeded model
        add up to, each draw rounded on its own, across refills in either
        order; the draws that follow match too."""
        model = OverheadModel(RngHub(17).stream("ovh"))
        twin = OverheadModel(RngHub(17).stream("ovh"))
        extra = model.TRACE_EXTRA_CYCLES if tracing else 0
        model.bind(hz, tracing)
        starts, stops = self.PRIMINGS[priming]
        for _ in range(starts):
            assert model.draw_start()[0] - extra == twin.draw_start()[0]
        for _ in range(stops):
            assert model.draw_stop()[0] - extra == twin.draw_stop()[0]

        def charge(order):
            head, pass_starts, pass_stops, n = order
            return model.charge(head + n * pass_starts, head + n * pass_stops,
                                order)

        expected, refills = per_event(twin, self.CROSSING, extra, hz)
        assert refills == (["start", "stop"] if priming == "start_first"
                           else ["stop", "start"])
        assert charge(self.CROSSING) == expected
        ops = np.random.default_rng(int(hz) + len(priming))
        for _ in range(1500):
            pick = int(ops.integers(0, 4))
            if pick == 3:
                order = (int(ops.integers(0, 3)), int(ops.integers(1, 5)),
                         int(ops.integers(1, 4)), int(ops.integers(1, 40)))
                assert charge(order) == per_event(twin, order, extra, hz)[0]
                continue
            draw, raw = ((model.draw_start, twin.draw_start),
                         (model.draw_stop, twin.draw_stop),
                         (model.draw_atomic, twin.draw_atomic))[pick]
            cycles = raw()[0] + extra
            assert draw() == (cycles, round(cycles * SEC / hz))
        assert [model.draw_start()[0] - extra for _ in range(10)] == \
               [twin.draw_start()[0] for _ in range(10)]
        assert [model.draw_stop()[0] - extra for _ in range(10)] == \
               [twin.draw_stop()[0] for _ in range(10)]


class TestRoundingMemo:
    """The ledger's nanosecond prefix is the rounding memo: each draw's
    cost is rounded once, at refill, at the model's clock rate."""

    @pytest.mark.parametrize("hz", RATES_HZ)
    def test_memo_is_round_of_each_charge(self, hz):
        """Over several batches of start and stop draws, with and without
        the tracing extra, the vectorised rounding equals
        ``round(c * SEC / hz)``, every prefix fits int32 and every cost
        times ``SEC`` stays below 2**53."""
        for tracing in (False, True):
            model = OverheadModel(RngHub(13).stream("ovh"))
            model.bind(hz, tracing)
            extra = model.TRACE_EXTRA_CYCLES if tracing else 0
            for tail in (model._start, model._stop):
                for _ in range(3):
                    tail.refill()
                    assert tail.cycles.format == tail.ns.format == "i"
                    costs = np.diff(tail.cycles) + extra
                    assert int(costs.max()) * SEC < 2**53
                    assert tail.cycles[-1] < 2**31 and tail.ns[-1] < 2**31
                    assert np.diff(tail.ns).tolist() == [
                        round(c * SEC / hz) for c in costs.tolist()]

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
            draws += [twin.draw_start()[0] for _ in range(3)]
            draws += [twin.draw_stop()[0] for _ in range(2)]
        assert data.overhead_cycles == sum(draws)
        assert data.pending_overhead_ns == sum(
            round(cycles * SEC / hz) for cycles in draws)

    def test_one_memo_per_clock_rate(self):
        """Kernels at different rates in one process round the same draws
        at their own rate."""
        slow, fast = (make_ktau(hz, OverheadModel(RngHub(3).stream("o")))
                      for hz in (450e6, 550e6))
        twin = OverheadModel(RngHub(3).stream("o"))
        draws = []
        for _ in range(50):
            draws += [twin.draw_start()[0], twin.draw_stop()[0]]
        for hz, ktau in ((450e6, slow), (550e6, fast)):
            data = ktau.register_task(1, "t")
            point = ktau.registry.point("sys_read")
            for _ in range(50):
                ktau.entry(data, point)
                ktau.exit(data, point)
            assert data.overhead_cycles == sum(draws)
            assert data.pending_overhead_ns == sum(
                round(cycles * SEC / hz) for cycles in draws)
