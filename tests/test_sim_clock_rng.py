"""Tests for cycle clocks and deterministic RNG streams."""

import pytest

from repro.sim.clock import CycleClock
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.sim import units


class TestCycleClock:
    def test_read_tracks_engine_time(self):
        engine = Engine()
        clock = CycleClock(engine, hz=450e6)
        assert clock.read() == 0
        engine.schedule(units.SEC, lambda: None)
        engine.run_until_idle()
        assert clock.read() == 450_000_000

    def test_boot_offset_applies(self):
        engine = Engine()
        clock = CycleClock(engine, hz=1e9, boot_offset_cycles=1234)
        assert clock.read() == 1234

    def test_roundtrip_ns_cycles(self):
        engine = Engine()
        clock = CycleClock(engine, hz=450e6)
        for ns in (1_000, 123_456, 10 * units.MSEC):
            cycles = clock.cycles_for_ns(ns)
            back = clock.ns_for_cycles(cycles)
            assert abs(back - ns) <= 2  # rounding only

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            CycleClock(Engine(), hz=0)

    def test_different_nodes_have_incomparable_tsc(self):
        engine = Engine()
        a = CycleClock(engine, hz=450e6, boot_offset_cycles=10)
        b = CycleClock(engine, hz=450e6, boot_offset_cycles=999_999)
        assert a.read() != b.read()


class TestUnits:
    def test_constants(self):
        assert units.SEC == 1_000_000_000
        assert units.MSEC == 1_000_000
        assert units.USEC == 1_000


class TestRngHub:
    def test_same_seed_same_streams(self):
        a = RngHub(42).stream("x")
        b = RngHub(42).stream("x")
        assert list(a.integers(1000, size=5)) == list(b.integers(1000, size=5))

    def test_different_names_independent(self):
        hub = RngHub(42)
        a = list(hub.stream("a").integers(1 << 30, size=8))
        b = list(hub.stream("b").integers(1 << 30, size=8))
        assert a != b

    def test_stream_is_cached(self):
        hub = RngHub(1)
        s1 = hub.stream("x")
        s1.integers(10)
        s2 = hub.stream("x")
        assert s1 is s2

    def test_creation_order_does_not_matter(self):
        hub1 = RngHub(9)
        hub1.stream("first")
        v1 = hub1.stream("second").integers(1 << 30)
        hub2 = RngHub(9)
        v2 = hub2.stream("second").integers(1 << 30)
        assert v1 == v2

    def test_fork_derives_independent_hub(self):
        hub = RngHub(5)
        forked = hub.fork("node0")
        assert forked.seed != hub.seed
        # deterministic: same fork twice gives the same seed
        assert hub.fork("node0").seed == forked.seed
