"""Tests for the binary wire format (pack/unpack roundtrips)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import KtauBuildConfig
from repro.core.counters import TaskCounters
from repro.core.measurement import AtomicData, Ktau, PerfData
from repro.core.procfs import KtauProcFS
from repro.core.registry import PointKind
from repro.core.tracebuf import ATOMIC, ENTRY, EXIT, WORDS
from repro.core import wire
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine


def flat(records):
    """Record tuples as the flat words ``pack_trace`` takes."""
    return [word for record in records for word in record]


def build_ktau():
    engine = Engine()
    return engine, Ktau(CycleClock(engine, hz=1e9), KtauBuildConfig(tracing=True))


def advance(engine, ns):
    engine.schedule(ns, lambda: None)
    engine.run_until_idle()


def populated_ktau():
    engine, ktau = build_ktau()
    data = ktau.register_task(10, "app.0")
    pt_outer = ktau.registry.point("sys_writev")
    pt_inner = ktau.registry.point("tcp_sendmsg")
    pt_atomic = ktau.registry.point("net.pkt_tx_bytes", PointKind.ATOMIC)
    data.user_context = "MPI_Send()"
    ktau.entry(data, pt_outer)
    advance(engine, 10)
    ktau.entry(data, pt_inner)
    advance(engine, 20)
    ktau.atomic(data, pt_atomic, 1500)
    ktau.exit(data, pt_inner)
    ktau.exit(data, pt_outer)
    data2 = ktau.register_task(11, "daemon")
    ktau.entry(data2, ktau.registry.point("schedule_vol"))
    advance(engine, 5)
    ktau.exit(data2, ktau.registry.point("schedule_vol"))
    return engine, ktau


class TestProfileRoundtrip:
    def test_roundtrip_preserves_everything(self):
        engine, ktau = populated_ktau()
        packed = wire.pack_profiles(ktau.snapshot(), ktau.registry)
        dumps = wire.unpack_profiles(packed)
        assert set(dumps) == {10, 11}
        d = dumps[10]
        assert d.comm == "app.0"
        assert d.perf["sys_writev"] == (1, 30, 10)
        assert d.perf["tcp_sendmsg"] == (1, 20, 20)
        assert d.atomic["net.pkt_tx_bytes"] == (1, 1500, 1500, 1500)
        assert d.context_pairs[("MPI_Send()", "sys_writev")] == (1, 10)
        assert d.groups["tcp_sendmsg"] == "net"
        assert dumps[11].perf["schedule_vol"][1] == 5

    def test_empty_snapshot(self):
        engine, ktau = build_ktau()
        packed = wire.pack_profiles({}, ktau.registry)
        assert wire.unpack_profiles(packed) == {}

    def test_bad_magic(self):
        with pytest.raises(wire.WireError):
            wire.unpack_profiles(b"XXXX" + b"\0" * 32)

    def test_truncated_buffer(self):
        engine, ktau = populated_ktau()
        packed = wire.pack_profiles(ktau.snapshot(), ktau.registry)
        with pytest.raises(wire.WireError):
            wire.unpack_profiles(packed[: len(packed) // 2])

    def test_too_short_for_header(self):
        with pytest.raises(wire.WireError):
            wire.unpack_profiles(b"KT")


class TestTraceRoundtrip:
    def test_roundtrip(self):
        engine, ktau = populated_ktau()
        data = ktau.tasks[10]
        words = data.trace.drain()
        assert words  # instrumentation above wrote trace records
        packed = wire.pack_trace(10, data.trace.lost_count, words, ktau.registry)
        dump = wire.unpack_trace(packed)
        assert dump.pid == 10
        assert len(dump.records) == len(words) // WORDS
        cycles, name, kind, value = dump.records[0]
        assert name == "sys_writev"
        assert kind == ENTRY
        atomics = [r for r in dump.records if r[2] == ATOMIC]
        assert atomics and atomics[0][3] == 1500

    def test_empty_trace(self):
        engine, ktau = build_ktau()
        packed = wire.pack_trace(1, 0, [], ktau.registry)
        dump = wire.unpack_trace(packed)
        assert dump.records == [] and dump.lost == 0

    def test_bad_trace_magic(self):
        with pytest.raises(wire.WireError):
            wire.unpack_trace(b"NOPE" + b"\0" * 20)

    def test_bad_kind_byte_is_wire_error(self):
        engine, ktau = populated_ktau()
        data = ktau.tasks[10]
        packed = bytearray(wire.pack_trace(10, 0, data.trace.drain(),
                                           ktau.registry))
        packed[wire._TRACE_HDR.size + 12] = 7  # first record's kind byte
        with pytest.raises(wire.WireError, match="bad trace record kind 7"):
            wire.unpack_trace(bytes(packed))

    def test_unmapped_event_id_is_wire_error(self):
        engine, ktau = populated_ktau()
        data = ktau.tasks[10]
        packed = bytearray(wire.pack_trace(10, 0, data.trace.drain(),
                                           ktau.registry))
        packed[wire._TRACE_HDR.size + 8] = 99  # first record's event id
        with pytest.raises(wire.WireError, match="event id 99"):
            wire.unpack_trace(bytes(packed))


#: A name whose UTF-8 form (400 bytes) passes the 255-byte string limit
#: in the middle of a two-byte character.
LONG_NAME = "é" * 200
#: What survives the limit: whole characters only.
CUT_NAME = "é" * 127


class TestLongNames:
    def test_profile_comm_cut_on_character_boundary(self):
        engine, ktau = build_ktau()
        ktau.register_task(4, LONG_NAME)
        packed = wire.pack_profiles(ktau.snapshot(), ktau.registry)
        assert wire.unpack_profiles(packed)[4].comm == CUT_NAME

    def test_trace_name_cut_on_character_boundary(self):
        registry = SimpleNamespace(name_of=lambda event_id: LONG_NAME)
        records = [(5, 0, ENTRY, 0), (9, 0, EXIT, 0)]
        packed = wire.pack_trace(4, 0, flat(records), registry)
        assert wire.trace_size(len(records), [r[1] for r in records],
                               registry) == len(packed)
        dump = wire.unpack_trace(packed)
        assert [rec[1] for rec in dump.records] == [CUT_NAME, CUT_NAME]

    def test_cut_names_stay_within_limit(self):
        for name in ("a" * 300, "é" * 200, "€" * 100, "a" + "€" * 100,
                     "😀" * 70, "ab" + "😀" * 70):
            raw = wire._str_bytes(name)
            assert len(raw) <= 255 and len(raw) > 251
            assert name.startswith(raw.decode("utf-8"))


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(
    st.tuples(st.integers(0, 2**40), st.integers(0, 5),
              st.sampled_from([ENTRY, EXIT, ATOMIC]),
              st.integers(0, 2**30)),
    max_size=50))
def test_property_trace_roundtrip(entries):
    """Any record sequence survives pack/unpack byte-exactly."""
    engine, ktau = build_ktau()
    names = ["sys_read", "sys_write", "schedule", "do_IRQ", "tcp_v4_rcv",
             "do_softirq"]
    for name in names:
        ktau.registry.bind(ktau.registry.point(name))
    packed = wire.pack_trace(3, 7, flat(entries), ktau.registry)
    dump = wire.unpack_trace(packed)
    assert dump.lost == 7
    assert dump.records == [(cycles, names[event_id], kind, value)
                            for cycles, event_id, kind, value in entries]


#: Strings for the profile's string fields: short ones, and ones whose
#: UTF-8 form passes the 255-byte limit, multibyte characters included.
wire_strings = st.one_of(st.text(max_size=6),
                         st.text(alphabet="aé€😀", min_size=64, max_size=300))
u64s = st.integers(0, 2**64 - 1)
event_ids = st.integers(0, 40)
task_specs = st.fixed_dictionaries({
    "comm": wire_strings,
    "perf": st.dictionaries(event_ids, st.tuples(u64s, u64s, u64s),
                            max_size=4),
    "atomic": st.dictionaries(event_ids, st.lists(st.integers(0, 2**40),
                                                  min_size=1, max_size=3),
                              max_size=3),
    "pairs": st.dictionaries(st.tuples(wire_strings, event_ids),
                             st.lists(u64s, min_size=2, max_size=2),
                             max_size=4),
    "counter_profile": st.dictionaries(event_ids,
                                       st.lists(u64s, min_size=6, max_size=6),
                                       max_size=3),
    "edges": st.dictionaries(st.tuples(wire_strings, event_ids),
                             st.lists(u64s, min_size=2, max_size=2),
                             max_size=4),
    "counters": st.booleans(),
    "zombie": st.booleans(),
})


@settings(max_examples=60, deadline=None)
@given(mapping=st.lists(st.tuples(wire_strings, wire_strings), max_size=5),
       specs=st.lists(task_specs, max_size=4))
def test_property_profile_size_is_packed_length(mapping, specs):
    """``/proc/ktau/profile``'s size call, which counts without packing,
    equals the length of the buffer the read call packs, for live tasks
    and zombies alike."""
    engine, ktau = build_ktau()
    ktau.registry = SimpleNamespace(mapping_table=lambda: [
        (event_id, name, group)
        for event_id, (name, group) in enumerate(mapping)])
    for pid, spec in enumerate(specs, 1):
        data = ktau.register_task(pid, spec["comm"])
        for event_id, (count, incl, excl) in spec["perf"].items():
            perf = data.profile[event_id] = PerfData()
            perf.count, perf.incl_cycles, perf.excl_cycles = count, incl, excl
        for event_id, values in spec["atomic"].items():
            stats = data.atomic[event_id] = AtomicData()
            for value in values:
                stats.record(value)
        data.context_pairs.update(spec["pairs"])
        data.counter_profile.update(spec["counter_profile"])
        data.callgraph.update(spec["edges"])
        if spec["counters"]:
            data.counters = TaskCounters()
            data.counters.advance(12_345, True)
        if spec["zombie"]:
            ktau.on_task_exit(pid)
    procfs = KtauProcFS(ktau)
    for zombies in (False, True):
        snap = ktau.snapshot(include_zombies=zombies)
        packed = wire.pack_profiles(snap, ktau.registry)
        assert wire.profile_size(snap, ktau.registry) == len(packed)
        assert procfs.profile_size(include_zombies=zombies) == len(packed)
