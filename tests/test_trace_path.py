"""Differential oracle for the block trace path.

The reference functions below are the per-record trace path the block
path replaced: ``pack_trace`` packing one ``struct`` record at a time,
``unpack_trace`` decoding one record at a time and range-checking each
kind,
``merge_traces`` sorting with a Python key function, ``extract_waits``
scanning the kernel stack on every entry and exit, and
``_blocker_activity`` testing every interval of the blocking rank for
overlap.  The new path must give identical bytes, records, merged
timelines, wait intervals and blocker choices: on hypothesis-generated
traces with same-stamp entry/exit ties, orphan exits, exits that skip
frames, unclosed entries and nested IRQ roots; on random interval sets;
and at every stage of a small traced LU run.  ``trace_size`` must equal
the length of the packed drain on random rings, wrapped ones included,
and the harvest must free each rank's merged timeline before it merges
the next rank's.
"""

import gc
import struct
import weakref
from array import array
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.analysis.bottlenecks import harvest as harvest_mod
from repro.analysis.bottlenecks import report as report_mod
from repro.analysis.bottlenecks.report import _blocker_activity, _index_intervals
from repro.analysis.bottlenecks.waits import (IRQ_PREEMPTION, PREEMPTION,
                                              TCP_RECV_STALL, VOLUNTARY_WAIT,
                                              WaitInterval, _to_global_ns,
                                              extract_waits)
from repro.analysis.tracemerge import merge_traces
from repro.core import wire
from repro.core.config import KtauBuildConfig
from repro.core.measurement import Ktau
from repro.core.procfs import KtauProcFS
from repro.core.registry import PointKind
from repro.core.tracebuf import ATOMIC, ENTRY, EXIT, WORDS
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine

KERNEL_NAMES = ("do_IRQ", "do_softirq", "smp_apic_timer_interrupt",
                "schedule", "schedule_vol", "sys_readv", "sock_recvmsg",
                "tcp_recvmsg")
ATOMIC_NAME = "net.pkt_rx_bytes"
USER_NAMES = ("main()", "MPI_Recv()", "MPI_Send()")
WAIT_KINDS = (TCP_RECV_STALL, VOLUNTARY_WAIT, PREEMPTION, IRQ_PREEMPTION)


# ----------------------------------------------------------------------
# Reference implementations (the per-record path)
# ----------------------------------------------------------------------
_HDR = struct.Struct("<4sHIQI")
_REC = struct.Struct("<QIBQ")
_U32 = struct.Struct("<I")


def ref_pack_trace(pid, lost, records, registry):
    """Pack one record at a time."""
    out = bytearray(_HDR.pack(b"KTRC", wire.VERSION, pid, lost, len(records)))
    used = set()
    for cycles, event_id, kind, value in records:
        out.extend(_REC.pack(cycles, event_id, kind, value))
        used.add(event_id)
    out.extend(_U32.pack(len(used)))
    for event_id in sorted(used):
        out.extend(_U32.pack(event_id))
        raw = registry.name_of(event_id).encode("utf-8")
        out.append(len(raw))
        out.extend(raw)
    return bytes(out)


def ref_unpack_trace(buf):
    """Decode one record at a time (well-formed buffers only)."""
    _magic, _version, pid, lost, nrec = _HDR.unpack_from(buf, 0)
    off = _HDR.size
    raw = []
    for _ in range(nrec):
        raw.append(_REC.unpack_from(buf, off))
        off += _REC.size
    (nmap,) = _U32.unpack_from(buf, off)
    off += _U32.size
    names = {}
    for _ in range(nmap):
        (event_id,) = _U32.unpack_from(buf, off)
        n = buf[off + 4]
        names[event_id] = buf[off + 5:off + 5 + n].decode("utf-8")
        off += 5 + n
    records = []
    for cycles, event_id, kind, value in raw:
        if kind not in (ENTRY, EXIT, ATOMIC):
            raise ValueError(f"bad trace kind {kind}")
        records.append((cycles, names[event_id], kind, value))
    return wire.TraceDump(pid=pid, lost=lost, records=records)


def _ref_tie_rank(event):
    _cycles, _name, layer, is_entry, _value, _atomic = event
    if is_entry:
        return 2 if layer == "user" else 3
    return 0 if layer == "kernel" else 1


def ref_merge_traces(udump, ktrace):
    """Concatenate, then stable-sort with a Python key function."""
    events = [(cycles, name, "user", is_entry, 0, False)
              for cycles, name, is_entry in udump.trace]
    for cycles, name, kind, value in ktrace.records:
        events.append((cycles, name, "kernel", kind == ENTRY, value,
                       kind == ATOMIC))
    events.sort(key=lambda e: (e[0], _ref_tie_rank(e)))
    return events


def ref_extract_waits(merged, *, rank, node, pid, hz, boot_offset_cycles=0):
    """Scan the whole kernel stack on every entry and exit."""
    waits = []
    user_stack = []
    kernel_stack = []
    for ev_cycles, ev_name, layer, is_entry, _value, _atomic in merged:
        if layer == "user":
            if is_entry:
                user_stack.append(ev_name)
            elif user_stack and user_stack[-1] == ev_name:
                user_stack.pop()
            elif ev_name in user_stack:
                while user_stack and user_stack[-1] != ev_name:
                    user_stack.pop()
                if user_stack:
                    user_stack.pop()
            continue
        if is_entry:
            irq_root = (ev_name in ("do_IRQ", "do_softirq",
                                    "smp_apic_timer_interrupt")
                        and not any(f[3] for f in kernel_stack))
            uctx = user_stack[-1] if user_stack else ""
            kernel_stack.append((ev_name, ev_cycles, uctx, irq_root))
            continue
        if not any(f[0] == ev_name for f in kernel_stack):
            continue
        while kernel_stack and kernel_stack[-1][0] != ev_name:
            kernel_stack.pop()
        name, start_cycles, uctx, irq_root = kernel_stack.pop()
        path = ">".join([f[0] for f in kernel_stack] + [name])
        enclosing = [f[0] for f in kernel_stack]
        kind = None
        if name == "schedule_vol":
            kind = (TCP_RECV_STALL if "tcp_recvmsg" in enclosing
                    else VOLUNTARY_WAIT)
        elif name == "schedule":
            kind = PREEMPTION
        elif irq_root:
            kind = IRQ_PREEMPTION
        if kind is None:
            continue
        start_ns = _to_global_ns(start_cycles, hz, boot_offset_cycles)
        end_ns = _to_global_ns(ev_cycles, hz, boot_offset_cycles)
        if end_ns <= start_ns:
            continue
        waits.append(WaitInterval(rank=rank, node=node, pid=pid, kind=kind,
                                  start_ns=start_ns, end_ns=end_ns,
                                  kernel_path=path, user_context=uctx))
    return waits


def ref_blocker_activity(wait, blocker_waits):
    """Test every blocker interval for overlap with ``wait``."""
    totals = {"preempted": 0, "waiting": 0}
    best = {}
    for bw in blocker_waits:
        ov = max(0, min(wait.end_ns, bw.end_ns)
                 - max(wait.start_ns, bw.start_ns))
        if ov <= 0:
            continue
        state = ("preempted" if bw.kind in (PREEMPTION, IRQ_PREEMPTION)
                 else "waiting")
        totals[state] += ov
        key = (-ov, bw.start_ns, bw.kernel_path)
        if state not in best or key < best[state][0]:
            best[state] = (key, bw)
    compute_ns = max(0, wait.end_ns - wait.start_ns
                     - totals["preempted"] - totals["waiting"])
    ranked = sorted(
        ((-(totals.get(state, 0) if state != "computing" else compute_ns),
          idx, state)
         for idx, state in enumerate(("preempted", "waiting", "computing"))))
    state = ranked[0][2]
    if state == "computing":
        return state, report_mod.COMPUTE_PATH, None
    chosen = best[state][1]
    return state, chosen.kernel_path, chosen


def assert_same_activity(new, ref):
    assert new[:2] == ref[:2]
    assert new[2] is ref[2]  # the very same interval, not an equal one


# ----------------------------------------------------------------------
# Generated traces
# ----------------------------------------------------------------------
@st.composite
def kernel_streams(draw):
    """Kernel (name, kind, value) records with non-decreasing stamps.

    Steps of 0 give same-stamp ties and zero-length spans; ``deep`` exits
    close a frame below the top (the frames above lost their exits);
    ``orphan`` exits close nothing; the stack left at the end stays open;
    dropping a prefix models a wrapped ring.
    """
    t = draw(st.integers(0, 1_000))
    stack: list[str] = []
    out = []
    for _ in range(draw(st.integers(0, 60))):
        t += draw(st.sampled_from((0, 0, 1, 7, 40, 300)))
        op = draw(st.sampled_from(("enter", "enter", "enter", "exit", "exit",
                                   "deep", "orphan", "atomic")))
        if op == "enter":
            name = draw(st.sampled_from(KERNEL_NAMES))
            stack.append(name)
            out.append((t, name, ENTRY, 0))
        elif op == "exit" and stack:
            out.append((t, stack.pop(), EXIT, 0))
        elif op == "deep" and stack:
            i = draw(st.integers(0, len(stack) - 1))
            out.append((t, stack[i], EXIT, 0))
            del stack[i:]
        elif op == "atomic":
            out.append((t, ATOMIC_NAME, ATOMIC,
                        draw(st.integers(0, 2**40))))
        else:
            out.append((t, draw(st.sampled_from(KERNEL_NAMES)),
                        EXIT, 0))
    return out[draw(st.integers(0, len(out))):]


@st.composite
def user_streams(draw):
    """User (cycles, routine, is_entry) records, some exits mismatched."""
    t = draw(st.integers(0, 1_000))
    out = []
    for _ in range(draw(st.integers(0, 20))):
        t += draw(st.sampled_from((0, 0, 5, 120, 900)))
        out.append((t, draw(st.sampled_from(USER_NAMES)), draw(st.booleans())))
    return out


def registry_with_ids():
    ktau = Ktau(CycleClock(Engine(), hz=1e9), KtauBuildConfig(tracing=True))
    reg = ktau.registry
    ids = {name: reg.bind(reg.point(name)) for name in KERNEL_NAMES}
    ids[ATOMIC_NAME] = reg.bind(reg.point(ATOMIC_NAME, PointKind.ATOMIC))
    return reg, ids


@settings(max_examples=300, deadline=None)
@given(kernel=kernel_streams(), user=user_streams(),
       lost=st.integers(0, 2**40), hz=st.sampled_from((107e6, 450e6, 1e9)),
       boot=st.integers(0, 5_000))
def test_block_path_matches_per_record_path(kernel, user, lost, hz, boot):
    reg, ids = registry_with_ids()
    records = [(c, ids[name], kind, v) for c, name, kind, v in kernel]
    words = array("Q", [word for record in records for word in record])
    packed = wire.pack_trace(42, lost, words, reg)
    assert packed == ref_pack_trace(42, lost, records, reg)
    assert wire.trace_size(len(records), words[1::WORDS], reg) == len(packed)

    kdump = wire.unpack_trace(packed)
    assert kdump == ref_unpack_trace(packed)
    assert all(type(rec[2]) is int for rec in kdump.records)

    udump = SimpleNamespace(trace=user)
    merged = merge_traces(udump, kdump)
    assert merged == ref_merge_traces(udump, kdump)
    assert all(type(ev) is tuple for ev in merged)

    kw = dict(rank=3, node="ccn003", pid=42, hz=hz, boot_offset_cycles=boot)
    waits = extract_waits(merged, **kw)
    assert waits == ref_extract_waits(merged, **kw)

    index = _index_intervals(waits)
    for wait in waits:
        assert_same_activity(_blocker_activity(wait, index),
                             ref_blocker_activity(wait, waits))


@settings(max_examples=300, deadline=None)
@given(intervals=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 30),
                                    st.sampled_from(WAIT_KINDS),
                                    st.sampled_from(("a", "a>b", "c"))),
                          max_size=25),
       queries=st.lists(st.tuples(st.integers(0, 90), st.integers(1, 40)),
                        min_size=1, max_size=8))
def test_blocker_scan_matches_full_scan(intervals, queries):
    """Random interval sets: shared starts, equal overlaps, equal paths."""
    blocker = [WaitInterval(rank=1, node="n1", pid=2, kind=kind,
                            start_ns=start, end_ns=start + length,
                            kernel_path=path, user_context="")
               for start, length, kind, path in intervals]
    index = _index_intervals(blocker)
    for start, length in queries:
        wait = WaitInterval(rank=0, node="n0", pid=1, kind=TCP_RECV_STALL,
                            start_ns=start, end_ns=start + length,
                            kernel_path="tcp_recvmsg>schedule_vol",
                            user_context="")
        assert_same_activity(_blocker_activity(wait, index),
                             ref_blocker_activity(wait, blocker))


# ----------------------------------------------------------------------
# trace_size against the packed drain
# ----------------------------------------------------------------------
def fill_ring(capacity: int, ops: list[tuple[str, int]]):
    """A traced task whose ring saw ``ops``; returns (procfs, task data)."""
    ktau = Ktau(CycleClock(Engine(), hz=1e9),
                KtauBuildConfig(tracing=True).with_tracing(capacity))
    data = ktau.register_task(5, "ring")
    reg = ktau.registry
    atomic = reg.point(ATOMIC_NAME, PointKind.ATOMIC)
    stack: list[str] = []
    for t, (op, arg) in enumerate(ops):
        if op == "enter":
            name = KERNEL_NAMES[arg % len(KERNEL_NAMES)]
            ktau.entry(data, reg.point(name), at_cycles=t)
            stack.append(name)
        elif op == "exit" and stack:
            ktau.exit(data, reg.point(stack.pop()), at_cycles=t)
        elif op == "atomic":
            ktau.atomic(data, atomic, arg, at_cycles=t)
    return KtauProcFS(ktau), data


RING_OPS = st.lists(st.tuples(st.sampled_from(("enter", "exit", "atomic")),
                              st.integers(0, 1_000)), max_size=120)


@settings(max_examples=100, deadline=None)
@given(capacity=st.integers(1, 40), ops=RING_OPS, more=RING_OPS)
def test_trace_size_is_packed_drain_length(capacity, ops, more):
    proc, data = fill_ring(capacity, ops)
    size = proc.trace_size(5)
    packed, full = proc.trace_read(5, 1 << 20)
    assert size == full == len(packed)
    assert wire.unpack_trace(packed).lost == data.trace.lost_count
    assert proc.trace_size(5) == len(proc.trace_read(5, 1 << 20)[0])


def test_trace_size_on_wrapped_ring():
    proc, data = fill_ring(8, [("enter", i) if i % 3 else ("atomic", i)
                               for i in range(50)])
    assert data.trace.lost_count > 0
    size = proc.trace_size(5)
    packed, _full = proc.trace_read(5, 1 << 20)
    assert size == len(packed)
    assert len(wire.unpack_trace(packed).records) == 8


# ----------------------------------------------------------------------
# Every stage of a traced LU run
# ----------------------------------------------------------------------
def test_traced_lu_run_matches_per_record_path(monkeypatch):
    from repro.experiments.bottleneck import run_bottleneck_lu

    checked = {"drains": 0, "merges": 0, "ranks": 0, "blockers": 0}
    rank_waits: dict[int, list[WaitInterval]] = {}

    real_read = KtauProcFS.trace_read

    def trace_read(self, pid, bufsize):
        data = self._task_data(pid)
        records = data.trace.peek()
        size = self.trace_size(pid)
        packed, full = real_read(self, pid, bufsize)
        assert packed == ref_pack_trace(pid, data.trace.lost_count, records,
                                        self._ktau.registry)
        assert size == full == len(packed)
        assert wire.unpack_trace(packed) == ref_unpack_trace(packed)
        checked["drains"] += 1
        return packed, full

    def merge(udump, ktrace):
        merged = merge_traces(udump, ktrace)
        assert merged == ref_merge_traces(udump, ktrace)
        checked["merges"] += 1
        return merged

    def waits_of(merged, **kw):
        waits = extract_waits(merged, **kw)
        assert waits == ref_extract_waits(merged, **kw)
        rank_waits[kw["rank"]] = waits
        checked["ranks"] += 1
        return waits

    def activity(wait, blocker):
        got = _blocker_activity(wait, blocker)
        original = (rank_waits[blocker.waits[0].rank] if blocker.waits
                    else [])
        assert sorted(map(id, original)) == sorted(map(id, blocker.waits))
        assert_same_activity(got, ref_blocker_activity(wait, original))
        checked["blockers"] += 1
        return got

    monkeypatch.setattr(KtauProcFS, "trace_read", trace_read)
    monkeypatch.setattr(harvest_mod, "merge_traces", merge)
    monkeypatch.setattr(harvest_mod, "extract_waits", waits_of)
    monkeypatch.setattr(report_mod, "_blocker_activity", activity)
    result = run_bottleneck_lu(seed=1)
    assert checked["drains"] == checked["merges"] == checked["ranks"] == 8
    assert checked["blockers"] > 0
    assert result.report.total_waits == sum(map(len, rank_waits.values()))


def test_harvest_holds_one_timeline_at_a_time(monkeypatch):
    """Each rank's merged timeline is reduced to its waits and freed
    before the next rank's merge starts, so the harvest never holds more
    than one rank's timeline."""
    from repro.experiments.bottleneck import run_bottleneck_lu

    class Timeline(list):
        """A merged timeline a weak reference can watch."""

    timelines: list[weakref.ref] = []

    def merge(udump, ktrace):
        assert [ref() for ref in timelines] == [None] * len(timelines)
        timeline = Timeline(merge_traces(udump, ktrace))
        timelines.append(weakref.ref(timeline))
        return timeline

    monkeypatch.setattr(harvest_mod, "merge_traces", merge)
    run_bottleneck_lu(seed=1)
    assert len(timelines) == 8
    assert [ref() for ref in timelines] == [None] * 8


# ----------------------------------------------------------------------
# Records the cyclic collector never walks
# ----------------------------------------------------------------------
def test_trace_records_are_untracked_int_tuples():
    """The ring holds its records as words in one array, with no object
    per record; the records ``peek`` yields, the unpacked records and
    the merged rows are exact tuples of ints, strs and bools, with plain
    int kinds, so after a collection CPython tracks none of them and a
    long trace adds nothing to the collector's full passes."""
    from repro.cluster.launch import block_placement, launch_mpi_job
    from repro.cluster.machines import make_chiba
    from repro.core.libktau import LibKtau
    from repro.sim.units import MSEC
    from repro.workloads.lu import LuParams, lu_app

    params = LuParams(niters=2, iter_compute_ns=4 * MSEC, halo_bytes=8192,
                      sweep_msg_bytes=2048, inorm=1)
    cluster = make_chiba(nnodes=2, seed=3,
                         ktau=KtauBuildConfig.full(tracing=True))
    job = launch_mpi_job(cluster, 2, lu_app(params),
                         placement=block_placement(1, 2), tau_tracing=True)
    job.run(limit_s=600)
    node, task = job.world.rank_nodes[0], job.world.rank_tasks[0]
    trace = node.kernel.ktau.zombies[task.pid].trace
    storage = dict(vars(trace))
    ring = trace.peek()
    kdump = LibKtau(node.kernel.ktau_proc).read_trace(task.pid)
    merged = merge_traces(job.profilers[0].dump(), kdump)
    cluster.teardown()
    gc.collect()

    assert {type(v) for v in storage.values()} == {int, bool, array}
    (words,) = [v for v in storage.values() if type(v) is array]
    assert words.typecode == "Q" and len(words) == WORDS * len(ring)
    assert ring and len(kdump.records) == len(ring)
    assert len(merged) > len(ring)  # the user trace is in it too
    for rows in (ring, kdump.records, merged):
        assert not any(map(gc.is_tracked, rows))
    assert all(type(rec) is tuple and len(rec) == WORDS
               and {type(word) for word in rec} == {int} for rec in ring)
    kinds = [rec[2] for rec in ring + kdump.records]
    assert {type(kind) for kind in kinds} == {int}
    assert set(kinds) == {ENTRY, EXIT, ATOMIC}
    assert all(type(row) is tuple for row in merged)
