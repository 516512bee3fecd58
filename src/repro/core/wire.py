"""Binary wire format for /proc/ktau data.

libKtau's documented responsibilities include "data conversion (ASCII
to/from binary)"; the kernel side hands out packed binary buffers and the
user library decodes them.  We reproduce that split: :func:`pack_profiles`
runs on the kernel side of the proc interface, :func:`unpack_profiles` in
libKtau.  The format embeds the node's event-mapping table so that decoded
profiles are keyed by event *name* (numeric IDs are node-local and bind in
first-arrival order).

Layout (little-endian)::

    header:  4s magic 'KTAU' | H version | H flags | I ntasks | I nmap
    map[nmap]:   I id | B len | name | B len | group
    task[ntasks]:
        I pid | B len | comm
        I nperf   | nperf   * (I id | Q count | Q incl | Q excl)
        I natomic | natomic * (I id | Q count | Q sum | Q min | Q max)
        I nctx    | nctx    * (B len | ctx | I id | Q count | Q excl)
        I ncnt    | ncnt    * (I id | Q count | Q cycles | Q insn
                               | Q l2miss | Q minflt | Q majflt)
        I nedge   | nedge   * (B len | parent | I id | Q count | Q incl)
        B has_pmc | has_pmc * (Q cycles | Q insn | Q l2miss
                               | Q minflt | Q majflt)

(The counter and call-graph sections are the §6 extensions; they are
always present and simply empty when the corresponding build options
are off.  Version 3 widened the counter entries from (insn, l2) to the
full five-dimensional PMC vector and appended the per-task lifetime PMC
block — the task's raw counter register values at pack time, which let
user-space compute rates over *all* executed cycles, not only the
kernel spans bracketed by instrumentation.  Header flag bit 0x1 records
whether any task in the snapshot carries counters.)

Trace buffers use a separate, simpler layout::

    4s magic 'KTRC' | H version | I pid | Q lost | I nrec
    rec[nrec]: Q cycles | I id | B kind | Q value
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.measurement import KtauTaskData
from repro.core.registry import EventRegistry
from repro.core.tracebuf import ATOMIC, WORDS

MAGIC_PROFILE = b"KTAU"
MAGIC_TRACE = b"KTRC"
VERSION = 3

#: Header flag bit: at least one task in this snapshot has PMC data.
FLAG_COUNTERS = 0x1

_HDR = struct.Struct("<4sHHII")
_MAP_ENTRY = struct.Struct("<I")
_PERF_ENTRY = struct.Struct("<IQQQ")
_ATOMIC_ENTRY = struct.Struct("<IQQQQ")
_CTX_FIXED = struct.Struct("<IQQ")
_COUNTER_ENTRY = struct.Struct("<IQQQQQQ")
_PMC_BLOCK = struct.Struct("<QQQQQ")
_EDGE_FIXED = struct.Struct("<IQQ")
_TASK_FIXED = struct.Struct("<I")
_U32 = struct.Struct("<I")
_TRACE_HDR = struct.Struct("<4sHIQI")
_TRACE_REC = struct.Struct("<QIBQ")
#: Offset of the kind byte in a packed trace record: the size of the
#: ``cycles`` and ``event_id`` fields that precede it in ``_TRACE_REC``.
_KIND_OFFSET = struct.calcsize(_TRACE_REC.format[:3])
#: ``_TRACE_REC`` as a numpy record type, to pack a whole drain at once.
_TRACE_DTYPE = np.dtype([("cycles", "<u8"), ("event_id", "<u4"),
                         ("kind", "u1"), ("value", "<u8")])
assert _TRACE_DTYPE.itemsize == _TRACE_REC.size

#: Packed bytes per trace record and per profile-section entry, for
#: clients that cost an extraction by its volume.
TRACE_RECORD_SIZE = _TRACE_REC.size
PERF_ENTRY_SIZE = _PERF_ENTRY.size
ATOMIC_ENTRY_SIZE = _ATOMIC_ENTRY.size
COUNTER_ENTRY_SIZE = _COUNTER_ENTRY.size
#: A task's lifetime PMC block plus its presence byte.
PMC_BLOCK_SIZE = _PMC_BLOCK.size + 1


class WireError(ValueError):
    """Raised by unpackers on malformed or truncated buffers."""


def _str_bytes(s: str) -> bytes:
    """``s`` in UTF-8, cut to at most 255 bytes on a character boundary."""
    raw = s.encode("utf-8")
    if len(raw) > 255:
        cut = 255
        while (raw[cut] & 0xC0) == 0x80:  # the cut would split a character
            cut -= 1
        raw = raw[:cut]
    return raw


def _pack_str(out: bytearray, s: str) -> None:
    raw = _str_bytes(s)
    out.append(len(raw))
    out.extend(raw)


def _unpack_str(buf: bytes, off: int) -> tuple[str, int]:
    if off >= len(buf):
        raise WireError("truncated string length")
    n = buf[off]
    off += 1
    if off + n > len(buf):
        raise WireError("truncated string body")
    try:
        return buf[off:off + n].decode("utf-8"), off + n
    except UnicodeDecodeError as exc:
        raise WireError(f"string is not UTF-8: {exc.reason}") from None


# ---------------------------------------------------------------------------
# Decoded (user-space) representations
# ---------------------------------------------------------------------------
@dataclass
class TaskProfileDump:
    """A decoded per-task profile, keyed by event name."""

    pid: int
    comm: str
    #: event name -> (count, inclusive cycles, exclusive cycles)
    perf: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    #: event name -> (count, sum, min, max)
    atomic: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)
    #: (user context, event name) -> (count, exclusive cycles)
    context_pairs: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)
    #: event name -> group name (from the embedded mapping table)
    groups: dict[str, str] = field(default_factory=dict)
    #: event name -> (count, inclusive cycles, instructions, L2 misses,
    #: minor faults, major faults) — all inclusive deltas
    counters: dict[str, tuple[int, int, int, int, int, int]] = field(default_factory=dict)
    #: (parent key, event name) -> (count, inclusive cycles); parent key
    #: is "K:<event>", "U:<routine>", or "" for a root activation
    edges: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)
    #: lifetime PMC totals at pack time — (cycles, instructions,
    #: L2 misses, minor faults, major faults); None when the counters
    #: build option is off for this task
    pmc: tuple[int, int, int, int, int] | None = None


@dataclass
class TraceDump:
    """A decoded per-task trace buffer."""

    pid: int
    lost: int
    #: (cycles, event name, kind, value), with ``kind`` a plain int
    #: (:data:`~repro.core.tracebuf.ENTRY`, ``EXIT`` or ``ATOMIC``)
    records: list[tuple[int, str, int, int]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Kernel-side packing
# ---------------------------------------------------------------------------
def pack_profiles(tasks: dict[int, KtauTaskData], registry: EventRegistry) -> bytes:
    """Serialise a profile snapshot plus the event-mapping table."""
    out = bytearray()
    mapping = registry.mapping_table()
    flags = 0
    for data in tasks.values():
        if data.counters is not None:
            flags |= FLAG_COUNTERS
            break
    out.extend(_HDR.pack(MAGIC_PROFILE, VERSION, flags, len(tasks), len(mapping)))
    for event_id, name, group in mapping:
        out.extend(_MAP_ENTRY.pack(event_id))
        _pack_str(out, name)
        _pack_str(out, group)
    for pid in sorted(tasks):
        data = tasks[pid]
        out.extend(_TASK_FIXED.pack(pid))
        _pack_str(out, data.comm)
        out.extend(_U32.pack(len(data.profile)))
        for event_id in sorted(data.profile):
            perf = data.profile[event_id]
            out.extend(_PERF_ENTRY.pack(event_id, perf.count, perf.incl_cycles,
                                        perf.excl_cycles))
        out.extend(_U32.pack(len(data.atomic)))
        for event_id in sorted(data.atomic):
            stats = data.atomic[event_id]
            out.extend(_ATOMIC_ENTRY.pack(event_id, *stats.as_tuple()))
        out.extend(_U32.pack(len(data.context_pairs)))
        for (ctx, event_id) in sorted(data.context_pairs):
            count, excl = data.context_pairs[(ctx, event_id)]
            _pack_str(out, ctx)
            out.extend(_CTX_FIXED.pack(event_id, count, excl))
        out.extend(_U32.pack(len(data.counter_profile)))
        for event_id in sorted(data.counter_profile):
            count, cycles, insn, l2, minflt, majflt = data.counter_profile[event_id]
            out.extend(_COUNTER_ENTRY.pack(event_id, count, cycles, insn, l2,
                                           minflt, majflt))
        out.extend(_U32.pack(len(data.callgraph)))
        for (parent, event_id) in sorted(data.callgraph):
            count, incl = data.callgraph[(parent, event_id)]
            _pack_str(out, parent)
            out.extend(_EDGE_FIXED.pack(event_id, count, incl))
        if data.counters is not None:
            out.append(1)
            out.extend(_PMC_BLOCK.pack(*data.counters.read()))
        else:
            out.append(0)
    return bytes(out)


def profile_size(tasks: dict[int, KtauTaskData], registry: EventRegistry) -> int:
    """Length of :func:`pack_profiles`'s buffer for the same snapshot,
    without packing.

    Fixed-size header, entries and section counts, plus every string's
    length byte and its bytes as :func:`pack_profiles` cuts them.
    """
    cut: dict[str, int] = {}

    def strlen(s: str) -> int:
        n = cut.get(s)
        if n is None:
            n = cut[s] = 1 + len(_str_bytes(s))
        return n

    size = _HDR.size
    for _event_id, name, group in registry.mapping_table():
        size += _MAP_ENTRY.size + strlen(name) + strlen(group)
    for data in tasks.values():
        size += (_TASK_FIXED.size + strlen(data.comm) + 5 * _U32.size
                 + len(data.profile) * _PERF_ENTRY.size
                 + len(data.atomic) * _ATOMIC_ENTRY.size
                 + len(data.context_pairs) * _CTX_FIXED.size
                 + len(data.counter_profile) * _COUNTER_ENTRY.size
                 + len(data.callgraph) * _EDGE_FIXED.size
                 + (PMC_BLOCK_SIZE if data.counters is not None else 1))
        size += sum(strlen(ctx) for ctx, _ in data.context_pairs)
        size += sum(strlen(parent) for parent, _ in data.callgraph)
    return size


def pack_trace(pid: int, lost: int, words: Sequence[int],
               registry: EventRegistry) -> bytes:
    """Serialise a drained trace buffer (mapping shipped as a side table).

    ``words`` are the drained records' words, four per record in
    wire-field order (:meth:`repro.core.tracebuf.TraceBuffer.drain`);
    they are packed column by column, with no object per record.  The
    trace format references events by ID; a compact mapping table is
    appended after the records (id/name pairs for the IDs actually used).
    """
    table = np.asarray(words, dtype=np.uint64).reshape(-1, WORDS)
    block = np.empty(len(table), _TRACE_DTYPE)
    for column, name in enumerate(_TRACE_DTYPE.names):
        block[name] = table[:, column]
    out = bytearray(_TRACE_HDR.pack(MAGIC_TRACE, VERSION, pid, lost, len(table)))
    out += block.tobytes()
    used = np.unique(table[:, 1]).tolist()
    out += _U32.pack(len(used))
    for event_id in used:
        out += _MAP_ENTRY.pack(event_id)
        _pack_str(out, registry.name_of(event_id))
    return bytes(out)


def trace_size(nrec: int, event_ids: Iterable[int],
               registry: EventRegistry) -> int:
    """Length of :func:`pack_trace`'s buffer for ``nrec`` records whose
    event IDs are ``event_ids``, without packing.

    Header, fixed-size record block and mapping count, plus one mapping
    entry per used event ID with its name as :func:`pack_trace` cuts it.
    """
    names = sum(_MAP_ENTRY.size + 1 + len(_str_bytes(registry.name_of(event_id)))
                for event_id in sorted(set(event_ids)))
    return _TRACE_HDR.size + nrec * _TRACE_REC.size + _U32.size + names


# ---------------------------------------------------------------------------
# User-side unpacking (libKtau)
# ---------------------------------------------------------------------------
def unpack_profiles(buf: bytes) -> dict[int, TaskProfileDump]:
    """Decode a profile buffer into name-keyed per-task dumps."""
    if len(buf) < _HDR.size:
        raise WireError("buffer shorter than header")
    magic, version, _flags, ntasks, nmap = _HDR.unpack_from(buf, 0)
    if magic != MAGIC_PROFILE:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported version {version}")
    off = _HDR.size
    names: dict[int, str] = {}
    groups: dict[int, str] = {}
    for _ in range(nmap):
        if off + _MAP_ENTRY.size > len(buf):
            raise WireError("truncated mapping table")
        (event_id,) = _MAP_ENTRY.unpack_from(buf, off)
        off += _MAP_ENTRY.size
        name, off = _unpack_str(buf, off)
        group, off = _unpack_str(buf, off)
        names[event_id] = name
        groups[event_id] = group

    def name_of(event_id: int) -> str:
        try:
            return names[event_id]
        except KeyError:
            raise WireError(f"event id {event_id} missing from mapping table") from None

    dumps: dict[int, TaskProfileDump] = {}
    for _ in range(ntasks):
        if off + _TASK_FIXED.size > len(buf):
            raise WireError("truncated task header")
        (pid,) = _TASK_FIXED.unpack_from(buf, off)
        off += _TASK_FIXED.size
        comm, off = _unpack_str(buf, off)
        dump = TaskProfileDump(pid=pid, comm=comm)
        if off + _U32.size > len(buf):
            raise WireError("truncated perf count")
        (nperf,) = _U32.unpack_from(buf, off)
        off += _U32.size
        for _ in range(nperf):
            if off + _PERF_ENTRY.size > len(buf):
                raise WireError("truncated perf entry")
            event_id, count, incl, excl = _PERF_ENTRY.unpack_from(buf, off)
            off += _PERF_ENTRY.size
            name = name_of(event_id)
            dump.perf[name] = (count, incl, excl)
            dump.groups[name] = groups.get(event_id, "")
        if off + _U32.size > len(buf):
            raise WireError("truncated atomic count")
        (natomic,) = _U32.unpack_from(buf, off)
        off += _U32.size
        for _ in range(natomic):
            if off + _ATOMIC_ENTRY.size > len(buf):
                raise WireError("truncated atomic entry")
            event_id, count, total, mn, mx = _ATOMIC_ENTRY.unpack_from(buf, off)
            off += _ATOMIC_ENTRY.size
            name = name_of(event_id)
            dump.atomic[name] = (count, total, mn, mx)
            dump.groups[name] = groups.get(event_id, "")
        if off + _U32.size > len(buf):
            raise WireError("truncated context count")
        (nctx,) = _U32.unpack_from(buf, off)
        off += _U32.size
        for _ in range(nctx):
            ctx, off = _unpack_str(buf, off)
            if off + _CTX_FIXED.size > len(buf):
                raise WireError("truncated context entry")
            event_id, count, excl = _CTX_FIXED.unpack_from(buf, off)
            off += _CTX_FIXED.size
            dump.context_pairs[(ctx, name_of(event_id))] = (count, excl)
        if off + _U32.size > len(buf):
            raise WireError("truncated counter count")
        (ncnt,) = _U32.unpack_from(buf, off)
        off += _U32.size
        for _ in range(ncnt):
            if off + _COUNTER_ENTRY.size > len(buf):
                raise WireError("truncated counter entry")
            entry = _COUNTER_ENTRY.unpack_from(buf, off)
            off += _COUNTER_ENTRY.size
            dump.counters[name_of(entry[0])] = entry[1:]
        if off + _U32.size > len(buf):
            raise WireError("truncated edge count")
        (nedge,) = _U32.unpack_from(buf, off)
        off += _U32.size
        for _ in range(nedge):
            parent, off = _unpack_str(buf, off)
            if off + _EDGE_FIXED.size > len(buf):
                raise WireError("truncated edge entry")
            event_id, count, incl = _EDGE_FIXED.unpack_from(buf, off)
            off += _EDGE_FIXED.size
            dump.edges[(parent, name_of(event_id))] = (count, incl)
        if off >= len(buf):
            raise WireError("truncated pmc presence byte")
        has_pmc = buf[off]
        off += 1
        if has_pmc:
            if off + _PMC_BLOCK.size > len(buf):
                raise WireError("truncated pmc block")
            dump.pmc = _PMC_BLOCK.unpack_from(buf, off)
            off += _PMC_BLOCK.size
        dumps[pid] = dump
    return dumps


def unpack_trace(buf: bytes) -> TraceDump:
    """Decode a trace buffer into plain ``(cycles, name, kind, value)``
    tuples, ``kind`` the record's kind byte as an int.

    A kind byte above :data:`~repro.core.tracebuf.ATOMIC` or an event ID
    missing from the mapping table raises :class:`WireError`.
    """
    if len(buf) < _TRACE_HDR.size:
        raise WireError("trace buffer shorter than header")
    magic, version, pid, lost, nrec = _TRACE_HDR.unpack_from(buf, 0)
    if magic != MAGIC_TRACE:
        raise WireError(f"bad trace magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported trace version {version}")
    end = _TRACE_HDR.size + nrec * _TRACE_REC.size
    if end > len(buf):
        raise WireError("truncated trace record block")
    off = end
    if off + _U32.size > len(buf):
        raise WireError("truncated trace mapping count")
    (nmap,) = _U32.unpack_from(buf, off)
    off += _U32.size
    names: dict[int, str] = {}
    for _ in range(nmap):
        if off + _MAP_ENTRY.size > len(buf):
            raise WireError("truncated trace mapping entry")
        (event_id,) = _MAP_ENTRY.unpack_from(buf, off)
        off += _MAP_ENTRY.size
        name, off = _unpack_str(buf, off)
        names[event_id] = name
    block = memoryview(buf)[_TRACE_HDR.size:end]
    kinds = block[_KIND_OFFSET::_TRACE_REC.size]
    if nrec and max(kinds) > ATOMIC:
        bad = next(kind for kind in kinds if kind > ATOMIC)
        raise WireError(f"bad trace record kind {bad}")
    try:
        records = [(cycles, names[event_id], kind, value)
                   for cycles, event_id, kind, value
                   in _TRACE_REC.iter_unpack(block)]
    except KeyError as exc:
        raise WireError(f"trace event id {exc.args[0]} missing from "
                        "mapping table") from None
    return TraceDump(pid=pid, lost=lost, records=records)
