"""Trace export for external viewers.

The real KTAU leans on TAU's converters to feed Vampir and Jumpshot.
The portable modern equivalent is the Chrome trace-event format
(``chrome://tracing`` / Perfetto): this module exports merged
user/kernel timelines to it, one "thread" per process with user and
kernel events nested by timestamp, so reproduced traces can be inspected
interactively.

This module also provides the canonical JSON form of harvested profile
data (:func:`profiles_to_json`): a byte-stable serialisation used to
assert that two runs produced *identical* measurements — in particular
that a sweep executed through :mod:`repro.parallel` matches its serial
execution bit for bit.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from repro.analysis.profiles import JobData
from repro.analysis.tracemerge import TimelineEvent
from repro.core.wire import TaskProfileDump
from repro.obs.tracer import span_records
from repro.tau.profiler import TauProfileDump


def canonical_json(doc: dict) -> str:
    """Serialise a document to canonical, byte-stable JSON.

    Sorted keys, fixed separators, no whitespace: two equal documents
    serialise to the same bytes, which is what every serial-vs-parallel
    equivalence test in this repo compares.  Callers must pre-flatten
    tuple keys (JSON objects only take strings).
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def to_chrome_trace(
        events_by_process: dict[str, tuple[list[TimelineEvent], float]],
        *, pid: int = 1) -> str:
    """Serialise merged timelines to a Chrome trace-event JSON string.

    ``events_by_process`` maps a display name (e.g. ``"rank0@ccn000"``)
    to ``(merged events, node hz)``.  Entry/exit pairs become ``B``/``E``
    duration events; atomic records become instant (``i``) events with
    their value as an argument.  Timestamps are microseconds from each
    process's first event (Chrome tracing needs a shared epoch only per
    thread).
    """
    records: list[dict] = []
    for tid, (name, (events, hz)) in enumerate(sorted(events_by_process.items())):
        records.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name},
        })
        if not events:
            continue
        t0 = events[0][0]
        records.extend(span_records(
            (((cycles - t0) / hz * 1e6, name,
              None if atomic else is_entry, layer, value)
             for cycles, name, layer, is_entry, value, atomic in events),
            pid=pid, tid=tid))
    return json.dumps({"traceEvents": records, "displayTimeUnit": "ms"})


def _kprofile_doc(dump: Optional[TaskProfileDump]) -> Optional[dict]:
    if dump is None:
        return None
    doc = {
        "pid": dump.pid,
        "comm": dump.comm,
        "perf": {name: list(v) for name, v in dump.perf.items()},
        "atomic": {name: list(v) for name, v in dump.atomic.items()},
        "context_pairs": {f"{ctx}\t{name}": list(v)
                          for (ctx, name), v in dump.context_pairs.items()},
        "groups": dict(dump.groups),
        "counters": {name: list(v) for name, v in dump.counters.items()},
        "edges": {f"{parent}\t{name}": list(v)
                  for (parent, name), v in dump.edges.items()},
    }
    # Only present on counters-enabled builds, so counters-off output is
    # byte-identical to the historical (pre-PMC) encoding.
    if dump.pmc is not None:
        doc["pmc"] = list(dump.pmc)
    return doc


def _uprofile_doc(dump: Optional[TauProfileDump]) -> Optional[dict]:
    if dump is None:
        return None
    return {
        "pid": dump.pid,
        "comm": dump.comm,
        "node": dump.node,
        "rank": dump.rank,
        "hz": dump.hz,
        "perf": {name: list(v) for name, v in dump.perf.items()},
        "trace": [[cycles, name, is_entry]
                  for cycles, name, is_entry in dump.trace],
        "edges": {f"{parent}\t{name}": list(v)
                  for (parent, name), v in dump.edges.items()},
    }


def profiles_to_json(data: JobData) -> str:
    """Serialise a harvested run to canonical, byte-stable JSON.

    Two :class:`JobData` objects holding equal measurements serialise to
    the *same bytes*: keys are sorted, separators are fixed, tuple keys
    are flattened to tab-joined strings, and nothing ambient (wall-clock
    time, ids, paths) is included.  The determinism tests rely on this
    to compare serial and parallel executions of the same sweep.
    """
    doc = {
        "exec_time_s": data.exec_time_s,
        "ranks": [{
            "rank": r.rank,
            "pid": r.pid,
            "node": r.node,
            "hz": r.hz,
            "exec_ns": r.exec_ns,
            "kprofile": _kprofile_doc(r.kprofile),
            "uprofile": _uprofile_doc(r.uprofile),
            "flow_rx_calls": r.flow_rx_calls,
            "flow_rx_ns": r.flow_rx_ns,
        } for r in data.ranks],
        "node_profiles": {
            node: {str(pid): _kprofile_doc(dump)
                   for pid, dump in profiles.items()}
            for node, profiles in data.node_profiles.items()
        },
        "node_irq_counts": {node: list(counts)
                            for node, counts in data.node_irq_counts.items()},
        "node_comms": {
            node: {str(pid): comm for pid, comm in comms.items()}
            for node, comms in data.node_comms.items()
        },
    }
    return canonical_json(doc)


def ktaud_snapshots_to_json(snapshots: Iterable) -> str:
    """Serialise a KTAUD run's periodic snapshots to byte-stable JSON.

    ``snapshots`` is :attr:`repro.core.clients.ktaud.Ktaud.snapshots` —
    each entry carries the extraction time and the per-PID profile (and
    optionally trace) dumps read from /proc/ktau at that instant.  The
    encoding follows the same canonical rules as :func:`profiles_to_json`
    (sorted keys, fixed separators, nothing ambient) so that two KTAUD
    runs over the same simulation serialise identically.
    """
    doc = {
        "snapshots": [{
            "time_ns": snap.time_ns,
            "profiles": {str(pid): _kprofile_doc(dump)
                         for pid, dump in snap.profiles.items()},
            "traces": {str(pid): {
                "lost": trace.lost,
                "records": [list(record) for record in trace.records],
            } for pid, trace in snap.traces.items()},
        } for snap in snapshots],
    }
    return canonical_json(doc)
