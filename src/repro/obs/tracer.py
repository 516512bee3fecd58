"""Harness span tracing with Chrome trace-event export.

Spans record *real* wall time around harness phases — one experiment
cell, one engine run, one replication — and export to the Chrome
trace-event JSON format, so a sweep can be opened in ``chrome://tracing``
or `Perfetto <https://ui.perfetto.dev>`_ exactly like the simulation's
own merged user/kernel timelines (:mod:`repro.analysis.export`).  The
real KTAU leans on TAU's converters for Vampir/Jumpshot; LTTng-style
viewers are the modern equivalent, and the trace-event format is their
lingua franca.

Records are appended as ``B``/``E`` (duration begin/end) events at the
moment the span opens/closes, so the event list is naturally
timestamp-ordered and balanced — the same property the exporter for
simulated traces validates.  ``instant`` adds ``i`` records for
point-in-time marks (e.g. a replication completing in a worker).

Everything here is wall-clock observation of the *harness*; nothing
feeds back into simulated time (see :mod:`repro.obs.runtime`).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

from repro.obs.runtime import wall_clock


class Tracer:
    """An in-memory trace-event recorder (one per process).

    The caller is responsible for nesting spans LIFO per process — the
    context-manager API makes that automatic.  ``pid``/``tid`` are fixed
    (the harness is single-threaded per process); worker processes each
    get their own tracer whose records stay worker-local.
    """

    def __init__(self) -> None:
        self._t0 = wall_clock()
        self._events: list[dict] = []
        self._depth = 0

    # -- recording -------------------------------------------------------
    def _ts_us(self) -> float:
        return (wall_clock() - self._t0) * 1e6

    def begin(self, name: str, category: str = "harness", **args) -> None:
        """Open a span (pair with :meth:`end`; prefer :meth:`span`)."""
        record = {"name": name, "ph": "B", "pid": 1, "tid": 0,
                  "ts": self._ts_us(), "cat": category}
        if args:
            record["args"] = args
        self._events.append(record)
        self._depth += 1

    def end(self, name: str, category: str = "harness", **args) -> None:
        """Close the innermost open span."""
        record = {"name": name, "ph": "E", "pid": 1, "tid": 0,
                  "ts": self._ts_us(), "cat": category}
        if args:
            record["args"] = args
        self._events.append(record)
        self._depth -= 1

    @contextmanager
    def span(self, name: str, category: str = "harness",
             **args) -> Iterator[None]:
        """A duration span as a context manager."""
        self.begin(name, category, **args)
        try:
            yield
        finally:
            self.end(name, category)

    def instant(self, name: str, category: str = "harness", **args) -> None:
        """A point-in-time mark."""
        record = {"name": name, "ph": "i", "s": "t", "pid": 1, "tid": 0,
                  "ts": self._ts_us(), "cat": category}
        if args:
            record["args"] = args
        self._events.append(record)

    # -- export ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def to_chrome_json(self, process_name: str = "repro") -> str:
        """Serialise to a Chrome trace-event JSON string.

        Spans still open at export time (an exception unwound past them,
        or export happened mid-phase) are closed at the last timestamp
        under the ``truncated`` category, so viewers never mis-nest.
        """
        records = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                    "args": {"name": process_name}}]
        records.extend(self._events)
        stack: list[str] = []
        last_ts = 0.0
        for record in self._events:
            last_ts = record["ts"]
            if record["ph"] == "B":
                stack.append(record["name"])
            elif record["ph"] == "E" and stack:
                stack.pop()
        while stack:
            records.append({"name": stack.pop(), "ph": "E", "pid": 1,
                            "tid": 0, "ts": last_ts, "cat": "truncated"})
        return json.dumps({"traceEvents": records, "displayTimeUnit": "ms"})

    def save(self, path: str, process_name: str = "repro") -> None:
        """Write the Chrome trace-event file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_chrome_json(process_name))


def span_records(events: Iterable[tuple[float, str, Optional[bool], str,
                                         Optional[int]]],
                 *, pid: int, tid: int) -> list[dict]:
    """Chrome trace records for one thread of a simulated trace.

    ``events`` are ``(ts_us, name, is_entry, cat, value)`` in time order;
    entries and exits become ``B``/``E`` records, and an ``is_entry`` of
    ``None`` marks an instant (``i``) record carrying ``value``.  Circular
    trace buffers can lose a region's entry record, so an exit that is
    not the innermost open span's is dropped rather than mis-nest the
    viewer, and spans still open at the end close at the last stamp under
    the ``truncated`` category.
    """
    records: list[dict] = []
    stack: list[str] = []
    last_ts = 0.0
    for ts, name, is_entry, cat, value in events:
        last_ts = ts
        if is_entry is None:
            records.append({"name": name, "ph": "i", "s": "t", "pid": pid,
                            "tid": tid, "ts": ts, "cat": cat,
                            "args": {"value": value}})
            continue
        if is_entry:
            stack.append(name)
        elif stack and stack[-1] == name:
            stack.pop()
        else:
            continue
        records.append({"name": name, "ph": "B" if is_entry else "E",
                        "pid": pid, "tid": tid, "ts": ts, "cat": cat})
    while stack:
        records.append({"name": stack.pop(), "ph": "E", "pid": pid,
                        "tid": tid, "ts": last_ts, "cat": "truncated"})
    return records


def validate_trace_events(payload: str) -> tuple[int, int]:
    """Validate an exported harness trace; returns (#spans, #instants).

    Checks the invariants viewers rely on: every record carries
    name/ph/pid/tid, timestamps are monotonically non-decreasing in file
    order, and ``B``/``E`` records balance per (pid, tid).
    """
    doc = json.loads(payload)
    if "traceEvents" not in doc:
        raise ValueError("missing traceEvents")
    stacks: dict[tuple[int, int], list[str]] = {}
    last_ts: dict[tuple[int, int], float] = {}
    spans = 0
    instants = 0
    for record in doc["traceEvents"]:
        for key in ("name", "ph", "pid", "tid"):
            if key not in record:
                raise ValueError(f"record missing {key!r}: {record}")
        if record["ph"] == "M":
            continue
        thread = (record["pid"], record["tid"])
        ts = record["ts"]
        if ts < last_ts.get(thread, 0.0) - 1e-9:
            raise ValueError(f"timestamps not monotonic on {thread}")
        last_ts[thread] = ts
        if record["ph"] == "B":
            stacks.setdefault(thread, []).append(record["name"])
        elif record["ph"] == "E":
            stack = stacks.get(thread, [])
            if not stack or stack[-1] != record["name"]:
                raise ValueError(
                    f"unbalanced E for {record['name']!r} on {thread}")
            stack.pop()
            spans += 1
        elif record["ph"] == "i":
            instants += 1
        else:
            raise ValueError(f"unknown phase {record['ph']!r}")
    for thread, stack in stacks.items():
        if stack:
            raise ValueError(f"unclosed spans on {thread}: {stack}")
    return spans, instants


#: The process-global tracer (fresh per :func:`repro.obs.runtime.enable`).
TRACER = Tracer()


def reset() -> None:
    """Replace the global tracer with a fresh one (new time epoch)."""
    global TRACER
    TRACER = Tracer()
