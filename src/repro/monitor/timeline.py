"""Integrated timeline export: kernel intervals + TAU phases, one file.

The paper's closing argument is the *integrated* view — Figure 2-E shows
user-level phases and kernel activity on one time axis.  This exporter
produces that view for a monitored run as a Chrome trace-event JSON
document (the format :mod:`repro.obs.tracer` already uses for harness
spans, validated by the same
:func:`repro.obs.tracer.validate_trace_events`):

* one *process* per node: thread 0 carries the monitor's interval spans
  (kernel activity per extraction period, detector alerts as instant
  marks);
* one further *thread* per MPI rank placed on that node, carrying the
  rank's TAU routine spans when tracing was on, or a single ``main()``
  summary span (annotated with its top merged user/kernel rows via
  :func:`repro.tau.merge.rows_to_doc`) when it was not.

Both layers share the engine-ns epoch: TAU trace records are node TSC
cycles, converted back through each node's hz and boot offset (which the
monitor records at attach time for exactly this purpose).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from repro.core.libktau import LibKtau
from repro.monitor.cluster_monitor import ACTIVITY_METRIC, MonitorData
from repro.obs.tracer import span_records
from repro.sim.units import SEC
from repro.tau.merge import merged_profile, rows_to_doc

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.launch import MpiJob


#: merged user/kernel profile rows annotated on each ``main()`` span.
TOP_ROWS = 5


def _us(time_ns: int, epoch_ns: int) -> float:
    return (time_ns - epoch_ns) / 1e3


def _node_thread_records(data: MonitorData, node: str, pid: int) -> list[dict]:
    """Interval spans and alert instants for one node (tid 0)."""
    records: list[dict] = []
    epoch = data.start_ns
    metrics = data.series.get(node, {})
    anchor = metrics.get(ACTIVITY_METRIC, [])
    alerts = [a for a in data.alerts if a.node == node]
    ai = 0

    def flush_alerts(up_to_ns: Optional[int]) -> None:
        nonlocal ai
        while ai < len(alerts) and (up_to_ns is None
                                    or alerts[ai].time_ns <= up_to_ns):
            alert = alerts[ai]
            ai += 1
            records.append({
                "name": alert.kind, "ph": "i", "s": "t", "pid": pid,
                "tid": 0, "ts": _us(alert.time_ns, epoch), "cat": "alert",
                "args": {"metric": alert.metric,
                         "value_ms": round(alert.value_s * 1e3, 3),
                         "score": round(alert.score, 2),
                         "pid": alert.pid, "comm": alert.comm,
                         "detail": alert.describe()}})

    prev_end: Optional[int] = None
    for end_ns, _value in anchor:
        start_ns = prev_end if prev_end is not None else max(
            data.start_ns, end_ns - data.period_ns)
        prev_end = end_ns
        flush_alerts(start_ns)
        records.append({"name": "interval", "ph": "B", "pid": pid, "tid": 0,
                        "ts": _us(start_ns, epoch), "cat": "kernel"})
        args = {}
        for metric, points in sorted(metrics.items()):
            for t, value in points:
                if t == end_ns:
                    args[f"{metric}_ms"] = round(value * 1e3, 6)
                    break
        records.append({"name": "interval", "ph": "E", "pid": pid, "tid": 0,
                        "ts": _us(end_ns, epoch), "cat": "kernel",
                        "args": args})
    flush_alerts(None)
    return records


def integrated_timeline(data: MonitorData, job: "MpiJob") -> str:
    """Export a monitored run as a Chrome trace-event JSON string.

    ``data`` is a harvested :class:`~repro.monitor.cluster_monitor.MonitorData`;
    ``job`` adds the application layer — its ranks' TAU traces when
    tracing was enabled, else ``main()`` summary spans annotated with
    the :data:`TOP_ROWS` top merged user/kernel profile rows.  The
    output validates under :func:`repro.obs.tracer.validate_trace_events`.
    """
    records: list[dict] = []
    node_pid = {node: i + 1 for i, node in enumerate(data.nodes)}
    for node in data.nodes:
        pid = node_pid[node]
        records.append({"name": "process_name", "ph": "M", "pid": pid,
                        "tid": 0, "args": {"name": node}})
        records.append({"name": "thread_name", "ph": "M", "pid": pid,
                        "tid": 0, "args": {"name": "kernel (monitor)"}})
        records.extend(_node_thread_records(data, node, pid))

    next_tid = {node: 1 for node in data.nodes}
    kprofiles: dict[str, dict] = {}
    for rank in range(job.world.size):
        node_obj = job.world.rank_nodes[rank]
        profiler = job.profilers[rank]
        if node_obj is None or profiler is None:
            continue
        node = node_obj.name
        pid = node_pid.get(node)
        if pid is None:
            continue
        tid = next_tid[node]
        next_tid[node] = tid + 1
        records.append({"name": "thread_name", "ph": "M", "pid": pid,
                        "tid": tid, "args": {"name": f"rank {rank}"}})
        hz = data.node_hz[node]
        boot = data.node_boot_offset[node]
        if profiler.trace:
            records.extend(span_records(
                ((_us((cycles - boot) / hz * SEC, data.start_ns), name,
                  is_entry, "user", None)
                 for cycles, name, is_entry in profiler.trace),
                pid=pid, tid=tid))
            continue
        # No event trace: one summary span over the rank's lifetime,
        # annotated with its top merged user/kernel profile rows.
        task = job.world.rank_tasks[rank]
        assert task is not None and job.end_ns is not None
        udump = profiler.dump()
        kdump = None
        if node_obj.kernel.params.ktau.is_patched:
            if node not in kprofiles:
                kprofiles[node] = LibKtau(
                    node_obj.kernel.ktau_proc).read_profiles(
                        include_zombies=True)
            kdump = kprofiles[node].get(task.pid)
        if kdump is not None:
            args = rows_to_doc(merged_profile(udump, kdump), hz, top=TOP_ROWS)
        else:
            rows = sorted(udump.perf.items(), key=lambda kv: -kv[1][2])
            args = {f"user:{name}": round(excl / hz * 1e3, 3)
                    for name, (_c, _i, excl) in rows[:TOP_ROWS]}
        end_ns = task.exit_time_ns if task.exit_time_ns else job.end_ns
        records.append({"name": "main()", "ph": "B", "pid": pid,
                        "tid": tid, "ts": _us(job.start_ns, data.start_ns),
                        "cat": "user", "args": args})
        records.append({"name": "main()", "ph": "E", "pid": pid,
                        "tid": tid, "ts": _us(end_ns, data.start_ns),
                        "cat": "user"})

    return json.dumps({"traceEvents": records, "displayTimeUnit": "ms"})
