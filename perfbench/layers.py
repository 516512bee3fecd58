"""Per-layer numbers from one traced rep, measured from outside the program.

A traced rep runs its workload once under :mod:`cProfile` with the
:mod:`repro.obs` metrics registry switched on.  Self time is grouped by
source path into the layers below; exact call counts and cumulative
times of a few named functions, plus obs counters, locate the hot paths
the ROADMAP items target.  Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import os

#: Layers in reporting order.  ``builtins`` is every frame outside the
#: repro package (stdlib, numpy, C builtins).
LAYERS = ("sim", "kernel", "kernel.net", "core", "tau", "cluster", "monitor",
          "analysis", "workloads", "builtins", "other")

#: Leading path components under ``src/repro`` -> layer; a two-component
#: key wins over a one-component key.  Every module of the package must be
#: covered (``test_contract.py`` checks), so a new package lands in a
#: layer on purpose, never by accident.
PATH_LAYER = {
    "sim": "sim",
    "kernel/net": "kernel.net",
    "kernel": "kernel",
    "core": "core",
    "tau": "tau",
    "cluster": "cluster",
    "monitor": "monitor",
    "analysis": "analysis",
    "workloads": "workloads",
    # Harness code around the simulated system.
    "experiments": "other",
    "obs": "other",
    "faults": "other",
    "parallel": "other",
    "lint": "other",
    "oprofile": "other",
    "cli.py": "other",
    "__init__.py": "other",
    "__main__.py": "other",
}

#: metric -> (source file under src/repro, function name, what to take):
#: ``calls`` is the exact call count, ``cum_s`` the cumulative seconds.
FUNCTIONS = {
    "core.entry_calls": ("core/measurement.py", "entry", "calls"),
    "core.exit_calls": ("core/measurement.py", "exit", "calls"),
    "core.atomic_calls": ("core/measurement.py", "atomic", "calls"),
    "core.overhead_samples": ("core/overhead.py", "sample", "calls"),
    "core.trace_pack_s": ("core/wire.py", "pack_trace", "cum_s"),
    "core.trace_unpack_s": ("core/wire.py", "unpack_trace", "cum_s"),
    "kernel.net.tx_span_calls": ("kernel/net/tcp.py", "record_tx_spans",
                                 "calls"),
    "kernel.net.tx_span_s": ("kernel/net/tcp.py", "record_tx_spans", "cum_s"),
    "analysis.merge_traces_s": ("analysis/tracemerge.py", "merge_traces",
                                "cum_s"),
    "analysis.extract_waits_s": ("analysis/bottlenecks/waits.py",
                                 "extract_waits", "cum_s"),
    "analysis.build_report_s": ("analysis/bottlenecks/report.py",
                                "build_report", "cum_s"),
}

#: metric -> repro.obs counter.  Most counters are created on their first
#: increment, so an absent counter reads 0.
OBS_COUNTERS = {
    "sim.events_fired": "engine.events_fired",
    "sim.events_scheduled": "engine.events_scheduled",
    "sim.events_cancelled": "engine.events_cancelled",
    "core.trace_records_written": "tracebuf.records_written",
    "core.trace_records_lost": "tracebuf.records_lost",
    "core.collect_retries": "collect.retries",
    "core.collect_failures": "collect.failures",
    "core.unmatched_exits": "ktau.unmatched_exits",
    "monitor.snapshots": "monitor.snapshots",
    "monitor.intervals": "monitor.intervals",
    "monitor.alerts": "monitor.alerts",
}

#: Ratios and the two numbers not taken from cProfile or obs counters.
DERIVED = {
    "core.samples_per_event": "samples/event",
    "core.firing_cache_hit_ratio": "ratio",
    "analysis.export_s": "s",
    "trace_overhead": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the benchmark reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    for metric, (_path, _func, kind) in FUNCTIONS.items():
        units[metric] = "count" if kind == "calls" else "s"
    units.update(dict.fromkeys(OBS_COUNTERS, "count"))
    units.update(DERIVED)
    return units


def layer_of(rel_path: str) -> str | None:
    """The layer of a source file given relative to ``src/repro``."""
    parts = rel_path.replace(os.sep, "/").split("/")
    return PATH_LAYER.get("/".join(parts[:2])) or PATH_LAYER.get(parts[0])


def layer_numbers(stats: dict, repro_dir: str, counters: dict,
                  export_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced rep, all but ``trace_overhead``.

    ``stats`` is ``pstats.Stats(profile).stats``, ``counters`` the
    ``counters`` table of :func:`repro.obs.snapshot`, and ``export_s``
    the rep's own timing of its serialisation step.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    out: dict[str, float] = {
        metric: 0 if kind == "calls" else 0.0
        for metric, (_path, _func, kind) in FUNCTIONS.items()}
    prefix = repro_dir + os.sep
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime,
                                  _callers) in stats.items():
        if not filename.startswith(prefix):
            self_s["builtins"] += tottime
            continue
        rel = filename[len(prefix):].replace(os.sep, "/")
        self_s[layer_of(rel) or "other"] += tottime
        for metric, (path, name, kind) in FUNCTIONS.items():
            if rel == path and func == name:
                out[metric] += ncalls if kind == "calls" else cumtime
    total = sum(self_s.values())
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / total if total else 0.0
    for metric, name in OBS_COUNTERS.items():
        out[metric] = counters.get(name, 0)
    fired = out["sim.events_fired"]
    out["core.samples_per_event"] = (out["core.overhead_samples"] / fired
                                     if fired else 0.0)
    firings = counters.get("ktau.firings", 0)
    out["core.firing_cache_hit_ratio"] = (
        counters.get("ktau.firing_cache_hits", 0) / firings if firings else 0.0)
    out["analysis.export_s"] = export_s
    return out
