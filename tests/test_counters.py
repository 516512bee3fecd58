"""The §6 counter dimension end to end: wire sections, interval views,
monitor detection, time-neutrality, determinism, and the demo gate.

The load-bearing claims:

* the counter and per-task PMC wire sections roundtrip byte-exactly
  (including alongside call-graph edges) and fail loudly on truncation;
* :func:`repro.analysis.views.pmc_interval_view` mirrors
  ``interval_view``'s counter-reset tolerance;
* building counters in never changes simulated *time* — the counters-on
  export with counter sections stripped byte-compares to counters-off;
* a counters-on monitored run is bit-identical serial vs parallel;
* the counters demo catches the cache thrasher through the counter
  dimension while every time-rate detector stays silent.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.export import profiles_to_json
from repro.analysis.profiles import harvest_job
from repro.analysis.views import pmc_interval_view
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.core import wire
from repro.core.config import KtauBuildConfig
from repro.core.measurement import Ktau
from repro.monitor import (COUNTER_OUTLIER, ClusterMonitor, MonitorConfig,
                           monitor_data_to_json)
from repro.parallel import parallel_map
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine
from repro.sim.units import MSEC
from repro.workloads.lu import LuParams, lu_app

PARAMS = LuParams(niters=3, iter_compute_ns=8 * MSEC, halo_bytes=8192,
                  sweep_msg_bytes=2048, inorm=2)


def build_ktau(**opts):
    engine = Engine()
    return engine, Ktau(CycleClock(engine, hz=1e9), KtauBuildConfig(**opts))


def with_counter_cell(ktau, pid, comm):
    """Register a task whose PMCs read a mutable cell the test controls —
    the counter deltas are then exact, not modelled."""
    data = ktau.register_task(pid, comm)
    cell = [(0, 0, 0, 0, 0)]
    data.counters = SimpleNamespace(read=lambda: tuple(cell[0]))
    return data, cell


# ---------------------------------------------------------------------------
# Wire sections: counters + per-task PMC block (+ call-graph edges)
# ---------------------------------------------------------------------------
class TestCounterWireSections:
    def packed_single(self, values):
        engine, ktau = build_ktau(counters=True)
        data, cell = with_counter_cell(ktau, 10, "app.0")
        pt = ktau.registry.point("sys_writev")
        ktau.entry(data, pt)
        cell[0] = values
        ktau.exit(data, pt)
        return wire.pack_profiles(ktau.snapshot(), ktau.registry)

    def test_counter_and_pmc_roundtrip(self):
        values = (1000, 800, 42, 3, 1)
        dumps = wire.unpack_profiles(self.packed_single(values))
        assert dumps[10].counters["sys_writev"] == (1, *values)
        assert dumps[10].pmc == values

    def test_counters_coexist_with_callgraph_edges(self):
        engine, ktau = build_ktau(counters=True, callgraph=True)
        data, cell = with_counter_cell(ktau, 10, "app.0")
        def advance(ns):
            engine.schedule(ns, lambda: None)
            engine.run_until_idle()

        outer = ktau.registry.point("sys_writev")
        inner = ktau.registry.point("tcp_sendmsg")
        ktau.entry(data, outer)
        cell[0] = (100, 60, 2, 0, 0)
        ktau.entry(data, inner)
        advance(20)
        cell[0] = (300, 180, 8, 0, 0)
        ktau.exit(data, inner)
        ktau.exit(data, outer)
        d = wire.unpack_profiles(
            wire.pack_profiles(ktau.snapshot(), ktau.registry))[10]
        # the pmc block sits *after* the edges section in the record:
        # both must decode from the same buffer
        assert d.edges[("K:sys_writev", "tcp_sendmsg")] == (1, 20)
        assert d.counters["tcp_sendmsg"] == (1, 200, 120, 6, 0, 0)
        assert d.pmc == (300, 180, 8, 0, 0)

    def test_no_counter_source_means_no_counter_sections(self):
        # counters built in, but no task exposes a PMC source: the flag
        # stays clear and decoding yields the historical shape.
        engine, ktau = build_ktau(counters=True)
        data = ktau.register_task(10, "app.0")
        pt = ktau.registry.point("sys_writev")
        ktau.entry(data, pt)
        ktau.exit(data, pt)
        dumps = wire.unpack_profiles(
            wire.pack_profiles(ktau.snapshot(), ktau.registry))
        assert dumps[10].counters == {}
        assert dumps[10].pmc is None

    def test_truncated_pmc_block(self):
        packed = self.packed_single((1000, 800, 42, 3, 1))
        with pytest.raises(wire.WireError):
            wire.unpack_profiles(packed[:-1])

    def test_truncated_pmc_presence_byte(self):
        packed = self.packed_single((1000, 800, 42, 3, 1))
        # strip the whole 40-byte PMC block plus its presence byte: the
        # record now ends right after the edges section
        with pytest.raises(wire.WireError):
            wire.unpack_profiles(packed[:-41])

    def test_truncated_counter_entry(self):
        full = self.packed_single((1000, 800, 42, 3, 1))
        plain = self.packed_single_without_counters()
        # every prefix between the counters-off and counters-on lengths
        # cuts inside a counter-era section and must raise, never
        # silently decode
        for cut in range(len(plain), len(full)):
            with pytest.raises(wire.WireError):
                wire.unpack_profiles(full[:cut])

    def packed_single_without_counters(self):
        engine, ktau = build_ktau(counters=False)
        data = ktau.register_task(10, "app.0")
        pt = ktau.registry.point("sys_writev")
        ktau.entry(data, pt)
        ktau.exit(data, pt)
        return wire.pack_profiles(ktau.snapshot(), ktau.registry)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(*(st.integers(0, 2**48) for _ in range(5))),
                min_size=1, max_size=6))
def test_property_counter_sections_roundtrip(task_values):
    """Arbitrary PMC totals survive pack/unpack exactly, per task."""
    engine, ktau = build_ktau(counters=True)
    names = ["sys_read", "sys_write", "do_IRQ"]
    cells = {}
    for i, values in enumerate(task_values):
        pid = 10 + i
        data, cell = with_counter_cell(ktau, pid, f"t{pid}")
        pt = ktau.registry.point(names[i % len(names)])
        ktau.entry(data, pt)
        cell[0] = values
        ktau.exit(data, pt)
        cells[pid] = values
    dumps = wire.unpack_profiles(
        wire.pack_profiles(ktau.snapshot(), ktau.registry))
    for i, values in enumerate(task_values):
        pid = 10 + i
        assert dumps[pid].pmc == values
        assert dumps[pid].counters[names[i % len(names)]] == (1, *values)


# ---------------------------------------------------------------------------
# pmc_interval_view: deltas with counter-reset tolerance
# ---------------------------------------------------------------------------
def _dump(pid, pmc, comm="x"):
    return wire.TaskProfileDump(pid=pid, comm=comm, pmc=pmc)


class TestPmcIntervalView:
    def test_plain_deltas(self):
        prev = {1: _dump(1, (100, 80, 5, 0, 0))}
        curr = {1: _dump(1, (300, 200, 9, 1, 0))}
        assert pmc_interval_view(prev, curr) == {1: (200, 120, 4, 1, 0)}

    def test_first_interval_uses_totals(self):
        curr = {1: _dump(1, (300, 200, 9, 1, 0))}
        assert pmc_interval_view(None, curr) == {1: (300, 200, 9, 1, 0)}

    def test_reset_tolerance_on_pid_reuse(self):
        # the pid's cycle counter went backwards: a fresh process reused
        # the id, so its current totals ARE the interval delta — the
        # regression this guards is a negative-counter delta
        prev = {1: _dump(1, (1_000_000, 900_000, 50, 2, 0))}
        curr = {1: _dump(1, (5_000, 4_000, 7, 0, 0))}
        assert pmc_interval_view(prev, curr) == {1: (5_000, 4_000, 7, 0, 0)}

    def test_counters_off_and_idle_pids_omitted(self):
        prev = {1: _dump(1, (100, 80, 5, 0, 0)), 2: _dump(2, None)}
        curr = {1: _dump(1, (100, 80, 5, 0, 0)),  # all-zero delta
                2: _dump(2, None)}                # counters off
        assert pmc_interval_view(prev, curr) == {}


# ---------------------------------------------------------------------------
# Time-neutrality: counting must never change what the clock says
# ---------------------------------------------------------------------------
def _lu_export(counters):
    cluster = make_chiba(nnodes=4, seed=1,
                         ktau=KtauBuildConfig.full(counters=counters))
    job = launch_mpi_job(cluster, 8, lu_app(PARAMS),
                         placement=block_placement(2, 8))
    job.run(limit_s=600)
    payload = profiles_to_json(harvest_job(job))
    cluster.teardown()
    return payload


def _strip_counter_sections(payload):
    doc = json.loads(payload)

    def scrub(node):
        if isinstance(node, dict):
            node.pop("pmc", None)
            if isinstance(node.get("counters"), dict):
                node["counters"] = {}
            for value in node.values():
                scrub(value)
        elif isinstance(node, list):
            for value in node:
                scrub(value)

    scrub(doc)
    return json.dumps(doc, sort_keys=True)


def test_counters_build_does_not_change_time():
    off = _lu_export(counters=False)
    on = _lu_export(counters=True)
    assert on != off  # the counter sections really are there...
    assert _strip_counter_sections(on) == _strip_counter_sections(off)


# ---------------------------------------------------------------------------
# Determinism: counters-on monitored runs, serial vs parallel
# ---------------------------------------------------------------------------
def run_counters_monitored(seed):
    cluster = make_chiba(nnodes=4, seed=seed,
                         ktau=KtauBuildConfig.full(counters=True))
    monitor = ClusterMonitor(cluster, MonitorConfig(period_ns=10 * MSEC))
    job = launch_mpi_job(cluster, 8, lu_app(PARAMS),
                         placement=block_placement(2, 8),
                         node_setup=monitor.attach_node)
    job.run(limit_s=600)
    payload = profiles_to_json(harvest_job(job))
    monitor_json = monitor_data_to_json(monitor.harvest())
    cluster.teardown()
    return payload, monitor_json


def test_counters_on_bit_identical_serial_vs_parallel():
    seeds = [41, 42]
    serial = [run_counters_monitored(seed) for seed in seeds]
    assert parallel_map(run_counters_monitored, seeds, workers=2) == serial
    assert run_counters_monitored(41) == serial[0]


def test_counter_series_present_in_monitored_run():
    _, monitor_json = run_counters_monitored(seed=41)
    doc = json.loads(monitor_json)
    some_node = doc["nodes"][0]
    assert "l2_miss_per_kcycle" in doc["series"][some_node]
    assert "ipc" in doc["series"][some_node]


# ---------------------------------------------------------------------------
# The demo gate: counter-only detection of the cache thrasher
# ---------------------------------------------------------------------------
def test_counters_demo_counter_only_detection():
    from repro.analysis.counterview import (counter_rate_table,
                                            merged_time_counter_view,
                                            node_counter_totals)
    from repro.experiments.counters_demo import run_counters_demo
    from repro.monitor import render_dashboard

    result = run_counters_demo(seed=1)
    assert result.thrasher_node in result.counter_outlier_nodes
    assert result.time_outlier_nodes == []
    assert result.counter_only_detection
    kinds = {a.kind for a in result.monitor.alerts}
    assert COUNTER_OUTLIER in kinds

    # the offline counter views see the same story: the thrasher node's
    # lifetime miss rate tops the cluster
    totals = node_counter_totals(result.data.node_profiles)
    rates = {node: l2 * 1000.0 / cycles
             for node, (cycles, _i, l2, _mn, _mj) in totals.items()}
    assert max(rates, key=lambda n: rates[n]) == result.thrasher_node

    # per-path rows and the merged view carry counter columns
    rows = counter_rate_table(result.data.node_profiles, min_cycles=1000)
    assert rows and all(r.cycles >= 1000 for r in rows)
    profiles = result.data.node_profiles[result.thrasher_node]
    some_dump = next(iter(sorted(profiles.items())))[1]
    merged = merged_time_counter_view(some_dump, hz=450e6)
    assert any(row.ipc is not None for row in merged)

    # and the dashboard shows the counter dimension
    out = render_dashboard(result.monitor)
    assert "l2_miss_per_kcycle" in out
    assert "counters (mean per interval):" in out
