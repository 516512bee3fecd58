"""Tests for the Chrome-trace exporter."""

import json

import pytest

from repro.analysis.export import to_chrome_trace
from repro.obs.tracer import validate_trace_events


def span(t0, t1, name, layer="user"):
    return [(t0, name, layer, True, 0, False),
            (t1, name, layer, False, 0, False)]


class TestExport:
    def test_basic_roundtrip(self):
        events = (span(0, 1000, "MPI_Send()") +
                  span(100, 900, "sys_writev", "kernel"))
        events.sort(key=lambda e: (e[0], not e[3]))
        payload = to_chrome_trace({"rank0": (events, 1e9)})
        pairs, instants = validate_trace_events(payload)
        assert pairs == 2
        assert instants == 0
        doc = json.loads(payload)
        names = {r["name"] for r in doc["traceEvents"]}
        assert {"MPI_Send()", "sys_writev", "thread_name"} <= names

    def test_atomic_becomes_instant(self):
        events = [(50, "net.pkt_tx_bytes", "kernel", False, 1500, True)]
        payload = to_chrome_trace({"rank0": (events, 1e9)})
        _pairs, instants = validate_trace_events(payload)
        assert instants == 1
        doc = json.loads(payload)
        instant = [r for r in doc["traceEvents"] if r["ph"] == "i"][0]
        assert instant["args"]["value"] == 1500

    def test_zero_valued_atomic_is_an_instant_not_an_exit(self):
        events = span(0, 100, "dev_queue_xmit", "kernel")
        events.insert(1, (100, "net.pkt_tx_bytes", "kernel", False, 0, True))
        pairs, instants = validate_trace_events(
            to_chrome_trace({"rank0": (events, 1e9)}))
        assert (pairs, instants) == (1, 1)

    def test_orphaned_exit_dropped(self):
        events = [(10, "lost_region", "kernel", False, 0, False)] + \
            span(20, 30, "ok", "kernel")
        payload = to_chrome_trace({"rank0": (events, 1e9)})
        pairs, _ = validate_trace_events(payload)
        assert pairs == 1

    def test_unclosed_entry_closed_at_end(self):
        events = [(10, "open_forever", "user", True, 0, False)]
        payload = to_chrome_trace({"rank0": (events, 1e9)})
        pairs, _ = validate_trace_events(payload)
        assert pairs == 1

    def test_multiple_threads(self):
        a = span(0, 10, "x")
        b = span(5, 25, "y")
        payload = to_chrome_trace({"rank0": (a, 1e9), "rank1": (b, 1e9)})
        doc = json.loads(payload)
        tids = {r["tid"] for r in doc["traceEvents"]}
        assert tids == {0, 1}

    def test_validator_rejects_bad_nesting(self):
        bad = json.dumps({"traceEvents": [
            {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 0},
            {"name": "b", "ph": "E", "pid": 1, "tid": 0, "ts": 1},
        ]})
        with pytest.raises(ValueError):
            validate_trace_events(bad)

    def test_export_from_real_run(self):
        """Export a genuinely traced simulated run."""
        from repro.cluster.launch import block_placement, launch_mpi_job
        from repro.cluster.machines import make_chiba
        from repro.core.config import KtauBuildConfig
        from repro.core.libktau import LibKtau
        from repro.analysis.tracemerge import merge_traces
        from repro.sim.units import MSEC
        from repro.workloads.lu import LuParams, lu_app

        params = LuParams(niters=1, iter_compute_ns=5 * MSEC, halo_bytes=4096,
                          sweep_msg_bytes=2048, inorm=0)
        cluster = make_chiba(nnodes=2, seed=9,
                             ktau=KtauBuildConfig.full(tracing=True))
        job = launch_mpi_job(cluster, 2, lu_app(params),
                             placement=block_placement(1, 2),
                             tau_tracing=True)
        job.run(limit_s=300)

        timelines = {}
        for rank in range(2):
            node = job.world.rank_nodes[rank]
            task = job.world.rank_tasks[rank]
            lib = LibKtau(node.kernel.ktau_proc)
            merged = merge_traces(job.profilers[rank].dump(),
                                  lib.read_trace(task.pid))
            timelines[f"rank{rank}@{node.name}"] = (merged, node.kernel.clock.hz)
        cluster.teardown()

        payload = to_chrome_trace(timelines)
        pairs, instants = validate_trace_events(payload)
        assert pairs > 10
        assert instants > 0  # packet-size atomic events
