"""Tests for repro.obs: metrics registry, span tracer, run manifests,
the zero-overhead-off fast path, and — most importantly — the invariant
that makes observability safe to wire into the measured substrate:
enabling it leaves every simulated result byte-identical, serial and
parallel.
"""

import json

import pytest

from repro import obs
from repro.analysis.export import profiles_to_json
from repro.analysis.profiles import harvest_job
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.obs.manifest import (MANIFEST_VERSION, RunManifest, build_manifest,
                                manifest_path_for)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, validate_trace_events
from repro.parallel import parallel_map
from repro.sim.engine import Engine
from repro.sim.units import MSEC
from repro.workloads.lu import LuParams, lu_app

PARAMS = LuParams(niters=3, iter_compute_ns=8 * MSEC, halo_bytes=8192,
                  sweep_msg_bytes=2048, inorm=2)


def run_once(seed):
    cluster = make_chiba(nnodes=4, seed=seed)
    job = launch_mpi_job(cluster, 8, lu_app(PARAMS),
                        placement=block_placement(2, 8))
    job.run(limit_s=600)
    data = harvest_job(job)
    cluster.teardown()
    return data


@pytest.fixture(autouse=True)
def obs_off():
    """Every test starts and ends with observability fully off."""
    obs.disable()
    yield
    obs.disable()


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("a.count").inc()
        reg.counter("a.count").inc(4)
        reg.gauge("a.level").set(7.5)
        reg.histogram("a.wall").observe(1.0)
        reg.histogram("a.wall").observe(3.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a.count": 5}
        assert snap["gauges"] == {"a.level": 7.5}
        hist = snap["histograms"]["a.wall"]
        assert hist == {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
                        "mean": 2.0}

    def test_create_on_first_use_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert len(reg) == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert len(reg) == 0
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(0.5)
        json.dumps(reg.snapshot(), sort_keys=True)


# ---------------------------------------------------------------------------
# Disabled fast path
# ---------------------------------------------------------------------------
class TestDisabledFastPath:
    def test_span_is_shared_null_context_when_off(self):
        assert obs.span("anything") is obs.span("other")

    def test_instrumented_run_publishes_nothing_when_off(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run_until_idle()
        assert len(obs.REGISTRY) == 0
        run_once(1)
        assert len(obs.REGISTRY) == 0

    def test_enable_disable_roundtrip(self):
        assert not obs.enabled()
        obs.enable(metrics=True, tracing=True, progress=False)
        assert obs.enabled()
        assert obs.runtime.metrics_on and obs.runtime.tracing_on
        obs.disable()
        assert not obs.enabled()
        assert len(obs.REGISTRY) == 0


# ---------------------------------------------------------------------------
# Engine / measurement instrumentation
# ---------------------------------------------------------------------------
class TestInstrumentation:
    def test_engine_counters(self):
        obs.enable(metrics=True, progress=False)
        engine = Engine()
        count = 100

        def reschedule():
            nonlocal count
            count -= 1
            decoy = engine.schedule(1000, reschedule)
            decoy.cancel()
            if count > 0:
                engine.schedule(10, reschedule)

        engine.schedule(1, reschedule)
        engine.run_until_idle()
        snap = obs.snapshot()
        counters = snap["counters"]
        assert counters["engine.events_fired"] == 100
        assert counters["engine.events_cancelled"] == 100
        assert counters["engine.events_scheduled"] \
            == counters["engine.pool_hits"] + counters["engine.pool_misses"]
        assert snap["histograms"]["engine.run_wall_s"]["count"] >= 1

    def test_measurement_counters(self):
        obs.enable(metrics=True, progress=False)
        run_once(1)
        counters = obs.snapshot()["counters"]
        assert counters["ktau.firings"] > 0
        assert counters["ktau.firings"] \
            == counters["ktau.firing_cache_hits"] \
            + counters["ktau.firing_cache_misses"]
        assert counters["ktau.tasks_exited"] > 0

    def test_traced_run_publishes_phase_maxrss(self):
        """A traced bottleneck run publishes its peak RSS at the end of
        the run, harvest and report phases when metrics are on, nothing
        when they are off, and the same report either way."""
        from repro.analysis.bottlenecks import report_to_json
        from repro.experiments.bottleneck import run_bottleneck_lu

        plain = report_to_json(run_bottleneck_lu(seed=1).report)
        assert len(obs.REGISTRY) == 0
        obs.enable(metrics=True, progress=False)
        measured = report_to_json(run_bottleneck_lu(seed=1).report)
        gauges = obs.snapshot()["gauges"]
        marks = [gauges[f"bottleneck.maxrss_mb.{phase}"]
                 for phase in ("run", "harvest", "report")]
        assert 0 < marks[0] <= marks[1] <= marks[2]
        assert measured == plain

    def test_parallel_map_serial_metrics(self):
        obs.enable(metrics=True, progress=False)
        assert parallel_map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        snap = obs.snapshot()
        assert snap["counters"]["parallel.tasks"] == 3
        assert snap["histograms"]["parallel.task_wall_s"]["count"] == 3

    def test_parallel_map_worker_metrics(self):
        obs.enable(metrics=True, progress=False)
        assert parallel_map(lambda x: x + 1, [1, 2], workers=2) == [2, 3]
        snap = obs.snapshot()
        assert snap["counters"]["parallel.tasks"] == 2
        assert snap["histograms"]["parallel.queue_wait_s"]["count"] == 2
        assert snap["gauges"]["parallel.workers"] == 2


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_span_export_validates(self):
        tracer = Tracer()
        with tracer.span("outer", "test", n=1):
            with tracer.span("inner", "test"):
                pass
            tracer.instant("mark", "test", value=3)
        payload = tracer.to_chrome_json()
        assert validate_trace_events(payload) == (2, 1)

    def test_open_spans_closed_as_truncated(self):
        tracer = Tracer()
        tracer.begin("never-closed")
        payload = tracer.to_chrome_json()
        validate_trace_events(payload)
        doc = json.loads(payload)
        assert doc["traceEvents"][-1]["cat"] == "truncated"

    def test_process_name_metadata(self):
        tracer = Tracer()
        doc = json.loads(tracer.to_chrome_json(process_name="bench"))
        meta = doc["traceEvents"][0]
        assert meta["ph"] == "M"
        assert meta["args"]["name"] == "bench"

    def test_global_span_records_when_tracing_on(self):
        obs.enable(metrics=False, tracing=True, progress=False)
        with obs.span("phase", "test"):
            obs.instant("tick", "test")
        from repro.obs.tracer import TRACER
        assert validate_trace_events(TRACER.to_chrome_json()) == (1, 1)

    def test_save_trace(self, tmp_path):
        obs.enable(tracing=True, progress=False)
        with obs.span("x"):
            pass
        path = tmp_path / "t.json"
        obs.save_trace(str(path))
        validate_trace_events(path.read_text())

    def test_validator_rejects_unbalanced(self):
        payload = json.dumps({"traceEvents": [
            {"name": "a", "ph": "E", "pid": 1, "tid": 0, "ts": 0.0},
        ]})
        with pytest.raises(ValueError):
            validate_trace_events(payload)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------
class TestManifest:
    def test_path_convention(self):
        assert manifest_path_for("t.json") == "t.manifest.json"
        assert manifest_path_for("out/t.trace.json") \
            == "out/t.trace.manifest.json"
        assert manifest_path_for("trace.bin") == "trace.bin.manifest.json"

    def test_build_extracts_seeds_and_drops_func(self):
        manifest = build_manifest(
            command="table", argv=["table", "3"],
            config={"func": print, "seeds": 3, "which": 3},
            wall_s=1.5, started_utc="2026-01-01T00:00:00+00:00",
            metrics={"counters": {}}, trace_file="t.json", version="1.0.0")
        doc = manifest.to_doc()
        assert doc["manifest_version"] == MANIFEST_VERSION
        assert doc["run"]["seeds"] == [1, 2, 3]
        assert "func" not in doc["run"]["config"]
        assert doc["trace_file"] == "t.json"

    def test_single_seed(self):
        manifest = build_manifest(command="runktau", argv=[],
                                  config={"seed": 42}, wall_s=0.1,
                                  started_utc="", metrics={})
        assert manifest.seeds == [42]

    def test_roundtrip_via_file(self, tmp_path):
        manifest = RunManifest(command="x", argv=["x"], config={}, seeds=[1],
                               wall_s=2.0, started_utc="now", metrics={},
                               version="1.0.0")
        path = tmp_path / "m.json"
        manifest.write(str(path))
        doc = json.loads(path.read_text())
        assert doc == manifest.to_doc()

    def test_non_jsonable_config_coerced(self):
        manifest = build_manifest(command="x", argv=[],
                                  config={"obj": object(), "t": (1, 2)},
                                  wall_s=0.0, started_utc="", metrics={})
        json.dumps(manifest.to_doc())
        assert manifest.config["t"] == [1, 2]


# ---------------------------------------------------------------------------
# Determinism: observability must not perturb results
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_profiles_identical_with_obs_enabled(self):
        baseline = profiles_to_json(run_once(31))
        obs.enable(metrics=True, tracing=True, progress=False)
        observed = profiles_to_json(run_once(31))
        obs.disable()
        assert observed == baseline

    def test_parallel_sweep_identical_with_obs_enabled(self):
        seeds = [11, 22]
        baseline = [profiles_to_json(run_once(seed)) for seed in seeds]
        obs.enable(metrics=True, tracing=True, progress=False)
        fanned = parallel_map(run_once, seeds, workers=2, label="obs-test")
        obs.disable()
        assert [profiles_to_json(data) for data in fanned] == baseline

    def test_ktaud_export_byte_stable(self):
        from repro.analysis.export import ktaud_snapshots_to_json
        from repro.cli import main

        import io
        from contextlib import redirect_stdout

        def dump():
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main(["ktaud", "--iterations", "3",
                             "--duration-s", "1", "--drain-traces"]) == 0
            return buf.getvalue()

        first = dump()
        assert first == dump()
        doc = json.loads(first)
        assert len(doc["snapshots"]) > 0
        # --drain-traces builds the kernel with tracing, so the drains
        # carry records.
        assert any(trace["records"] for snap in doc["snapshots"]
                   for trace in snap["traces"].values())
        assert ktaud_snapshots_to_json([]) == '{"snapshots":[]}'


# ---------------------------------------------------------------------------
# CLI integration (the PR's acceptance shape)
# ---------------------------------------------------------------------------
class TestCli:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_trace_out_and_metrics(self, tmp_path, capsys):
        from repro.cli import main
        trace = tmp_path / "t.json"
        code = main(["table", "4", "--trace-out", str(trace), "--metrics"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Table 4" in captured.out
        validate_trace_events(trace.read_text())
        manifest = json.loads(
            (tmp_path / "t.manifest.json").read_text())
        assert manifest["run"]["command"] == "table"
        assert manifest["trace_file"] == str(trace)
        assert manifest["wall"]["wall_s"] > 0
        # flags leave no ambient observability behind
        assert not obs.enabled()
        assert len(obs.REGISTRY) == 0

    def test_obs_demo_subcommand(self, capsys):
        from repro.cli import main
        assert main(["obs", "--iterations", "3"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["engine.events_fired"] > 0
        assert snap["counters"]["ktau.tasks_exited"] >= 1
        assert not obs.enabled()

    def test_runktau_with_metrics_flag(self, tmp_path, capsys):
        from repro.cli import main
        trace = tmp_path / "run.trace.json"
        code = main(["runktau", "--iterations", "2",
                     "--trace-out", str(trace), "--metrics"])
        assert code == 0
        spans, _instants = validate_trace_events(trace.read_text())
        assert spans >= 2  # the root CLI span plus engine.run spans
        manifest = json.loads(
            (tmp_path / "run.trace.manifest.json").read_text())
        assert manifest["run"]["seeds"] == [42]
        assert manifest["metrics"]["counters"]["engine.runs"] >= 1
