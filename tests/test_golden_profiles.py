"""Byte-identity goldens for full-experiment profile output.

These hashes were captured from the binary-heap engine immediately
before the calendar-queue rewrite (PR 8).  The queue replacement is a
pure performance change: every experiment must produce *byte-identical*
profile JSON, because dispatch order — not just dispatch content — is
part of the determinism contract (ROADMAP invariant: same seed, same
profiles, to the nanosecond).

If a future PR intentionally changes simulated behaviour, regenerate
``tests/goldens/engine_profiles.json`` and say so in the PR; these tests
failing on an engine-only change means event ordering drifted.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.export import profiles_to_json
from repro.analysis.profiles import harvest_job
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.sim.units import MSEC
from repro.workloads.lu import LuParams, lu_app

_GOLD = json.loads(
    (Path(__file__).parent / "goldens" / "engine_profiles.json").read_text())


def test_lu_profiles_byte_identical_to_golden():
    params = LuParams(niters=3, iter_compute_ns=8 * MSEC, halo_bytes=8192,
                      sweep_msg_bytes=2048, inorm=2)
    cluster = make_chiba(nnodes=4, seed=1)
    job = launch_mpi_job(cluster, 8, lu_app(params),
                         placement=block_placement(2, 8))
    job.run(limit_s=600)
    payload = profiles_to_json(harvest_job(job))
    cluster.teardown()
    assert hashlib.sha256(payload.encode()).hexdigest() == _GOLD["lu_sha256"]


def test_fig2_profiles_byte_identical_to_golden():
    from repro.experiments.fig2_controlled import run_fig2ab
    res = run_fig2ab(seed=1)
    payload = profiles_to_json(res.data)
    assert hashlib.sha256(payload.encode()).hexdigest() == _GOLD["fig2_sha256"]


def test_lu_counters_profiles_byte_identical_to_golden():
    """The same LU run with the §6 counters build option on: the PMC
    sections extend the export deterministically, so the counters-on
    output is golden-pinned too (captured when the counter model
    landed)."""
    from repro.core.config import KtauBuildConfig

    params = LuParams(niters=3, iter_compute_ns=8 * MSEC, halo_bytes=8192,
                      sweep_msg_bytes=2048, inorm=2)
    cluster = make_chiba(nnodes=4, seed=1,
                         ktau=KtauBuildConfig.full(counters=True))
    job = launch_mpi_job(cluster, 8, lu_app(params),
                         placement=block_placement(2, 8))
    job.run(limit_s=600)
    payload = profiles_to_json(harvest_job(job))
    cluster.teardown()
    assert hashlib.sha256(payload.encode()).hexdigest() \
        == _GOLD["lu_counters_sha256"]


def test_lu_extensions_export_and_traces_byte_identical_to_golden():
    """The same LU run with tracing, counters and the call graph all
    built in (the build ``examples/merged_callgraph.py`` uses): the
    export, with its counter and call-graph sections, and every task's
    drained trace, in node and pid order.  The 256-entry rings overflow,
    so the records they keep and the lost counts are pinned too."""
    from repro.core.config import KtauBuildConfig

    params = LuParams(niters=3, iter_compute_ns=8 * MSEC, halo_bytes=8192,
                      sweep_msg_bytes=2048, inorm=2)
    cluster = make_chiba(nnodes=4, seed=1, ktau=KtauBuildConfig(
        tracing=True, counters=True, callgraph=True,
        trace_buffer_entries=256))
    job = launch_mpi_job(cluster, 8, lu_app(params),
                         placement=block_placement(2, 8))
    job.run(limit_s=600)
    digest = hashlib.sha256(profiles_to_json(harvest_job(job)).encode())
    for node in cluster.nodes:
        proc, ktau = node.kernel.ktau_proc, node.kernel.ktau
        for pid in sorted({*ktau.tasks, *ktau.zombies}):
            packed, size = proc.trace_read(pid, 1 << 30)
            assert len(packed) == size
            digest.update(packed)
    cluster.teardown()
    assert digest.hexdigest() == _GOLD["lu_extensions_sha256"]


# ---------------------------------------------------------------------------
# Monitored and faulted runs: the online monitor's JSON, the integrated
# timeline and the chaos artifacts, through every entry point that sets
# up a monitored run (library, chaos harness, CLI).  Captured before the
# set-up of these runs moved behind repro.experiments.common.run_job.
# ---------------------------------------------------------------------------
def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_monitored_fig2_byte_identical_to_golden():
    from repro.experiments.fig2_controlled import run_fig2ab
    from repro.monitor import MonitorConfig, monitor_data_to_json

    res = run_fig2ab(seed=1,
                     monitor_config=MonitorConfig(period_ns=100 * MSEC))
    assert res.monitor is not None and res.timeline is not None
    assert _sha(monitor_data_to_json(res.monitor)) \
        == _GOLD["fig2_monitor_sha256"]
    assert _sha(res.timeline) == _GOLD["fig2_timeline_sha256"]


@pytest.mark.parametrize("experiment", ["fig2", "lu"])
def test_chaos_byte_identical_to_golden(experiment):
    from repro.analysis.export import canonical_json
    from repro.experiments.chaos import run_chaos

    report = run_chaos("kill-and-partition", experiment, seed=1)
    assert _sha(report.alerts_json) \
        == _GOLD[f"chaos_{experiment}_alerts_sha256"]
    assert _sha(canonical_json(report.to_doc())) \
        == _GOLD[f"chaos_{experiment}_report_sha256"]


@pytest.mark.parametrize("experiment", ["demo", "chiba"])
def test_cli_monitor_byte_identical_to_golden(experiment, tmp_path, capsys):
    from repro.cli import main

    timeline = tmp_path / "timeline.json"
    alerts = tmp_path / "alerts.json"
    assert main(["monitor", "--experiment", experiment,
                 "--timeline-out", str(timeline),
                 "--alerts-out", str(alerts)]) == 0
    capsys.readouterr()
    assert _sha(alerts.read_text()) \
        == _GOLD[f"monitor_{experiment}_alerts_sha256"]
    assert _sha(timeline.read_text()) \
        == _GOLD[f"monitor_{experiment}_timeline_sha256"]


# ---------------------------------------------------------------------------
# The two fig2 benchmark workloads at their default seed: the same outputs
# perfbench/run.py pins, checked here by the tier-1 suite.
# ---------------------------------------------------------------------------
def fig2_traced_sha() -> str:
    """SHA-256 of the fig2_traced workload's canonical output at seed 1."""
    from repro.analysis.export import canonical_json
    from repro.experiments.bottleneck import run_bottleneck_fig2
    from repro.monitor import MonitorConfig

    result = run_bottleneck_fig2(
        1, top_k=10, monitor_config=MonitorConfig(period_ns=100 * MSEC,
                                                  bottleneck_top_k=10))
    return _sha(canonical_json({"report": result.report.to_doc(),
                                "monitor": result.monitor.to_doc()}))


def test_fig2_traced_byte_identical_to_golden():
    assert fig2_traced_sha() == _GOLD["fig2_traced_sha256"]


def test_fig2_counters_byte_identical_to_golden():
    from repro.analysis.export import canonical_json
    from repro.experiments.counters_demo import run_counters_demo

    assert _sha(canonical_json(run_counters_demo(1).to_doc())) \
        == _GOLD["fig2_counters_sha256"]
