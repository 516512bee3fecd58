"""Determinism: identical seeds reproduce entire cluster runs bit-for-bit,
and repeated runs in one process do not contaminate each other.

Bit-reproducibility is also what makes the :mod:`repro.parallel` fan-out
safe, so the serial/parallel equivalence tests live here: the same sweep
executed in-process and across worker processes must produce *identical*
exported profiles and trace statistics."""

import pytest

from repro.analysis.export import profiles_to_json
from repro.analysis.profiles import harvest_job
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.core.config import KtauBuildConfig
from repro.core.libktau import LibKtau
from repro.monitor import (ClusterMonitor, MonitorConfig, integrated_timeline,
                           monitor_data_to_json)
from repro.parallel import parallel_map, run_replications
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


def fingerprint(data):
    return (
        round(data.exec_time_s, 12),
        tuple(r.exec_ns for r in data.ranks),
        tuple(round(r.voluntary_sched_s(), 12) for r in data.ranks),
        tuple(round(r.involuntary_sched_s(), 12) for r in data.ranks),
        tuple(r.flow_rx_calls for r in data.ranks),
        tuple(sorted(
            (node, pid, name, perf)
            for node, profs in data.node_profiles.items()
            for pid, d in profs.items()
            for name, perf in d.perf.items())),
    )


def test_same_seed_bitwise_identical():
    assert fingerprint(run_once(123)) == fingerprint(run_once(123))


def test_different_seed_differs():
    assert fingerprint(run_once(123)) != fingerprint(run_once(124))


def test_back_to_back_runs_do_not_interfere():
    first = fingerprint(run_once(5))
    run_once(99)  # unrelated run in between
    assert fingerprint(run_once(5)) == first


# ---------------------------------------------------------------------------
# Serial vs parallel equivalence
# ---------------------------------------------------------------------------
def run_traced(seed):
    """A small traced run; returns rank 0's kernel trace statistics."""
    cluster = make_chiba(nnodes=2, seed=seed,
                         ktau=KtauBuildConfig.full(tracing=True))
    job = launch_mpi_job(cluster, 2, lu_app(PARAMS),
                         placement=block_placement(1, 2))
    job.run(limit_s=600)
    node = job.world.rank_nodes[0]
    task = job.world.rank_tasks[0]
    dump = LibKtau(node.kernel.ktau_proc).read_trace(task.pid)
    cluster.teardown()
    return dump.lost, tuple(dump.records)


def test_parallel_sweep_bit_identical_to_serial():
    """The same seed sweep through worker processes exports byte-identical
    profiles — the contract that makes repro.parallel safe to use."""
    seeds = [11, 22]
    serial = [profiles_to_json(run_once(seed)) for seed in seeds]
    fanned = parallel_map(run_once, seeds, workers=2)
    assert [profiles_to_json(data) for data in fanned] == serial
    assert [fingerprint(data) for data in fanned] \
        == [fingerprint(run_once(seed)) for seed in seeds]


def test_parallel_traced_run_matches_serial():
    """Trace statistics (lost count and every record) survive the worker
    round-trip unchanged."""
    seeds = [7, 8]
    serial = [run_traced(seed) for seed in seeds]
    assert parallel_map(run_traced, seeds, workers=2) == serial


def run_monitored(seed):
    """A monitored run; returns the canonical JSON of everything the
    monitor produces (harvest + integrated timeline)."""
    cluster = make_chiba(nnodes=4, seed=seed)
    monitor = ClusterMonitor(cluster, MonitorConfig(period_ns=10 * MSEC))
    job = launch_mpi_job(cluster, 8, lu_app(PARAMS),
                         placement=block_placement(2, 8),
                         node_setup=monitor.attach_node)
    job.run(limit_s=600)
    data = monitor.harvest()
    timeline = integrated_timeline(data, job)
    cluster.teardown()
    return monitor_data_to_json(data), timeline


def test_monitored_runs_bit_identical_serial_vs_parallel():
    """Monitoring keeps a run deterministic: the harvested series, alerts,
    and the integrated timeline are byte-identical whether the sweep runs
    in-process or through worker processes."""
    seeds = [31, 32]
    serial = [run_monitored(seed) for seed in seeds]
    assert parallel_map(run_monitored, seeds, workers=2) == serial
    # and monitoring is itself reproducible run-to-run
    assert run_monitored(31) == serial[0]


def test_run_replications_matches_serial():
    cells = {seed: (lambda seed=seed: fingerprint(run_once(seed)))
             for seed in (3, 4)}
    fanned = run_replications(cells, workers=2)
    assert list(fanned) == [3, 4]  # input key order, not completion order
    assert fanned == {seed: fingerprint(run_once(seed)) for seed in (3, 4)}


# ---------------------------------------------------------------------------
# Bottleneck reports
# ---------------------------------------------------------------------------
def run_bottleneck(seed, monitored=False):
    """A traced run through the lost-time analyzer; returns the canonical
    report JSON (plus the monitor JSON when the streaming attributor is on)."""
    from repro.analysis.bottlenecks import report_to_json
    from repro.experiments.bottleneck import run_bottleneck_lu

    config = (MonitorConfig(period_ns=10 * MSEC, bottleneck_top_k=5)
              if monitored else None)
    result = run_bottleneck_lu(seed=seed, monitor_config=config)
    monitor_json = (monitor_data_to_json(result.monitor)
                    if result.monitor is not None else None)
    return report_to_json(result.report), monitor_json


#: SHA-256 of the canonical seed-1 small-LU bottleneck report.  Pins the
#: whole attribution pipeline — wait extraction, message-flow matching,
#: transitive charging, ranking — not just its determinism.
BOTTLENECK_REPORT_SHA = \
    "6c66993f58f3a1479ddac4351d6fa0e9169003ecbd6a05c4fcfaca5aa0acfa2e"


def test_bottleneck_report_matches_golden():
    import hashlib
    report_json, _ = run_bottleneck(1)
    digest = hashlib.sha256(report_json.encode("utf-8")).hexdigest()
    assert digest == BOTTLENECK_REPORT_SHA, (
        "bottleneck report changed; if intentional, update "
        f"BOTTLENECK_REPORT_SHA to {digest}")


def test_bottleneck_reports_bit_identical_serial_vs_parallel():
    """Reports survive the worker round-trip byte-for-byte, repeated seeds
    agree, and different seeds differ."""
    seeds = [41, 42]
    serial = [run_bottleneck(seed) for seed in seeds]
    assert parallel_map(run_bottleneck, seeds, workers=2) == serial
    assert run_bottleneck(41) == serial[0]
    assert serial[0] != serial[1]


def test_streaming_attributor_does_not_perturb_the_simulation():
    """The attributor is host-side analysis: a monitored run produces the
    same traces — hence byte-identical offline reports — with it on or
    off (monitoring itself perturbs, so both runs are monitored)."""
    from repro.analysis.bottlenecks import report_to_json
    from repro.experiments.bottleneck import run_bottleneck_lu

    plain = run_bottleneck_lu(seed=9,
                              monitor_config=MonitorConfig(period_ns=10 * MSEC))
    streamed_json, monitor_json = run_bottleneck(9, monitored=True)
    assert report_to_json(plain.report) == streamed_json
    assert monitor_json is not None and '"bottleneck":[' in monitor_json


def run_faulted(seed):
    """A monitored run under an injected fault plan; returns the canonical
    JSON of the harvested monitor state plus the injection log."""
    from repro.faults import FaultInjector, FaultPlan, KtaudKill, PacketLoss

    plan = FaultPlan("det", (
        KtaudKill(at_ns=60 * MSEC),  # RNG-targeted
        PacketLoss(at_ns=40 * MSEC, until_ns=200 * MSEC, rate=0.02),))
    cluster = make_chiba(nnodes=4, seed=seed)
    monitor = ClusterMonitor(cluster, MonitorConfig(period_ns=10 * MSEC))
    injector = FaultInjector(cluster, plan, monitor=monitor)
    job = launch_mpi_job(cluster, 8, lu_app(PARAMS),
                         placement=block_placement(2, 8),
                         node_setup=monitor.attach_node)
    injector.arm()
    job.run(limit_s=600)
    data = monitor.harvest()
    cluster.teardown()
    return monitor_data_to_json(data), injector.injected


def test_faulted_runs_bit_identical():
    """Fault injection preserves determinism: the same plan and seed
    reproduce the same alerts, series, and injection log byte-for-byte,
    and a different seed draws different RNG targets or deliveries."""
    first = run_faulted(21)
    again = run_faulted(21)
    assert first == again
    assert first != run_faulted(22)


# ---------------------------------------------------------------------------
# Collection timing
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("setting", ["disabled", "threshold_50_1_1"])
def test_collection_timing_does_not_change_fig2_traced(setting):
    """The traced fig2 run gives its pinned digest with the cyclic
    collector off and with it collecting every 50 allocations: no output
    may depend on when, or whether, a collection runs."""
    import gc

    from tests.test_golden_profiles import _GOLD, fig2_traced_sha

    enabled, threshold = gc.isenabled(), gc.get_threshold()
    try:
        if setting == "disabled":
            gc.disable()
        else:
            gc.set_threshold(50, 1, 1)
        digest = fig2_traced_sha()
    finally:
        gc.set_threshold(*threshold)
        if enabled:
            gc.enable()
        else:
            gc.disable()
    assert digest == _GOLD["fig2_traced_sha256"]
