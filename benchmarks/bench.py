"""The committed performance harness: ``make bench``.

Measures the things this substrate optimises and writes them to a JSON
artifact (``BENCH_pr10.json`` at the repo root is the committed record):

1. **Engine hot path** — the self-rescheduling churn loop from
   ``benchmarks/test_simulator_speed.py`` (50k events through the
   dispatch loop).  This is a diagnostic, not a goal: the end-to-end
   numbers live in ``perfbench/``.
2. **Parallel fan-out** — a 4-replication LU sweep executed serially and
   through ``repro.parallel`` worker processes, with the serial and
   parallel profile exports hashed to prove bit-identity alongside the
   wall-clock numbers.
3. **Observability** — the churn loop re-run with :mod:`repro.obs`
   metrics enabled (the KTAU-style always-on-counters cost, expected to
   be noise), plus the harness metrics snapshot of an instrumented
   churn + LU replication.
4. **Cluster monitor** — the churn loop re-run while a live
   :class:`~repro.monitor.ClusterMonitor` (attached daemons, subscribed
   snapshot callbacks) exists in the process, proving the monitor sits
   off the dispatch hot path; plus the honest price of monitoring an
   actual LU run (the per-period KTAUD daemon cost the paper predicts).
5. **Fault machinery** — the churn loop and an LU run with a
   :class:`~repro.faults.FaultInjector` armed on an *empty* plan vs
   without, including a byte-identity check on the LU profiles: a run
   with no faults due must be unchanged, not merely similar.
6. **Lost-time attribution** — a monitored LU run with the streaming
   bottleneck attributor (:mod:`repro.monitor.bottleneck`) off vs on,
   again with profile byte-identity checked: the attributor is
   host-side analysis and must not perturb the simulation.
7. **Simulated PMCs** — an LU run with the counters build option off vs
   on.  The counter model is pure per-charge integer arithmetic with no
   events of its own, so the wall-time delta should be small and —
   after stripping the counter sections from the counters-on export —
   the *time* profiles must byte-compare identical: counting cache
   misses must never change what the clock says.

Honesty note: speedup is reported next to ``cpu_count`` and a host
fingerprint (CPU model, python version).  On a single-CPU host the
parallel sweep *cannot* beat serial (expect ~1x minus fork overhead);
the committed artifact records whatever the machine really did.  Churn
rows report **min-of-N from interleaved reps** as the primary
statistic: on shared hosts the mean is dominated by scheduling noise
(identical code has been observed to vary 2x rep-to-rep here), while
the interleaved minimum is the closest observable to the code's true
cost.

Usage::

    PYTHONPATH=src python benchmarks/bench.py [--smoke] [--out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import time

from repro.analysis.export import profiles_to_json
from repro.analysis.profiles import harvest_job
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.parallel import parallel_map
from repro.sim.engine import Engine
from repro.sim.units import MSEC
from repro.workloads.lu import LuParams, lu_app

#: Mean of test_engine_raw_event_throughput immediately before the PR-5
#: hot-path rewrite, on the *seed container* — a different machine than
#: whatever runs this harness.  Kept as provenance metadata only.
SEED_CONTAINER_PRE_PR5_CHURN_MEAN_S = 0.06763

SWEEP_LU = LuParams(niters=3, iter_compute_ns=8 * MSEC, halo_bytes=8192,
                    sweep_msg_bytes=2048, inorm=2)


def host_fingerprint() -> dict:
    """Identify the machine so committed artifacts from different hosts
    are never compared as if they were the same baseline."""
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model or platform.processor() or "unknown",
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _interleaved(variants: dict, rounds: int) -> dict:
    """Time each no-arg callable ``rounds`` times, interleaving variants
    within every rep so host-load drift hits all of them equally.

    Returns ``{name: {"min_s", "mean_s"}}``; ``min_s`` is the primary
    statistic (see the module docstring's honesty note).
    """
    times: dict = {name: [] for name in variants}
    for _ in range(rounds):
        for name, fn in variants.items():
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return {name: {"min_s": min(ts), "mean_s": statistics.mean(ts)}
            for name, ts in times.items()}


def _churn(events: int) -> None:
    """The raw dispatch loop: one self-rescheduling event chain."""
    engine = Engine()
    count = events

    def reschedule():
        nonlocal count
        count -= 1
        if count > 0:
            engine.schedule(10, reschedule)

    engine.schedule(1, reschedule)
    engine.run_until_idle()
    assert engine.events_processed == events


def bench_engine_churn(events: int, rounds: int) -> dict:
    """The raw dispatch loop, min-of-N over ``rounds`` reps."""
    churn = _churn_stats(events, rounds)
    return {
        "events": events,
        "rounds": rounds,
        "min_s": churn["min_s"],
        "mean_s": churn["mean_s"],
        "events_per_s": events / churn["min_s"],
        "seed_container_pre_pr5_mean_s_50k": SEED_CONTAINER_PRE_PR5_CHURN_MEAN_S,
    }


def _lu_replication(seed: int) -> str:
    """One LU replication; returns the canonical profile JSON."""
    cluster = make_chiba(nnodes=4, seed=seed)
    job = launch_mpi_job(cluster, 8, lu_app(SWEEP_LU),
                         placement=block_placement(2, 8))
    job.run(limit_s=600)
    data = harvest_job(job)
    cluster.teardown()
    return profiles_to_json(data)


def bench_parallel_sweep(nreps: int, worker_counts: tuple[int, ...]) -> dict:
    """The replication fan-out: ``nreps`` seeds, serial vs each worker
    count, with bit-identity checked via profile-export hashes."""
    seeds = list(range(1, nreps + 1))

    def digest(payloads: list[str]) -> str:
        h = hashlib.sha256()
        for payload in payloads:
            h.update(payload.encode())
        return h.hexdigest()

    t0 = time.perf_counter()
    serial = parallel_map(_lu_replication, seeds, workers=1)
    serial_s = time.perf_counter() - t0
    serial_digest = digest(serial)

    runs = {}
    for workers in worker_counts:
        t0 = time.perf_counter()
        fanned = parallel_map(_lu_replication, seeds, workers=workers)
        elapsed = time.perf_counter() - t0
        runs[str(workers)] = {
            "wall_s": elapsed,
            "speedup_vs_serial": serial_s / elapsed,
            "bit_identical_to_serial": digest(fanned) == serial_digest,
        }

    return {
        "replications": nreps,
        "profile_sha256": serial_digest,
        "serial_wall_s": serial_s,
        "workers": runs,
    }


def _churn_stats(events: int, rounds: int) -> dict:
    """Plain churn timing (no baseline A/B) for the overhead benches."""
    return _interleaved({"churn": lambda: _churn(events)}, rounds)["churn"]


def bench_obs_overhead(events: int, rounds: int) -> dict:
    """Churn with obs metrics on vs off.

    The dispatch loop itself is uninstrumented (counters are published
    once per ``Engine.run``), so the on/off ratio should sit within
    measurement noise; the committed number keeps that claim honest.
    """
    from repro import obs

    off = _churn_stats(events, rounds)
    obs.enable(metrics=True, tracing=False, progress=False)
    try:
        on = _churn_stats(events, rounds)
    finally:
        obs.disable()
    return {
        "events": events,
        "rounds": rounds,
        "min_s_obs_off": off["min_s"],
        "min_s_obs_on": on["min_s"],
        "mean_s_obs_off": off["mean_s"],
        "mean_s_obs_on": on["mean_s"],
        "overhead_pct": 100.0 * (on["min_s"] - off["min_s"])
        / off["min_s"],
    }


def bench_monitor_overhead(events: int, rounds: int) -> dict:
    """Churn mean with a live cluster monitor in the process vs without.

    The monitor observes at KTAUD extraction points, never inside the
    engine dispatch loop, so ``overhead_pct`` (the <5% acceptance row)
    should be measurement noise.  The ``lu_*`` fields record the real
    cost of monitoring an application run: the per-node daemons are
    simulated processes whose extraction reads cost virtual CPU, plus
    the host-side interval/detection work per snapshot.
    """
    from repro.monitor import ClusterMonitor, MonitorConfig

    off = _churn_stats(events, rounds)
    cluster = make_chiba(nnodes=4, seed=1)
    monitor = ClusterMonitor(cluster, MonitorConfig(period_ns=10 * MSEC))
    monitor.attach()
    try:
        on = _churn_stats(events, rounds)
    finally:
        cluster.teardown()

    def lu_run(monitored: bool) -> float:
        t0 = time.perf_counter()
        c = make_chiba(nnodes=4, seed=1)
        mon = ClusterMonitor(c, MonitorConfig(period_ns=10 * MSEC)) \
            if monitored else None
        job = launch_mpi_job(c, 8, lu_app(SWEEP_LU),
                             placement=block_placement(2, 8),
                             node_setup=mon.attach_node if mon else None)
        job.run(limit_s=600)
        if mon is not None:
            mon.harvest()
        c.teardown()
        return time.perf_counter() - t0

    plain = min(lu_run(False) for _ in range(rounds))
    monitored = min(lu_run(True) for _ in range(rounds))
    return {
        "events": events,
        "rounds": rounds,
        "min_s_monitor_off": off["min_s"],
        "min_s_monitor_on": on["min_s"],
        "overhead_pct": 100.0 * (on["min_s"] - off["min_s"])
        / off["min_s"],
        "lu_plain_wall_s": plain,
        "lu_monitored_wall_s": monitored,
        "lu_overhead_pct": 100.0 * (monitored - plain) / plain,
    }


def bench_faults_overhead(events: int, rounds: int) -> dict:
    """Churn and LU wall time with the fault machinery detached vs armed
    on an empty plan.

    An injector with no faults schedules no engine events and installs
    no delivery or wire hooks, so the simulation under measurement must
    be untouched: both ``overhead_pct`` figures should be measurement
    noise and ``lu_bit_identical_to_plain`` must be True (the armed
    run's harvested profiles byte-compare against the plain run's).
    """
    from repro.faults import FaultInjector, FaultPlan

    off = _churn_stats(events, rounds)
    cluster = make_chiba(nnodes=4, seed=1)
    FaultInjector(cluster, FaultPlan("bench-empty")).arm()
    try:
        on = _churn_stats(events, rounds)
    finally:
        cluster.teardown()

    def lu_run(armed: bool) -> tuple[float, str]:
        t0 = time.perf_counter()
        c = make_chiba(nnodes=4, seed=1)
        if armed:
            FaultInjector(c, FaultPlan("bench-empty")).arm()
        job = launch_mpi_job(c, 8, lu_app(SWEEP_LU),
                             placement=block_placement(2, 8))
        job.run(limit_s=600)
        payload = profiles_to_json(harvest_job(job))
        c.teardown()
        return time.perf_counter() - t0, payload

    plain = [lu_run(False) for _ in range(rounds)]
    armed = [lu_run(True) for _ in range(rounds)]
    plain_s = min(t for t, _ in plain)
    armed_s = min(t for t, _ in armed)
    return {
        "events": events,
        "rounds": rounds,
        "min_s_faults_off": off["min_s"],
        "min_s_faults_armed": on["min_s"],
        "overhead_pct": 100.0 * (on["min_s"] - off["min_s"])
        / off["min_s"],
        "lu_plain_wall_s": plain_s,
        "lu_armed_wall_s": armed_s,
        "lu_overhead_pct": 100.0 * (armed_s - plain_s) / plain_s,
        "lu_bit_identical_to_plain": all(p == plain[0][1]
                                         for _, p in armed),
    }


def bench_bottleneck_overhead(rounds: int) -> dict:
    """Monitored LU wall time with the streaming lost-time attributor
    off (``bottleneck_top_k=0``) vs on.

    The attributor is host-side arithmetic over interval deltas the
    monitor already computes, so ``overhead_pct`` should be measurement
    noise — and because it never touches the simulation,
    ``profiles_bit_identical`` must be True: the attributed runs'
    harvested profiles byte-compare against the plain monitored run's.
    """
    from repro.monitor import ClusterMonitor, MonitorConfig

    def lu_run(top_k: int) -> tuple[float, str]:
        t0 = time.perf_counter()
        c = make_chiba(nnodes=4, seed=1)
        mon = ClusterMonitor(c, MonitorConfig(period_ns=10 * MSEC,
                                              bottleneck_top_k=top_k))
        job = launch_mpi_job(c, 8, lu_app(SWEEP_LU),
                             placement=block_placement(2, 8),
                             node_setup=mon.attach_node)
        job.run(limit_s=600)
        payload = profiles_to_json(harvest_job(job))
        mon.harvest()
        c.teardown()
        return time.perf_counter() - t0, payload

    off = [lu_run(0) for _ in range(rounds)]
    on = [lu_run(5) for _ in range(rounds)]
    off_s = min(t for t, _ in off)
    on_s = min(t for t, _ in on)
    return {
        "rounds": rounds,
        "lu_monitored_wall_s": off_s,
        "lu_attributed_wall_s": on_s,
        "overhead_pct": 100.0 * (on_s - off_s) / off_s,
        "profiles_bit_identical": all(p == off[0][1] for _, p in on),
    }


def bench_counters_overhead(rounds: int) -> dict:
    """LU wall time with the simulated-PMC build option off vs on.

    Counter advancement is integer arithmetic on the existing
    time-charging paths — no events, no RNG draws, no extra overhead
    cycles — so ``overhead_pct`` measures pure host-side bookkeeping
    and ``time_profiles_identical`` must be True: the counters-on
    export, with the counter sections stripped, byte-compares against
    the counters-off export (simulated time is untouched).
    """
    from repro.core.config import KtauBuildConfig

    def lu_run(counters: bool) -> tuple[float, str]:
        t0 = time.perf_counter()
        c = make_chiba(nnodes=4, seed=1,
                       ktau=KtauBuildConfig.full(counters=counters))
        job = launch_mpi_job(c, 8, lu_app(SWEEP_LU),
                             placement=block_placement(2, 8))
        job.run(limit_s=600)
        payload = profiles_to_json(harvest_job(job))
        c.teardown()
        return time.perf_counter() - t0, payload

    off: list[tuple[float, str]] = []
    on: list[tuple[float, str]] = []
    for _ in range(rounds):  # interleaved A/B, same-minute baseline
        off.append(lu_run(False))
        on.append(lu_run(True))
    off_s = min(t for t, _ in off)
    on_s = min(t for t, _ in on)

    def strip_counters(payload: str) -> str:
        doc = json.loads(payload)

        def scrub(node) -> None:
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

    baseline = strip_counters(off[0][1])
    return {
        "rounds": rounds,
        "lu_counters_off_wall_s": off_s,
        "lu_counters_on_wall_s": on_s,
        "overhead_pct": 100.0 * (on_s - off_s) / off_s,
        "time_profiles_identical":
            all(strip_counters(p) == baseline for _, p in on)
            and all(strip_counters(p) == baseline for _, p in off),
    }


def metrics_snapshot(events: int) -> dict:
    """Harness metrics for one instrumented churn + one LU replication."""
    from repro import obs

    obs.enable(metrics=True, tracing=False, progress=False)
    try:
        _churn(events)
        _lu_replication(seed=1)
        return obs.snapshot()
    finally:
        obs.disable()


def main(argv: list[str] | None = None) -> int:
    """Run the harness and write the JSON artifact."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI (artifact not meaningful)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: stdout only)")
    args = parser.parse_args(argv)

    if args.smoke:
        churn_events, churn_rounds, nreps = 5_000, 3, 2
    else:
        # Churn reps are cheap (~30ms each); 12 interleaved reps make
        # the min-of-N statistic robust against shared-host noise.
        churn_events, churn_rounds, nreps = 50_000, 12, 4

    cpus = os.cpu_count() or 1
    worker_counts = tuple(sorted({2, min(4, max(2, cpus))}))

    result = {
        "meta": {
            "smoke": args.smoke,
            "host": host_fingerprint(),
            "cpu_count": cpus,
            "note": ("parallel speedup is bounded by cpu_count; on a "
                     "1-CPU host ~1x is the honest ceiling.  Churn rows "
                     "are interleaved min-of-N; artifacts from different "
                     "hosts are not comparable (see meta.host)"),
        },
        "engine_churn": bench_engine_churn(churn_events, churn_rounds),
        "parallel_sweep": bench_parallel_sweep(nreps, worker_counts),
        "obs_overhead": bench_obs_overhead(churn_events, churn_rounds),
        "monitor_overhead": bench_monitor_overhead(churn_events,
                                                   churn_rounds),
        "faults_overhead": bench_faults_overhead(churn_events, churn_rounds),
        "bottleneck_overhead": bench_bottleneck_overhead(churn_rounds),
        "counters_overhead": bench_counters_overhead(churn_rounds),
        "metrics": metrics_snapshot(churn_events),
    }

    payload = json.dumps(result, indent=2, sort_keys=True)
    print(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    identical = all(run["bit_identical_to_serial"]
                    for run in result["parallel_sweep"]["workers"].values())
    identical = identical \
        and result["faults_overhead"]["lu_bit_identical_to_plain"] \
        and result["bottleneck_overhead"]["profiles_bit_identical"] \
        and result["counters_overhead"]["time_profiles_identical"]
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
