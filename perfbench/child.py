"""One benchmark rep in a fresh interpreter.

    PYTHONPATH=src python perfbench/child.py WORKLOAD SEED [--traced]

Imports the workload's modules (the set-up), runs the workload once
through the repo's public entry points, checks its output, and prints
one JSON line: when set-up ended, the run's wall time, the mean
host-speed sample, the sha256 of the run's canonical output, the
workload's verdict and the peak RSS.  ``--traced`` runs the workload
under cProfile with obs metrics on, unsampled, and adds the per-layer
numbers.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import heapq
import json
import os
import pstats
import resource
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable

from layers import layer_numbers


class _ProbeTask:
    __slots__ = ("pid", "vruntime", "acc")

    def __init__(self, pid: int):
        self.pid = pid
        self.vruntime = 0
        self.acc: dict[int, int] = {}


def host_probe(events: int = 2000) -> float:
    """Seconds for a fixed pure-Python event loop: one host-speed sample.

    Heap-ordered events over slotted task objects with dict updates, the
    same kinds of work the simulator does.  The code never changes with
    the repo, so a rep's time over its probe time tracks the code under
    test, not the speed the shared host happens to give.
    """
    t0 = time.perf_counter()
    queue = [(pid * 7, pid, _ProbeTask(pid)) for pid in range(64)]
    heapq.heapify(queue)
    seq = len(queue)
    for _ in range(events):
        now, _seq, task = heapq.heappop(queue)
        key = now % 13
        task.acc[key] = task.acc.get(key, 0) + (now & 255)
        task.vruntime += (now * 2654435761) % 1000
        seq += 1
        heapq.heappush(queue, (now + 1 + task.vruntime % 97, seq, task))
    return time.perf_counter() - t0


class HostSampler:
    """Samples host speed all through a rep: every ``INTERVAL_S`` of wall
    time a SIGALRM handler times :func:`host_probe`.

    Probes before and after a run missed bursts of contention during it;
    samples spread over the run halved the rep-to-rep spread of scaled
    wall time.  The samples cost about 3% of the rep, and their time is
    taken out of the rep's times.
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        #: (time.monotonic() at start, seconds) per sample
        self.samples: list[tuple[float, float]] = []

    def _tick(self, _signum, _frame) -> None:
        self.samples.append((time.monotonic(), host_probe()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick(None, None)  # at least one sample, however short the rep

    def spent_s(self, since: float, until: float) -> float:
        """Seconds spent sampling between two ``time.monotonic()`` stamps."""
        return sum(d for t, d in self.samples if since <= t < until)

    @property
    def mean_s(self) -> float:
        return sum(d for _t, d in self.samples) / len(self.samples)


@dataclass
class Outcome:
    """What one run produced: canonical output and the verdict on it."""

    output: str
    ok: bool
    detail: str
    export_s: float


def _lu(vanilla: bool, faults_armed: bool = False) -> Callable[[int], Outcome]:
    """32-rank LU on 16 Chiba nodes, KTAU+TAU profiling or a vanilla kernel."""
    from repro.analysis.export import profiles_to_json
    from repro.analysis.profiles import harvest_job
    from repro.cluster.launch import block_placement, launch_mpi_job
    from repro.cluster.machines import make_chiba
    from repro.core.config import KtauBuildConfig
    from repro.sim.units import MSEC
    from repro.workloads.lu import LuParams, lu_app

    params = LuParams(niters=8, iter_compute_ns=20 * MSEC, halo_bytes=65536,
                      sweep_msg_bytes=4096, inorm=2)
    nranks = 32

    def run(seed: int) -> Outcome:
        cluster = make_chiba(
            16, seed=seed, ktau=KtauBuildConfig.vanilla() if vanilla else None)
        if faults_armed:
            from repro.faults import FaultInjector, FaultPlan
            FaultInjector(cluster, FaultPlan("bench-empty")).arm()
        job = launch_mpi_job(cluster, nranks, lu_app(params),
                             placement=block_placement(2, nranks),
                             tau_enabled=not vanilla)
        job.run(limit_s=600)
        data = harvest_job(job)
        cluster.teardown()
        t0 = time.perf_counter()
        output = profiles_to_json(data)
        export_s = time.perf_counter() - t0
        if vanilla:
            ok = all(r.kprofile is None and r.uprofile is None
                     for r in data.ranks)
        else:
            ok = all(r.kprofile is not None and r.kprofile.perf
                     and r.uprofile is not None and "main()" in r.uprofile.perf
                     for r in data.ranks)
        ok = ok and len(data.ranks) == nranks \
            and all(r.exec_ns > 0 for r in data.ranks)
        return Outcome(output, ok, f"{len(data.ranks)} ranks harvested",
                       export_s)

    return run


def _fig2_traced() -> Callable[[int], Outcome]:
    """Traced fig2 with the online attributor: ``make bottlenecks-demo``."""
    from repro.analysis.export import canonical_json
    from repro.experiments.bottleneck import run_bottleneck_fig2
    from repro.monitor import BOTTLENECK, MonitorConfig
    from repro.sim.units import MSEC

    def run(seed: int) -> Outcome:
        result = run_bottleneck_fig2(
            seed, top_k=10,
            monitor_config=MonitorConfig(period_ns=100 * MSEC,
                                         bottleneck_top_k=10))
        t0 = time.perf_counter()
        output = canonical_json({"report": result.report.to_doc(),
                                 "monitor": result.monitor.to_doc()})
        export_s = time.perf_counter() - t0
        # The pinned digest fixes the demo's strict claim at the default
        # seed: ccn007 is the offline top blocker and draws the online
        # alert.  Over seeds 1-120 it was the top blocker on 112, second
        # on 8, and drew the alert on 119, so every seed must meet this:
        top_two = [node for node, _ns in result.report.blockers[:2]]
        ok = result.perturbed_node == "ccn007" and "ccn007" in top_two
        online = result.monitor.alert_nodes(BOTTLENECK)
        return Outcome(output, ok, f"top blockers {top_two}, online {online}",
                       export_s)

    return run


def _fig2_counters() -> Callable[[int], Outcome]:
    """The counters-build demo: ``make counters-demo``."""
    from repro.analysis.export import canonical_json
    from repro.experiments.counters_demo import run_counters_demo

    def run(seed: int) -> Outcome:
        result = run_counters_demo(seed)
        t0 = time.perf_counter()
        output = canonical_json(result.to_doc())
        export_s = time.perf_counter() - t0
        # The pinned digest fixes counter-only detection at the default
        # seed.  On 35 of seeds 1-120 a time detector fires too, but the
        # counter dimension flagged exactly the thrasher on all 120.
        ok = result.counter_outlier_nodes == [result.thrasher_node]
        return Outcome(output, ok,
                       f"counter outliers {result.counter_outlier_nodes}, "
                       f"time outliers {result.time_outlier_nodes}", export_s)

    return run


#: workload name -> set-up function returning the run function.
WORKLOADS: dict[str, Callable[[], Callable[[int], Outcome]]] = {
    "lu_profile": lambda: _lu(vanilla=False),
    "lu_vanilla": lambda: _lu(vanilla=True),
    "fig2_traced": _fig2_traced,
    "fig2_counters": _fig2_counters,
    # Untimed check, not a workload: arming an empty fault plan must leave
    # lu_profile's output byte-identical (no tier-1 test pins this).
    "lu_profile_faults_armed": lambda: _lu(vanilla=False, faults_armed=True),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    # Traced reps are not sampled: the profiler would time the probes too.
    sampler = None if args.traced else HostSampler()
    if sampler is not None:
        sampler.start()
    started_at = time.monotonic()
    run = WORKLOADS[args.workload]()
    ready_at = time.monotonic()
    if args.traced:
        import repro
        from repro import obs
        obs.enable(metrics=True, tracing=False, progress=False)
        profile = cProfile.Profile()
        profile.enable()
    t0 = time.monotonic()
    outcome = run(args.seed)
    digest = hashlib.sha256(outcome.output.encode()).hexdigest()
    t1 = time.monotonic()
    rep = {"ready_at": ready_at, "wall_s": t1 - t0, "digest": digest,
           "ok": outcome.ok, "detail": outcome.detail,
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if sampler is not None:
        sampler.stop()
        rep["setup_probe_s"] = sampler.spent_s(started_at, ready_at)
        rep["wall_s"] -= sampler.spent_s(t0, t1)
        rep["probe_s"] = sampler.mean_s
    else:
        profile.disable()
        rep["layers"] = layer_numbers(
            pstats.Stats(profile).stats,
            os.path.dirname(os.path.abspath(repro.__file__)),
            obs.snapshot()["counters"], outcome.export_s)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
