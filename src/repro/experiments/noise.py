"""OS-noise amplification (the paper's motivating problem).

The introduction motivates KTAU with OS effects like those in Petrini et
al.'s "Case of the Missing Supercomputer Performance" [12] and Jones et
al. [21]: per-node OS interference that is negligible locally gets
*amplified* by collective synchronisation — at every barrier, everyone
waits for whichever rank the noise hit this step, so expected slowdown
grows with the node count.

This experiment reproduces the phenomenon on the simulated substrate and
shows KTAU attributing it: a barrier-synchronised fine-grained
computation (the classic noise benchmark shape, e.g. P-SNAP) is run with
and without a noisy daemon set, across increasing node counts.  The
measured slowdown climbs with scale while per-node noise stays flat, and
the KTAU profiles show it arriving as involuntary scheduling +
interrupt time on whichever rank is hit and voluntary waiting everywhere
else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.analysis.profiles import JobData, harvest_job
from repro.cluster.daemons import start_busy_daemon
from repro.cluster.launch import block_placement
from repro.cluster.machines import make_chiba
from repro.experiments.common import run_job
from repro.monitor import MonitorConfig, MonitorData
from repro.parallel import parallel_map
from repro.sim.units import MSEC


@dataclass(frozen=True)
class NoiseParams:
    """The fine-grained synchronised workload + the injected noise."""

    steps: int = 60
    quantum_ns: int = 2 * MSEC  # compute per step (fine-grained!)
    #: noise daemon: period and burst (a few % local utilisation)
    noise_period_ns: int = 40 * MSEC
    noise_burst_ns: int = 2 * MSEC


def _noise_app(params: NoiseParams):
    def app(ctx, mpi):
        tau = ctx.task.tau
        from contextlib import nullcontext

        timer = tau.timer if tau is not None else (lambda n: nullcontext())
        for _ in range(params.steps):
            with timer("quantum"):
                yield from ctx.compute(params.quantum_ns)
            yield from mpi.allreduce(16)

    return app


@dataclass
class NoiseResult:
    nranks: int
    clean_s: float
    noisy_s: float
    data_noisy: JobData
    #: online-monitor harvests when the point ran monitored (else None)
    monitor_clean: Optional[MonitorData] = None
    monitor_noisy: Optional[MonitorData] = None

    @property
    def slowdown_pct(self) -> float:
        return 100.0 * (self.noisy_s - self.clean_s) / self.clean_s


def _run_noise_cell(cell: tuple) -> tuple[float, JobData, Optional[MonitorData]]:
    """One (scale, clean/noisy) simulation — a replication-runner cell.

    Module-level (not a closure) so plain pickle suffices when the cell
    crosses a process boundary.  ``cell`` is ``(nranks, params, seed,
    noisy)`` with an optional fifth :class:`MonitorConfig` element; with
    it the run happens under a :class:`ClusterMonitor`, whose harvest is
    the third element of the return.
    """
    nranks, params, seed, noisy = cell[:4]
    monitor_config = cell[4] if len(cell) > 4 else None
    cluster = make_chiba(nnodes=nranks, seed=seed)
    if noisy:
        for node in cluster.nodes:
            start_busy_daemon(node, pin_cpu=0,
                              period_ns=params.noise_period_ns,
                              busy_ns=params.noise_burst_ns,
                              comm="noised", random_phase=True)
    job, monitor, _injected = run_job(
        cluster, nranks, _noise_app(params), limit_s=600,
        monitor_config=monitor_config,
        placement=block_placement(1, nranks), start_daemons=False)
    data = harvest_job(job)
    monitor_data = monitor.harvest() if monitor is not None else None
    cluster.teardown()
    return data.exec_time_s, data, monitor_data


def run_noise_point(nranks: int, params: NoiseParams | None = None,
                    seed: int = 1,
                    monitor_config: MonitorConfig | None = None,
                    workers: int | None = None) -> NoiseResult:
    """One scale point: the synchronised quanta with and without noise.

    With ``monitor_config`` both cells run under the online monitor; the
    noisy cell's interference alerts then name the ``noised`` daemons.
    """
    if params is None:
        params = NoiseParams()
    cells = [(nranks, params, seed, False, monitor_config),
             (nranks, params, seed, True, monitor_config)]
    (clean_s, _, mon_clean), (noisy_s, data, mon_noisy) = parallel_map(
        _run_noise_cell, cells, workers=workers,
        keys=["clean", "noisy"])
    return NoiseResult(nranks=nranks, clean_s=clean_s, noisy_s=noisy_s,
                       data_noisy=data, monitor_clean=mon_clean,
                       monitor_noisy=mon_noisy)


def amplification_sweep(scales=(4, 16, 64), params: NoiseParams | None = None,
                        seed: int = 1,
                        workers: int | None = None) -> list[NoiseResult]:
    """The noise-amplification curve: slowdown vs node count.

    All ``len(scales) * 2`` clean/noisy simulations are independent, so
    the whole sweep flattens into one :func:`repro.parallel.parallel_map`
    fan-out; rows are reassembled per scale point in input order.
    """
    if params is None:
        params = NoiseParams()
    cells = [(n, params, seed, noisy) for n in scales
             for noisy in (False, True)]
    with obs.span("noise.amplification_sweep", "experiment",
                  scales=list(scales)):
        flat = parallel_map(_run_noise_cell, cells, workers=workers,
                            keys=[(n, "noisy" if noisy else "clean")
                                  for n, _p, _s, noisy in cells],
                            label="noise")
    results = []
    for i, nranks in enumerate(scales):
        clean_s, _, _mon = flat[2 * i]
        noisy_s, data, _mon = flat[2 * i + 1]
        results.append(NoiseResult(nranks=nranks, clean_s=clean_s,
                                   noisy_s=noisy_s, data_noisy=data))
    return results


def render(results: list[NoiseResult]) -> str:
    """Render the amplification curve."""
    from repro.analysis.render import ascii_table

    rows = [(r.nranks, r.clean_s, r.noisy_s, r.slowdown_pct)
            for r in results]
    return ascii_table(
        ("nodes", "clean (s)", "noisy (s)", "slowdown %"), rows,
        floatfmt=".3f",
        title="OS-noise amplification (per-node noise fixed; paper intro "
              "refs [12]/[21])")
