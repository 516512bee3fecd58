"""Ablations of the design choices DESIGN.md calls out.

Each ablation disables one mechanism and checks the phenomenon it is
responsible for disappears (or degrades) — run at reduced scale.
"""

import numpy as np
import pytest

from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.analysis.profiles import harvest_job
from repro.kernel.params import KernelParams
from repro.sim.units import MSEC
from repro.workloads.lu import LuParams, lu_app

ABLATION_LU = LuParams(niters=6, iter_compute_ns=60 * MSEC, halo_bytes=49_152,
                       sweep_msg_bytes=4_096, inorm=3, pipeline_fill_frac=0.02)


def run_lu(nranks=16, procs_per_node=2, pin=True, seed=4, tweak=None,
           params=ABLATION_LU, irq_balance=False):
    cluster = make_chiba(nnodes=nranks // procs_per_node, seed=seed,
                         irq_balance=irq_balance, tweak=tweak)
    job = launch_mpi_job(cluster, nranks, lu_app(params),
                         placement=block_placement(procs_per_node, nranks),
                         pin=pin)
    job.run(limit_s=600)
    data = harvest_job(job)
    cluster.teardown()
    return data


def _mean_flow_us(data):
    values = [r.flow_rx_per_call_us() for r in data.ranks
              if r.flow_rx_calls > 0]
    return float(np.mean(values))


def test_ablation_cache_mismatch_factor():
    """Without the SMP cache-locality dilation the Figure 10 cost shift
    between matched and mismatched receive processing disappears."""

    def no_mismatch(_i, params: KernelParams) -> KernelParams:
        return params.with_(cache_mismatch_factor=1.0)

    with_model = run_lu(irq_balance=True)
    without = run_lu(irq_balance=True, tweak=no_mismatch)
    assert _mean_flow_us(with_model) > _mean_flow_us(without) * 1.04
    print(f"\nper-call TCP cost: with cache model {_mean_flow_us(with_model):.2f}us, "
          f"ablated {_mean_flow_us(without):.2f}us")


def test_ablation_smp_compute_dilation():
    """Without memory-system contention, the residual 2-ranks-per-node
    penalty largely vanishes (Table 2's pinned-vs-128x1 gap)."""

    def no_dilation(_i, params: KernelParams) -> KernelParams:
        return params.with_(smp_compute_dilation=0.0)

    normal = run_lu()
    ablated = run_lu(tweak=no_dilation)
    assert ablated.exec_time_s < normal.exec_time_s * 0.97
    print(f"\n64x2 pinned exec: full model {normal.exec_time_s:.3f}s, "
          f"no SMP dilation {ablated.exec_time_s:.3f}s")


def test_ablation_interrupt_coalescing():
    """Coalescing is a fidelity/efficiency trade: fewer interrupts with
    larger groups, identical bytes delivered."""
    from repro.kernel.net.nic import Nic

    original = Nic.coalesce_segments
    try:
        Nic.coalesce_segments = 1
        fine = run_lu(nranks=8, procs_per_node=1)
        Nic.coalesce_segments = 8
        coarse = run_lu(nranks=8, procs_per_node=1)
    finally:
        Nic.coalesce_segments = original
    fine_irqs = sum(sum(c) for c in fine.node_irq_counts.values())
    coarse_irqs = sum(sum(c) for c in coarse.node_irq_counts.values())
    assert fine_irqs > 3 * coarse_irqs
    # same per-segment processing happened regardless
    fine_calls = sum(r.flow_rx_calls for r in fine.ranks)
    coarse_calls = sum(r.flow_rx_calls for r in coarse.ranks)
    assert fine_calls == coarse_calls
    print(f"\nhard IRQs: per-segment {fine_irqs}, coalesced x8 {coarse_irqs}")


def test_ablation_wavefront_pipelining():
    """The pipeline-fill fraction is the LU-fidelity knob: a coarse
    (unpipelined) sweep serialises the diagonal and inflates execution."""
    from dataclasses import replace

    pipelined = run_lu(nranks=16, procs_per_node=1, pin=False)
    coarse_params = replace(ABLATION_LU, pipeline_fill_frac=1.0)
    coarse = run_lu(nranks=16, procs_per_node=1, pin=False,
                    params=coarse_params)
    assert coarse.exec_time_s > pipelined.exec_time_s * 1.15
    print(f"\nLU exec: pipelined sweep {pipelined.exec_time_s:.3f}s, "
          f"serialised sweep {coarse.exec_time_s:.3f}s")


def test_ablation_tickless_idle_balance():
    """Tick-driven idle balancing is what rescues work queued behind a
    busy CPU; without ticks two tasks spawned on one CPU serialise."""
    from repro.kernel.kernel import Kernel
    from repro.sim.engine import Engine
    from repro.sim.rng import RngHub
    from repro.sim.units import SEC

    def race(timer_tick_ns):
        engine = Engine()
        params = KernelParams(ncpus=2, timer_tick_ns=timer_tick_ns,
                              minor_fault_prob=0.0, smp_compute_dilation=0.0)
        kernel = Kernel(engine, params, "ablate", RngHub(1))
        finish = []

        def burn(ctx):
            yield from ctx.compute(100 * MSEC)
            finish.append(ctx.now)

        kernel.spawn(burn, "a", start_cpu=0)
        kernel.spawn(burn, "b", start_cpu=0)
        engine.run(until=1 * SEC)
        return max(finish)

    with_ticks = race(10 * MSEC)
    without = race(None)
    assert with_ticks < 150 * MSEC
    assert without >= 200 * MSEC
    print(f"\n2 tasks, 1 start CPU: ticks {with_ticks/1e6:.1f}ms, "
          f"tickless {without/1e6:.1f}ms")
