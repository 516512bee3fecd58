#!/usr/bin/env python
"""The §6 extensions in one run: merged call graphs, phase profiling,
performance counters, dynamic point control, and trace export.

The paper's future-work list asks for: performance counter access,
merged user-kernel call-graph profiles, phase-based profiling, dynamic
per-point measurement control, and richer trace integration.  All five
are implemented; this example exercises them on one small MPI job.

Run:  python examples/merged_callgraph.py
"""

import pathlib

from repro.analysis.callgraph import build_merged_callgraph, render_callgraph
from repro.analysis.export import to_chrome_trace
from repro.analysis.tracemerge import merge_traces
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.core.config import KtauBuildConfig
from repro.core.libktau import LibKtau
from repro.obs.tracer import validate_trace_events
from repro.sim.units import MSEC
from repro.tau.phases import PhaseTracker
from repro.workloads.lu import LuParams

trackers = []


def phased_app(params):
    """An LU-like mini-app with explicit phases."""
    from contextlib import nullcontext

    def app(ctx, mpi):
        tau = ctx.task.tau
        timer = (tau.timer if tau else lambda n: nullcontext())
        phases = PhaseTracker(ctx)
        trackers.append((mpi.rank, phases))

        yield from phases.begin("setup")
        with timer("init_grid"):
            yield from ctx.compute(6 * MSEC)
        yield from mpi.barrier()
        yield from phases.end("setup")

        yield from phases.begin("solve")
        peer = mpi.rank ^ 1
        for _ in range(3):
            with timer("rhs"):
                yield from ctx.compute(8 * MSEC)
            with timer("exchange"):
                if mpi.rank < peer:
                    yield from mpi.send(peer, params.halo_bytes)
                    yield from mpi.recv(peer, params.halo_bytes)
                else:
                    yield from mpi.recv(peer, params.halo_bytes)
                    yield from mpi.send(peer, params.halo_bytes)
        yield from phases.end("solve")

    return app


def main() -> None:
    params = LuParams(halo_bytes=16_384)
    # Build with every extension on; silence one hot point at boot.
    build = KtauBuildConfig(tracing=True, counters=True, callgraph=True)
    cluster = make_chiba(
        nnodes=2, seed=12, ktau=build,
        tweak=lambda i, p: p.with_(boot_cmdline="ktau.nopoints=dev_queue_xmit"))
    job = launch_mpi_job(cluster, 2, phased_app(params),
                         placement=block_placement(1, 2), tau_tracing=True)
    job.run()

    rank = 0
    node = job.world.rank_nodes[rank]
    task = job.world.rank_tasks[rank]
    lib = LibKtau(node.kernel.ktau_proc)
    kdump = lib.read_profiles(include_zombies=True)[task.pid]
    udump = job.profilers[rank].dump()
    hz = node.kernel.clock.hz

    print("=== merged user/kernel call graph (rank 0) ===")
    graph = build_merged_callgraph(udump, kdump)
    print(render_callgraph(graph, hz, min_cycles=int(hz * 1e-6)))

    print("=== phase-based kernel profiles ===")
    _rank, phases = trackers[0]
    print(phases.report(hz))

    print("=== performance counters per kernel event ===")
    by_insn = sorted(kdump.counters.items(), key=lambda kv: -kv[1][2])
    for name, (count, _cycles, insn, l2, _minflt, _majflt) in by_insn[:6]:
        print(f"  {name:<20} x{count:<4} {insn:>12} insn {l2:>8} L2 misses")

    print("\n=== dynamic point control at boot ===")
    print(f"  dev_queue_xmit events recorded: "
          f"{'dev_queue_xmit' in kdump.perf} "
          f"(silenced via ktau.nopoints=...)")
    print(f"  tcp_sendmsg events recorded:    "
          f"{'tcp_sendmsg' in kdump.perf}")

    print("\n=== trace export ===")
    merged = merge_traces(udump, lib.read_trace(task.pid))
    payload = to_chrome_trace({f"rank0@{node.name}": (merged, hz)})
    pairs, instants = validate_trace_events(payload)
    out = pathlib.Path("merged_trace.json")
    out.write_text(payload)
    print(f"  wrote {out} ({pairs} regions, {instants} instants) — "
          f"open in chrome://tracing or Perfetto")

    cluster.teardown()


if __name__ == "__main__":
    main()
