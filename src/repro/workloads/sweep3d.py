"""The ASCI Sweep3D wavefront benchmark.

Sweep3D performs discrete-ordinates neutron transport: for each of eight
angular octants, a wavefront sweeps diagonally across the 2D process
grid.  A rank receives inflow faces from its two upstream neighbours,
computes the ``sweep()`` kernel over its subdomain, and sends outflow
faces downstream.

The TAU instrumentation distinguishes the *compute-bound section inside
sweep()* (user context ``sweep()`` with no MPI timer active) from the
surrounding communication, which is exactly the denominator of the
paper's Figure 9 analysis: kernel TCP activity whose user context is the
compute section indicates background receives landing mid-compute —
i.e. pipeline imbalance.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from repro.sim.units import MSEC
from repro.workloads.lu import proc_grid

#: The eight octants as sweep directions over the process grid (the two
#: z-directions share the same 2D wavefront, hence four distinct
#: directions each visited twice).
OCTANTS: tuple[tuple[int, int], ...] = (
    (1, 1), (1, -1), (-1, 1), (-1, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
)


@dataclass(frozen=True)
class Sweep3dParams:
    """Scaled Sweep3D configuration (see :class:`repro.workloads.lu.LuParams`
    for the scaling philosophy)."""

    niters: int = 6  # outer (time-step) iterations; each runs 8 octants
    octant_compute_ns: int = 3 * MSEC  # per-rank compute per octant sweep
    face_bytes: int = 6_144  # inflow/outflow face message
    noise: float = 0.02
    #: Fraction of the octant compute done before forwarding downstream
    #: (Sweep3D pipelines over k-planes and angle blocks; see the LU
    #: parameter of the same name).
    pipeline_fill_frac: float = 0.08

    def scaled(self, factor: float) -> "Sweep3dParams":
        return Sweep3dParams(
            niters=self.niters,
            octant_compute_ns=int(self.octant_compute_ns * factor),
            face_bytes=max(512, int(self.face_bytes * factor)),
            noise=self.noise,
            pipeline_fill_frac=self.pipeline_fill_frac,
        )


def sweep3d_app(params: Sweep3dParams):
    """Build the Sweep3D rank program."""

    def app(ctx, mpi):
        rank, size = mpi.rank, mpi.size
        px, py = proc_grid(size)
        x, y = rank % px, rank // px
        rng = ctx.kernel.rng_hub.stream(f"sweep3d.rank{rank}")
        tau = ctx.task.tau

        def timer(name: str):
            return tau.timer(name) if tau is not None else nullcontext()

        def neighbours(dx: int, dy: int):
            """(upstream_x, upstream_y, downstream_x, downstream_y) ranks."""
            up_x = rank - dx if 0 <= x - dx < px else None
            up_y = rank - dy * px if 0 <= y - dy < py else None
            dn_x = rank + dx if 0 <= x + dx < px else None
            dn_y = rank + dy * px if 0 <= y + dy < py else None
            return up_x, up_y, dn_x, dn_y

        for it in range(params.niters):
            for dx, dy in OCTANTS:
                up_x, up_y, dn_x, dn_y = neighbours(dx, dy)
                with timer("sweep()"):
                    if up_x is not None:
                        yield from mpi.recv(up_x, params.face_bytes)
                    if up_y is not None:
                        yield from mpi.recv(up_y, params.face_bytes)
                    # The compute-bound phase: user context is "sweep()"
                    # with no MPI timer active (Figure 9's denominator).
                    jitter = 1.0 + params.noise * float(rng.standard_normal())
                    total = max(2000, int(params.octant_compute_ns * jitter))
                    fill = int(total * params.pipeline_fill_frac)
                    yield from ctx.compute(fill)
                    if dn_x is not None:
                        yield from mpi.send(dn_x, params.face_bytes)
                    if dn_y is not None:
                        yield from mpi.send(dn_y, params.face_bytes)
                    yield from ctx.compute(total - fill)
            with timer("flux_err"):
                yield from mpi.allreduce(24)

    return app
