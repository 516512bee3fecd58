"""Extension experiment: I/O-node scaling (the §6 / ZeptoOS direction).

Not a paper table — the paper announces this evaluation as future work —
but the harness exists so the claim "KTAU will be used to evaluate I/O
node performance" is demonstrable: per-client latency degrades with
fan-in and the I/O node's kernel-time breakdown attributes it.
"""

from repro.experiments.ionode import render, scaling_sweep
from repro.workloads.ionode import IoNodeParams
from repro.sim.units import MSEC
from benchmarks.conftest import write_report


def test_ionode_scaling():
    params = IoNodeParams(nrequests=12, request_bytes=65_536,
                          think_ns=4 * MSEC, fsync_every=6)
    results = scaling_sweep((1, 2, 4, 8), params)

    latencies = [r.mean_latency_ms() for r in results]
    # monotone degradation with fan-in, super-linear by 8 clients
    assert latencies == sorted(latencies)
    assert latencies[-1] > 3 * latencies[0]
    # the integrated view attributes the I/O node's kernel time
    for r in results:
        assert r.ciod_groups.get("net", 0) > 0
        assert r.ciod_groups.get("io", 0) > 0
    # byte conservation through network + disk
    for r, n in zip(results, (1, 2, 4, 8)):
        assert r.disk_bytes == n * params.nrequests * params.request_bytes

    text = render(results)
    write_report("ionode_extension.txt", text)
    print("\n" + text)
