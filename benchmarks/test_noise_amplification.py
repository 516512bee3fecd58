"""Extension experiment: OS-noise amplification (the paper's motivation).

The introduction motivates kernel measurement with OS-interference
problems like Petrini et al. [12]: per-node noise that costs a few
percent locally is amplified by collective synchronisation as the
machine scales.  The harness runs a barrier-synchronised fine-grained
computation with phase-randomised per-node noise daemons across
increasing scales.
"""

from repro.experiments.noise import NoiseParams, amplification_sweep, render
from repro.sim.units import MSEC
from benchmarks.conftest import write_report


def test_noise_amplification():
    params = NoiseParams(steps=60, quantum_ns=2 * MSEC)
    results = amplification_sweep((4, 16, 64), params)

    slowdowns = [r.slowdown_pct for r in results]
    # fixed per-node noise, growing global cost: the amplification curve
    assert slowdowns[0] < slowdowns[1] < slowdowns[2]
    assert slowdowns[2] > 3 * slowdowns[0]
    # locally the noise is small (few percent at 4 nodes)
    assert slowdowns[0] < 15.0

    text = render(results)
    write_report("noise_amplification.txt", text)
    print("\n" + text)
