"""Figure 8: CDF of per-rank interrupt activity.

Reproduction target: the pinned 64x2 run *without* irq-balancing shows a
prominent bimodal distribution — the CPU0-pinned half of the ranks
absorbs (nearly) all interrupt-context time — while irq-balancing and
the 128x1 configuration flatten it.
"""

import numpy as np

from repro.experiments import fig8
from benchmarks.conftest import write_report


def test_fig8_irq_cdf(lu_runs):
    result = fig8.build(lu_runs)

    pinned = result.bimodality["64x2 Pinned"]
    balanced = result.bimodality["64x2 Pin,I-Bal"]
    base = result.bimodality["128x1"]

    # bimodal without balancing; much flatter with it
    assert pinned > 0.3
    assert pinned > 2 * balanced
    assert pinned > 2 * base

    # the split really follows the pinned CPU: CPU0 ranks (slot 0 =
    # ranks 0..63) absorb far more than CPU1 ranks (64..127)
    values = np.array(result.values["64x2 Pinned"])
    assert np.median(values[:64]) > 10 * max(np.median(values[64:]), 1e-6)

    text = fig8.render(result)
    write_report("fig8.txt", text)
    print("\n" + text)
