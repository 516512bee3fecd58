"""Figure 9: kernel TCP calls inside Sweep3D's compute phase (CDF).

Reproduction targets:

* 64x2 Pinned,I-Bal shows *far* more TCP calls landing inside the
  compute-bound section of sweep() than 128x1 — the
  communication/computation mixing that indicates imbalance;
* the "128x1 Pin,IRQ CPU1" control tracks plain 128x1, showing the spare
  processor is not what absorbs the TCP work.
"""

import numpy as np

from repro.experiments import fig9_10
from benchmarks.conftest import write_report


def test_fig9_tcp_in_compute(fig9_runs):
    result = fig9_10.build_fig9(fig9_runs)

    base = np.array(result.values["128x1"], dtype=float)
    control = np.array(result.values["128x1 Pin,IRQ CPU1"], dtype=float)
    smp = np.array(result.values["64x2 Pinned,I-Bal"], dtype=float)

    # 64x2 mixes communication into compute far more than 128x1
    assert np.median(smp) > 5 * max(np.median(base), 1.0)
    # the control tracks plain 128x1 (same order of magnitude, tiny)
    assert np.median(control) < 0.3 * np.median(smp)

    text = fig9_10.render_fig9(result)
    write_report("fig9.txt", text)
    print("\n" + text)
