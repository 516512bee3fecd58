"""Figure 10: exclusive time per kernel TCP operation (CDF).

Reproduction targets:

* per-call cost sits in the paper's 27–36 µs range (450 MHz P3 scale);
* 64x2 is ~11.5 % more expensive across the range than 128x1 (SMP cache
  penalty: packets processed on a different CPU than their consumer);
* "128x1 Pin,IRQ CPU1" (process and interrupts together on CPU1) tracks
  plain 128x1 — locality, not the specific CPU, is what matters.
"""

import numpy as np

from repro.experiments import fig9_10
from benchmarks.conftest import write_report


def test_fig10_tcp_cost(fig9_runs):
    result = fig9_10.build_fig10(fig9_runs)

    base = result.median_us("128x1")
    control = result.median_us("128x1 Pin,IRQ CPU1")
    smp = result.median_us("64x2 Pinned,I-Bal")

    # paper's absolute range
    for value in (base, control, smp):
        assert 26.0 <= value <= 38.0

    # the 64x2 dilation (paper: ~11.5 %)
    dilation_pct = 100.0 * (smp - base) / base
    assert 5.0 <= dilation_pct <= 20.0

    # the control tracks plain 128x1 closely
    assert abs(control - base) / base < 0.03

    text = fig9_10.render_fig10(result)
    write_report("fig10.txt", text)
    print("\n" + text)
