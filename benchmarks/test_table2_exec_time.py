"""Table 2: execution time and % slowdown from 128x1 (LU and Sweep3D).

Reproduction target (shape, not absolute seconds):

* strict ordering 128x1 < Pin,I-Bal <= Pinned < 64x2 < Anomaly for LU;
* the anomaly run slower by tens of percent (paper: 73.2 % LU / 72.8 %
  Sweep3D), dominating every other configuration;
* pinning a small improvement over unpinned; irq-balancing a further one.
"""

import pytest

from repro.experiments import table2
from benchmarks.conftest import write_report


@pytest.fixture(scope="session")
def table2_rows(lu_runs, sweep_runs):
    return table2.build()


def test_table2_exec_time(table2_rows):
    rows = table2_rows
    text = table2.render(rows)
    by = {r.config: r for r in rows}

    # LU ordering (paper: 0 / 73.2 / 36.1 / 31.7 / 13.6)
    assert by["128x1"].lu_slowdown_pct == 0.0
    assert by["64x2 Anomaly"].lu_slowdown_pct > by["64x2"].lu_slowdown_pct
    assert by["64x2"].lu_slowdown_pct > by["64x2 Pinned"].lu_slowdown_pct
    assert by["64x2 Pinned"].lu_slowdown_pct >= by["64x2 Pin,I-Bal"].lu_slowdown_pct
    assert by["64x2 Pin,I-Bal"].lu_slowdown_pct > 5.0

    # the anomaly dominates by a wide margin
    assert by["64x2 Anomaly"].lu_slowdown_pct > 40.0
    assert by["64x2 Anomaly"].sweep_slowdown_pct > 35.0

    # Sweep3D ordering (paper: 0 / 72.8 / 15.9 / 15.6 / 9.4); the final
    # irq-balance step is within noise at our scale, hence the epsilon.
    assert by["64x2 Anomaly"].sweep_slowdown_pct > by["64x2"].sweep_slowdown_pct
    assert by["64x2"].sweep_slowdown_pct > by["64x2 Pinned"].sweep_slowdown_pct
    assert by["64x2 Pin,I-Bal"].sweep_slowdown_pct <= \
        by["64x2 Pinned"].sweep_slowdown_pct + 1.0

    write_report("table2.txt", text)
    print("\n" + text)
