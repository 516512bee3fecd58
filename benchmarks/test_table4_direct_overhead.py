"""Table 4: direct per-measurement overhead in cycles.

Reproduction target: the measured start/stop cost distributions match
the paper's mean/std/min (start 244.4/236.3/160; stop 295.3/268.8/214)
— these are the very draws that perturb the Table 3 runs.
"""

import pytest

from repro.experiments import table4
from benchmarks.conftest import write_report


def test_table4_direct_overhead():
    rows = table4.build(100_000)
    start, stop = rows

    paper = table4.PAPER_TABLE4
    assert start.mean == pytest.approx(paper["Start"]["mean"], rel=0.03)
    assert start.std == pytest.approx(paper["Start"]["std"], rel=0.06)
    assert start.min >= paper["Start"]["min"]
    assert stop.mean == pytest.approx(paper["Stop"]["mean"], rel=0.03)
    assert stop.std == pytest.approx(paper["Stop"]["std"], rel=0.06)
    assert stop.min >= paper["Stop"]["min"]

    text = table4.render(rows)
    write_report("table4.txt", text)
    print("\n" + text)
