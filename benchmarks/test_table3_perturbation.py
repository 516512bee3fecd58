"""Table 3: perturbation under five instrumentation configurations.

Reproduction targets (paper LU averages: Base 0 %, KtauOff 0.01 %,
ProfAll 2.32 %, ProfSched 0.07 %, ProfAll+Tau 2.82 %; Sweep3D
ProfAll+Tau 0.49 %):

* compiled-but-disabled instrumentation is statistically free;
* full kernel instrumentation costs low single-digit percent;
* scheduler-only instrumentation costs almost nothing;
* adding user-level TAU instrumentation costs slightly more than
  ProfAll alone.
"""

import pytest

from repro.experiments import table3
from benchmarks.conftest import write_report


@pytest.fixture(scope="session")
def table3_rows():
    return table3.build(nranks=16, seeds=(1, 2, 3))


def test_table3_perturbation(table3_rows):
    rows = table3_rows
    text = table3.render(rows)
    by = {r.config: r for r in rows}

    assert by["Base"].pct_avg_slow == 0.0
    assert by["Ktau Off"].pct_avg_slow < 0.3
    assert 0.2 < by["ProfAll"].pct_avg_slow < 8.0
    assert by["ProfSched"].pct_avg_slow < 0.5 * by["ProfAll"].pct_avg_slow
    assert by["ProfAll+Tau"].pct_avg_slow >= by["ProfAll"].pct_avg_slow

    write_report("table3.txt", text)
    print("\n" + text)


def test_table3_sweep3d_row():
    base_avg, inst_avg, slow_pct = table3.build_sweep3d()
    # paper: 0.49% — full instrumentation on Sweep3D stays under a few %
    assert 0.0 <= slow_pct < 4.0
    text = (f"Table 3 (Sweep3D): Base {base_avg:.3f}s, ProfAll+Tau "
            f"{inst_avg:.3f}s -> {slow_pct:.2f}% slowdown (paper: 0.49%)\n")
    write_report("table3_sweep3d.txt", text)
    print("\n" + text)
