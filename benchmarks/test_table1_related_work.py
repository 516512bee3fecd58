"""Table 1: classification of related kernel-measurement tools.

A taxonomy, not a measurement — regenerated verbatim and checked for the
claims the paper's discussion rests on.
"""

from repro.analysis.related_work import (TABLE1, render_table1,
                                         tools_with_explicit_parallel_support,
                                         tools_with_full_merge)
from benchmarks.conftest import write_report


def test_table1_related_work():
    text = render_table1()
    assert len(TABLE1) == 11
    # the paper's discussion: only KTAU+TAU offers full merged
    # user/kernel data and explicit parallel support
    assert tools_with_full_merge() == ["KTAU+TAU"]
    assert tools_with_explicit_parallel_support() == ["KTAU+TAU"]
    write_report("table1.txt", text)
    print("\n" + text)
