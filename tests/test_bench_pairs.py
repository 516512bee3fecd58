"""Tests for the verdict of tools/bench_pairs.py on synthetic perfbench
artifacts."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def artifact(wall_s, rss_mb=45.0, failed=0):
    return {"workloads": {"lu_profile": {"failed": failed, "end_to_end": {
        "wall_s": {"median": wall_s}, "peak_rss_mb": {"median": rss_mb}}}}}


def rows_by_metric(base, change):
    rows = bench_pairs.judge(base, change, {"wall_s": "lower",
                                            "peak_rss_mb": "lower"})
    return {row["metric"]: row for row in rows}


def test_gain_needs_nine_of_ten_and_a_gap_beyond_the_base_iqr():
    faster = [b * 0.9 for b in BASE]
    row = bench_pairs.verdict(BASE, faster)
    assert (row["won"], row["lost"], row["verdict"]) == (10, 0, "better")
    assert row["ratio"] == pytest.approx(0.9)
    # Nine wins still claim the gain; eight do not.
    nine = faster[:9] + [BASE[9] + 0.01]
    assert bench_pairs.verdict(BASE, nine)["verdict"] == "better"
    eight = faster[:8] + [b + 0.01 for b in BASE[8:]]
    assert bench_pairs.verdict(BASE, eight)["verdict"] == "unresolved"


def test_wins_inside_the_base_spread_are_unresolved():
    # Every pair won, by less than the base's interquartile range.
    q1, _, q3 = bench_pairs.quartiles(BASE)
    assert q3 - q1 > 0.005
    row = bench_pairs.verdict(BASE, [b - 0.005 for b in BASE])
    assert (row["won"], row["verdict"]) == (10, "unresolved")


def test_ties_count_for_neither_side_and_losses_read_worse():
    row = bench_pairs.verdict(BASE, list(BASE))
    assert (row["won"], row["lost"], row["verdict"]) == (0, 0, "unresolved")
    row = bench_pairs.verdict(BASE, [b * 1.2 for b in BASE])
    assert (row["lost"], row["verdict"]) == (10, "worse")
    higher = bench_pairs.verdict(BASE, [b * 1.2 for b in BASE],
                                 lower_is_better=False)
    assert (higher["won"], higher["verdict"]) == (10, "better")


def test_judge_reads_artifacts_and_flags_failed_runs():
    base = [artifact(b) for b in BASE]
    change = [artifact(b * 0.9) for b in BASE]
    rows = rows_by_metric(base, change)
    assert rows["wall_s"]["verdict"] == "better"
    assert rows["peak_rss_mb"]["verdict"] == "unresolved"
    assert rows["wall_s"]["runs"][0] == (1.00, 0.9)
    change[3] = artifact(0.9, failed=1)
    rows = rows_by_metric(base, change)
    assert rows["wall_s"]["verdict"] == "failed"
    assert rows["wall_s"]["failed"] == (0, 1)
    assert "failed runs base/change 0/1" in bench_pairs.render(
        list(rows.values()))


def test_a_run_without_the_metric_reads_failed_not_a_crash():
    """Every timed rep of a workload errored in one run: its end_to_end is
    empty, and that metric is judged failed on either side."""
    base = [artifact(b) for b in BASE]
    change = [artifact(b * 0.9) for b in BASE]
    change[2]["workloads"]["lu_profile"]["end_to_end"] = {}
    rows = rows_by_metric(base, change)
    assert rows["wall_s"]["verdict"] == rows["peak_rss_mb"]["verdict"] == \
        "failed"
    base[0]["workloads"]["lu_profile"]["end_to_end"] = {}
    change = [artifact(b * 0.9) for b in BASE]
    assert rows_by_metric(base, change)["wall_s"]["verdict"] == "failed"
    assert "no value in some run" in bench_pairs.render(
        list(rows_by_metric(base, change).values()))
