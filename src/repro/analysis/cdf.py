"""Cumulative distribution functions over per-rank metrics.

The paper presents per-rank scheduling, interrupt, and TCP metrics as
CDFs with "% MPI Ranks" on the y-axis (Figures 5, 6, 8, 9, 10).  This
module produces those series and a couple of scalar shape summaries the
benchmark assertions use (medians, tail fractions, bimodality).
"""

from __future__ import annotations

import numpy as np


def cdf_points(values) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, fraction of ranks <= value)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return np.empty(0), np.empty(0)
    xs = np.sort(arr)
    fracs = np.arange(1, xs.size + 1, dtype=float) / xs.size
    return xs, fracs


def quantile(values, q: float) -> float:
    """The q-quantile of ``values`` (NaN when empty)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.quantile(arr, q))


def median(values) -> float:
    """The median of ``values`` (NaN when empty)."""
    return quantile(values, 0.5)


def bimodality_gap(values) -> float:
    """A simple bimodality indicator: the largest relative gap between
    consecutive sorted values, as a fraction of the full range.

    A clean bimodal distribution (half the ranks low, half high — the
    64x2-without-irq-balancing interrupt picture of Figure 8) yields a
    value close to 1; a unimodal cloud yields a small value.
    """
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size < 2:
        return 0.0
    rng = arr[-1] - arr[0]
    if rng <= 0:
        return 0.0
    gaps = np.diff(arr)
    return float(gaps.max() / rng)
