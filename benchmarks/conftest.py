"""Shared fixtures for the reproduction benchmarks.

The five-configuration Chiba runs are expensive, so they are simulated
once per process (memoised in :mod:`repro.experiments.chiba`) and shared
by every figure/table benchmark — which also mirrors the paper, where the
same experiment feeds several figures.  Rendered paper-vs-measured
reports are written to ``benchmarks/reports/`` as a side artifact.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import fig9_10
from repro.experiments.chiba import get_run, get_standard_runs, prefetch
from repro.experiments.common import STANDARD_CHIBA_CONFIGS

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    REPORT_DIR.mkdir(exist_ok=True)
    return REPORT_DIR


def write_report(name: str, text: str) -> None:
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / name).write_text(text)


@pytest.fixture(scope="session")
def lu_runs():
    """The five LU configurations (Figures 3–8, Table 2)."""
    return get_standard_runs("lu")


@pytest.fixture(scope="session")
def sweep_runs():
    """The five Sweep3D configurations (Table 2)."""
    return get_standard_runs("sweep3d")


@pytest.fixture(scope="session")
def anomaly_lu(lu_runs):
    """The 64x2 anomaly run (Figures 3, 4, 7)."""
    return lu_runs["64x2 Anomaly"]


@pytest.fixture(scope="session")
def fig9_runs():
    """The three Sweep3D configurations of Figures 9/10, run across the
    ``REPRO_WORKERS`` pool like the five-configuration sweeps."""
    prefetch("sweep3d", configs=fig9_10.FIG9_CONFIGS)
    return {cfg.label: get_run(cfg, "sweep3d") for cfg in fig9_10.FIG9_CONFIGS}
