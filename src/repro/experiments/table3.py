"""Table 3: perturbation — total execution time under five
instrumentation configurations.

The paper runs LU Class C on 16 nodes under:

* ``Base``         — vanilla kernel, uninstrumented LU;
* ``Ktau Off``     — KTAU compiled in, all instrumentation disabled at
  boot (flag checks only);
* ``ProfAll``      — every instrumentation point enabled;
* ``ProfSched``    — only the scheduler subsystem's points enabled;
* ``ProfAll+Tau``  — ProfAll plus user-level TAU instrumentation.

Headline results: KtauOff shows *no statistically significant slowdown*;
ProfAll costs ~2.3 % on average; ProfSched ~0.1 %; ProfAll+Tau ~2.8 %.
(Sweep3D Base vs ProfAll+Tau: 0.49 %.)

We run each configuration over the same seed set (paired runs — the
simulator is deterministic per seed, so differences are pure
instrumentation effects) and report min and mean like the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.config import KtauBuildConfig
from repro.core.points import Group
from repro.experiments.common import ChibaConfig, run_chiba_app
from repro.parallel import parallel_map
from repro.workloads.lu import LuParams
from repro.workloads.sweep3d import Sweep3dParams
from repro.sim.units import MSEC

#: Paper's LU rows: config -> (min s, %min slow, avg s, %avg slow).
PAPER_TABLE3_LU: dict[str, tuple[float, float, float, float]] = {
    "Base": (468.36, 0.0, 470.812, 0.0),
    "Ktau Off": (463.6, 0.0, 470.86, 0.01),
    "ProfAll": (477.13, 1.87, 481.748, 2.32),
    "ProfSched": (461.66, 0.0, 471.164, 0.07),
    "ProfAll+Tau": (475.8, 1.58, 484.12, 2.82),
}

PAPER_SWEEP3D = {"Base": 368.25, "ProfAll+Tau": 369.9, "slowdown_pct": 0.49}

CONFIG_ORDER = ("Base", "Ktau Off", "ProfAll", "ProfSched", "ProfAll+Tau")


def _configs(nranks: int) -> dict[str, ChibaConfig]:
    full = KtauBuildConfig.full()
    return {
        "Base": ChibaConfig(label="Base", nranks=nranks,
                            ktau=KtauBuildConfig.vanilla(), tau_enabled=False),
        "Ktau Off": ChibaConfig(label="Ktau Off", nranks=nranks, ktau=full,
                                enabled_groups=frozenset(), tau_enabled=False),
        "ProfAll": ChibaConfig(label="ProfAll", nranks=nranks, ktau=full,
                               tau_enabled=False),
        "ProfSched": ChibaConfig(label="ProfSched", nranks=nranks, ktau=full,
                                 enabled_groups=frozenset({Group.SCHED}),
                                 tau_enabled=False),
        "ProfAll+Tau": ChibaConfig(label="ProfAll+Tau", nranks=nranks,
                                   ktau=full, tau_enabled=True),
    }


def perturbation_lu_params() -> LuParams:
    """The 16-rank LU used for the perturbation study."""
    return LuParams(niters=10, iter_compute_ns=120 * MSEC, halo_bytes=65_536,
                    sweep_msg_bytes=4_096, inorm=5, pipeline_fill_frac=0.02)


@dataclass
class Table3Row:
    config: str
    min_s: float
    pct_min_slow: float
    avg_s: float
    pct_avg_slow: float


def build(nranks: int = 16, seeds: tuple[int, ...] = (1, 2, 3),
          params: LuParams | None = None,
          workers: int | None = None) -> list[Table3Row]:
    """Run the perturbation matrix and assemble Table 3's LU rows.

    The config × seed matrix is embarrassingly parallel (each cell is an
    independent deterministic simulation), so it fans out through
    :func:`repro.parallel.parallel_map` when ``workers`` asks for it;
    results are keyed by cell, never by completion order, so the rows
    are identical for any worker count.
    """
    if params is None:
        params = perturbation_lu_params()
    configs = _configs(nranks)
    cells = [(name, seed) for name in CONFIG_ORDER for seed in seeds]

    def run_cell(cell: tuple[str, int]) -> float:
        name, seed = cell
        return run_chiba_app(configs[name].with_seed(seed), "lu",
                             params).exec_time_s

    with obs.span("table3.build", "experiment", cells=len(cells)):
        flat = parallel_map(run_cell, cells, workers=workers, keys=cells,
                            label="table3")
    times: dict[str, list[float]] = {name: [] for name in CONFIG_ORDER}
    for (name, _seed), exec_s in zip(cells, flat):
        times[name].append(exec_s)
    base_min = min(times["Base"])
    base_avg = sum(times["Base"]) / len(times["Base"])
    rows = []
    for name in CONFIG_ORDER:
        t_min = min(times[name])
        t_avg = sum(times[name]) / len(times[name])
        rows.append(Table3Row(
            config=name,
            min_s=t_min,
            pct_min_slow=max(0.0, 100.0 * (t_min - base_min) / base_min),
            avg_s=t_avg,
            pct_avg_slow=max(0.0, 100.0 * (t_avg - base_avg) / base_avg),
        ))
    return rows


def build_sweep3d() -> tuple[float, float, float]:
    """Sweep3D Base vs ProfAll+Tau on 16 ranks over seeds 1 and 2:
    (base avg, instrumented avg, %slow)."""
    params = Sweep3dParams(niters=3, octant_compute_ns=60 * MSEC,
                           face_bytes=4_096, pipeline_fill_frac=0.01)
    seeds = (1, 2)
    configs = _configs(16)
    cells = [(name, seed) for name in ("Base", "ProfAll+Tau") for seed in seeds]

    def run_cell(cell: tuple[str, int]) -> float:
        name, seed = cell
        return run_chiba_app(configs[name].with_seed(seed), "sweep3d",
                             params).exec_time_s

    flat = parallel_map(run_cell, cells, keys=cells, label="table3-sweep3d")
    base = flat[:len(seeds)]
    inst = flat[len(seeds):]
    base_avg = sum(base) / len(base)
    inst_avg = sum(inst) / len(inst)
    return base_avg, inst_avg, max(0.0, 100.0 * (inst_avg - base_avg) / base_avg)


def render(rows: list[Table3Row]) -> str:
    """Render Table 3 with the paper's percentages alongside."""
    from repro.analysis.render import ascii_table

    table_rows = []
    for row in rows:
        paper = PAPER_TABLE3_LU[row.config]
        table_rows.append((row.config, row.min_s, row.pct_min_slow, paper[1],
                           row.avg_s, row.pct_avg_slow, paper[3]))
    return ascii_table(
        ("Config", "Min(s)", "%MinSlow", "paper", "Avg(s)", "%AvgSlow", "paper"),
        table_rows, floatfmt=".3f",
        title="Table 3: Perturbation — total exec time (measured vs paper %)")
