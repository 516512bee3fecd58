"""Fast checks that BENCHMARK.json and the harness agree; runs no workload.

    python -m pytest perfbench/test_contract.py
"""

from __future__ import annotations

import json
import re

import run
from child import WORKLOADS as CHILD_WORKLOADS
from layers import FUNCTIONS, LAYERS, layer_numbers, layer_of, metric_units

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: A rep as ``run.spawn`` returns it.
REP = {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 40.0, "raw_wall_s": 1.0,
       "raw_setup_s": 0.5, "probe_s": 0.0015,
       "digest": run.PINNED["lu_vanilla"], "ok": True, "detail": ""}


def test_workloads_match_the_harness():
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS)
    assert set(run.WORKLOADS) <= set(CHILD_WORKLOADS)
    assert set(run.PINNED) == set(run.WORKLOADS)
    assert set(run.IDENTITY_VARIANTS.values()) <= set(CHILD_WORKLOADS)


def test_end_to_end_metrics_match_the_harness():
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert spec == run.END_TO_END
    result = run.summarise("lu_vanilla", run.DEFAULT_SEED, [REP, REP],
                           None, [])
    assert result["correct"]
    assert set(result["end_to_end"]) == set(spec)


def test_per_layer_metrics_match_the_harness():
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert spec == metric_units()
    # What a traced rep reports, plus trace_overhead added by the parent.
    emitted = set(layer_numbers({}, "/nowhere", {}, 0.0)) | {"trace_overhead"}
    assert emitted == set(spec)
    traced = dict(REP, raw_wall_s=3.0,
                  layers=layer_numbers({}, "/nowhere", {}, 0.0))
    result = run.summarise("lu_vanilla", run.DEFAULT_SEED, [REP], traced, [])
    assert set(result["per_layer"]) == set(spec)
    assert result["per_layer"]["trace_overhead"]["value"] == 3.0


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def test_every_source_file_has_a_layer():
    src = run.ROOT / "src" / "repro"
    files = sorted(src.rglob("*.py"))
    assert files
    unmapped = [str(p.relative_to(src)) for p in files
                if layer_of(str(p.relative_to(src))) not in LAYERS]
    assert not unmapped


def test_named_functions_exist():
    # A renamed function would otherwise read as 0 calls; a removed obs
    # counter reads 0 by design (counters appear on first increment).
    src = run.ROOT / "src" / "repro"
    for path, func, _kind in FUNCTIONS.values():
        assert f"def {func}(" in (src / path).read_text(), (path, func)
