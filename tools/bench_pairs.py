"""Alternating perfbench pairs: a base commit against this checkout.

    python3 tools/bench_pairs.py BASE [--pairs N] [--seed S]
                                 [--seconds S] [--workload NAME ...]

``git archive``s ``BASE`` into a temporary directory and runs ``N`` pairs
of ``perfbench/run.py --trace 0 --out FILE``, one run on the base copy
and one on this checkout, flipping which side goes first from pair to
pair so that drift in host load falls on both alike.  Each side runs its
own ``perfbench/`` on its own sources.

For every workload and end-to-end metric it then prints both sides'
medians and quartiles over the runs (each run contributes its median over
reps), the pairs the change won (ties count for neither side), a verdict
and every pair's values.  A gain is claimed only when the change won at least nine tenths
of the pairs and the medians differ by more than the base's interquartile
range; a loss by the same rule is reported as worse; anything else is
unresolved.  Runs whose checks failed are counted per side, and a
workload with one on the change's side is judged failed.  ``make
bench-pairs BASE=<ref> PAIRS=10`` runs it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Share of the pairs the change must win for a gain.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``, as perfbench computes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float],
            lower_is_better: bool = True) -> dict:
    """Judge one metric of one workload over paired runs: ``base[i]`` and
    ``change[i]`` come from pair ``i``.

    Returns both sides' quartiles, the pairs won by each side, the ratio
    of the medians (change over base), the runs as ``(base, change)``
    pairs and ``"better"``, ``"worse"`` or ``"unresolved"``.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same number of runs on both sides")
    sign = 1 if lower_is_better else -1
    won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    lost = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    bq, cq = quartiles(base), quartiles(change)
    gap = abs(cq[1] - bq[1]) > bq[2] - bq[0]
    needed = math.ceil(WIN_SHARE * len(base))
    if won >= needed and gap and sign * (bq[1] - cq[1]) > 0:
        outcome = "better"
    elif lost >= needed and gap and sign * (cq[1] - bq[1]) > 0:
        outcome = "worse"
    else:
        outcome = "unresolved"
    return {"base": bq, "change": cq, "won": won, "lost": lost,
            "pairs": len(base), "ratio": cq[1] / bq[1] if bq[1] else math.nan,
            "verdict": outcome, "runs": list(zip(base, change))}


def judge(base_runs: list[dict], change_runs: list[dict],
          directions: dict[str, str]) -> list[dict]:
    """One row per workload and end-to-end metric of paired perfbench
    artifacts; ``directions`` maps each end-to-end metric to ``"lower"``
    or ``"higher"`` (better).  A workload whose checks failed in some
    change run, or that some run reports no value of the metric for
    (every timed rep errored), is judged ``"failed"`` on that metric."""
    rows = []
    workloads = sorted({w for run in base_runs + change_runs
                        for w in run["workloads"]})
    for workload in workloads:
        sides = [[run["workloads"].get(workload, {}) for run in runs]
                 for runs in (base_runs, change_runs)]
        failed = tuple(sum(w.get("failed", 1) for w in side) for side in sides)
        for metric in sorted(directions):
            values = [[w.get("end_to_end", {}).get(metric, {}).get("median")
                       for w in side] for side in sides]
            row = {"workload": workload, "metric": metric, "failed": failed,
                   "verdict": "failed"}
            if not any(None in side for side in values):
                row.update(verdict(*values, directions[metric] == "lower"))
                if failed[1]:
                    row["verdict"] = "failed"
            rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        failed = (f"  failed runs base/change {row['failed'][0]}/"
                  f"{row['failed'][1]}" if any(row["failed"]) else "")
        if "runs" not in row:
            lines.append(f"{row['workload']:14} {row['metric']:12} "
                         f"no value in some run  failed{failed}")
            continue
        (b1, bm, b3), (c1, cm, c3) = row["base"], row["change"]
        lines.append(
            f"{row['workload']:14} {row['metric']:12} "
            f"base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  x{row['ratio']:.3f}  "
            f"won {row['won']}/{row['pairs']}  {row['verdict']}" + failed)
        lines.append("    pairs base/change: " + ", ".join(
            f"{b:.4g}/{c:.4g}" for b, c in row["runs"]))
    return "\n".join(lines)


def export(ref: str, dest: Path) -> None:
    """Extract commit ``ref`` of this repository into ``dest``."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive),
                    ref], check=True)
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    archive.unlink()


def run_side(checkout: Path, out: Path, args: argparse.Namespace) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--trace", "0",
           "--seed", str(args.seed), "--out", str(out)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    for workload in args.workload or ():
        cmd += ["--workload", workload]
    subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref of the base side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base.mkdir()
        export(args.base, base)
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                checkout = base if side == "base" else ROOT
                runs[side].append(run_side(
                    checkout, tmp / f"{side}-{i}.json", args))
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr, flush=True)
    print(render(judge(runs["base"], runs["change"], directions)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
