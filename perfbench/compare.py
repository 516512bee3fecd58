"""Check a perfbench artifact and explain how it differs from another.

    python3 perfbench/compare.py NEW.json [OLD.json]

Exits 1 if any workload in NEW failed a check: a rep that raised, a
failed verdict, an output that differs from its pinned digest or from
the other reps, or the empty-fault-plan identity.  These checks do not
depend on the host.

Given OLD, prints why numbers moved: every count-type per-layer metric
that differs (counts are exact for a seed, so with equal seeds any
difference is a code change), every ``<layer>.share`` that moved by
more than ``SHARE_MOVE``, metrics present on one side only, and the
end-to-end medians side by side.  Wall times are printed, not judged:
they depend on the host.  An OLD file that is not a perfbench artifact
is skipped with a note.
"""

from __future__ import annotations

import json
import sys

SHARE_MOVE = 0.05


def compare(new: dict, old: dict) -> None:
    """Print the differences that explain a moved number."""
    same_seed = new["meta"]["seed"] == old["meta"]["seed"]
    if not same_seed:
        print("seeds differ: exact counts are not compared")
    for workload in sorted(new["workloads"].keys() & old["workloads"].keys()):
        before = old["workloads"][workload]
        after = new["workloads"][workload]
        for name, s in after["end_to_end"].items():
            if name in before["end_to_end"]:
                was = before["end_to_end"][name]["median"]
                print(f"{workload} {name}: {was:.6g} -> {s['median']:.6g} "
                      f"{s['unit']} (x{s['median'] / was:.3f})")
        for name, m in after["per_layer"].items():
            prev = before["per_layer"].get(name)
            if prev is None:
                print(f"{workload} {name}: new metric")
            elif m["unit"] == "count" and same_seed \
                    and m["value"] != prev["value"]:
                print(f"{workload} {name}: {prev['value']} -> {m['value']}")
            elif name.endswith(".share") \
                    and abs(m["value"] - prev["value"]) > SHARE_MOVE:
                print(f"{workload} {name}: {prev['value']:.3f} -> "
                      f"{m['value']:.3f}")
        for name in sorted(before["per_layer"].keys()
                           - after["per_layer"].keys()):
            print(f"{workload} {name}: absent, was "
                  f"{before['per_layer'][name]['value']}")


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fh:
        new = json.load(fh)
    failed = False
    for result in new["workloads"].values():
        for failure in result["failures"]:
            print(f"FAILED {failure}")
            failed = True
    if len(argv) == 2:
        with open(argv[1]) as fh:
            old = json.load(fh)
        if isinstance(old.get("workloads"), dict) and "meta" in old:
            compare(new, old)
        else:
            print(f"{argv[1]} is not a perfbench artifact: comparison skipped")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
