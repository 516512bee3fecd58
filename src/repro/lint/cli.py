"""ktaulint command line: ``python -m repro.lint [paths] --format=...``.

Exit codes are stable so CI and scripts can branch on severity:

* ``0`` — clean (or INFO-level findings only);
* ``1`` — at least one ERROR finding;
* ``3`` — WARNING findings but no errors;
* ``2`` — usage error (argparse).

``--format=json`` emits a machine-readable report (used by the test
suite's exact-location assertions).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from repro.lint.engine import LintEngine, all_rules, known_rule_ids
from repro.lint.findings import Finding, Severity

#: exit code when WARNING-level findings exist but no errors
EXIT_WARNINGS = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("ktaulint: static analysis for instrumentation "
                     "balance, determinism, registry consistency, API "
                     "hygiene, import structure, and IRQ-context "
                     "safety"))
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="output format (default: text)")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule IDs to report "
                             "(e.g. KTAU101,KTAU201)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the registered rules and exit")
    return parser


def _render_text(findings: list[Finding]) -> str:
    lines = [f.format() for f in findings]
    worst = [f for f in findings if f.severity >= Severity.WARNING]
    lines.append(f"ktaulint: {len(findings)} finding(s), "
                 f"{len(worst)} at warning or above")
    return "\n".join(lines)


def _render_json(findings: list[Finding]) -> str:
    return json.dumps({
        "findings": [f.to_dict() for f in findings],
        "count": len(findings),
    }, indent=2)


def _render_rules() -> str:
    rows = [(",".join(rule.emits or (rule.rule_id,)), rule)
            for rule in sorted(all_rules(), key=lambda r: r.rule_id)]
    width = max(len(ids) for ids, _ in rows)
    return "\n".join(f"{ids:<{width}}  {rule.name:<24} {rule.description}"
                     for ids, rule in rows)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_render_rules())
        return 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")
    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
        unknown = sorted(set(select) - known_rule_ids())
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)} "
                         f"(see --list-rules)")
    engine = LintEngine(select=select)
    findings = engine.run(args.paths)
    if args.format == "json":
        print(_render_json(findings))
    else:
        print(_render_text(findings))
    if any(f.severity >= Severity.ERROR for f in findings):
        return 1
    if any(f.severity >= Severity.WARNING for f in findings):
        return EXIT_WARNINGS
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
