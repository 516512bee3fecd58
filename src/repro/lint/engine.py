"""The ktaulint engine: source loading, rule registry, suppression.

The engine parses every target file once into an :mod:`ast` tree wrapped
in a :class:`SourceFile` (which also pre-computes the module's dotted name
and its suppression comments), then dispatches two kinds of rules:

* :class:`Rule` — per-file checks (balance, determinism, API hygiene);
* :class:`ProjectRule` — whole-tree checks that need every file at once
  (registry consistency: declarations in one module, firings in others).

Suppression
-----------
A finding is dropped when its line carries a suppression comment::

    kernel.ktau.exit(data, point)  # ktaulint: disable=KTAU102

``disable=RULE1,RULE2`` silences the named rules on that line; a bare
``# ktaulint: disable`` silences every rule on the line; and
``# ktaulint: disable-file=RULE`` anywhere in a file silences the rule
for the whole file.  A suppression on the *last* line of a multi-line
simple statement (the closing paren of a wrapped call, where formatters
put trailing comments) covers the whole statement; comments on interior
continuation lines stay line-scoped, so one waiver inside a long literal
cannot silently blanket its siblings.  Suppressions are deliberate,
visible-in-diff escape hatches for the rare instrumentation idiom the
analysis cannot prove (e.g. KTAU's split-phase scheduler spans).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.lint.findings import Finding, Severity

#: Matches one suppression comment; group 1 is "-file" or "", group 2 the
#: optional comma-separated rule list.
_SUPPRESS_RE = re.compile(
    r"#\s*ktaulint:\s*disable(-file)?(?:=([A-Za-z0-9_,\s]+))?")

#: Sentinel rule-set meaning "every rule".
_ALL_RULES = frozenset({"*"})


def _module_name(path: Path) -> str:
    """Dotted module name for ``path``.

    The name is derived from the last ``repro`` component of the path so
    that files under ``src/repro/...`` resolve to ``repro.x.y`` and the
    scope predicates in rules apply.  Files outside any ``repro`` package
    (e.g. test fixtures) get their bare stem, which no scope predicate
    matches — the engine then treats them as in scope for *every* rule,
    so fixtures exercise all rule families without faking a package.
    """
    parts = list(path.parts)
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        mod_parts = list(parts[idx:])
        mod_parts[-1] = mod_parts[-1][:-3]  # strip .py
        if mod_parts[-1] == "__init__":
            mod_parts.pop()
        return ".".join(mod_parts)
    return path.stem


class SourceFile:
    """One parsed target file plus its suppression table."""

    def __init__(self, path: Path, text: str, tree: ast.Module):
        self.path = path
        self.text = text
        self.tree = tree
        self.module = _module_name(path)
        #: line -> set of suppressed rule IDs ({"*"} = all)
        self.line_suppressions: dict[int, set[str]] = {}
        #: rules suppressed for the whole file
        self.file_suppressions: set[str] = set()
        self._scan_suppressions()
        self._extend_statement_spans()

    def _scan_suppressions(self) -> None:
        for lineno, line in enumerate(self.text.splitlines(), start=1):
            m = _SUPPRESS_RE.search(line)
            if m is None:
                continue
            rules = (set(r.strip() for r in m.group(2).split(",") if r.strip())
                     if m.group(2) else set(_ALL_RULES))
            if m.group(1):  # disable-file
                self.file_suppressions |= rules
            else:
                self.line_suppressions.setdefault(lineno, set()).update(rules)

    #: compound statements own their body lines; only *simple* statements
    #: get whole-span suppression from a trailing comment
    _COMPOUND = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.For, ast.AsyncFor, ast.While, ast.If, ast.With,
                 ast.AsyncWith, ast.Try, ast.Match)

    def _extend_statement_spans(self) -> None:
        """A suppression on the last line of a multi-line simple statement
        (the closing paren of a wrapped call) covers the whole statement.

        Only the *last* line extends: honouring interior continuation
        lines would let one per-entry waiver inside a long table literal
        (e.g. the KTAU303 waivers in core/points.py) silently blanket
        every other entry of the same statement.
        """
        if not self.line_suppressions:
            return
        for node in ast.walk(self.tree):
            if (not isinstance(node, ast.stmt)
                    or isinstance(node, self._COMPOUND)):
                continue
            end = getattr(node, "end_lineno", None)
            if end is None or end <= node.lineno:
                continue
            rules = self.line_suppressions.get(end)
            if not rules:
                continue
            for lineno in range(node.lineno, end):
                self.line_suppressions.setdefault(lineno, set()).update(rules)

    def resolve_relative(self, level: int,
                         target: Optional[str]) -> Optional[str]:
        """Absolute name of the module a ``from <level dots><target>
        import`` in this file names (level 0 is an absolute import), or
        None when the dots climb above the top-level package.

        A package's ``__init__`` is its own first level: ``from . import
        a`` in ``repro/kernel/__init__.py`` names ``repro.kernel.a``.
        """
        if not level:
            return target or ""
        package = self.module.split(".")
        if self.path.name != "__init__.py":
            package.pop()
        keep = len(package) + 1 - level
        if keep < 1:
            return None
        return ".".join(package[:keep] + ([target] if target else []))

    def is_suppressed(self, finding: Finding) -> bool:
        if ("*" in self.file_suppressions
                or finding.rule_id in self.file_suppressions):
            return True
        rules = self.line_suppressions.get(finding.line)
        if rules is None:
            return False
        return "*" in rules or finding.rule_id in rules


class Rule:
    """A per-file check.

    Subclasses set ``rule_id``/``name``/``severity``/``description`` and
    implement :meth:`check`.  ``scope`` limits the rule to modules whose
    dotted name starts with one of the given prefixes; files that resolve
    to no ``repro.*`` module (fixtures, scratch files) are always in
    scope.
    """

    rule_id: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    #: module-name prefixes the rule applies to; empty = everywhere
    scope: tuple[str, ...] = ()
    #: every rule ID this rule can emit; empty means just ``rule_id``
    #: (rule families like registry consistency emit several)
    emits: tuple[str, ...] = ()

    def applies(self, source: SourceFile) -> bool:
        if not self.scope or not source.module.startswith("repro"):
            return True
        return any(source.module == p or source.module.startswith(p + ".")
                   for p in self.scope)

    def check(self, source: SourceFile) -> Iterable[Finding]:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------
    def finding(self, source: SourceFile, line: int, message: str,
                severity: Optional[Severity] = None) -> Finding:
        return Finding(self.rule_id, severity or self.severity,
                       str(source.path), line, message)


class ProjectRule(Rule):
    """A whole-tree check; sees every parsed file at once."""

    def check(self, source: SourceFile) -> Iterable[Finding]:
        return ()

    def check_project(self, sources: Sequence[SourceFile]) -> Iterable[Finding]:
        raise NotImplementedError


#: All registered rule classes, in registration order.
_RULE_CLASSES: list[type[Rule]] = []


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the default rule set."""
    if any(existing.rule_id == cls.rule_id for existing in _RULE_CLASSES):
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _RULE_CLASSES.append(cls)
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    _load_builtin_rules()
    return [cls() for cls in _RULE_CLASSES]


def known_rule_ids() -> frozenset[str]:
    """Every rule ID a lint run can emit (including KTAU000 parse errors)."""
    ids = {"KTAU000"}
    for rule in all_rules():
        ids.update(rule.emits or (rule.rule_id,))
    return frozenset(ids)


def _load_builtin_rules() -> None:
    """Import the rule modules (registration happens at import time)."""
    from repro.lint import (api, balance, contexts, determinism,  # noqa: F401
                            imports, registry)


class ParseError(Exception):
    """A target file failed to parse; carries a pseudo-finding."""

    def __init__(self, finding: Finding):
        super().__init__(finding.message)
        self.finding = finding


class LintEngine:
    """Runs a rule set over a set of paths and collects findings."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 select: Optional[Iterable[str]] = None):
        self.rules = list(rules) if rules is not None else all_rules()
        #: when set, only findings with these rule IDs are reported (a
        #: rule family like registry consistency emits several IDs from
        #: one rule, so selection filters findings, not rule instances)
        self.selected: Optional[frozenset[str]] = (
            frozenset(select) if select is not None else None)

    # -- file discovery --------------------------------------------------
    @staticmethod
    def discover(paths: Iterable[str | Path]) -> list[Path]:
        """All ``*.py`` files under ``paths`` (files pass through)."""
        out: list[Path] = []
        for p in paths:
            p = Path(p)
            if p.is_dir():
                out.extend(f for f in sorted(p.rglob("*.py"))
                           if "__pycache__" not in f.parts)
            else:
                out.append(p)
        return out

    @staticmethod
    def load(path: Path) -> SourceFile:
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            raise ParseError(Finding(
                "KTAU000", Severity.ERROR, str(path), exc.lineno or 1,
                f"syntax error: {exc.msg}")) from exc
        return SourceFile(path, text, tree)

    # -- the run ---------------------------------------------------------
    def run(self, paths: Iterable[str | Path]) -> list[Finding]:
        sources: list[SourceFile] = []
        findings: list[Finding] = []
        for path in self.discover(paths):
            try:
                sources.append(self.load(path))
            except ParseError as exc:
                findings.append(exc.finding)
        by_path = {str(s.path): s for s in sources}
        for rule in self.rules:
            for source in sources:
                if not isinstance(rule, ProjectRule) and rule.applies(source):
                    findings.extend(rule.check(source))
            if isinstance(rule, ProjectRule):
                findings.extend(rule.check_project(sources))
        kept = []
        for f in findings:
            if self.selected is not None and f.rule_id not in self.selected:
                continue
            source = by_path.get(f.path)
            if source is not None and source.is_suppressed(f):
                continue
            kept.append(f)
        kept.sort(key=Finding.sort_key)
        return kept
