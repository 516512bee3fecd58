"""Instrumentation balance: every ``entry`` has an ``exit`` on every path.

This is the lockdep-style analog for KTAU.  The paper's kernel patch
enforced entry/exit pairing by convention; when a pair is unbalanced the
activation-stack inclusive/exclusive accounting silently corrupts (the
runtime drops the sample and bumps ``unmatched_exits``, but the entered
span's time is attributed wrongly forever after).  This rule proves the
pairing statically, per function, by abstract interpretation over the
control-flow structure:

* Each path carries a stack of open instrumentation points (the static
  mirror of ``KtauTaskData.stack``).
* ``If`` forks both branches, *remembering the branch condition*: two
  ``if data is not None:`` guards over the same expression take the same
  branch on the same path, so the pervasive guarded-entry / guarded-exit
  kernel idiom does not false-positive.
* Loops must be net-balanced: a body that leaves the stack different from
  how it found it compounds the imbalance per iteration.
* ``try/finally`` runs the final body on every exit path (the standard
  way kernel code guarantees the exit side); explicit ``return`` /
  ``raise`` / ``break`` / ``continue`` are tracked as abrupt exits.

Escapes that are split across functions by design (KTAU's voluntary /
involuntary scheduling spans open in ``_ktau_sched_out`` and close in
``_ktau_sched_in``) cannot be proven by any per-function analysis and
carry explicit ``# ktaulint: disable=...`` suppressions at the call site.

Rules
-----
KTAU101
    An ``entry(...)`` is not matched by an ``exit(...)`` on some path
    (fall-through, ``return``, or explicit ``raise``).
KTAU102
    An ``exit(...)`` fires with no matching open ``entry`` on some path
    (never entered, already exited, or out of LIFO order).
KTAU103
    A loop body changes the set of open instrumentation points, so the
    imbalance compounds per iteration.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.lint.engine import Rule, SourceFile, register
from repro.lint.findings import Finding, Severity

#: Give up (without findings) when a function's path set exceeds this;
#: condition tracking keeps real kernel code far below it.
MAX_STATES = 256

_INSTR_ATTRS = {"entry", "exit"}


def _point_key(arg: ast.expr) -> str:
    """Canonical identity of the point expression of an entry/exit call.

    ``kernel.point("tcp_sendmsg")`` keys by the literal name; any other
    expression keys by its source text, so ``entry(data, point)`` /
    ``exit(data, point)`` pair up through the shared variable.
    """
    if (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
            and arg.func.attr in ("point", "atomic_point") and arg.args):
        first = arg.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return ast.unparse(arg)


def _match_instr_call(call: ast.Call) -> Optional[tuple[str, str]]:
    """``(op, key)`` when ``call`` is an instrumentation entry/exit."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _INSTR_ATTRS:
        return None
    if len(call.args) < 2:  # excludes sys.exit(code) etc.
        return None
    return func.attr, _point_key(call.args[1])


def _cond_key(test: ast.expr) -> tuple[str, bool]:
    """``(canonical condition, polarity)`` for branch correlation.

    ``x is None`` and ``x is not None`` canonicalise to the same key with
    opposite polarity, as do ``not E`` / ``E``, so guarded entries and
    guarded exits correlate across statements.
    """
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        key, pol = _cond_key(test.operand)
        return key, not pol
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        key = f"{ast.unparse(test.left)} is None"
        return key, isinstance(test.ops[0], ast.Is)
    return ast.unparse(test), True


@dataclass(frozen=True)
class _State:
    """One abstract path: open-instrumentation stack + branch assumptions."""

    stack: tuple[tuple[str, int], ...] = ()  # (point key, entry lineno)
    assumptions: frozenset[tuple[str, bool]] = frozenset()

    def push(self, key: str, line: int) -> "_State":
        return _State(self.stack + ((key, line),), self.assumptions)

    def pop(self) -> "_State":
        return _State(self.stack[:-1], self.assumptions)

    def assume(self, cond: str, value: bool) -> "_State":
        return _State(self.stack,
                      self.assumptions | {(cond, value)})


@dataclass
class _Exit:
    """An abrupt exit (return/raise/break/continue) in flight."""

    kind: str
    state: _State
    line: int


@dataclass
class _BlockResult:
    normal: set[_State] = field(default_factory=set)
    exits: list[_Exit] = field(default_factory=list)
    #: states at statement boundaries (what an except handler may see)
    boundaries: set[_State] = field(default_factory=set)


class _FunctionAnalysis:
    """Path-sensitive balance analysis of one function body."""

    def __init__(self, source: SourceFile, func: ast.AST):
        self.source = source
        self.func = func
        self.findings: list[Finding] = []
        self._reported: set[tuple[str, int, str]] = set()
        self.overflowed = False

    # -- reporting -------------------------------------------------------
    def _report(self, rule_id: str, line: int, message: str) -> None:
        dedup = (rule_id, line, message)
        if dedup in self._reported:
            return
        self._reported.add(dedup)
        self.findings.append(Finding(rule_id, Severity.ERROR,
                                     str(self.source.path), line, message))

    # -- instrumentation effects ----------------------------------------
    def _instr_calls(self, stmt: ast.stmt) -> list[tuple[str, str, int]]:
        """Entry/exit calls inside one simple statement, in walk order."""
        out: list[tuple[str, str, int]] = []
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue  # nested scopes analysed separately
            if isinstance(node, ast.Call):
                match = _match_instr_call(node)
                if match is not None:
                    out.append((match[0], match[1], node.lineno))
        return out

    def _apply_call(self, states: set[_State], op: str, key: str,
                    line: int) -> set[_State]:
        next_states: set[_State] = set()
        for st in states:
            if op == "entry":
                next_states.add(st.push(key, line))
                continue
            # exit
            if not st.stack:
                self._report("KTAU102", line,
                             f"exit('{key}') with no open entry on this path")
                next_states.add(st)
            elif st.stack[-1][0] != key:
                open_key, open_line = st.stack[-1]
                if any(k == key for k, _ in st.stack):
                    self._report(
                        "KTAU102", line,
                        f"exit('{key}') out of LIFO order: innermost open "
                        f"entry is '{open_key}' (line {open_line})")
                else:
                    self._report(
                        "KTAU102", line,
                        f"exit('{key}') does not match the innermost open "
                        f"entry '{open_key}' (line {open_line})")
                next_states.add(st)
            else:
                next_states.add(st.pop())
        return next_states

    # -- block analysis --------------------------------------------------
    def _analyze_block(self, stmts: list[ast.stmt],
                       states: set[_State]) -> _BlockResult:
        result = _BlockResult()
        current = set(states)
        result.boundaries |= current
        for stmt in stmts:
            if not current:
                break
            if len(current) > MAX_STATES:
                self.overflowed = True
                break
            current = self._analyze_stmt(stmt, current, result)
            result.boundaries |= current
        result.normal = current
        return result

    def _analyze_stmt(self, stmt: ast.stmt, states: set[_State],
                      result: _BlockResult) -> set[_State]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return states
        if isinstance(stmt, ast.If):
            return self._analyze_if(stmt, states, result)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._analyze_loop(stmt, states, result)
        if isinstance(stmt, ast.Try) or (hasattr(ast, "TryStar")
                                         and isinstance(stmt, ast.TryStar)):
            return self._analyze_try(stmt, states, result)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._analyze_with(stmt, states, result)
        if isinstance(stmt, ast.Match):
            return self._analyze_match(stmt, states, result)
        if isinstance(stmt, ast.Return):
            for st in self._apply_simple(stmt, states):
                result.exits.append(_Exit("return", st, stmt.lineno))
            return set()
        if isinstance(stmt, ast.Raise):
            for st in self._apply_simple(stmt, states):
                result.exits.append(_Exit("raise", st, stmt.lineno))
            return set()
        if isinstance(stmt, ast.Break):
            for st in states:
                result.exits.append(_Exit("break", st, stmt.lineno))
            return set()
        if isinstance(stmt, ast.Continue):
            for st in states:
                result.exits.append(_Exit("continue", st, stmt.lineno))
            return set()
        # simple statement: apply any instrumentation calls it contains
        return self._apply_simple(stmt, states)

    def _apply_simple(self, stmt: ast.stmt, states: set[_State]) -> set[_State]:
        for op, key, line in self._instr_calls(stmt):
            states = self._apply_call(states, op, key, line)
        return states

    def _analyze_if(self, stmt: ast.If, states: set[_State],
                    result: _BlockResult) -> set[_State]:
        cond, polarity = _cond_key(stmt.test)
        taken: set[_State] = set()
        not_taken: set[_State] = set()
        for st in states:
            known = dict(st.assumptions).get(cond)
            if known is None:
                taken.add(st.assume(cond, polarity))
                not_taken.add(st.assume(cond, not polarity))
            elif known == polarity:
                taken.add(st)
            else:
                not_taken.add(st)
        out: set[_State] = set()
        if taken:
            bres = self._analyze_block(stmt.body, taken)
            out |= bres.normal
            result.exits.extend(bres.exits)
            result.boundaries |= bres.boundaries
        if not_taken:
            if stmt.orelse:
                eres = self._analyze_block(stmt.orelse, not_taken)
                out |= eres.normal
                result.exits.extend(eres.exits)
                result.boundaries |= eres.boundaries
            else:
                out |= not_taken
        return out

    def _analyze_loop(self, stmt: ast.stmt, states: set[_State],
                      result: _BlockResult) -> set[_State]:
        body = stmt.body  # type: ignore[attr-defined]
        bres = self._analyze_block(body, states)
        result.boundaries |= bres.boundaries
        out: set[_State] = set(states)  # zero-iteration path
        stacks_in = {st.stack for st in states}
        # Fall-through and `continue` states reach the next iteration: the
        # stack must be exactly as the iteration found it, or imbalance
        # compounds per iteration.
        repeat = set(bres.normal)
        for ex in bres.exits:
            if ex.kind == "continue":
                repeat.add(ex.state)
            elif ex.kind == "break":
                out.add(ex.state)
            else:
                result.exits.append(ex)
        for st in repeat:
            if st.stack not in stacks_in:
                opened = [f"'{k}' (line {ln})" for k, ln in st.stack
                          if all(k != k2 for stack in stacks_in
                                 for k2, _ in stack)]
                detail = ("opens " + ", ".join(opened)) if opened else \
                    "changes the open-instrumentation stack"
                self._report(
                    "KTAU103", stmt.lineno,
                    f"loop body {detail} without closing it each iteration")
        orelse = getattr(stmt, "orelse", None)
        if orelse:
            eres = self._analyze_block(orelse, out)
            result.exits.extend(eres.exits)
            result.boundaries |= eres.boundaries
            return eres.normal
        return out

    def _analyze_try(self, stmt: ast.stmt, states: set[_State],
                     result: _BlockResult) -> set[_State]:
        bres = self._analyze_block(stmt.body, states)  # type: ignore[attr-defined]
        handlers = stmt.handlers  # type: ignore[attr-defined]
        finalbody = stmt.finalbody  # type: ignore[attr-defined]
        orelse = stmt.orelse  # type: ignore[attr-defined]

        # What survives the try body normally continues into else.
        normal = bres.normal
        if orelse and normal:
            eres = self._analyze_block(orelse, normal)
            normal = eres.normal
            bres.exits.extend(eres.exits)
            bres.boundaries |= eres.boundaries

        # An exception may surface at any statement boundary inside the
        # try body; each handler sees all of those states.
        handler_normal: set[_State] = set()
        handler_exits: list[_Exit] = []
        for handler in handlers:
            hres = self._analyze_block(handler.body, set(bres.boundaries))
            handler_normal |= hres.normal
            handler_exits.extend(hres.exits)
            bres.boundaries |= hres.boundaries

        pending_exits = bres.exits + handler_exits
        out_normal = normal | handler_normal

        if finalbody:
            # The final body runs on the normal path...
            out: set[_State] = set()
            if out_normal:
                fres = self._analyze_block(finalbody, out_normal)
                out = fres.normal
                result.exits.extend(fres.exits)
                result.boundaries |= fres.boundaries
            # ... and again on every abrupt exit threading through it.
            for ex in pending_exits:
                fres = self._analyze_block(finalbody, {ex.state})
                result.boundaries |= fres.boundaries
                for st in fres.normal:
                    result.exits.append(_Exit(ex.kind, st, ex.line))
                result.exits.extend(fres.exits)
            # An exception raised *inside* try with no matching handler
            # also runs finally; those propagating states are already
            # represented by the handler boundary states only if handlers
            # exist.  When there are no handlers, model the propagating
            # exception explicitly so `entry(); try: ...; finally: exit()`
            # proves balanced on the exceptional path too.
            if not handlers:
                for st in bres.boundaries:
                    fres = self._analyze_block(finalbody, {st})
                    # Exceptional propagation continues after finally; the
                    # function-level check only cares that the stack is
                    # restored, which fres.normal now reflects.  We do not
                    # report these as raise exits (the exception source is
                    # implicit), but an unbalanced stack here will still
                    # surface on the explicit paths above.
                    result.boundaries |= fres.normal
        else:
            result.exits.extend(pending_exits)
            out = out_normal
        result.boundaries |= bres.boundaries
        return out

    def _analyze_with(self, stmt: ast.stmt, states: set[_State],
                      result: _BlockResult) -> set[_State]:
        bres = self._analyze_block(stmt.body, set(states))  # type: ignore[attr-defined]
        result.exits.extend(bres.exits)
        result.boundaries |= bres.boundaries
        return bres.normal

    def _analyze_match(self, stmt: ast.Match, states: set[_State],
                       result: _BlockResult) -> set[_State]:
        out: set[_State] = set()
        exhaustive = False
        for case in stmt.cases:
            cres = self._analyze_block(case.body, set(states))
            out |= cres.normal
            result.exits.extend(cres.exits)
            result.boundaries |= cres.boundaries
            if (isinstance(case.pattern, ast.MatchAs)
                    and case.pattern.pattern is None and case.guard is None):
                exhaustive = True
        if not exhaustive:
            out |= states  # no case matched
        return out

    # -- entry point -----------------------------------------------------
    def run(self) -> list[Finding]:
        body = self.func.body  # type: ignore[attr-defined]
        result = _BlockResult()
        final = self._analyze_block(body, {_State()})
        result.exits.extend(final.exits)
        if self.overflowed:
            return []  # too many paths to prove anything; stay silent
        for st in final.normal:
            self._flag_unclosed(st, "at function end", None)
        for ex in result.exits:
            if ex.kind in ("return", "raise"):
                self._flag_unclosed(ex.state, f"on {ex.kind}", ex.line)
        return self.findings

    def _flag_unclosed(self, st: _State, where: str,
                       line: Optional[int]) -> None:
        for key, entry_line in st.stack:
            at = f" at line {line}" if line is not None else ""
            self._report(
                "KTAU101", entry_line,
                f"entry('{key}') has no matching exit {where}{at}")


@register
class BalanceRule(Rule):
    """KTAU101-103: every function body, one path-sensitive analysis each."""

    rule_id = "KTAU101"
    name = "balance"
    description = ("instrumentation entry()/exit() pairs balance in LIFO "
                   "order on every control-flow path and loop iteration")
    scope = ("repro.kernel", "repro.core")
    emits = ("KTAU101", "KTAU102", "KTAU103")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from _FunctionAnalysis(source, node).run()
