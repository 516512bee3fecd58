"""KTAU7xx: simulated-kernel context safety (lockdep, statically).

Linux's lockdep catches "might sleep from atomic context" at run time;
the simulated kernel has exactly the same hazard class, and a static
call graph can prove its absence instead of waiting for a workload to
trip it:

* **KTAU701** — a blocking operation (a ``yield Block(...)`` waitqueue
  sleep, directly or transitively) is reachable from a declared
  interrupt-context root without passing through a sanctioned context
  handoff.  IRQ/softirq work (span-chain delivery, NIC rx/tx paths) must
  never sleep.
* **KTAU702** — interrupt-context code calls a scheduler context-switch
  primitive directly (``_advance``/``_run_task``/``_deschedule``/...).
  The only legal way out of IRQ context is a declared boundary such as
  ``Scheduler.wake`` (the simulation's ``try_to_wake_up``).
* **KTAU703** — a generator function is passed as an engine callback
  (``engine.schedule(..., gen_fn)``): calling it builds a generator and
  discards it, so the event silently does nothing.

The roots and boundaries are *data, not lint config*: kernel modules
declare ``IRQ_CONTEXT_ROOTS`` / ``IRQ_CONTEXT_BOUNDARIES`` tuples (see
:mod:`repro.kernel.irq`), and this pass reads them from the AST.  The
declaration lives with the code it describes, and fixture trees can
declare their own.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Sequence

from repro.lint.callgraph import CallGraph, FuncInfo
from repro.lint.engine import ProjectRule, SourceFile, register
from repro.lint.findings import Finding, Severity

#: scheduler primitives that perform or unwind a context switch; calling
#: them from IRQ context corrupts the interrupted task's accounting
_SCHED_MUTATORS = {
    "_advance", "_run_task", "_deschedule", "_cpu_reschedule",
    "_do_exit", "_block", "kill_blocked", "_close_frames", "start_task",
}

#: engine methods taking a zero-argument callback as second argument
_ENGINE_SCHEDULERS = {"schedule", "schedule_at"}


def _declared_tuples(sources: Sequence[SourceFile],
                     name: str) -> list[str]:
    """Every string in module-level ``NAME = ("...", ...)`` declarations."""
    out: list[str] = []
    for src in sources:
        for stmt in src.tree.body:
            target = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            else:
                continue
            if not (isinstance(target, ast.Name) and target.id == name):
                continue
            if isinstance(value, (ast.Tuple, ast.List)):
                out.extend(elt.value for elt in value.elts
                           if isinstance(elt, ast.Constant)
                           and isinstance(elt.value, str))
    return out


def _match_spec(graph: CallGraph, spec: str) -> list[tuple[str, str]]:
    """Function keys matching a root/boundary spec.

    ``"Class.method"`` and bare ``"function"`` match by qualname in any
    module; a fully-dotted ``"pkg.mod.function"`` form matches module +
    qualname.
    """
    keys = graph.by_qualname.get(spec)
    if keys:
        return sorted(keys)
    if "." in spec:
        module, _, qual = spec.rpartition(".")
        return sorted(k for k in graph.by_qualname.get(qual, ())
                      if k[0] == module)
    return []


@register
class IrqContextRule(ProjectRule):
    """KTAU701-703: no sleeping or context-switching in IRQ context."""

    rule_id = "KTAU701"
    name = "irq-context-safety"
    severity = Severity.ERROR
    description = ("blocking operations and context-switch primitives "
                   "must be unreachable from declared IRQ-context roots")
    emits = ("KTAU701", "KTAU702", "KTAU703")

    def check_project(self, sources: Sequence[SourceFile]) -> Iterable[Finding]:
        graph = CallGraph(sources)
        yield from self._check_irq_reachability(sources, graph)
        yield from self._check_generator_callbacks(sources, graph)

    def _emit(self, rule_id: str, path: str, line: int,
              message: str) -> Finding:
        return Finding(rule_id, Severity.ERROR, path, line, message)

    # -- KTAU701 / KTAU702 ------------------------------------------------
    def _check_irq_reachability(self, sources, graph: CallGraph):
        roots: list[tuple[str, str]] = []
        for spec in _declared_tuples(sources, "IRQ_CONTEXT_ROOTS"):
            roots.extend(_match_spec(graph, spec))
        if not roots:
            return
        boundaries: set[tuple[str, str]] = set()
        for spec in _declared_tuples(sources, "IRQ_CONTEXT_BOUNDARIES"):
            boundaries.update(_match_spec(graph, spec))
        # BFS over the IRQ-context region: stop at boundaries (their
        # bodies run in task context), track one witness chain per node.
        # Any transitive sleep is caught at its syntactic site, since the
        # BFS walks the same call edges the sleep is reached through.
        parents: dict[tuple[str, str], tuple[str, str]] = {}
        seen: set[tuple[str, str]] = set(roots)
        frontier = sorted(set(roots))
        reported: set[tuple[str, tuple[str, str]]] = set()
        while frontier:
            nxt: list[tuple[str, str]] = []
            for key in frontier:
                info = graph.funcs[key]
                if info.blocking:
                    line, reason = info.blocking[0]
                    yield from self._report_block(
                        graph, parents, key, key, line, reason, reported)
                for ref in info.calls:
                    for cand in graph.resolve(info, ref):
                        if cand[1].rpartition(".")[2] in _SCHED_MUTATORS:
                            if ("KTAU702", cand) not in reported:
                                reported.add(("KTAU702", cand))
                                chain = self._chain(parents, key)
                                yield self._emit(
                                    "KTAU702", str(graph.sources[
                                        info.module].path), ref.line,
                                    f"IRQ context calls context-switch "
                                    f"primitive '{cand[1]}' (IRQ chain: "
                                    f"{' -> '.join(chain)}); hand off "
                                    f"through a declared boundary "
                                    f"(IRQ_CONTEXT_BOUNDARIES) instead")
                            continue
                        if cand in boundaries or cand in seen:
                            continue
                        seen.add(cand)
                        parents[cand] = key
                        nxt.append(cand)
            frontier = sorted(nxt)

    def _report_block(self, graph, parents, key, site_key, line, reason,
                      reported):
        if ("KTAU701", key) in reported:
            return
        reported.add(("KTAU701", key))
        chain = self._chain(parents, key)
        info = graph.funcs[site_key]
        yield self._emit(
            "KTAU701", str(graph.sources[info.module].path), line,
            f"blocking operation reachable from IRQ context: "
            f"{' -> '.join(chain)} {reason}; IRQ/softirq work must "
            f"never sleep")

    @staticmethod
    def _chain(parents, key) -> list[str]:
        chain = [key]
        while chain[-1] in parents:
            chain.append(parents[chain[-1]])
        return [k[1] for k in reversed(chain)]

    # -- KTAU703 ----------------------------------------------------------
    def _check_generator_callbacks(self, sources, graph: CallGraph):
        for key, info in sorted(graph.funcs.items()):
            for ref_call in self._engine_calls(info):
                cand = self._callback_target(graph, info, ref_call)
                if cand is None:
                    continue
                target, line = cand
                if graph.funcs[target].is_generator:
                    yield self._emit(
                        "KTAU703",
                        str(graph.sources[info.module].path), line,
                        f"generator function '{target[1]}' passed as an "
                        f"engine callback in '{info.qualname}': calling "
                        f"it builds a generator and discards it, so the "
                        f"event does nothing")

    @staticmethod
    def _engine_calls(info: FuncInfo) -> list[ast.Call]:
        out = []
        for node in ast.walk(info.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ENGINE_SCHEDULERS
                    and len(node.args) >= 2):
                out.append(node)
        return out

    def _callback_target(self, graph: CallGraph, info: FuncInfo,
                         call: ast.Call
                         ) -> Optional[tuple[tuple[str, str], int]]:
        arg = call.args[1]
        ref = None
        if isinstance(arg, ast.Name):
            ref = ("name", arg.id)
        elif (isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and arg.value.id in ("self", "cls")):
            ref = ("self", arg.attr)
        if ref is None:
            return None
        from repro.lint.callgraph import CallRef
        cands = graph.resolve(info, CallRef(ref[0], ref[1], call.lineno))
        # Only unambiguous, strong resolutions: a weak multi-candidate
        # match would accuse the wrong function.
        if len(cands) == 1:
            return cands[0], call.lineno
        return None
