"""KTAU6xx: import graph checks.

KTAU402 polices *direct* imports one file at a time.  These rules build
the full module dependency graph and enforce properties only the graph
can see:

* **KTAU601** — import cycle.  A strongly-connected component in the
  run-time import graph means import order is load-bearing: the module
  that happens to be imported first sees a half-initialised partner.
  (``if TYPE_CHECKING:`` imports never execute and are exempt, which is
  exactly how a cycle should be broken.)
* **KTAU602** — transitive layer violation.  A module may satisfy
  KTAU402 on every direct edge yet still reach a forbidden layer through
  an intermediary; the allowed set for transitive reachability is the
  closure of :data:`repro.lint.api.LAYER_DEPS`.  The finding carries the
  shortest offending chain as evidence.

The graph itself is exported for humans: :func:`build_import_graph`
feeds ``repro lint --graph-out`` / ``make lint-graph`` (Graphviz DOT,
one cluster per architectural layer).
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Sequence

from repro.lint.api import LAYER_DEPS, _in_type_checking
from repro.lint.engine import ProjectRule, SourceFile, register
from repro.lint.findings import Finding, Severity


def _layer(module: str) -> Optional[str]:
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Absolute module name for a ``from . import x``-style import."""
    parts = module.split(".")
    parts = parts[:len(parts) - level] if level <= len(parts) else []
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


def _deferred_nodes(tree: ast.Module) -> set[int]:
    """``id()`` of import nodes inside function bodies.

    A function-scoped import executes when the function is *called*, not
    when the module loads — the sanctioned way to break an import cycle
    — so cycle detection must not count it as an import-time edge.  It
    still matters for layering and the dependency graph.
    """
    deferred: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    deferred.add(id(sub))
    return deferred


def _import_edges(source: SourceFile, known: frozenset[str]
                  ) -> list[tuple[str, int, bool]]:
    """(imported repro module, line, deferred) for every run-time import."""
    edges: list[tuple[str, int, bool]] = []
    guarded = _in_type_checking(source.tree)
    deferred = _deferred_nodes(source.tree)
    for node in ast.walk(source.tree):
        if id(node) in guarded:
            continue
        late = id(node) in deferred
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    edges.append((alias.name, node.lineno, late))
        elif isinstance(node, ast.ImportFrom):
            base = (node.module or "") if node.level == 0 else \
                _resolve_relative(source.module, node.level, node.module)
            if base.split(".")[0] != "repro":
                continue
            for alias in node.names:
                # ``from repro.a import b`` may name module repro.a.b or
                # a symbol in repro.a; prefer the module when it exists.
                sub = f"{base}.{alias.name}"
                edges.append((sub if sub in known else base,
                              node.lineno, late))
    return edges


def build_import_graph(sources: Sequence[SourceFile]
                       ) -> dict[str, dict[str, tuple[int, bool]]]:
    """module -> {imported module -> (first import line, deferred)}.

    Only run-time imports of ``repro.*`` modules are edges; targets are
    normalised to module granularity against the linted set.  An edge is
    ``deferred`` when its only imports are function-scoped (executing at
    call time, not import time).
    """
    known = frozenset(s.module for s in sources)
    graph: dict[str, dict[str, tuple[int, bool]]] = {}
    for src in sources:
        out = graph.setdefault(src.module, {})
        for target, line, late in _import_edges(src, known):
            if target == src.module:
                continue
            prev = out.get(target)
            if prev is None or (prev[1] and not late):
                out[target] = (line, late)
    return graph


def _import_time_graph(graph: dict[str, dict[str, tuple[int, bool]]]
                       ) -> dict[str, dict[str, int]]:
    """The subgraph of edges that execute at module-load time."""
    return {mod: {t: line for t, (line, late) in out.items() if not late}
            for mod, out in graph.items()}


def to_dot(graph: dict[str, dict[str, int]]) -> str:
    """The import graph as Graphviz DOT, clustered by layer."""
    lines = ["digraph repro_imports {",
             "  rankdir=LR;",
             "  node [shape=box, fontsize=10];"]
    by_layer: dict[str, list[str]] = {}
    modules = sorted(set(graph)
                     | {t for out in graph.values() for t in out})
    for mod in modules:
        by_layer.setdefault(_layer(mod) or "top", []).append(mod)
    for layer in sorted(by_layer):
        lines.append(f'  subgraph "cluster_{layer}" {{')
        lines.append(f'    label="{layer}";')
        for mod in by_layer[layer]:
            lines.append(f'    "{mod}";')
        lines.append("  }")
    for mod in sorted(graph):
        for target in sorted(graph[mod]):
            lines.append(f'  "{mod}" -> "{target}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tarjan_sccs(graph: dict[str, dict[str, int]]) -> list[list[str]]:
    """Strongly-connected components (iterative Tarjan, deterministic)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)

    for mod in sorted(graph):
        if mod not in index:
            strongconnect(mod)
    return sccs


def _layer_closure() -> dict[str, set[str]]:
    """layer -> every layer transitively reachable through LAYER_DEPS."""
    closure = {layer: set(deps) for layer, deps in LAYER_DEPS.items()}
    changed = True
    while changed:
        changed = False
        for layer, reach in closure.items():
            extra = set()
            for dep in reach:
                extra |= closure.get(dep, set())
            if not extra <= reach:
                reach |= extra
                changed = True
    return closure


@register
class ImportGraphRule(ProjectRule):
    """KTAU601-602: graph properties of the run-time import relation."""

    rule_id = "KTAU601"
    name = "import-graph"
    severity = Severity.ERROR
    description = "import cycles and transitive layer violations"
    emits = ("KTAU601", "KTAU602")

    def check_project(self, sources: Sequence[SourceFile]) -> Iterable[Finding]:
        by_module = {s.module: s for s in sources}
        graph = build_import_graph(sources)
        yield from self._check_cycles(_import_time_graph(graph), by_module)
        yield from self._check_transitive(graph, by_module)

    def _emit(self, rule_id: str, src: SourceFile, line: int,
              message: str) -> Finding:
        return Finding(rule_id, Severity.ERROR, str(src.path), line, message)

    # -- KTAU601 ----------------------------------------------------------
    def _check_cycles(self, graph, by_module):
        for scc in _tarjan_sccs(graph):
            members = sorted(scc)
            if len(members) == 1:
                mod = members[0]
                if mod not in graph.get(mod, {}):
                    continue
                cycle = [mod, mod]
            else:
                # Walk the cycle from its first member for the message.
                cycle = [members[0]]
                in_scc = set(members)
                while True:
                    nxt = min(t for t in graph[cycle[-1]] if t in in_scc)
                    if nxt == cycle[0] or nxt in cycle:
                        cycle.append(nxt)
                        break
                    cycle.append(nxt)
            head = by_module.get(cycle[0])
            if head is None:
                continue
            line = graph[cycle[0]].get(cycle[1], 1)
            yield self._emit(
                "KTAU601", head, line,
                "import cycle: " + " -> ".join(cycle) + " (import order "
                "becomes load-bearing; break the cycle or move the "
                "import under TYPE_CHECKING)")

    # -- KTAU602 ----------------------------------------------------------
    def _check_transitive(self, graph, by_module):
        closure = _layer_closure()
        for mod in sorted(graph):
            layer = _layer(mod)
            if layer is None or layer not in LAYER_DEPS:
                continue
            allowed = closure[layer]
            # BFS with parent tracking for shortest-chain evidence.
            parents: dict[str, str] = {}
            frontier = [mod]
            seen = {mod}
            while frontier:
                nxt: list[str] = []
                for cur in frontier:
                    for target in sorted(graph.get(cur, ())):
                        if target in seen:
                            continue
                        seen.add(target)
                        parents[target] = cur
                        nxt.append(target)
                frontier = nxt
            for target in sorted(seen - {mod}):
                tlayer = _layer(target)
                if tlayer is None or tlayer == layer or tlayer in allowed:
                    continue
                chain = [target]
                while chain[-1] != mod:
                    chain.append(parents[chain[-1]])
                chain.reverse()
                if len(chain) <= 2:
                    continue  # direct edge: KTAU402's finding, not ours
                src = by_module[mod]
                line = graph[mod].get(chain[1], (1, False))[0]
                yield self._emit(
                    "KTAU602", src, line,
                    f"transitive layer violation: repro.{layer} reaches "
                    f"'{target}' (layer '{tlayer}') via "
                    + " -> ".join(chain))
