"""KTAU402 and KTAU6xx: the import graph and the layering contract.

One rule builds the full run-time module dependency graph (relative
imports resolved, ``if TYPE_CHECKING:`` imports exempt because they
never execute) and checks it against :data:`LAYER_DEPS`, the
architecture's allowed-dependency map, which lives here:

* **KTAU402** — layer violation.  A module directly imports a ``repro``
  package its layer may not depend on (sim at the bottom; core above
  sim; the kernel above core; measurement clients, workloads and the
  cluster above the kernel; analysis and experiments on top).  A
  second-level subpackage may declare its own, tighter contract
  (``analysis.bottlenecks`` must never import the monitor).  The graph
  keeps one edge per module pair, so a forbidden target is reported
  once, at its first import line.
* **KTAU601** — import cycle.  A strongly-connected component in the
  run-time import graph means import order is load-bearing: the module
  that happens to be imported first sees a half-initialised partner.
  (``if TYPE_CHECKING:`` imports never execute and are exempt, which is
  exactly how a cycle should be broken.)
* **KTAU602** — transitive layer violation.  A module may satisfy
  KTAU402 on every direct edge yet still reach a forbidden layer through
  an intermediary; the allowed set for transitive reachability is the
  closure of :data:`LAYER_DEPS`.  The finding carries the shortest
  offending chain as evidence.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Sequence

from repro.lint.engine import ProjectRule, SourceFile, register
from repro.lint.findings import Finding, Severity


#: package -> repro sub-packages it may import from at run time.
#: Keys may name a second-level subpackage ("analysis.bottlenecks") to
#: scope it more tightly than its parent layer; the most specific key
#: wins.  Top-level modules (repro.cli, repro.__main__, repro/__init__)
#: are the application shell and may import anything.
LAYER_DEPS: dict[str, set[str]] = {
    # Harness observability is the substrate below the substrate: every
    # layer may publish into it, and it may import nothing back.
    "obs": set(),
    "sim": {"obs"},
    "core": {"obs", "sim"},
    "kernel": {"core", "sim"},
    "tau": {"core", "kernel", "sim"},
    "workloads": {"kernel", "sim", "tau"},
    "cluster": {"core", "kernel", "sim", "tau"},
    "oprofile": {"analysis", "cluster", "core", "kernel", "sim", "tau",
                 "workloads"},
    "analysis": {"cluster", "core", "kernel", "obs", "sim", "tau",
                 "workloads"},
    # The offline bottleneck analyzer is scoped *tighter* than its
    # parent layer: it harvests traces through the cluster and core and
    # may use sibling analysis modules, but must never import the
    # monitor — the streaming attributor lives in repro.monitor and
    # depends on this package's contract, not the other way around.
    "analysis.bottlenecks": {"analysis", "cluster", "core", "obs", "sim"},
    # The offline counter views are purely derivational: they consume
    # decoded wire dumps (core) and sibling analysis helpers, and — like
    # the bottleneck analyzer — must never import the monitor, whose
    # streaming counter detection depends on this package.
    "analysis.counterview": {"analysis", "core", "obs", "sim"},
    # The online monitor consumes measurements (analysis/core) over
    # cluster machinery and publishes into obs; experiments and the CLI
    # sit above it, the cluster below it (the launcher reaches it only
    # through the opaque node_setup hook).
    "monitor": {"analysis", "cluster", "core", "kernel", "obs", "sim",
                "tau"},
    # Fault injection reaches into everything it faults (cluster, the
    # kernel's NIC, the monitor's delivery path) but stays below the
    # experiments that arm plans — the chaos *runner* lives up in
    # repro.experiments so this package never imports run machinery.
    "faults": {"cluster", "core", "kernel", "monitor", "obs", "sim"},
    "experiments": {"analysis", "cluster", "core", "faults", "kernel",
                    "monitor", "obs", "oprofile", "parallel", "sim",
                    "tau", "workloads"},
    # The replication runner only moves opaque payloads between
    # processes; it must know nothing about what a replication computes
    # (obs is content-blind, so publishing timings keeps that true).
    "parallel": {"obs"},
    "lint": set(),  # the linter must not depend on what it lints
}


def _in_type_checking(tree: ast.Module) -> set[int]:
    """``id()`` of import nodes inside ``if TYPE_CHECKING:`` blocks."""
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") \
            or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
        if is_tc:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    guarded.add(id(sub))
    return guarded


def _layer(module: str) -> Optional[str]:
    """The most specific :data:`LAYER_DEPS` key for a ``repro`` module:
    its declared second-level subpackage ("analysis.bottlenecks") when
    there is one, else its top-level layer; None outside ``repro.*``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    sub = ".".join(parts[1:3])
    return sub if len(parts) >= 3 and sub in LAYER_DEPS else parts[1]


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
            base = source.resolve_relative(node.level, node.module)
            if base is None or base.split(".")[0] != "repro":
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
    """KTAU402, KTAU601-602: the run-time import relation as a graph."""

    rule_id = "KTAU601"
    name = "import-graph"
    severity = Severity.ERROR
    description = ("import cycles, and imports that reach above a module's "
                   "architectural layer directly or through intermediaries")
    emits = ("KTAU402", "KTAU601", "KTAU602")

    def check_project(self, sources: Sequence[SourceFile]) -> Iterable[Finding]:
        by_module = {s.module: s for s in sources}
        graph = build_import_graph(sources)
        yield from self._check_cycles(_import_time_graph(graph), by_module)
        yield from self._check_layers(graph, by_module)

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

    # -- KTAU402 / KTAU602 ------------------------------------------------
    def _check_layers(self, graph, by_module):
        """A direct edge must stay inside ``LAYER_DEPS`` (KTAU402); a
        longer chain inside its transitive closure (KTAU602)."""
        closure = _layer_closure()
        for mod in sorted(graph):
            layer = _layer(mod)
            if layer not in LAYER_DEPS:
                continue  # shell modules, non-repro files, no contract
            direct = graph[mod]
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
                if tlayer is None:
                    continue
                top = tlayer.split(".")[0]
                allowed = (LAYER_DEPS if target in direct else closure)[layer]
                # Its own layer or scoped package, or a listed layer (a
                # scoped subpackage reaches its parent only if listed).
                if layer in (tlayer, top) or top in allowed:
                    continue
                src = by_module[mod]
                if target in direct:
                    yield self._emit(
                        "KTAU402", src, direct[target][0],
                        f"layer violation: repro.{layer} must not import "
                        f"'{target}' (allowed: "
                        f"{', '.join(sorted(allowed)) or 'stdlib only'})")
                    continue
                chain = [target]
                while chain[-1] != mod:
                    chain.append(parents[chain[-1]])
                chain.reverse()
                yield self._emit(
                    "KTAU602", src, direct[chain[1]][0],
                    f"transitive layer violation: repro.{layer} reaches "
                    f"'{target}' (layer '{tlayer}') via "
                    + " -> ".join(chain))
