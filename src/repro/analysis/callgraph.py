"""Merged user/kernel call-graph profiles (§6 future work).

With the ``callgraph`` build option, KTAU records kernel parent→child
activation edges (and the user routine rooting each kernel stack); the
TAU profiler records user call-path edges.  Gluing the two edge sets
yields the merged call graph the paper's §6 aims at: user call paths
whose leaves expand into the kernel activity they triggered.

The graph is *edge-folded* (TAU's depth-2 callpath style): one node per
routine, so each (parent, child) pair is aggregated regardless of the
full path above it.  That makes it a DAG (possibly with recursion
cycles); rendering walks it as a tree with a path guard.

Node keys: ``"U:<routine>"``, ``"K:<event>"``, and a synthetic
``"<root>"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.wire import TaskProfileDump
from repro.tau.profiler import TauProfileDump

ROOT = "<root>"


@dataclass
class CallNode:
    """One node of the merged call graph (one per routine key)."""

    key: str  # "U:rhs", "K:sys_writev", or "<root>"
    count: int = 0
    incl_cycles: int = 0
    children: dict[str, "CallNode"] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        if self.key.startswith("U:"):
            return "user"
        if self.key.startswith("K:"):
            return "kernel"
        return "root"

    @property
    def name(self) -> str:
        return self.key.split(":", 1)[1] if ":" in self.key else self.key


class MergedCallgraph:
    """The merged graph plus lookups."""

    def __init__(self) -> None:
        self.root = CallNode(ROOT)
        self._nodes: dict[str, CallNode] = {ROOT: self.root}

    def node(self, key: str) -> CallNode:
        node = self._nodes.get(key)
        if node is None:
            node = CallNode(key)
            self._nodes[key] = node
        return node

    def add_edge(self, parent_key: str, child_key: str,
                 count: int, incl: int) -> None:
        parent = self.node(parent_key)
        child = self.node(child_key)
        parent.children.setdefault(child_key, child)
        child.count += count
        child.incl_cycles += incl

    def lookup(self, key: str) -> Optional[CallNode]:
        return self._nodes.get(key)


def build_merged_callgraph(udump: Optional[TauProfileDump],
                           kdump: TaskProfileDump) -> MergedCallgraph:
    """Construct the merged call graph for one process."""
    graph = MergedCallgraph()
    if udump is not None:
        for (parent, child), (count, incl) in udump.edges.items():
            parent_key = f"U:{parent}" if parent else ROOT
            graph.add_edge(parent_key, f"U:{child}", count, incl)
    for (parent, child), (count, incl) in kdump.edges.items():
        # kernel edges carry their parent key verbatim ("K:...", "U:...",
        # or "" for a rootless activation)
        parent_key = parent if parent else ROOT
        graph.add_edge(parent_key, f"K:{child}", count, incl)
    return graph


def render_callgraph(graph: MergedCallgraph, hz: float,
                     min_cycles: int = 0) -> str:
    """Indented text rendering, at most 11 levels deep (recursion-safe)."""
    lines: list[str] = []

    def walk(node: CallNode, depth: int, path: frozenset[str]) -> None:
        if depth > 10:
            return
        for key in sorted(node.children,
                          key=lambda k: -node.children[k].incl_cycles):
            child = node.children[key]
            if child.incl_cycles < min_cycles:
                continue
            tag = "U" if child.layer == "user" else "K"
            marker = " (recursive)" if key in path else ""
            lines.append(f"{'  ' * depth}{tag} {child.name:<30} "
                         f"count={child.count:<6} "
                         f"incl={child.incl_cycles / hz:.6f}s{marker}")
            if key not in path:
                walk(child, depth + 1, path | {key})

    walk(graph.root, 0, frozenset({ROOT}))
    return "\n".join(lines) + "\n" if lines else "(empty call graph)\n"
