"""A static call graph over the linted tree (shared by KTAU7xx).

The graph is deliberately conservative in the direction lockdep is: it
over-approximates reachability.  Calls are resolved:

* by name within the defining module (``helper()``);
* through run-time imports (``mod.helper()``, ``from m import helper``);
* through ``self.method()`` against the enclosing class and its
  resolvable project bases;
* by attribute name against *every* project class defining a method of
  that name (``obj.method()`` where ``obj``'s type is unknown) — weak
  edges, but exactly the edges that make "IRQ context never sleeps"
  provable without type inference.

Nested functions and lambdas are folded into their enclosing function:
a closure scheduled from interrupt context runs in interrupt context,
so whatever it does, its definer "does" for reachability purposes.
``yield`` statements in the function's *own* scope (not nested scopes)
mark generator functions — the distinction KTAU703 needs.
"""

from __future__ import annotations

import ast
from typing import Optional, Sequence

from repro.lint.engine import SourceFile

#: call-reference kinds (see CallRef.kind)
_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _import_map(src: SourceFile) -> dict[str, tuple[str, Optional[str]]]:
    """local name -> (source module, symbol or None for whole-module)."""
    out: dict[str, tuple[str, Optional[str]]] = {}
    for node in ast.walk(src.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (
                    alias.name, None)
        elif isinstance(node, ast.ImportFrom):
            base = src.resolve_relative(node.level, node.module)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                out[alias.asname or alias.name] = (base, alias.name)
    return out


class CallRef:
    """One unresolved call site inside a function body."""

    __slots__ = ("kind", "name", "module", "line", "is_yield_from")

    def __init__(self, kind: str, name: str, line: int,
                 module: Optional[str] = None,
                 is_yield_from: bool = False):
        self.kind = kind          # "name" | "self" | "module" | "attr"
        self.name = name          # callee (function or attribute) name
        self.module = module      # for kind == "module": target module
        self.line = line
        self.is_yield_from = is_yield_from


class FuncInfo:
    """One function or method: its call sites and blocking primitives."""

    __slots__ = ("key", "module", "qualname", "node", "cls",
                 "is_generator", "blocking", "calls")

    def __init__(self, source: SourceFile, qualname: str,
                 node: ast.AST, cls: Optional[ast.ClassDef]):
        self.key = (source.module, qualname)
        self.module = source.module
        self.qualname = qualname  # "func" or "Class.method"
        self.node = node
        self.cls = cls
        #: yields in the function's own scope (nested scopes excluded)
        self.is_generator = False
        #: (line, reason) for each syntactic blocking primitive
        self.blocking: list[tuple[int, str]] = []
        self.calls: list[CallRef] = []


class CallGraph:
    """Call index over every function in the linted sources."""

    def __init__(self, sources: Sequence[SourceFile]):
        self.sources = {s.module: s for s in sources}
        self.funcs: dict[tuple[str, str], FuncInfo] = {}
        #: qualname -> keys (for resolving "Class.method" root specs)
        self.by_qualname: dict[str, list[tuple[str, str]]] = {}
        #: bare method name -> keys of class methods with that name
        self.by_attr: dict[str, list[tuple[str, str]]] = {}
        #: (module, class) -> base-class name nodes
        self.class_bases: dict[tuple[str, str], list[ast.expr]] = {}
        #: module -> {local name -> (module, symbol|None)}
        self.imports: dict[str, dict[str, tuple[str, Optional[str]]]] = {}
        for src in sources:
            self._index_source(src)

    # -- construction -----------------------------------------------------
    def _index_source(self, src: SourceFile) -> None:
        self.imports[src.module] = _import_map(src)
        for node in src.tree.body:
            if isinstance(node, _FUNC_DEFS):
                self._index_func(src, node, None)
            elif isinstance(node, ast.ClassDef):
                self.class_bases[(src.module, node.name)] = node.bases
                for item in node.body:
                    if isinstance(item, _FUNC_DEFS):
                        self._index_func(src, item, node)

    def _index_func(self, src: SourceFile, node: ast.AST,
                    cls: Optional[ast.ClassDef]) -> None:
        qualname = f"{cls.name}.{node.name}" if cls else node.name
        info = FuncInfo(src, qualname, node, cls)
        self.funcs[info.key] = info
        self.by_qualname.setdefault(qualname, []).append(info.key)
        if cls is not None:
            self.by_attr.setdefault(node.name, []).append(info.key)
        nested_roots = [n for n in ast.walk(node)
                        if isinstance(n, _FUNC_DEFS + (ast.Lambda,))
                        and n is not node]
        all_nested: set[int] = set()
        for inner in nested_roots:
            all_nested.update(id(n) for n in ast.walk(inner))
        # Closure *factories* (functions that return a nested closure,
        # e.g. the scheduler's _expiry_cb/_burst_done_cb) do not execute
        # the closure when called — only build it.  Returned closures
        # stay excluded from folding, so calling a factory from IRQ
        # context is not charged with the callback's later task-context
        # work.  Closures scheduled or invoked inline are folded in.
        returned = {n.value.id for n in ast.walk(node)
                    if isinstance(n, ast.Return)
                    and isinstance(n.value, ast.Name)
                    and id(n) not in all_nested}
        unfolded: set[int] = set()
        for inner in nested_roots:
            if isinstance(inner, _FUNC_DEFS) and inner.name in returned:
                unfolded.update(id(n) for n in ast.walk(inner))
        for sub in ast.walk(node):
            if id(sub) in unfolded:
                continue  # returned closure: runs later, elsewhere
            if isinstance(sub, ast.Yield):
                if id(sub) not in all_nested:
                    info.is_generator = True
                if self._is_block_effect(sub.value):
                    info.blocking.append(
                        (sub.lineno, "yields Block(...) (waitqueue sleep)"))
            elif isinstance(sub, ast.YieldFrom):
                if id(sub) not in all_nested:
                    info.is_generator = True
                ref = self._call_ref(src, sub.value, is_yield_from=True)
                if ref is not None:
                    info.calls.append(ref)
            elif isinstance(sub, ast.Call):
                ref = self._call_ref(src, sub)
                if ref is not None:
                    info.calls.append(ref)

    @staticmethod
    def _is_block_effect(value: Optional[ast.expr]) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        name = (func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else "")
        return name == "Block"

    def _call_ref(self, src: SourceFile, call: ast.expr,
                  is_yield_from: bool = False) -> Optional[CallRef]:
        if not isinstance(call, ast.Call):
            return None
        func = call.func
        if isinstance(func, ast.Name):
            return CallRef("name", func.id, call.lineno,
                           is_yield_from=is_yield_from)
        if isinstance(func, ast.Attribute):
            recv = func.value
            if isinstance(recv, ast.Name):
                if recv.id in ("self", "cls"):
                    return CallRef("self", func.attr, call.lineno,
                                   is_yield_from=is_yield_from)
                target = self.imports[src.module].get(recv.id)
                if target is not None and target[1] is None:
                    if not target[0].startswith("repro"):
                        return None  # stdlib module call: out of scope
                    return CallRef("module", func.attr, call.lineno,
                                   module=target[0],
                                   is_yield_from=is_yield_from)
            return CallRef("attr", func.attr, call.lineno,
                           is_yield_from=is_yield_from)
        return None

    # -- resolution -------------------------------------------------------
    def resolve(self, info: FuncInfo, ref: CallRef
                ) -> list[tuple[str, str]]:
        """Candidate callee keys for one call site (sorted, may be [])."""
        if ref.kind == "name":
            key = (info.module, ref.name)
            if key in self.funcs:
                return [key]
            target = self.imports.get(info.module, {}).get(ref.name)
            if target is not None and target[1] is not None:
                cand = (target[0], target[1])
                if cand in self.funcs:
                    return [cand]
                init = (target[0], f"{target[1]}.__init__")
                if init in self.funcs:
                    return [init]
            init = (info.module, f"{ref.name}.__init__")
            return [init] if init in self.funcs else []
        if ref.kind == "module":
            cand = (ref.module or "", ref.name)
            if cand in self.funcs:
                return [cand]
            init = (ref.module or "", f"{ref.name}.__init__")
            return [init] if init in self.funcs else []
        if ref.kind == "self":
            cls = info.cls
            seen: set[tuple[str, str]] = set()
            module = info.module
            while cls is not None and (module, cls.name) not in seen:
                seen.add((module, cls.name))
                cand = (module, f"{cls.name}.{ref.name}")
                if cand in self.funcs:
                    return [cand]
                module, cls = self._first_base(module, cls)
            return sorted(self.by_attr.get(ref.name, []))
        # kind == "attr": every project method with this name (weak)
        return sorted(self.by_attr.get(ref.name, []))

    def _first_base(self, module: str, cls: ast.ClassDef
                    ) -> tuple[str, Optional[ast.ClassDef]]:
        """The first resolvable project base class, if any."""
        for base in self.class_bases.get((module, cls.name), []):
            name = (base.id if isinstance(base, ast.Name)
                    else base.attr if isinstance(base, ast.Attribute)
                    else None)
            if name is None:
                continue
            src = self.sources.get(module)
            target = self.imports.get(module, {}).get(name)
            cand_module, cand_name = module, name
            if target is not None and target[1] is not None:
                cand_module, cand_name = target
            cand_src = self.sources.get(cand_module)
            if cand_src is None:
                continue
            for node in ast.walk(cand_src.tree):
                if isinstance(node, ast.ClassDef) and node.name == cand_name:
                    return cand_module, node
        return module, None
