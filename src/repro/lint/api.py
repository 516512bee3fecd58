"""API hygiene: ``__all__`` drift (KTAU401).

KTAU301-style registry drift has an API-surface analog: a package whose
``__all__`` advertises names it no longer defines (star-imports raise
``AttributeError``; documentation lies).  The architectural layering
contract is enforced over the import graph in :mod:`repro.lint.imports`.

KTAU401
    ``__all__`` drift: an entry that the module does not define or
    import, or a duplicated entry.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import Rule, SourceFile, register
from repro.lint.findings import Finding


def _defined_names(tree: ast.Module) -> set[str]:
    """Module-level names a ``from module import *`` could resolve."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # conditionally-defined names (TYPE_CHECKING, fallbacks)
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                    names.add(sub.name)
                elif isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        names.add(alias.asname or alias.name)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
    return names


@register
class AllDriftRule(Rule):
    rule_id = "KTAU401"
    name = "all-drift"
    description = ("__all__ names something the module does not define, "
                   "or lists a name twice")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node in source.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in node.targets):
                continue
            if not isinstance(node.value, (ast.List, ast.Tuple)):
                continue
            defined = _defined_names(source.tree)
            seen: set[str] = set()
            for elt in node.value.elts:
                if not (isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)):
                    continue
                name = elt.value
                if name in seen:
                    yield self.finding(
                        source, elt.lineno,
                        f"'{name}' listed twice in __all__")
                seen.add(name)
                if name not in defined and name != "__version__":
                    yield self.finding(
                        source, elt.lineno,
                        f"__all__ exports '{name}' but the module does not "
                        f"define it")
