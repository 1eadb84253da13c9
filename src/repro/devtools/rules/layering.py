"""Layering rule.

The package is layered core -> session -> store -> orchestration -> CLI
(:data:`repro.devtools.scopes.LAYERS`), and each layer may import only from
its own rank or below.  An upward import closes an import cycle, which then
only works through function-local imports on the other side, and lets the
core grow a second way to do what a higher layer already does.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..framework import Finding, ModuleInfo, Rule, register_rule
from ..scopes import LAYERS, layer_rank, relative_to_repro

__all__ = ["UpwardImportRule"]


@register_rule
class UpwardImportRule(Rule):
    id = "layer-upward-import"
    summary = "a module may not import from a higher layer at run time"
    doc = (
        "Layers rank " + " < ".join(", ".join(layer) for layer in LAYERS)
        + ".  A run-time `import` or `from ... import` "
        "of a higher-ranked repro module is a finding, at module level or "
        "inside a function (a function-local import only hides the cycle).  "
        "Imports under `if TYPE_CHECKING:` never execute and are exempt; the "
        "package facades (repro/__init__.py, experiments/__init__.py) "
        "re-export every layer and are outside the table."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        rel = relative_to_repro(module.path)
        own = None if rel is None else layer_rank(rel.removesuffix(".py"))
        if rel is None or own is None:
            return
        package = rel.split("/")[:-1]
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if _type_checking_only(module, node):
                continue
            for target in _targets(package, node):
                rank = layer_rank("/".join(target))
                if rank is not None and rank > own:
                    yield module.finding(
                        self.id,
                        node,
                        f"{rel} (layer {own}) imports {'.'.join(target)} "
                        f"(layer {rank}): imports must point down the "
                        "core -> session -> store -> experiments -> CLI order",
                    )


def _targets(package: List[str], node: ast.AST) -> Iterator[List[str]]:
    """Package-relative paths of the repro modules an import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level:
        base = package[: len(package) - (node.level - 1)]
        # ``from . import store``: the imported names are the modules.
        tails = [node.module] if node.module else [a.name for a in node.names]
        for tail in tails:
            yield base + tail.split(".")
        return
    if isinstance(node, ast.ImportFrom):
        dotted = [node.module or ""]
    else:
        dotted = [alias.name for alias in node.names]
    for name in dotted:
        parts = name.split(".")
        if parts[0] == "repro" and len(parts) > 1:  # bare ``repro`` is a facade
            yield parts[1:]


def _type_checking_only(module: ModuleInfo, node: ast.AST) -> bool:
    child, parent = node, module.parent(node)
    while parent is not None:
        if isinstance(parent, ast.If) and child in parent.body:
            test = parent.test
            if getattr(test, "attr", getattr(test, "id", "")) == "TYPE_CHECKING":
                return True
        child, parent = parent, module.parent(parent)
    return False
