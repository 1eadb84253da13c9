"""Collector-policy rule.

The cyclic collector has one policy (:mod:`repro.collector`): paused while
the simulator runs, a finished simulation reclaimed where it dies, sweep
workers frozen at start.  A second ``gc.disable()`` somewhere else would be
a second policy that nobody measured against the first.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..framework import Finding, ModuleInfo, Rule, register_rule
from ..scopes import relative_to_repro

__all__ = ["CollectorOnePlaceRule", "CONTROLS", "SITES"]

#: the ``gc`` functions that change when or what the collector collects.
CONTROLS = ("disable", "enable", "freeze", "unfreeze", "set_threshold", "collect")

#: (module, enclosing def or class, controls it may name, why).
SITES = (
    ("collector.py", "paused_collector", ("disable", "enable", "collect"),
     "the helper"),
    ("experiments/executors.py", "_run_job", ("collect",),
     "the per-job reclaim"),
    ("experiments/executors.py", "_worker_main", ("freeze",),
     "a worker's start"),
)


@register_rule
class CollectorOnePlaceRule(Rule):
    id = "collector-one-place"
    summary = "the cyclic collector is controlled from repro.collector only"
    doc = (
        "Naming gc." + " / ".join(CONTROLS) + " (called or passed, through "
        "`import gc`, an alias of it or `from gc import ...`) is a finding "
        "anywhere in src/repro except: "
        + "; ".join(
            f"{', '.join(controls)} inside `{scope}` of {module} ({why})"
            for module, scope, controls, why in SITES
        )
        + ".  Reading the collector (gc.isenabled, gc.get_objects, "
        "gc.callbacks) is free."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        rel = relative_to_repro(module.path)
        aliases: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                aliases.update(
                    alias.asname or alias.name
                    for alias in node.names if alias.name == "gc"
                )
        for node in ast.walk(module.tree):
            control: Optional[str] = None
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                control = next(
                    (alias.name for alias in node.names if alias.name in CONTROLS),
                    None,
                )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr in CONTROLS
            ):
                control = node.attr
            if control is None or _allowed(module, rel, node, control):
                continue
            yield module.finding(
                self.id,
                node,
                f"gc.{control} outside the collector policy's sites: use "
                "repro.collector.paused_collector (see `rules` for the sites)",
            )


def _allowed(
    module: ModuleInfo, rel: Optional[str], node: ast.AST, control: str
) -> bool:
    enclosing = set()
    parent = module.parent(node)
    while parent is not None:
        if isinstance(parent, (ast.FunctionDef, ast.ClassDef)):
            enclosing.add(parent.name)
        parent = module.parent(parent)
    return any(
        rel == site and scope in enclosing and control in controls
        for site, scope, controls, _why in SITES
    )
