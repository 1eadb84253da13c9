"""Memory-bound rules.

PR 7's leak fix: long sweeps with per-(src,dst) routing state grew memos
without bound.  So any dict-valued memo/cache binding in a hot module must
show its bound, and any one of three forms does: a cap constant checked
with a wholesale-clear guard (``if len(self._memo) >= _MEMO_CAP:
self._memo.clear()``), a BoundedLRU, or a ``# devtools:
unbounded-ok(<reason>)`` on the binding saying why its keys bound it (the
routing memos: layout classes, ports, interned path ids and a fixed state
span, none of which grows with routers or pairs).  A wholesale clear is
only invisible where rebuilding an entry is pure *and cheap*: after a clear
every live key misses once more, so the guard belongs on memos whose miss
path is a few lookups, not on ones that redo an evaluation per entry.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Set

from ..framework import Finding, ModuleInfo, Rule, register_rule

__all__ = ["UnboundedMemoRule", "BareSuppressionRule"]


_MEMO_NAME_RE = re.compile(r"(memo|cache)", re.IGNORECASE)
_CAP_NAME_RE = re.compile(r"(_CAP$|^MAX_|_MAX$|_LIMIT$)")


@register_rule
class UnboundedMemoRule(Rule):
    id = "mem-unbounded-memo"
    summary = "dict memos in hot modules need a cap constant or unbounded-ok reason"
    doc = (
        "A dict whose name contains 'memo' or 'cache', bound in a hot "
        "module, must be bounded, and any one of three forms satisfies the "
        "rule: the module checks `len(<memo>) >= <CAP-constant>` somewhere "
        "(a wholesale-clear guard), or the value is a BoundedLRU, or the "
        "binding carries `# devtools: unbounded-ok(<reason>)` stating why "
        "growth is inherently bounded (e.g. keyed by node id: at most n "
        "entries; the routing memos in routing/base.py, keyed by layout "
        "class, port and path shape).  Suppressions without a reason are "
        "themselves flagged."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        guarded = self._guarded_names(module)
        for node in ast.walk(module.tree):
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not self._is_dict_expr(value):
                continue
            for target in targets:
                name = _target_name(target)
                if name is None or not _MEMO_NAME_RE.search(name):
                    continue
                if name in guarded:
                    continue
                yield module.finding(
                    self.id,
                    node,
                    f"dict memo {name!r} has no cap: add a `len(...) >= <CAP>` "
                    "clear-guard, use BoundedLRU, or annotate "
                    "`# devtools: unbounded-ok(<reason>)`",
                )

    @staticmethod
    def _is_dict_expr(value: Optional[ast.expr]) -> bool:
        if isinstance(value, ast.Dict):
            return True
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "dict"
        ):
            return True
        return False

    def _guarded_names(self, module: ModuleInfo) -> Set[str]:
        """Memo names with a `len(name) >= CAP` guard anywhere in the module."""
        names: Set[str] = set()
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
                continue
            if not isinstance(node.ops[0], (ast.GtE, ast.Gt)):
                continue
            left, right = node.left, node.comparators[0]
            if not (
                isinstance(left, ast.Call)
                and isinstance(left.func, ast.Name)
                and left.func.id == "len"
                and left.args
            ):
                continue
            cap_name = _target_name(right)
            if cap_name is None or not _CAP_NAME_RE.search(cap_name):
                continue
            measured = _target_name(left.args[0])
            if measured is not None:
                names.add(measured)
        return names


def _target_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register_rule
class BareSuppressionRule(Rule):
    id = "meta-bare-suppression"
    summary = "every devtools suppression must carry a written reason"
    doc = (
        "The acceptance bar for suppressions is a reason a reviewer can "
        "evaluate, not a bare opt-out.  `# devtools: ignore[rule]` with no "
        "trailing text, or `# devtools: unbounded-ok()` with empty parens, "
        "is flagged here.  This rule cannot be suppressed."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for sup in module.suppressions:
            if sup.reason.strip():
                continue
            line_text = (
                module.lines[sup.line - 1].strip()
                if 1 <= sup.line <= len(module.lines)
                else ""
            )
            yield Finding(
                rule=self.id,
                path=module.display_path,
                line=sup.line,
                message=(
                    f"suppression of {', '.join(sup.rules)} has no reason; state "
                    "why the invariant holds here"
                ),
                snippet=line_text,
            )

    def run(self, module: ModuleInfo) -> Iterator[tuple[Finding, None]]:  # type: ignore[override]
        # Deliberately not suppressible: yield findings with no suppression.
        for finding in self.check(module):
            yield finding, None
