"""Core lint framework: findings, rules, module analysis, suppressions.

The framework is deliberately small.  A rule is a subclass of :class:`Rule`
with an ``id``, a one-paragraph ``doc``, and a ``check(module)`` generator
that yields :class:`Finding` objects.  :class:`ModuleInfo` wraps one parsed
source file and caches the expensive shared analyses — AST parent links,
comment-based suppressions, and a conservative "is this expression a set?"
type inference — so individual rules stay short.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "all_rules",
    "get_rule",
    "register_rule",
]


# --------------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific location."""

    rule: str
    path: str
    line: int
    message: str
    snippet: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------

# ``# devtools: ignore[rule-id] <reason>`` — generic suppression.
_IGNORE_RE = re.compile(
    r"#\s*devtools:\s*ignore\[(?P<rules>[a-z0-9_,\-\s]+)\]\s*(?P<reason>.*)$"
)
# ``# devtools: unbounded-ok(<reason>)`` — sugar for mem-unbounded-memo.
_UNBOUNDED_RE = re.compile(
    r"#\s*devtools:\s*unbounded-ok\((?P<reason>[^)]*)\)"
)


@dataclass(frozen=True)
class Suppression:
    line: int
    rules: Tuple[str, ...]
    reason: str

    def covers(self, rule_id: str, line: int) -> bool:
        # A suppression applies to its own line and to the line directly
        # below it (comment-above style).
        return rule_id in self.rules and line in (self.line, self.line + 1)


def parse_suppressions(lines: List[str]) -> List[Suppression]:
    out: List[Suppression] = []
    for lineno, text in enumerate(lines, start=1):
        m = _IGNORE_RE.search(text)
        if m:
            rules = tuple(r.strip() for r in m.group("rules").split(",") if r.strip())
            out.append(Suppression(lineno, rules, m.group("reason").strip()))
            continue
        m = _UNBOUNDED_RE.search(text)
        if m:
            out.append(
                Suppression(lineno, ("mem-unbounded-memo",), m.group("reason").strip())
            )
    return out


# --------------------------------------------------------------------------
# Module analysis
# --------------------------------------------------------------------------

_SET_CALLS = {"set", "frozenset"}
# Methods on sets that return sets.
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}


class ModuleInfo:
    """One parsed source file plus the shared analyses rules rely on."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.suppressions: List[Suppression] = parse_suppressions(self.lines)
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self._set_names_cache: Optional[Dict[int, Set[str]]] = None
        self._set_attr_cache: Optional[Set[str]] = None

    # -- generic helpers ---------------------------------------------------

    @classmethod
    def from_path(cls, path: Path, display_path: Optional[str] = None) -> "ModuleInfo":
        return cls(path, display_path or str(path), path.read_text(encoding="utf-8"))

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def snippet(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.display_path,
            line=getattr(node, "lineno", 0),
            message=message,
            snippet=self.snippet(node),
        )

    def suppressed(self, rule_id: str, line: int) -> Optional[Suppression]:
        for sup in self.suppressions:
            if sup.covers(rule_id, line):
                return sup
        return None

    def enclosing_scope(self, node: ast.AST) -> ast.AST:
        """Nearest enclosing function/module node (class bodies fall through
        to the module: class-level names are not function locals)."""
        cur: Optional[ast.AST] = self.parent(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return cur
            cur = self.parent(cur)
        return self.tree

    # -- set-type inference ------------------------------------------------

    def _scoped_set_names(self) -> Dict[int, Set[str]]:
        """Map id(scope node) -> names known to be bound to sets in it.

        Conservative one-pass inference: a name counts as a set if every
        textual binding we can see assigns it a set-typed expression, and is
        dropped as soon as any binding assigns something else (or something
        we cannot classify).
        """
        if self._set_names_cache is not None:
            return self._set_names_cache
        sets_by_scope: Dict[int, Set[str]] = {}
        poisoned_by_scope: Dict[int, Set[str]] = {}

        def record(scope: ast.AST, name: str, is_set: bool) -> None:
            key = id(scope)
            if is_set:
                sets_by_scope.setdefault(key, set()).add(name)
            else:
                poisoned_by_scope.setdefault(key, set()).add(name)

        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Parameters annotated as sets count as set-typed locals.
                args = node.args
                for arg in (
                    list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
                ):
                    if arg.annotation is not None and _annotation_is_set(arg.annotation):
                        record(node, arg.arg, True)
                continue
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value, annotation = [node.target], node.value, node.annotation
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], None
            else:
                continue
            scope = self.enclosing_scope(node)
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(node, ast.AugAssign):
                    continue  # |= etc. does not change an existing verdict
                if annotation is not None and _annotation_is_set(annotation):
                    record(scope, target.id, True)
                elif value is not None and _syntactic_set(value):
                    record(scope, target.id, True)
                else:
                    record(scope, target.id, False)

        result: Dict[int, Set[str]] = {}
        for key, names in sets_by_scope.items():
            result[key] = names - poisoned_by_scope.get(key, set())
        self._set_names_cache = result
        return result

    def _self_set_attrs(self) -> Set[str]:
        """Attribute names assigned set-typed values on ``self`` anywhere in
        the module, minus any assigned a non-set value elsewhere."""
        if self._set_attr_cache is not None:
            return self._set_attr_cache
        is_set: Set[str] = set()
        poisoned: Set[str] = set()
        for node in ast.walk(self.tree):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value, annotation = [node.target], node.value, node.annotation
            else:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if annotation is not None and _annotation_is_set(annotation):
                    is_set.add(target.attr)
                elif value is not None and _syntactic_set(value):
                    is_set.add(target.attr)
                else:
                    poisoned.add(target.attr)
        self._set_attr_cache = is_set - poisoned
        return self._set_attr_cache

    def _expr_builds_set(self, expr: ast.expr) -> bool:
        """Does this expression *syntactically* construct a set?"""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in _SET_CALLS:
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return self.is_set_expr(func.value)
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(expr.left) and not isinstance(expr.left, ast.Dict)
        return False

    def is_set_expr(self, expr: ast.expr) -> bool:
        """Conservative verdict: is ``expr`` set-typed at this use site?"""
        if self._expr_builds_set(expr):
            return True
        if isinstance(expr, ast.Name):
            scope = self.enclosing_scope(expr)
            scoped = self._scoped_set_names()
            if expr.id in scoped.get(id(scope), set()):
                return True
            # Module-level bindings are visible inside functions too, unless
            # the function rebinds the name (then it shows up in its scope
            # maps and was already consulted above).
            if scope is not self.tree and expr.id in scoped.get(id(self.tree), set()):
                local_names = _bound_names(scope)
                if expr.id not in local_names:
                    return True
            return False
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                return expr.attr in self._self_set_attrs()
        return False


def _syntactic_set(expr: ast.expr) -> bool:
    """Pure-syntax set detection used while *building* the inference tables
    (no name lookups, so no recursion back into them)."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in _SET_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return _syntactic_set(func.value)
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor)
    ):
        return _syntactic_set(expr.left) or _syntactic_set(expr.right)
    return False


def _annotation_is_set(annotation: ast.expr) -> bool:
    node: ast.expr = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
    if isinstance(node, ast.Attribute):
        return node.attr in {"Set", "FrozenSet", "AbstractSet", "MutableSet"}
    return False


def _bound_names(scope: ast.AST) -> Set[str]:
    """Names bound (assigned or parameters) directly inside a function scope."""
    names: Set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            names.add(arg.arg)
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


# --------------------------------------------------------------------------
# Rule registry
# --------------------------------------------------------------------------


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (kebab-case, stable — suppression comments name it),
    ``summary`` (one line), ``doc`` (rationale paragraph shown by
    ``python -m repro.devtools rules``) and implement :meth:`check`.
    """

    id: str = ""
    summary: str = ""
    doc: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def run(self, module: ModuleInfo) -> Iterable[Tuple[Finding, Optional[Suppression]]]:
        """Yield (finding, suppression-or-None) pairs for this module."""
        for finding in self.check(module):
            yield finding, module.suppressed(self.id, finding.line)


_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    instance = cls()
    if not instance.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if instance.id in _REGISTRY:
        raise ValueError(f"duplicate rule id: {instance.id}")
    _REGISTRY[instance.id] = instance
    return cls


def all_rules() -> List[Rule]:
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    return _REGISTRY[rule_id]
