"""Determinism rules.

The reproduction's headline property is bit-identical results for a given
seed (tests/test_golden_results.py compares floats exactly, BENCH.md records
fingerprints).  These rules flag the constructs that historically break that
property: iteration in ``set`` order (hash-randomized across processes for
str keys, insertion-dependent for ints), ``id()``-keyed ordering (address-
dependent), unseeded ``random``, wall-clock reads, and environment reads
inside the simulation core.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Finding, ModuleInfo, Rule, register_rule

__all__ = [
    "SetIterationRule",
    "SetPopRule",
    "IdOrderRule",
    "UnseededRandomRule",
    "WallClockRule",
    "EnvReadRule",
]


# Calls that materialize their argument's iteration order.  Reductions
# (sum/min/max/any/all), len() and sorted() are order-insensitive and are
# simply never flagged — only these wrappers bake set order into a sequence.
_ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "enumerate"}


def _iter_targets(module: ModuleInfo) -> Iterator[ast.expr]:
    """Every expression the module iterates in a loop or comprehension."""
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter


@register_rule
class SetIterationRule(Rule):
    id = "det-set-iter"
    summary = "no bare iteration over set-typed expressions in the sim core"
    doc = (
        "Iterating a set visits elements in hash-table order, which depends "
        "on insertion history and (for str/bytes keys) per-process hash "
        "randomization.  Any simulation decision made in that order breaks "
        "bit-identical goldens.  Wrap the set in sorted(...) before "
        "iterating, or keep an ordered list alongside it.  Membership tests, "
        "len(), and reductions (sum/min/max/any/all) remain fine."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for expr in _iter_targets(module):
            if module.is_set_expr(expr):
                yield module.finding(
                    self.id,
                    expr,
                    "iteration over a set is hash-order-dependent; wrap in sorted(...) "
                    "or iterate an ordered companion list",
                )
        # list(s)/tuple(s)/enumerate(s): materializes set order.
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id not in _ORDER_SENSITIVE_WRAPPERS or not node.args:
                continue
            if module.is_set_expr(node.args[0]):
                yield module.finding(
                    self.id,
                    node,
                    f"{node.func.id}() over a set materializes hash order; "
                    "use sorted(...) instead",
                )


@register_rule
class SetPopRule(Rule):
    id = "det-set-pop"
    summary = "no set.pop() / next(iter(set)) in the sim core"
    doc = (
        "set.pop() and next(iter(s)) return an arbitrary element chosen by "
        "hash-table layout — the classic nondeterministic work-queue bug.  "
        "Pop from a sorted list, or use min(s)/max(s) when any deterministic "
        "choice will do."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # s.pop() with no positional args on a set-typed receiver.
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "pop"
                and not node.args
                and module.is_set_expr(func.value)
            ):
                yield module.finding(
                    self.id,
                    node,
                    "set.pop() returns a hash-order-arbitrary element; pop from a "
                    "sorted list instead",
                )
            # next(iter(s))
            if (
                isinstance(func, ast.Name)
                and func.id == "next"
                and node.args
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Name)
                and node.args[0].func.id == "iter"
                and node.args[0].args
                and module.is_set_expr(node.args[0].args[0])
            ):
                yield module.finding(
                    self.id,
                    node,
                    "next(iter(set)) picks a hash-order-arbitrary element; use "
                    "min(...)/max(...) or a sorted list",
                )


@register_rule
class IdOrderRule(Rule):
    id = "det-id-order"
    summary = "no id()-derived ordering or keying in the sim core"
    doc = (
        "id(obj) is a memory address: it varies run to run, so sorting by it "
        "or keying a dict/set with it injects allocator state into "
        "simulation decisions.  Give objects an explicit integer index "
        "(router.index, packet.uid) and order by that.  id() inside error "
        "messages or repr strings is not flagged."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            # sorted(..., key=id) / .sort(key=id) / min|max(..., key=id)
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "key" and _expr_mentions_id_call_or_ref(kw.value):
                        yield module.finding(
                            self.id,
                            node,
                            "ordering by id() depends on memory addresses; key on an "
                            "explicit index instead",
                        )
            # d[id(x)] subscript or {id(x): ...} dict key or {id(x), ...} set
            if isinstance(node, ast.Subscript) and _is_id_call(node.slice):
                yield module.finding(
                    self.id,
                    node,
                    "id()-keyed container ties state to memory addresses; key on an "
                    "explicit index instead",
                )
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and _is_id_call(key):
                        yield module.finding(
                            self.id,
                            key,
                            "id()-keyed dict ties state to memory addresses; key on an "
                            "explicit index instead",
                        )
            if isinstance(node, (ast.DictComp, ast.SetComp)) and _is_id_call(
                node.key if isinstance(node, ast.DictComp) else node.elt
            ):
                yield module.finding(
                    self.id,
                    node,
                    "id()-keyed comprehension ties state to memory addresses; key on "
                    "an explicit index instead",
                )


def _is_id_call(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "id"
    )


def _expr_mentions_id_call_or_ref(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name) and expr.id == "id":
        return True
    if isinstance(expr, ast.Lambda):
        return any(_is_id_call(sub) for sub in ast.walk(expr.body) if isinstance(sub, ast.Call))
    return False


@register_rule
class UnseededRandomRule(Rule):
    id = "det-unseeded-random"
    summary = "module-level random is banned in the sim core; use the seeded Random"
    doc = (
        "All stochastic choices must flow from the single "
        "random.Random(config.seed) instance that Simulation constructs and "
        "threads through routing/traffic.  Touching the module-level random "
        "functions (random.random, random.choice, ...) — or falling back to "
        "the random module when a caller passes rng=None — silently decouples "
        "a run from its seed.  Importing random to construct Random(seed) is "
        "allowed; everything else is not."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        random_aliases = {"random"}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield module.finding(
                            self.id,
                            node,
                            f"from random import {alias.name}: module-level random "
                            "bypasses the seeded rng; accept an rng parameter",
                        )
        for node in ast.walk(module.tree):
            # random.X where X is not Random
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in random_aliases
                and node.attr != "Random"
            ):
                yield module.finding(
                    self.id,
                    node,
                    f"random.{node.attr} uses the unseeded module-level generator; "
                    "use the seeded rng threaded from Simulation",
                )
            # bare `random` used as a value (e.g. `rng = rng or random`)
            if (
                isinstance(node, ast.Name)
                and node.id in random_aliases
                and isinstance(node.ctx, ast.Load)
            ):
                parent = module.parent(node)
                if isinstance(parent, ast.Attribute) and parent.value is node:
                    continue  # handled above as random.X
                yield module.finding(
                    self.id,
                    node,
                    "the random module itself is used as an rng value; this aliases "
                    "the unseeded global generator",
                )


@register_rule
class WallClockRule(Rule):
    id = "det-wallclock"
    summary = "no wall-clock, uuid4 or urandom reads in the sim core"
    doc = (
        "Simulated time is engine.now; wall-clock reads (time.time, "
        "time.perf_counter, datetime.now, ...) inside the core leak host "
        "timing into behavior or recorded metrics.  uuid.uuid4 and "
        "os.urandom are entropy reads with the same effect.  Wall-clock "
        "provenance belongs in session.py, which is outside this rule's "
        "scope by design."
    )

    _TIME_ATTRS = {
        "time",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "time_ns",
    }
    _DATETIME_ATTRS = {"now", "utcnow", "today"}

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            if isinstance(base, ast.Name):
                if base.id == "time" and node.attr in self._TIME_ATTRS:
                    yield module.finding(
                        self.id,
                        node,
                        f"time.{node.attr} reads the host clock inside the sim core; "
                        "use engine.now (simulated time)",
                    )
                elif base.id == "uuid" and node.attr == "uuid4":
                    yield module.finding(
                        self.id, node, "uuid.uuid4 is an entropy read; derive ids from counters"
                    )
                elif base.id == "os" and node.attr == "urandom":
                    yield module.finding(
                        self.id, node, "os.urandom is an entropy read; use the seeded rng"
                    )
            if (
                isinstance(base, ast.Name)
                and base.id == "datetime"
                and node.attr in self._DATETIME_ATTRS
            ):
                yield module.finding(
                    self.id,
                    node,
                    f"datetime.{node.attr} reads the host clock inside the sim core",
                )
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "datetime"
                and base.attr == "datetime"
                and node.attr in self._DATETIME_ATTRS
            ):
                yield module.finding(
                    self.id,
                    node,
                    f"datetime.datetime.{node.attr} reads the host clock inside the sim core",
                )


@register_rule
class EnvReadRule(Rule):
    id = "det-env-read"
    summary = "no environment-variable reads in the sim core"
    doc = (
        "Behavior switches must come from SimulationConfig so they are "
        "recorded in run provenance.  os.environ / os.getenv inside the core "
        "makes results depend on invisible shell state."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in {"environ", "getenv"}
            ):
                yield module.finding(
                    self.id,
                    node,
                    f"os.{node.attr} read inside the sim core; route the switch "
                    "through SimulationConfig instead",
                )
