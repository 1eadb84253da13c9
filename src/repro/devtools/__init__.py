"""Project-specific static analysis: machine-checked simulator invariants.

Seven PRs of correctness claims — bit-identical goldens, zero-cost probe
guards, ``__slots__``/memo-cap memory discipline, dense/lazy
equivalence — were enforced only by tests and by reviewers remembering
DESIGN.md §§5-9.  This package encodes them as lint rules over
the AST, so a diff that silently iterates an unordered set in the simulation
core, drops a probe guard, or adds an unbounded memo fails CI before it can
reach a hot path.

Usage::

    python -m repro.devtools lint src                   # text findings
    python -m repro.devtools lint src --format json     # machine-readable
    python -m repro.devtools rules                      # per-rule docs

Inline suppressions (every suppression must carry a reason)::

    frontier = set(pending)  # devtools: ignore[det-set-iter] drained unordered on purpose: <why>
    self._memo: dict = {}    # devtools: unbounded-ok(keyed by dst node: at most 2n entries)

See DESIGN.md §10 for the rule catalogue and rationale.
"""

from __future__ import annotations

from .framework import Finding, ModuleInfo, Rule, all_rules, get_rule, register_rule
from .runner import LintReport, lint_paths

# Importing the rule modules registers every rule with the framework.
from . import rules as _rules  # noqa: F401  (import-for-side-effect)

__all__ = [
    "Finding",
    "LintReport",
    "ModuleInfo",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "register_rule",
]
