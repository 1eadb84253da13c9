"""Tests for the repro.devtools static-analysis suite.

One fixture triple per rule — a positive hit, the same hit suppressed with a
reason, and clean code — plus a self-scan asserting the repo stays clean.
Fixture files live in a temp directory, which
is outside any ``repro`` package, so every rule applies to them (see
``repro.devtools.scopes``).
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.devtools import all_rules, lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def lint_snippet(tmp_path: Path, source: str, name: str = "snippet.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([path])


def rule_hits(report, rule_id: str):
    return [f for f in report.findings if f.rule == rule_id]


# ---------------------------------------------------------------------------
# det-set-iter
# ---------------------------------------------------------------------------


def test_set_iter_positive(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def drain(pending: set) -> list:
            out = []
            for item in pending:
                out.append(item)
            return out
        """,
    )
    assert len(rule_hits(report, "det-set-iter")) == 1


def test_set_iter_detects_literals_and_wrappers(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def f(xs):
            a = [x for x in {1, 2, 3}]
            b = list(set(xs))
            return a, b
        """,
    )
    assert len(rule_hits(report, "det-set-iter")) == 2


def test_set_iter_self_attribute(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        class Engine:
            def __init__(self):
                self._active = set()

            def tick(self):
                for idx in self._active:
                    print(idx)
        """,
    )
    assert len(rule_hits(report, "det-set-iter")) == 1


def test_set_iter_suppressed_with_reason(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def drain(pending: set) -> int:
            total = 0
            for item in pending:  # devtools: ignore[det-set-iter] order-insensitive sum
                total += item
            return total
        """,
    )
    assert not rule_hits(report, "det-set-iter")
    assert len(report.suppressed) == 1


def test_set_iter_clean_sorted_and_membership(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def f(pending: set, key) -> list:
            if key in pending:          # membership: fine
                return sorted(pending)  # ordered iteration: fine
            return [len(pending), sum(pending), min(pending)]
        """,
    )
    assert not rule_hits(report, "det-set-iter")


# ---------------------------------------------------------------------------
# det-set-pop
# ---------------------------------------------------------------------------


def test_set_pop_positive(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def take(work: set):
            first = next(iter(work))
            second = work.pop()
            return first, second
        """,
    )
    assert len(rule_hits(report, "det-set-pop")) == 2


def test_set_pop_clean_on_lists(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def take(work: list):
            return work.pop(), next(iter(work))
        """,
    )
    assert not rule_hits(report, "det-set-pop")


# ---------------------------------------------------------------------------
# det-id-order
# ---------------------------------------------------------------------------


def test_id_order_positive(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def f(routers, table):
            ordered = sorted(routers, key=id)
            table[id(routers[0])] = 1
            mapping = {id(r): r for r in routers}
            return ordered, mapping
        """,
    )
    assert len(rule_hits(report, "det-id-order")) >= 3


def test_id_order_allows_messages(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def f(obj):
            raise RuntimeError(f"object {id(obj):#x} misbehaved")
        """,
    )
    assert not rule_hits(report, "det-id-order")


# ---------------------------------------------------------------------------
# det-unseeded-random
# ---------------------------------------------------------------------------


def test_unseeded_random_positive(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import random

        def pick(xs, rng=None):
            rng = rng if rng is not None else random
            return xs[random.randrange(len(xs))]
        """,
    )
    # One hit for the bare-module fallback, one for random.randrange.
    assert len(rule_hits(report, "det-unseeded-random")) == 2


def test_unseeded_random_from_import(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        from random import choice

        def pick(xs):
            return choice(xs)
        """,
    )
    assert len(rule_hits(report, "det-unseeded-random")) == 1


def test_seeded_random_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import random

        class Sim:
            def __init__(self, seed: int):
                self.rng = random.Random(seed)

            def pick(self, xs):
                return xs[self.rng.randrange(len(xs))]
        """,
    )
    assert not rule_hits(report, "det-unseeded-random")


# ---------------------------------------------------------------------------
# det-wallclock / det-env-read
# ---------------------------------------------------------------------------


def test_wallclock_positive(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import time, uuid, os

        def stamp():
            return time.time(), time.perf_counter(), uuid.uuid4(), os.urandom(8)
        """,
    )
    assert len(rule_hits(report, "det-wallclock")) == 4


def test_env_read_positive_and_suppression(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        import os

        FLAG = os.environ.get("REPRO_FLAG")
        # devtools: ignore[det-env-read] read once at import, recorded in provenance
        OTHER = os.getenv("REPRO_OTHER")
        """,
    )
    assert len(rule_hits(report, "det-env-read")) == 1
    assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# hot-probe-guard
# ---------------------------------------------------------------------------


def test_probe_guard_positive(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        class Router:
            def deliver(self, packet):
                self.on_injection(packet)
        """,
    )
    assert len(rule_hits(report, "hot-probe-guard")) == 1


def test_probe_guard_truthiness_rejected(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        class Router:
            def deliver(self, packet):
                if self.on_injection:
                    self.on_injection(packet)
        """,
    )
    assert len(rule_hits(report, "hot-probe-guard")) == 1


def test_probe_guard_direct_guard_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        class Router:
            def deliver(self, packet):
                if self.on_injection is not None:
                    self.on_injection(packet)
        """,
    )
    assert not rule_hits(report, "hot-probe-guard")


def test_probe_guard_local_alias_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        class Router:
            def sample(self, port, value):
                on_occupancy = port.on_occupancy
                if on_occupancy is not None:
                    on_occupancy(port, value)
        """,
    )
    assert not rule_hits(report, "hot-probe-guard")


def test_probe_guard_and_chain_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        class Router:
            def deliver(self, packet, ready):
                if ready and self.on_stall is not None:
                    self.on_stall(packet)
        """,
    )
    assert not rule_hits(report, "hot-probe-guard")


# ---------------------------------------------------------------------------
# hot-slots
# ---------------------------------------------------------------------------


def test_slots_positive(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        class Flit:
            def __init__(self, uid):
                self.uid = uid
        """,
    )
    assert len(rule_hits(report, "hot-slots")) == 1


def test_slots_clean_variants(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        from dataclasses import dataclass

        class Flit:
            __slots__ = ("uid",)

            def __init__(self, uid):
                self.uid = uid

        @dataclass(slots=True)
        class Credit:
            count: int

        class BufferError(ValueError):
            pass
        """,
    )
    assert not rule_hits(report, "hot-slots")


# ---------------------------------------------------------------------------
# hot-no-deque
# ---------------------------------------------------------------------------


def test_no_deque_positive(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        from collections import deque

        def make_fifo():
            return deque()
        """,
    )
    assert len(rule_hits(report, "hot-no-deque")) == 2  # import + construction


def test_no_deque_clean_list_fifo(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        def make_fifo():
            return []
        """,
    )
    assert not rule_hits(report, "hot-no-deque")


# ---------------------------------------------------------------------------
# mem-unbounded-memo
# ---------------------------------------------------------------------------


def test_unbounded_memo_positive(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        _ROUTE_MEMO = {}

        class Algo:
            def __init__(self):
                self._plan_cache = {}
        """,
    )
    assert len(rule_hits(report, "mem-unbounded-memo")) == 2


def test_unbounded_memo_cap_guard_clean(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        _MEMO_CAP = 1 << 18

        class Algo:
            def __init__(self):
                self._plan_memo = {}

            def plan(self, key):
                if len(self._plan_memo) >= _MEMO_CAP:
                    self._plan_memo.clear()
                return self._plan_memo.setdefault(key, key)
        """,
    )
    assert not rule_hits(report, "mem-unbounded-memo")


def test_unbounded_memo_suppressed_with_reason(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        # devtools: unbounded-ok(keyed by node id: at most n entries)
        _NODE_MEMO = {}
        """,
    )
    assert not rule_hits(report, "mem-unbounded-memo")
    assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# layer-upward-import
# ---------------------------------------------------------------------------
#
# The rule ranks a file by its path inside a ``repro`` package, so these
# fixtures are written under ``tmp_path/repro/``.


def test_upward_import_flagged_at_module_level_and_in_functions(tmp_path):
    (tmp_path / "repro").mkdir()
    report = lint_snippet(
        tmp_path,
        """
        from .metrics import SimulationResult
        from .session import Session

        def run_spec(spec):
            from .experiments.orchestrator import run_sweep
            return run_sweep(spec)
        """,
        name="repro/simulation.py",
    )
    hits = rule_hits(report, "layer-upward-import")
    assert [hit.line for hit in hits] == [3, 6]
    assert "session" in hits[0].message and "experiments.orchestrator" in hits[1].message


def test_upward_import_under_type_checking_and_downward_imports_clean(tmp_path):
    (tmp_path / "repro" / "experiments").mkdir(parents=True)
    report = lint_snippet(
        tmp_path,
        """
        from typing import TYPE_CHECKING

        import repro.store
        from ..session import Session
        from . import figures

        if TYPE_CHECKING:
            from .__main__ import FigureCommand
        """,
        name="repro/experiments/orchestrator.py",
    )
    assert not rule_hits(report, "layer-upward-import")


# ---------------------------------------------------------------------------
# collector-one-place
# ---------------------------------------------------------------------------
#
# Sites are (module, enclosing def) pairs, so these live under
# ``tmp_path/repro/`` too.


def test_collector_control_in_a_router_module_flagged(tmp_path):
    (tmp_path / "repro" / "router").mkdir(parents=True)
    report = lint_snippet(
        tmp_path,
        """
        import gc
        from concurrent.futures import ProcessPoolExecutor

        def pump(now):
            gc.disable()
            if gc.isenabled():
                return ProcessPoolExecutor(initializer=gc.freeze)
        """,
        name="repro/router/allocator.py",
    )
    hits = rule_hits(report, "collector-one-place")
    assert [hit.line for hit in hits] == [6, 8]
    assert "gc.disable" in hits[0].message and "gc.freeze" in hits[1].message


def test_collector_helper_itself_clean(tmp_path):
    (tmp_path / "repro").mkdir()
    report = lint_snippet(
        tmp_path,
        (SRC / "repro" / "collector.py").read_text(encoding="utf-8"),
        name="repro/collector.py",
    )
    assert not rule_hits(report, "collector-one-place")
    # The same text anywhere else is a second policy.
    report = lint_snippet(
        tmp_path,
        (SRC / "repro" / "collector.py").read_text(encoding="utf-8"),
        name="repro/engine.py",
    )
    assert len(rule_hits(report, "collector-one-place")) == 3


# ---------------------------------------------------------------------------
# meta-bare-suppression
# ---------------------------------------------------------------------------


def test_bare_suppression_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        # devtools: unbounded-ok()
        _NODE_MEMO = {}

        def f(pending: set):
            for item in pending:  # devtools: ignore[det-set-iter]
                print(item)
        """,
    )
    assert len(rule_hits(report, "meta-bare-suppression")) == 2


def test_reasoned_suppression_not_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        """
        # devtools: unbounded-ok(bounded by construction)
        _NODE_MEMO = {}
        """,
    )
    assert not rule_hits(report, "meta-bare-suppression")


# ---------------------------------------------------------------------------
# framework behaviour
# ---------------------------------------------------------------------------


def test_rules_registered_and_documented():
    rules = all_rules()
    assert len(rules) >= 8
    assert {"layer-upward-import", "collector-one-place"} <= {rule.id for rule in rules}
    for rule in rules:
        assert rule.id and rule.summary and rule.doc


def test_parse_error_reported_not_raised(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    report = lint_paths([bad])
    assert report.parse_errors and not report.clean


# ---------------------------------------------------------------------------
# CLI + self-scan
# ---------------------------------------------------------------------------


def _run_cli(*args, cwd=REPO_ROOT):
    env_src = str(SRC)
    # ``-B``: the bare environment drops PYTHONDONTWRITEBYTECODE, and the
    # child must not write bytecode into the checkout either way.
    return subprocess.run(
        [sys.executable, "-B", "-m", "repro.devtools", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )


def test_self_scan_repo_clean():
    """The committed tree must lint clean: there is no list of exceptions."""
    report = lint_paths([SRC], root=REPO_ROOT)
    assert report.clean, "\n".join(f.render() for f in report.findings)


def test_cli_lint_exit_codes(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("_ROUTE_MEMO = {}\n", encoding="utf-8")
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n", encoding="utf-8")

    result = _run_cli("lint", str(clean))
    assert result.returncode == 0, result.stderr

    result = _run_cli("lint", str(dirty))
    assert result.returncode == 1
    assert "mem-unbounded-memo" in result.stdout

    result = _run_cli("lint", str(tmp_path / "nope"))
    assert result.returncode == 2

    # The committed-baseline option is gone: argparse rejects it as usage.
    result = _run_cli("lint", str(dirty), "--baseline", str(tmp_path / "nope.json"))
    assert result.returncode == 2
    assert "unrecognized arguments" in result.stderr


def test_cli_json_format(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("_ROUTE_MEMO = {}\n", encoding="utf-8")
    result = _run_cli("lint", str(dirty), "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["clean"] is False
    assert payload["findings"][0]["rule"] == "mem-unbounded-memo"


def test_cli_rules_listing():
    result = _run_cli("rules")
    assert result.returncode == 0
    assert "det-set-iter" in result.stdout
    assert "hot-probe-guard" in result.stdout
