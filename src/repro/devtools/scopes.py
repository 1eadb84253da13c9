"""Rule scoping: which repro modules each rule applies to.

Paths are matched by their suffix relative to the ``repro`` package root so
that the linter gives identical verdicts whether invoked on ``src``,
``src/repro`` or an individual file.  Files that are *not* inside a ``repro``
package (e.g. test fixtures in a temp directory) get **every** rule — that is
what makes the linter's own test fixtures exercise rules without replicating
the package layout.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

__all__ = ["relative_to_repro", "rule_applies", "layer_rank", "LAYERS", "SCOPES"]


# Determinism rules cover the simulation core: everything that executes
# between ``Simulation.__init__`` and the last delivered packet.
_SIM_CORE = (
    "engine.py",
    "packet.py",
    "link.py",
    "cache.py",
    "collector.py",
    "faults.py",
    "simulation.py",
    "router/",
    "routing/",
    "traffic/",
    "buffers/",
    "core/",
    "topology/",
)

# Wall-clock reads are additionally barred from metrics (they feed recorded
# results); session.py is *exempt* — it stamps wall-clock provenance into run
# records on purpose (elapsed_wall_s), which never feeds simulated state.
_WALLCLOCK_SCOPE = _SIM_CORE + ("metrics.py",)

# Hot modules for the memory/FIFO rules: code that runs per-flit/per-cycle.
_HOT = (
    "engine.py",
    "link.py",
    "router/",
    "routing/",
    "buffers/",
    "traffic/",
    "core/",
)

# Modules whose classes are instantiated per-packet/per-port at scale and
# therefore must declare ``__slots__``.  Deliberately excludes router.py,
# simulation.py and metrics.py: Router/Simulation/MetricsCollector are
# one-per-run (or one-per-router) objects where __slots__ buys nothing.
_SLOTS_SCOPE = (
    "packet.py",
    "link.py",
    "cache.py",
    "router/ports.py",
    "buffers/",
)

# The storage layer replays journals and rewrites stores: its on-disk byte
# order must be reproducible, so the ordering-determinism rules apply.  It
# is deliberately OUTSIDE det-wallclock/det-env-read scope — the flush
# interval and the lock holder's acquisition time need wall-clock time, and the
# crash-injection test seam reads the environment, both legitimately.
_STORE = ("store/",)

# Layering runs one way: core -> session -> store -> orchestration -> CLI.
# Rank = index, and the highest matching rank wins (the CLI file sits inside
# experiments/).  The two package facades (``__init__.py`` of repro and of
# experiments) re-export every layer and are outside the table.
LAYERS: Sequence[Sequence[str]] = (
    _SIM_CORE + ("config.py", "metrics.py", "keys.py", "record.py", "probes.py"),
    ("session.py",),
    _STORE,
    ("experiments/",),
    ("experiments/__main__.py",),
)

SCOPES: dict[str, Sequence[str]] = {
    "det-set-iter": _SIM_CORE + _STORE,
    "det-set-pop": _SIM_CORE + _STORE,
    "det-id-order": _SIM_CORE + _STORE,
    "det-unseeded-random": _SIM_CORE + _STORE,
    "det-wallclock": _WALLCLOCK_SCOPE,
    "det-env-read": _SIM_CORE,
    "hot-probe-guard": ("router/", "link.py", "traffic/", "faults.py"),
    "hot-slots": _SLOTS_SCOPE,
    "hot-no-deque": _HOT,
    "mem-unbounded-memo": _HOT + _STORE,
    "layer-upward-import": tuple(entry for layer in LAYERS for entry in layer),
    # the collector has one policy wherever the code sits, and meta-findings
    # (bare suppressions) apply everywhere by construction
    "collector-one-place": (),
    "meta-bare-suppression": (),
}


def relative_to_repro(path: Path) -> Optional[str]:
    """Return ``path`` relative to the innermost ``repro`` package dir, as a
    posix string, or ``None`` if the file is not inside a repro package."""
    parts = path.resolve().parts
    for i in range(len(parts) - 1, 0, -1):
        if parts[i - 1] == "repro":
            return "/".join(parts[i:]) if parts[i:] else None
    return None


def layer_rank(module: str) -> Optional[int]:
    """Rank in :data:`LAYERS` of a package-relative module path without
    suffix (``"session"``, ``"store/journal"``, or a package: ``"store"``);
    ``None`` for the facades and anything unlisted."""
    if module in ("__init__", "experiments/__init__"):
        return None
    best = None
    for rank, layer in enumerate(LAYERS):
        if any(module + ".py" == e or (module + "/").startswith(e) for e in layer):
            best = rank
    return best


def rule_applies(rule_id: str, path: Path) -> bool:
    rel = relative_to_repro(path)
    if rel is None:
        return True  # outside the package: fixture mode, all rules active
    if rel.startswith("devtools/"):
        return False  # the linter does not lint itself
    prefixes = SCOPES.get(rule_id)
    if prefixes is None:
        return False
    if not prefixes:
        return True  # an empty scope is the whole package
    return any(
        rel == prefix or (prefix.endswith("/") and rel.startswith(prefix))
        for prefix in prefixes
    )
