"""Metric and workload declarations, read from the root ``BENCHMARK.json``.

``BENCHMARK.json`` is the single source of names, units, directions and
regression bounds; everything the ledger emits is checked against it (the
self-test asserts emitted == declared).  What the contract's fixed schema has
no room for — the unit of work behind ``work_per_ref_s`` on each workload —
lives here; the predicted layer interactions live in ``README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCE_JSON = LEDGER_DIR / "reference.json"

#: what one unit of ``work_per_ref_s`` is on each workload (the issue's
#: ``node_cycles_per_s`` / ``jobs_per_s`` / ``records_per_s`` /
#: ``replay_records_per_s`` are this one metric under its per-workload name).
WORK_UNITS: Dict[str, str] = {
    "h2_un_low": "node-cycles",
    "h2_un_sat": "node-cycles",
    "h2_adv_val": "node-cycles",
    "h6_un_low": "node-cycles",
    "sweep_fig5": "jobs",
    "store_churn": "records",
    "store_replay": "records",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen (None for
    #: per-layer metrics, which carry no bound).
    bound: "float | None" = None

    def worse_by(self, base: float, other: float) -> float:
        """How much worse ``other`` is than ``base``, as a share of ``base``."""
        if base == 0:
            return 0.0
        delta = (other - base) / abs(base)
        return delta if self.better == "lower" else -delta


@dataclass(frozen=True)
class Declaration:
    run_seconds: int
    workloads: Dict[str, str]
    end_to_end: Dict[str, Metric]
    per_layer: Dict[str, Metric]


def _metrics(rows: List[Dict[str, Any]]) -> Dict[str, Metric]:
    return {
        row["name"]: Metric(row["name"], row["unit"], row["better"], row.get("bound"))
        for row in rows
    }


def load_declaration() -> Declaration:
    data = json.loads(BENCHMARK_JSON.read_text())
    return Declaration(
        run_seconds=int(data["run_seconds"]),
        workloads={row["name"]: row["why"] for row in data["workloads"]},
        end_to_end=_metrics(data["end_to_end"]),
        per_layer=_metrics(data["per_layer"]),
    )


def load_reference() -> Dict[str, Any]:
    """Committed fingerprints and reference medians (empty when absent)."""
    if not REFERENCE_JSON.exists():
        return {}
    return json.loads(REFERENCE_JSON.read_text())
