"""Judge two ledger result files: one row per (workload, end-to-end metric).

Verdicts, each against the metric's own bound from ``BENCHMARK.json``:

* ``unresolved`` — either side has fewer than three samples (no quartiles to
  speak of), or its inter-quartile spread, as a share of its median, exceeds
  the bound: the runs cannot tell the sides apart;
* ``worse`` / ``improved`` — B's median is worse / better than A's by more
  than the bound (every ratio is printed with its base, A);
* ``unchanged`` — anything else.

``compare`` exits non-zero on any ``worse`` or when B failed more operations
than A.  ``compare --agreement`` is for two sets of runs of the *same* code:
it also exits non-zero on ``unresolved`` and when ``sim_fingerprint``s or
exact counts differ.  This is a regression screen, not a gain claim — a gain
needs the interleaved protocol in README.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from .spec import Metric

Row = Dict[str, Any]

#: below this many samples a side has no spread worth the name.
MIN_SAMPLES = 3


def spread(entry: Dict[str, Any]) -> float:
    """Inter-quartile distance as a share of the median."""
    if not entry["median"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def verdict(metric: Metric, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    bound = metric.bound or 0.0
    if min(a["n"], b["n"]) < MIN_SAMPLES or max(spread(a), spread(b)) > bound:
        return "unresolved"
    worse_by = metric.worse_by(a["median"], b["median"])
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare_results(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[Row], List[str]]:
    """Rows for every shared (workload, bounded metric) plus count/identity diffs."""
    rows: List[Row] = []
    notes: List[str] = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            notes.append(f"{workload}: missing from B")
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for name, ea in wa["metrics"].items():
            eb = wb["metrics"].get(name)
            if eb is None or ea.get("bound") is None:
                continue
            metric = Metric(name, ea["unit"], ea["better"], ea["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": ea["unit"],
                "a": ea, "b": eb, "bound": ea["bound"],
                "ratio": eb["median"] / ea["median"] if ea["median"] else float("nan"),
                "verdict": verdict(metric, ea, eb),
            })
        fa = wa["failed"] / wa["attempted"]
        fb = wb["failed"] / wb["attempted"]
        if fb > fa:
            notes.append(
                f"{workload}: ops_failed_frac rose {fa:.6f} -> {fb:.6f} "
                f"({wb['failed']}/{wb['attempted']} failed in B)"
            )
        if a["seed"] == b["seed"] and a["smoke"] == b["smoke"]:
            if wa["sim_fingerprint"] != wb["sim_fingerprint"]:
                notes.append(f"{workload}: sim_fingerprint differs")
            for key in sorted(set(wa["counts"]) & set(wb["counts"])):
                if wa["counts"][key] != wb["counts"][key]:
                    notes.append(
                        f"{workload}: count {key} {wa['counts'][key]} -> "
                        f"{wb['counts'][key]}"
                    )
    return rows, notes


def format_rows(rows: List[Row]) -> str:
    lines = [
        f"{'workload':<12} {'metric':<14} {'A median [q1, q3] n':<38} "
        f"{'B median [q1, q3] n':<38} {'B/A':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        def cell(entry: Dict[str, Any]) -> str:
            return (f"{entry['median']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}] "
                    f"n={entry['n']} {row['unit']}")
        lines.append(
            f"{row['workload']:<12} {row['metric']:<14} {cell(row['a']):<38} "
            f"{cell(row['b']):<38} {row['ratio']:>6.3f}x {row['bound']:>6.2f}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str, agreement: bool) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows, notes = compare_results(a, b)
    print(f"A = {path_a} (base of every ratio)\nB = {path_b}")
    for side, data in (("A", a), ("B", b)):
        if data["machine"].get("noisy"):
            print(f"note: {side} was measured on a noisy machine "
                  f"(load average above nproc)")
    print(format_rows(rows))
    for note in notes:
        print(note)
    failing = {"worse", "unresolved"} if agreement else {"worse"}
    bad_rows = [row for row in rows if row["verdict"] in failing]
    bad_notes = [
        note for note in notes
        if agreement or "ops_failed_frac" in note or "missing" in note
    ]
    if bad_rows or bad_notes:
        print(f"FAIL: {len(bad_rows)} row(s) {sorted(failing)}, "
              f"{len(bad_notes)} identity/failure note(s)")
        return 1
    print("OK: " + ("the two sets agree within the bounds" if agreement
                    else "no metric is worse by more than its bound"))
    return 0
