"""Parent side of the ledger: isolate, repeat, aggregate, verify.

Protocol (every workload): host time in reference seconds (``calibrate.py``:
rescaled by the host's speed while it passed); every repeat runs in a *fresh
child process* with ``PYTHONHASHSEED=0``, so ``ru_maxrss`` is one repeat's own and
neither the interpreter nor forked pool workers can inherit a warm artifact
or topology cache from an earlier repeat; closed loop; ``gc.collect()``
before each repeat, gc left enabled; ``time.perf_counter_ns``.  A reported
value is the **median over repeats**, kept with its quartiles and ``n``; a
run makes at least :data:`MIN_REPEATS` of them.

This module must not import ``repro``: Linux folds the pre-exec address
space's high-water mark into a child's ``ru_maxrss``, so a fat parent would
put a floor under every workload's ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from .spec import (
    LEDGER_DIR, ROOT, Declaration, Metric, load_declaration, load_reference,
)

#: untraced repeats a run makes at the least, however short ``--seconds`` is:
#: below three a median has no quartiles and ``compare`` cannot resolve it.
MIN_REPEATS = 3

#: simulation workloads on which the default probe set's overhead is measured.
PROBED_WORKLOADS = ("h2_un_low", "h2_un_sat")
SWEEP = "sweep_fig5"
REPLAY = "store_replay"

#: per-layer counts that must repeat exactly (same seed, same code).
EXACT_COUNTS = (
    "route_table.columns_built", "route_table.hits", "route_table.misses",
    "engine.ticks", "engine.events_processed", "engine.idle_cycles_skipped",
    "traffic.packets_generated", "router.pump_calls", "router.alloc_stalls",
    "link.flits_transmitted", "orchestrator.jobs_executed",
    "orchestrator.cache_hits", "store.flushes", "store.superseded",
    "store.compactions",
)


def variant_cycle(workload: str, traced: bool) -> List[str]:
    """Variants interleaved within one run of ``workload``."""
    if not traced:
        return ["plain"]
    if workload == SWEEP:
        return ["plain", "traced", "serial"]
    if workload in PROBED_WORKLOADS:
        return ["plain", "traced", "probed"]
    return ["plain", "traced"]


# ---------------------------------------------------------------------------
# Machine fingerprint
# ---------------------------------------------------------------------------

def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside a repository)."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git_dir / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem_type(path: Path) -> str:
    """Filesystem holding ``path`` (fsync cost is this machine's — say so)."""
    best, fs_type = "", "unknown"
    try:
        target = str(path.resolve())
        for line in Path("/proc/mounts").read_text().splitlines():
            _device, mount, kind = line.split()[:3]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, fs_type = mount, kind
    except (OSError, ValueError):
        pass
    return fs_type


def load_average() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def machine_fingerprint() -> Dict[str, Any]:
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "store_filesystem": _filesystem_type(LEDGER_DIR),
        "load_average_start": load_average(),
    }


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def spawn_child(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one child to completion and return its payload."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger.child", json.dumps(request)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"ledger child for {request['workload']} exited with "
            f"{completed.returncode}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


def budget_spent(wall_s: float, cycles: int, seconds: float) -> bool:
    """True once another cycle would leave the wall time further from
    ``seconds`` than stopping here does."""
    return wall_s + 0.5 * wall_s / cycles >= seconds


def collect_repeats(workload: str, seed: int, seconds: float, traced: bool,
                    smoke: bool, want_spans: bool = False,
                    corrupt: bool = False) -> Dict[str, Any]:
    """All repeats of one run of ``workload``, each from a child of its own.

    ``seconds`` budgets the run's wall time, children's start-up and set-up
    included.  An untraced run makes at least :data:`MIN_REPEATS` repeats
    whatever that costs; a traced run, whose numbers carry no bound, and a
    smoke run make at least one cycle of their variants.
    """
    # Store files go next to the ledger: inside the checkout, on its filesystem.
    workdir = tempfile.mkdtemp(prefix=".work-", dir=LEDGER_DIR)
    request = {
        "workload": workload, "seed": seed, "smoke": smoke,
        "workdir": workdir, "want_spans": want_spans, "corrupt": corrupt,
    }
    cycle = variant_cycle(workload, traced)
    floor = 1 if traced or smoke else MIN_REPEATS
    repeats: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    started = perf_counter()
    try:
        if workload == REPLAY:
            spawn_child({**request, "variant": "build", "index": -1})
        cycles = 0
        while True:
            for variant in cycle:
                payload = spawn_child(
                    {**request, "variant": variant, "index": len(repeats)})
                repeats.append({**payload["repeat"],
                                "peak_rss_mb": payload["peak_rss_mb"]})
                spans.extend(payload["spans"])
            cycles += 1
            if cycles >= floor and (
                    smoke or budget_spent(perf_counter() - started, cycles, seconds)):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"repeats": repeats, "spans": spans}


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def summarize(metric: Metric, values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and n of one metric's per-repeat values."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) >= 2:
        # inclusive: quartiles of the sample in hand, never outside its range.
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = median
    return {
        "unit": metric.unit, "better": metric.better, "bound": metric.bound,
        "median": median, "q1": q1, "q3": q3, "n": len(values),
        "values": values,
    }


def _ratio(numerator: Sequence[float], denominator: Sequence[float]) -> float:
    if not numerator or not denominator:
        return 0.0
    return statistics.median(numerator) / statistics.median(denominator)


def _layer_values(by_variant: Dict[str, List[Dict[str, Any]]],
                  matched: bool) -> Dict[str, List[float]]:
    """Per-repeat values of every per-layer metric this run measured."""
    values: Dict[str, List[float]] = {}
    for repeat in by_variant.get("traced", []):
        for name, value in repeat["layers"].items():
            values.setdefault(name, []).append(value)
    # Overheads compare variants run minutes apart: in reference seconds.
    plain = [r["work_ref_s"] for r in by_variant.get("plain", [])]
    traced = [r["work_ref_s"] for r in by_variant.get("traced", [])]
    probed = [r["work_ref_s"] for r in by_variant.get("probed", [])]
    serial = by_variant.get("serial", [])
    values["session.fingerprint_match"] = [1.0 if matched else 0.0]
    # What the host did to the plain repeats, which calibration takes out.
    values["host.cpu_speed"] = [r["cpu_speed"] for r in by_variant["plain"]]
    values["host.io_speed"] = [r["io_speed"] for r in by_variant["plain"]]
    values["host.work_per_wall_s"] = [
        r["work"] / r["work_wall_s"] for r in by_variant["plain"]
    ]
    if traced:
        values["trace.overhead_frac"] = [_ratio(traced, plain) - 1.0]
    if probed:
        values["probes.overhead_frac"] = [_ratio(probed, plain) - 1.0]
    if serial:
        # By the wall clock: the sampler beside one worker has a core to
        # itself and reads another speed than beside two, so reference
        # seconds of the two variants do not compare.
        walls = [r["work_wall_s"] for r in serial]
        values["orchestrator.serial_wall_s"] = walls
        values["orchestrator.overhead_s"] = [
            r["work_wall_s"] - r["sim_wall_s"] for r in serial
        ]
        workers = by_variant["plain"][0]["size"]["workers"]
        values["orchestrator.parallel_efficiency"] = [
            _ratio(walls, [r["work_wall_s"] for r in by_variant["plain"]]) / workers
        ]
    return values


def aggregate(workload: str, collected: Dict[str, Any], seed: int, traced: bool,
              smoke: bool, declaration: Declaration) -> Dict[str, Any]:
    """Fold one or more runs' repeats into the workload's result entry."""
    repeats = collected["repeats"]
    by_variant: Dict[str, List[Dict[str, Any]]] = {}
    for repeat in repeats:
        by_variant.setdefault(repeat["variant"], []).append(repeat)
    plain = by_variant["plain"]

    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    problems = [text for r in repeats for text in r["failures"]]

    # Same configuration every repeat and variant: statistics must not move.
    fingerprints = {r["fingerprint"] for r in repeats}
    matched = len(fingerprints) == 1
    if not matched:
        failed += len(fingerprints) - 1
        problems.append(f"{len(fingerprints)} distinct sim_fingerprints across repeats")
    committed = (
        load_reference().get("fingerprints", {})
        .get("smoke" if smoke else "full", {}).get(str(seed), {}).get(workload)
    )
    fingerprint = plain[0]["fingerprint"]
    if committed is not None and committed != fingerprint:
        matched = False
        failed += 1
        problems.append("sim_fingerprint differs from the committed reference")
    counts = plain[0]["counts"]
    for repeat in repeats:
        if repeat["counts"] and repeat["counts"] != counts:
            failed += 1
            problems.append(f"exact counts differ on a {repeat['variant']} repeat")
            break

    metrics: Dict[str, Dict[str, Any]] = {}
    if not traced:
        values = {
            "setup_s": [s for r in plain for s in r["setup_samples"]],
            "work_per_ref_s": [r["work"] / r["work_ref_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for name, metric in declaration.end_to_end.items():
            metrics[name] = summarize(metric, values[name])
    else:
        layer_values = _layer_values(by_variant, matched)
        for name in EXACT_COUNTS:
            if len(set(layer_values.get(name, []))) > 1:
                failed += 1
                problems.append(f"{name} is not identical across traced repeats")
        undeclared = sorted(set(layer_values) - set(declaration.per_layer))
        if undeclared:
            raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: {undeclared}")
        for name, metric in declaration.per_layer.items():
            # A layer this workload never calls reports 0 for its metrics.
            metrics[name] = summarize(metric, layer_values.get(name, [0.0]))
        for name in EXACT_COUNTS:
            counts[name] = metrics[name]["median"]

    return {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "correct": failed == 0,
        "problems": problems[:20],
        "sim_fingerprint": fingerprint,
        "size": plain[0]["size"],
        "counts": counts,
        "repeats": len(plain),
        # what calibration took out: the host's speed during the timed bodies
        # (1.0 = the reference VM's usual) and the work rate by the wall clock.
        "host": {
            "cpu_speed": statistics.median(r["cpu_speed"] for r in plain),
            "io_speed": statistics.median(r["io_speed"] for r in plain),
            "work_per_wall_s": statistics.median(
                r["work"] / r["work_wall_s"] for r in plain),
        },
        "metrics": metrics,
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False) -> Dict[str, Any]:
    """One run of one workload, aggregated (the driver contract's unit)."""
    declaration = load_declaration()
    if workload not in declaration.workloads:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"expected one of {sorted(declaration.workloads)}")
    collected = collect_repeats(workload, seed, seconds, traced, smoke)
    return aggregate(workload, collected, seed, traced, smoke, declaration)
