"""Engine micro-benchmark: cycles/sec across load regimes + idle fast-forward.

Run directly to (re)generate ``BENCH_engine.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full report
    PYTHONPATH=src python benchmarks/bench_engine.py --profile  # + cProfile
    PYTHONPATH=src python benchmarks/bench_engine.py --mem      # construction
                                                # memory (peak RSS +
                                                # tracemalloc deltas)

Measurements establishing the perf trajectory of the execution core:

* ``uniform_load02_cps`` — steady-state cycles/sec of a tiny-scale uniform
  run at offered load 0.2 (the mostly-idle regime the event-driven scheduler
  targets), measured over a 5,000-cycle run so the one-time route-cache
  warm-up amortizes;
* ``tiny_run_cps`` — the standard 900-cycle tiny run (what the figure
  benchmarks execute), plus its ``SimulationResult`` fingerprint so any
  behavioural drift is visible next to the perf numbers;
* ``tiny_load09_cps`` — the same tiny network at offered load 0.9: the
  congested regime where allocation dominates (most routers active every
  cycle, heads blocked on credits) and where adaptive-routing experiments
  actually operate;
* ``small_adversarial_cps`` — a small-scale Valiant run under adversarial
  traffic at load 0.7: misrouting machinery plus sustained congestion;
* ``idle_fast_forward_cps`` — a zero-load run where the engine skips
  straight across idle cycles.

``seed_baseline`` records the same measurements taken on the polled seed
engine (commit 067f1ce) on the same machine, interleaved with the current
code; ``speedup_*`` are current/seed ratios.  ``pr1_baseline`` records the
PR 1 engine (dict-memoized minimal routes, commit 67d610b) re-measured on
the current machine immediately before the precomputed-route-table change,
so ``speedup_*_vs_pr1`` isolates what the dense tables buy.  ``pr2_baseline``
records the PR 2 code (commit 44945c7) re-measured interleaved with the
session/probe redesign.  ``pr3_baseline`` records the PR 3 code (commit
cc39bab) re-measured interleaved with the incremental-allocator rebuild
(best of 6 alternating rounds on the same machine — only interleaved A/B
numbers are comparable in the shared container); ``ratio_*_vs_pr3`` is what
the array-backed hot-state core and incremental allocation buy, and also
demonstrates that the PR 3 probe-guard regression (``ratio_*_vs_pr2`` < 1.0)
is recovered.

The ``probes`` section compares the same tiny run probes-off (plain
``Simulation.run()``, which is a Session shim) against probes-on
(``Session`` with a TimeSeriesProbe and a LinkUtilizationProbe attached):
``probe_overhead_pct`` is what attaching live telemetry costs.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

try:  # pragma: no cover
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.arrangement import VcArrangement
from repro.experiments.runner import SMALL, TINY, base_config
from repro.probes import LinkUtilizationProbe, TimeSeriesProbe
from repro.session import Session
from repro.simulation import Simulation

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: cycles/sec of the seed engine measured interleaved with the current code
#: on the reference machine (best of 5, median of 4 interleaved rounds).
SEED_BASELINE = {
    "uniform_load02_cps": 2945,
    "tiny_run_cps": 3111,
    "idle_fast_forward_cps": 20582,
}

#: cycles/sec of the PR 1 engine (per-instance dict route memos) measured
#: interleaved with the route-table code on the same machine (best of 5
#: alternating rounds).
PR1_BASELINE = {
    "uniform_load02_cps": 5118,
    "tiny_run_cps": 4346,
    "idle_fast_forward_cps": 235865748,
}

#: cycles/sec of the PR 2 code (route tables, pre-session API, commit
#: 44945c7) measured interleaved with the session/probe redesign.
PR2_BASELINE = {
    "uniform_load02_cps": 7401,
    "tiny_run_cps": 6725,
}

#: cycles/sec of the PR 3 code (session/probes, commit cc39bab) measured
#: interleaved with the incremental-allocator rebuild on the same machine
#: (best of 6 alternating rounds; the congested entries did not exist before
#: this PR and were measured by running the PR 3 tree under this harness).
PR3_BASELINE = {
    "uniform_load02_cps": 7344,
    "tiny_run_cps": 6489,
    "tiny_load09_cps": 1640,
    "small_adversarial_cps": 1158,
}


def _tiny09_config():
    return base_config(TINY, pattern="uniform", seed=7).with_load(0.9)


def _small_adversarial_config():
    return dataclasses.replace(
        base_config(
            SMALL, pattern="adversarial", algorithm="val", seed=7,
            arrangement=VcArrangement.single_class(4, 2),
        ).with_load(0.7),
        warmup_cycles=300, measure_cycles=900,
    )


def _best_probed_cps(config, cycles: int, repeats: int = 5) -> float:
    """Best-of-N cycles/sec of a Session run with live telemetry attached."""
    best = float("inf")
    for _ in range(repeats):
        session = Session(
            config, probes=[TimeSeriesProbe(100), LinkUtilizationProbe()]
        )
        start = time.perf_counter()
        session.warmup()
        session.measure()
        best = min(best, time.perf_counter() - start)
    return cycles / best


def _best_cps(config, cycles: int, repeats: int = 5) -> tuple[float, Simulation]:
    best = float("inf")
    sim = None
    for _ in range(repeats):
        sim = Simulation(config)
        start = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - start)
    return cycles / best, sim


def _peak_rss_bytes() -> int:
    """Peak RSS of this process (ru_maxrss is KB on Linux, bytes on macOS)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def measure_construction_memory(config) -> dict:
    """Peak RSS and tracemalloc deltas for network + route-table construction.

    Used by ``--mem`` here and by ``benchmarks/bench_scale.py`` (which records
    the numbers in ``BENCH_scale.json``).  tracemalloc attributes allocations
    to the two construction stages; peak RSS is process-wide and cumulative,
    so compare it across *separate* runs, not across stages in one run.
    """
    import tracemalloc

    from repro.simulation import build_topology

    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    start = time.perf_counter()
    topology = build_topology(config)
    network_s = time.perf_counter() - start
    after_network, _ = tracemalloc.get_traced_memory()

    from repro.routing.route_table import RouteTable

    start = time.perf_counter()
    table = RouteTable(topology)
    table_s = time.perf_counter() - start
    after_table, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "topology": config.network.topology,
        "routers": topology.num_routers,
        "nodes": topology.num_nodes,
        "network_build_s": round(network_s, 3),
        "network_tracemalloc_bytes": after_network - base,
        "route_table_build_s": round(table_s, 3),
        "route_table_tracemalloc_bytes": after_table - after_network,
        "route_state_bytes": table.route_state_bytes(),
        "route_state_bytes_per_router": round(
            table.route_state_bytes() / topology.num_routers
        ),
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def report_memory() -> None:
    """Print construction-memory reports for the standard bench configs."""
    tiny = base_config(TINY, pattern="uniform", seed=7).with_load(0.2)
    small = base_config(SMALL, pattern="uniform", seed=7).with_load(0.2)
    for label, config in (("tiny", tiny), ("small", small)):
        mem = measure_construction_memory(config)
        print(f"[{label}] routers={mem['routers']} "
              f"network={mem['network_tracemalloc_bytes']}B "
              f"route_table={mem['route_table_tracemalloc_bytes']}B "
              f"route_state={mem['route_state_bytes']}B "
              f"({mem['route_state_bytes_per_router']}B/router) "
              f"build={mem['route_table_build_s']}s "
              f"peak_rss={mem['peak_rss_bytes'] / 1e6:.1f}MB")


def run_benchmark() -> dict:
    steady = dataclasses.replace(
        base_config(TINY, pattern="uniform", seed=7).with_load(0.2),
        warmup_cycles=500, measure_cycles=4500,
    )
    steady_cps, _ = _best_cps(steady, 5000)

    tiny = base_config(TINY, pattern="uniform", seed=7).with_load(0.2)
    tiny_cps, tiny_sim = _best_cps(tiny, tiny.total_cycles())
    fingerprint = dataclasses.asdict(Simulation(tiny).run())
    probed_cps = _best_probed_cps(tiny, tiny.total_cycles())

    tiny09 = _tiny09_config()
    tiny09_cps, _ = _best_cps(tiny09, tiny09.total_cycles())

    adversarial = _small_adversarial_config()
    adversarial_cps, _ = _best_cps(adversarial, adversarial.total_cycles(),
                                   repeats=3)

    idle = dataclasses.replace(
        base_config(TINY, pattern="uniform", seed=7).with_load(0.0),
        warmup_cycles=2000, measure_cycles=8000,
    )
    idle_cps, idle_sim = _best_cps(idle, 10_000, repeats=3)

    report = {
        "uniform_load02_cps": round(steady_cps),
        "tiny_run_cps": round(tiny_cps),
        "tiny_load09_cps": round(tiny09_cps),
        "small_adversarial_cps": round(adversarial_cps),
        "idle_fast_forward_cps": round(idle_cps),
        "idle_cycles_skipped": idle_sim.engine.idle_cycles_skipped,
        "seed_baseline": SEED_BASELINE,
        "speedup_uniform_load02": round(
            steady_cps / SEED_BASELINE["uniform_load02_cps"], 2
        ),
        "speedup_tiny_run": round(tiny_cps / SEED_BASELINE["tiny_run_cps"], 2),
        "speedup_idle_fast_forward": round(
            idle_cps / SEED_BASELINE["idle_fast_forward_cps"], 1
        ),
        "pr1_baseline": PR1_BASELINE,
        "speedup_uniform_load02_vs_pr1": round(
            steady_cps / PR1_BASELINE["uniform_load02_cps"], 2
        ),
        "speedup_tiny_run_vs_pr1": round(
            tiny_cps / PR1_BASELINE["tiny_run_cps"], 2
        ),
        "pr2_baseline": PR2_BASELINE,
        "ratio_uniform_load02_vs_pr2": round(
            steady_cps / PR2_BASELINE["uniform_load02_cps"], 2
        ),
        "ratio_tiny_run_vs_pr2": round(tiny_cps / PR2_BASELINE["tiny_run_cps"], 2),
        "pr3_baseline": PR3_BASELINE,
        "ratio_uniform_load02_vs_pr3": round(
            steady_cps / PR3_BASELINE["uniform_load02_cps"], 2
        ),
        "ratio_tiny_run_vs_pr3": round(
            tiny_cps / PR3_BASELINE["tiny_run_cps"], 2
        ),
        "ratio_tiny_load09_vs_pr3": round(
            tiny09_cps / PR3_BASELINE["tiny_load09_cps"], 2
        ),
        "ratio_small_adversarial_vs_pr3": round(
            adversarial_cps / PR3_BASELINE["small_adversarial_cps"], 2
        ),
        "probes": {
            "probes_off_tiny_cps": round(tiny_cps),
            "probes_on_tiny_cps": round(probed_cps),
            "probe_set": ["TimeSeriesProbe(100)", "LinkUtilizationProbe"],
            "probe_overhead_pct": round((tiny_cps / probed_cps - 1) * 100, 1),
        },
        "tiny_result_fingerprint": fingerprint,
    }

    return report


#: regression-gate entries re-measured by ``--check-regression`` (the CI
#: perf-smoke job); kept here so the gate and the committed baseline always
#: use the same configs and measurement protocol.
_GATE_ENTRIES = ("tiny_run_cps", "tiny_load09_cps")

#: generous threshold: shared CI runners are noisy, so only a >30%
#: cycles/sec drop against the committed BENCH_engine.json fails.
_GATE_MIN_RATIO = 0.70


def check_regression() -> int:
    """Re-measure the gate entries and compare against BENCH_engine.json."""
    committed = json.loads(OUTPUT.read_text())
    tiny = base_config(TINY, pattern="uniform", seed=7).with_load(0.2)
    tiny09 = _tiny09_config()
    measured = {
        "tiny_run_cps": _best_cps(tiny, tiny.total_cycles(), repeats=4)[0],
        "tiny_load09_cps": _best_cps(tiny09, tiny09.total_cycles(), repeats=4)[0],
    }
    failed = False
    for key in _GATE_ENTRIES:
        ratio = measured[key] / committed[key]
        print(f"{key}: measured {measured[key]:.0f} vs committed "
              f"{committed[key]} (x{ratio:.2f})")
        if ratio < _GATE_MIN_RATIO:
            print(f"FAIL: {key} regressed more than "
                  f"{round((1 - _GATE_MIN_RATIO) * 100)}% vs the committed "
                  "baseline")
            failed = True
    return 1 if failed else 0


def profile_congested(top: int = 20) -> None:
    """Print cProfile top-N cumulative of the congested tiny run."""
    import cProfile
    import pstats

    config = _tiny09_config()
    sim = Simulation(config)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    stats = pstats.Stats(profiler).sort_stats("cumulative")
    stats.print_stats(top)


def main() -> None:
    if "--profile" in sys.argv:
        profile_congested()
        return
    if "--check-regression" in sys.argv:
        sys.exit(check_regression())
    if "--mem" in sys.argv:
        report_memory()
        return
    report = run_benchmark()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    for key in ("uniform_load02_cps", "tiny_run_cps", "tiny_load09_cps",
                "small_adversarial_cps", "idle_fast_forward_cps",
                "speedup_uniform_load02", "speedup_tiny_run",
                "speedup_idle_fast_forward",
                "ratio_uniform_load02_vs_pr2", "ratio_tiny_run_vs_pr2",
                "ratio_uniform_load02_vs_pr3", "ratio_tiny_run_vs_pr3",
                "ratio_tiny_load09_vs_pr3", "ratio_small_adversarial_vs_pr3"):
        print(f"{key}: {report[key]}")
    probes = report["probes"]
    print(f"probes_on_tiny_cps: {probes['probes_on_tiny_cps']} "
          f"(overhead {probes['probe_overhead_pct']}%)")
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
