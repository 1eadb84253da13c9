"""Scale benchmark: route-table construction cost and memory vs network size.

Run directly to (re)generate ``BENCH_scale.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_scale.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --quick   # skip system scale

Each entry measures, for one (scale, topology) pair:

* ``network_build_s`` / ``route_table_build_s`` — construction wall time,
  with tracemalloc deltas attributing allocated bytes to each stage (a new
  table holds the adjacency view only: columns are built on first touch,
  during the session below);
* ``route_state_bytes`` / ``route_state_bytes_per_router`` — route-table
  state right after construction; ``table_stats`` has it after the session
  (~2 bytes per source per resident column; a column stays resident once
  built, so a session touching every destination holds 2n² bytes);
* ``warm_cps`` — cycles/sec of a short warmup+measure session (offered
  load 0.2, or 0.1 at system scale, matching the ``system`` experiment
  registry; cold route-column faults included, so this is the honest
  first-session number);
* ``peak_rss_bytes`` — process peak RSS.  Every measurement runs in its own
  subprocess so peaks are per-configuration, not cumulative.

The ``system`` scale is the 10^5-endpoint target of ROADMAP item 4(c): an
h=13 Dragonfly (339 groups, 8,814 routers, 114,582 nodes).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

try:  # pragma: no cover
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: (label, topology, params, warmup, measure, load) per benchmarked point.
#: Scales mirror the experiment registry (tiny/large/system Dragonfly) plus a
#: 10^5-endpoint Megafly to show the column path is not Dragonfly-specific.
POINTS = [
    ("tiny", "dragonfly", {"h": 2}, 300, 600, 0.2),
    ("large", "dragonfly", {"h": 6}, 200, 400, 0.2),
    ("system", "dragonfly", {"h": 13}, 50, 100, 0.1),
    ("system_megafly", "megafly",
     {"spines": 18, "leaves": 18, "h": 18, "nodes_per_router": 18},
     50, 100, 0.1),
]


def _peak_rss_bytes() -> int:
    """Peak RSS of this process (ru_maxrss is KB on Linux, bytes on macOS)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def measure_construction_memory(config) -> dict:
    """Peak RSS and tracemalloc deltas for network + route-table construction.

    tracemalloc attributes allocations to the two construction stages; peak
    RSS is process-wide and cumulative, so compare it across *separate*
    runs, not across stages in one run.
    """
    import tracemalloc

    from repro.routing.route_table import RouteTable

    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    start = time.perf_counter()
    topology = config.network.build()
    network_s = time.perf_counter() - start
    after_network, _ = tracemalloc.get_traced_memory()

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


def measure_point(topology: str, params: dict,
                  warmup: int, measure: int, load: float) -> dict:
    """Worker-side measurement (runs in a fresh subprocess for clean RSS)."""
    import dataclasses

    from repro.config import NetworkConfig, SimulationConfig
    from repro.session import Session
    from repro.simulation import Simulation

    config = dataclasses.replace(
        SimulationConfig(network=NetworkConfig(topology=topology,
                                               params=params)),
        warmup_cycles=warmup, measure_cycles=measure,
    ).with_load(load)

    entry = measure_construction_memory(config)

    sim = Simulation(config)
    session = Session(simulation=sim)
    start = time.perf_counter()
    session.warmup()
    session.measure()
    elapsed = time.perf_counter() - start
    entry.update({
        "warmup_cycles": warmup,
        "measure_cycles": measure,
        "load": load,
        "warm_cps": round((warmup + measure) / elapsed, 1),
        "table_stats": sim.route_table.table_stats(),
        "peak_rss_bytes": _peak_rss_bytes(),
    })
    return entry


def run_sweep(quick: bool = False) -> dict:
    report: dict = {}
    for label, topology, params, warmup, measure, load in POINTS:
        if quick and label.startswith("system"):
            continue
        print(f"measuring {label} ...", flush=True)
        spec = json.dumps({"topology": topology, "params": params,
                           "warmup": warmup, "measure": measure,
                           "load": load})
        proc = subprocess.run(
            [sys.executable, __file__, "--worker", spec],
            capture_output=True, text=True, check=True,
        )
        entry = report[label] = json.loads(proc.stdout)
        print(f"  routers={entry['routers']} nodes={entry['nodes']} "
              f"table_build={entry['route_table_build_s']}s "
              f"route_state={entry['table_stats']['route_state_bytes']}B "
              f"warm_cps={entry['warm_cps']} "
              f"peak_rss={entry['peak_rss_bytes'] / 1e6:.0f}MB")
    return report


def main() -> None:
    if "--worker" in sys.argv:
        spec = json.loads(sys.argv[sys.argv.index("--worker") + 1])
        entry = measure_point(spec["topology"], spec["params"],
                              spec["warmup"], spec["measure"], spec["load"])
        print(json.dumps(entry))
        return
    report = run_sweep(quick="--quick" in sys.argv)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
