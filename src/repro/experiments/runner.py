"""Experiment runner utilities: scales, load sweeps and config builders.

Every figure of the paper is regenerated from the same three ingredients:

* an :class:`ExperimentScale` (network size, cycle counts, seeds, load grid),
* a *configuration builder* describing one curve/bar of the figure, and
* the sweep driver :func:`repro.experiments.figures.run_figure`, which runs a
  whole registered figure as one sweep and fills its :class:`Series` with
  :func:`collect`.

Three scales are provided.  ``TINY`` keeps the benchmark suite runnable in
minutes on a laptop; ``SMALL`` is the default for examples; ``PAPER`` matches
Table V of the paper (h=8, 16,512 nodes, 60,000 measured cycles, 5 seeds) and
is provided for completeness — running it under CPython is a multi-day
endeavour, which is exactly the substitution documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..config import (
    NetworkConfig,
    RouterConfig,
    RoutingConfig,
    SimulationConfig,
    TrafficConfig,
)
from ..core.arrangement import VcArrangement
from ..metrics import SimulationResult
from ..topology import TOPOLOGIES
from .orchestrator import ConfigBuilder, SweepOutcome


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing knobs shared by all experiments."""

    name: str
    h: int
    warmup_cycles: int
    measure_cycles: int
    seeds: int
    loads: tuple[float, ...]
    local_latency: int = 10
    global_latency: int = 100
    #: per-port buffer capacities (local, global) for the Figure 6/11 sweeps.
    buffer_capacities: tuple[tuple[int, int], ...] = (
        (64, 256), (128, 512), (192, 768), (256, 1024)
    )

    def network(self) -> NetworkConfig:
        return self.network_for("dragonfly")

    def network_for(self, topology: str) -> NetworkConfig:
        """Comparable-size network of any registered topology at this scale.

        ``topology`` may be a registry name or alias; the returned config
        always carries the canonical name, so an alias and its canonical
        name hash to the same ``config_key``.  Sizes are derived from the
        scale's ``h`` so curves across topologies stay roughly comparable
        (tiny: 36-router Dragonfly, 36-router 3D HyperX, 16-router Flattened
        Butterfly, 20-router Megafly); a topology without a row here gets its
        registered parameter dataclass's defaults.
        """
        h = self.h
        sized = {
            "dragonfly": {"h": h},
            "flattened_butterfly": {"k1": 2 * h, "k2": 2 * h, "nodes_per_router": h},
            "hyperx": {"s": (2 * h, h + 1, h + 1), "nodes_per_router": h},
            "megafly": {"spines": h, "leaves": h, "h": h, "nodes_per_router": h},
        }
        name = TOPOLOGIES.get(topology).name
        return NetworkConfig(
            topology=name,
            params=sized.get(name),
            local_latency=self.local_latency,
            global_latency=self.global_latency,
        )


#: Benchmark scale: a 9-group, 72-node Dragonfly, short runs, single seed.
TINY = ExperimentScale(
    name="tiny",
    h=2,
    warmup_cycles=300,
    measure_cycles=600,
    seeds=1,
    loads=(0.2, 0.5, 0.8, 1.0),
)

#: Example/analysis scale: same network, longer runs, a few seeds, finer grid.
SMALL = ExperimentScale(
    name="small",
    h=2,
    warmup_cycles=1200,
    measure_cycles=2500,
    seeds=3,
    loads=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
)

#: The paper's own configuration (Table V).  Provided for documentation and
#: API completeness; not intended to be run under pure CPython.
PAPER = ExperimentScale(
    name="paper",
    h=8,
    warmup_cycles=20000,
    measure_cycles=60000,
    seeds=5,
    loads=tuple(round(0.05 * i, 2) for i in range(1, 21)),
)

#: Mid-size scale: an h=6 Dragonfly (876 routers, 5,256 nodes).  Large enough
#: that route-table cost matters, small enough for interactive sweeps.
LARGE = ExperimentScale(
    name="large",
    h=6,
    warmup_cycles=500,
    measure_cycles=1000,
    seeds=1,
    loads=(0.2, 0.5, 0.8),
)

#: System scale: an h=13 Dragonfly (339 groups, 8,814 routers, 114,582
#: nodes — a 10^5-endpoint machine).  Route columns are built per
#: destination on first touch (~2 bytes per source each), so construction
#: stays fast and memory bounded.  Cycle counts are
#: deliberately short: this scale exists for construction/warmup smoke runs
#: (see ``benchmarks/bench_scale.py`` and the CI ``scale-smoke`` job), not
#: for full sweeps under pure CPython.
SYSTEM = ExperimentScale(
    name="system",
    h=13,
    warmup_cycles=50,
    measure_cycles=100,
    seeds=1,
    # Light load: the smoke run checks construction + steady stepping, and
    # in-flight packet state (not route tables) dominates RSS at this scale.
    loads=(0.1,),
)

SCALES: Dict[str, ExperimentScale] = {
    "tiny": TINY,
    "small": SMALL,
    "paper": PAPER,
    "large": LARGE,
    "system": SYSTEM,
}


def get_scale(scale: str | ExperimentScale) -> ExperimentScale:
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError as exc:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(SCALES)}") from exc


# ---------------------------------------------------------------------------
# Configuration builders
# ---------------------------------------------------------------------------

@dataclass
class Series:
    """One labelled curve (or bar group) of a figure."""

    label: str
    builder: ConfigBuilder
    #: seed-averaged result of every point the sweep produced, in load order.
    results: List[SimulationResult] = field(default_factory=list)
    #: row of a bar figure this series belongs to (fig6/11: the buffer
    #: capacity, fig9: the VC arrangement); empty on curves and on reference
    #: bars that every row repeats.
    group: str = ""
    #: ``(load, seed, reason)`` of every job that produced no result.
    missing: List[Tuple[float, int, str]] = field(default_factory=list)

    def accepted(self) -> List[float]:
        return [r.accepted_load for r in self.results]


def base_config(
    scale: ExperimentScale,
    *,
    pattern: str = "uniform",
    algorithm: str = "min",
    vc_policy: str = "baseline",
    arrangement: VcArrangement | None = None,
    reactive: bool = False,
    buffer_organization: str = "static",
    damq_private_fraction: float = 0.75,
    vc_selection: str = "jsq",
    pb_sensing: str = "port",
    pb_min_credits_only: bool = False,
    speedup: int = 2,
    local_port_phits: int | None = None,
    global_port_phits: int | None = None,
    seed: int = 1,
    network: NetworkConfig | None = None,
) -> SimulationConfig:
    """Assemble a :class:`SimulationConfig` for one experimental point.

    ``network`` overrides the scale's default (Dragonfly) substrate, e.g.
    ``network=scale.network_for("hyperx")``.
    """
    if arrangement is None:
        arrangement = (
            VcArrangement.request_reply((2, 1), (2, 1))
            if reactive
            else VcArrangement.single_class(2, 1)
        )
    return SimulationConfig(
        network=network if network is not None else scale.network(),
        router=RouterConfig(
            buffer_organization=buffer_organization,
            damq_private_fraction=damq_private_fraction,
            speedup=speedup,
            local_port_phits=local_port_phits,
            global_port_phits=global_port_phits,
        ),
        routing=RoutingConfig(
            algorithm=algorithm,
            vc_policy=vc_policy,
            vc_selection=vc_selection,
            pb_sensing=pb_sensing,
            pb_min_credits_only=pb_min_credits_only,
        ),
        traffic=TrafficConfig(pattern=pattern, load=0.5, reactive=reactive),
        arrangement=arrangement,
        warmup_cycles=scale.warmup_cycles,
        measure_cycles=scale.measure_cycles,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Filling a figure's series from its sweep
# ---------------------------------------------------------------------------
#
# How a sweep executes — worker count, result store, probes, fault spec —
# is the keywords of the ``run_figure`` / ``run_sweep`` call that runs it.
# Results are bit-identical serial or pooled because every job owns its RNG.

def collect(entry: Series, outcome: SweepOutcome, label: str) -> None:
    """Fill ``entry`` from the jobs a finished sweep ran under ``label``.

    A point with a failed seed is left out of ``results``
    rather than averaged over fewer seeds; ``missing`` says which and why.
    """
    points = (outcome.point(label, load) for load in outcome.spec.loads)
    entry.results = [point for point in points if point is not None]
    entry.missing = outcome.missing(label)
