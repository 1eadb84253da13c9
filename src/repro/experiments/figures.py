"""The paper's evaluation (Figures 5-11) as one registry of sweeps.

Every figure is the same kind of experiment — panels (traffic pattern) x
series (a VC arrangement / policy / buffer organisation) x offered loads — so
each is one :class:`Figure` in :data:`FIGURES`: a *series function*
``(scale, pattern) -> [Series]`` plus its default patterns and loads.
:func:`run_figure` expands a whole figure into one
:class:`~repro.experiments.orchestrator.SweepSpec`, runs it with the execution
settings it is called with and returns the panels ``{pattern: [Series]}``,
which :func:`~repro.experiments.formatting.render_figure` prints, with the
sweep's outcome.  Absolute values differ from the paper because the
substrate is a scaled pure-Python simulator (see DESIGN.md), but the
comparative shapes — who wins, by roughly what factor, where crossovers
appear — are the reproduction target.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.arrangement import VcArrangement
from .orchestrator import SweepOutcome, SweepSpec, run_sweep
from .runner import ExperimentScale, Series, base_config, collect, get_scale
from .topologies import topology_series

# ---------------------------------------------------------------------------
# Series functions: (scale, pattern) -> the curves / bars of one panel
# ---------------------------------------------------------------------------

def _series(label: str, scale: ExperimentScale, group: str = "", **point) -> Series:
    """One series whose points are ``base_config(scale, **point)`` at each load."""
    return Series(label, partial(base_config, scale, **point), group=group)


def _oblivious_algorithm(pattern: str) -> str:
    """MIN for uniform patterns, Valiant for adversarial traffic (Section V-A)."""
    return "val" if pattern == "adversarial" else "min"


def oblivious_series(
    scale: ExperimentScale,
    pattern: str,
    *,
    speedup: int = 2,
    local_port_phits: Optional[int] = None,
    global_port_phits: Optional[int] = None,
) -> List[Series]:
    """The five comparison points of Figures 5, 6 and 11."""
    algorithm = _oblivious_algorithm(pattern)
    # The baseline runs FlexVC's smallest arrangement: 2/1 suffices for MIN,
    # Valiant under ADV needs at least 4/2.
    flexvc = ((2, 1), (4, 2), (8, 4)) if algorithm == "min" else ((4, 2), (8, 4))
    common = dict(
        pattern=pattern,
        algorithm=algorithm,
        speedup=speedup,
        local_port_phits=local_port_phits,
        global_port_phits=global_port_phits,
    )
    baseline = dict(
        vc_policy="baseline", arrangement=VcArrangement.single_class(*flexvc[0]), **common
    )
    return [
        _series("Baseline", scale, **baseline),
        _series("DAMQ 75%", scale, buffer_organization="damq", **baseline),
        *(
            _series(
                f"FlexVC {local}/{global_}VCs", scale, vc_policy="flexvc",
                arrangement=VcArrangement.single_class(local, global_), **common
            )
            for local, global_ in flexvc
        ),
    ]


def request_reply_series(scale: ExperimentScale, pattern: str) -> List[Series]:
    """The request-reply comparison points of Figure 7."""
    algorithm = _oblivious_algorithm(pattern)
    if algorithm == "min":
        splits = (
            ((2, 1), (2, 1)), ((2, 1), (3, 2)), ((3, 2), (2, 1)),
            ((2, 1), (4, 3)), ((3, 2), (3, 2)), ((4, 3), (2, 1)),
        )
    else:
        splits = (((4, 2), (4, 2)), ((5, 3), (5, 3)), ((6, 4), (4, 2)))
    common = dict(pattern=pattern, algorithm=algorithm, reactive=True)
    # The baseline runs the smallest split, which is also FlexVC's first.
    baseline = dict(
        vc_policy="baseline", arrangement=VcArrangement.request_reply(*splits[0]), **common
    )
    series = [
        _series("Baseline", scale, **baseline),
        _series("DAMQ", scale, buffer_organization="damq", **baseline),
    ]
    for request, reply in splits:
        arrangement = VcArrangement.request_reply(request, reply)
        label = (
            f"FlexVC {arrangement.total_local}/{arrangement.total_global}VCs"
            f"({request[0]}/{request[1]}+{reply[0]}/{reply[1]})"
        )
        series.append(_series(
            label, scale, vc_policy="flexvc", arrangement=arrangement, **common
        ))
    return series


def adaptive_series(scale: ExperimentScale, pattern: str) -> List[Series]:
    """The Piggyback comparison points of Figure 8 (request-reply traffic)."""
    reference_algorithm = _oblivious_algorithm(pattern)
    full = VcArrangement.request_reply((4, 2), (4, 2))
    common = dict(pattern=pattern, reactive=True)
    series = [
        _series(
            "MIN/VAL" if reference_algorithm == "val" else "MIN", scale,
            algorithm=reference_algorithm, vc_policy="baseline",
            arrangement=(
                full if reference_algorithm == "val"
                else VcArrangement.request_reply((2, 1), (2, 1))
            ),
            **common
        ),
    ]
    # PB needs the full 4/2+4/2 under the baseline; FlexVC runs it on 4/2+2/1.
    flexvc = dict(
        vc_policy="flexvc", arrangement=VcArrangement.request_reply((4, 2), (2, 1))
    )
    for label, variant in (
        ("PB - per {}", dict(vc_policy="baseline", arrangement=full)),
        ("PB FlexVC - per {}", flexvc),
        ("PB FlexVC - per {} minCred", dict(flexvc, pb_min_credits_only=True)),
    ):
        for sensing in ("vc", "port"):
            series.append(_series(
                label.format(sensing.upper()), scale,
                algorithm="pb", pb_sensing=sensing, **variant, **common
            ))
    return series


def capacity_series(
    scale: ExperimentScale, pattern: str, *, speedup: int = 2
) -> List[Series]:
    """Figures 6 and 11: the oblivious comparison points at every per-port
    buffer capacity of the scale (one bar group per capacity).

    The paper omits the smallest capacity for ADV (4/2 VCs do not fit
    usefully in 64/256 phits); all capacities are kept here, the smallest
    point being the most distorted one.
    """
    return [
        replace(entry, group=f"{local_cap}/{global_cap}")
        for local_cap, global_cap in scale.buffer_capacities
        for entry in oblivious_series(
            scale, pattern, speedup=speedup,
            local_port_phits=local_cap, global_port_phits=global_cap,
        )
    ]


def selection_series(scale: ExperimentScale, pattern: str) -> List[Series]:
    """Figure 9: every VC selection function on every request-reply VC split
    (one bar group per arrangement), beside the Baseline and DAMQ reference
    bars every group repeats (MIN routing)."""
    common = dict(pattern=pattern, algorithm="min", reactive=True)
    baseline = dict(
        vc_policy="baseline", arrangement=VcArrangement.request_reply((2, 1), (2, 1)),
        **common
    )
    series = [
        _series("Baseline", scale, **baseline),
        _series("DAMQ", scale, buffer_organization="damq", **baseline),
    ]
    for request, reply in (
        ((2, 1), (2, 1)), ((2, 1), (3, 2)), ((3, 2), (2, 1)),
        ((2, 1), (4, 3)), ((3, 2), (3, 2)), ((4, 3), (2, 1)),
    ):
        arrangement = VcArrangement.request_reply(request, reply)
        for selection in ("jsq", "highest", "lowest", "random"):
            series.append(_series(
                f"FlexVC {selection}", scale, group=arrangement.label(),
                vc_policy="flexvc", arrangement=arrangement, vc_selection=selection,
                **common
            ))
    return series


def reservation_series(scale: ExperimentScale, pattern: str) -> List[Series]:
    """Figure 10: DAMQ with 0-100% of the port memory privately reserved per
    VC (MIN routing, 128/512-phit ports).

    The 0% point is the configuration the paper reports as deadlocking.  Its
    ``deadlock_suspected`` flag does not show that: the flag needs 2,500
    cycles without a delivery, which a ``tiny`` run (900 cycles) cannot
    reach, and at ``small`` (uniform, load 1.0, seed 1) it read False at
    cycle 3,700 on a point that still held 4,583 packets after a 4,000-cycle
    drain.  ROADMAP item 21 replaces the flag with a per-window wedge
    verdict.
    """
    return [
        _series(
            f"reserved {int(fraction * 100)}%", scale,
            pattern=pattern, algorithm="min", vc_policy="baseline",
            arrangement=VcArrangement.single_class(2, 1), buffer_organization="damq",
            damq_private_fraction=fraction,
            local_port_phits=128, global_port_phits=512,
        )
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]


# ---------------------------------------------------------------------------
# The registry and its one driver
# ---------------------------------------------------------------------------

SeriesFunction = Callable[[ExperimentScale, str], List[Series]]


@dataclass(frozen=True)
class Figure:
    """One experiment: which series to run on which panels at which loads."""

    description: str
    series: SeriesFunction
    #: one panel (table) per traffic pattern.
    patterns: Tuple[str, ...] = ("uniform", "bursty", "adversarial")
    #: None = the scale's load grid (curves); ``(1.0,)`` = the paper's
    #: "maximum throughput" bar figures.
    loads: Optional[Tuple[float, ...]] = None


FIGURES: Dict[str, Figure] = {
    "fig5": Figure(
        "Latency/throughput vs offered load, oblivious routing", oblivious_series,
    ),
    "fig6": Figure(
        "Max throughput vs buffer capacity (speedup 2)", capacity_series,
        loads=(1.0,),
    ),
    "fig7": Figure(
        "Request-reply traffic with oblivious routing", request_reply_series,
    ),
    "fig8": Figure(
        "Piggyback adaptive routing, sensing variants", adaptive_series,
    ),
    "fig9": Figure(
        "Throughput vs VC selection function and VC count", selection_series,
        patterns=("uniform",), loads=(1.0,),
    ),
    "fig10": Figure(
        "DAMQ throughput vs per-VC private reservation", reservation_series,
        patterns=("uniform",),
    ),
    "fig11": Figure(
        "Max throughput without router speedup (speedup 1)",
        partial(capacity_series, speedup=1), loads=(1.0,),
    ),
    "hyperx": Figure(
        "FlexVC vs baseline on HyperX(3D): all routings x policies",
        partial(topology_series, topology="hyperx"), patterns=("uniform",),
    ),
    "megafly": Figure(
        "FlexVC vs baseline on Megafly/Dragonfly+: all routings x policies",
        partial(topology_series, topology="megafly"), patterns=("uniform",),
    ),
}


def figure_sweep(
    name: str,
    scale: str | ExperimentScale = "tiny",
    patterns: Optional[Sequence[str]] = None,
    loads: Optional[Iterable[float]] = None,
    seeds: Optional[int] = None,
) -> Tuple[Dict[str, List[Series]], SweepSpec]:
    """Expand figure ``name`` into its panels and the one sweep that runs them.

    No simulation happens here.  The spec holds one entry per series of
    every panel, in panel order, labelled ``pattern|group|series`` (the group
    only on bar figures), which is also the ``series`` a stored record's
    metadata carries.
    """
    figure = FIGURES[name]
    scale = get_scale(scale)
    if loads is None:
        loads = scale.loads if figure.loads is None else figure.loads
    panels = {
        pattern: figure.series(scale, pattern)
        for pattern in (figure.patterns if patterns is None else patterns)
    }
    spec = SweepSpec(
        series=[
            ("|".join(filter(None, (pattern, entry.group, entry.label))), entry.builder)
            for pattern, series in panels.items()
            for entry in series
        ],
        loads=list(loads),
        seeds=scale.seeds if seeds is None else max(1, seeds),
        name=name,
    )
    return panels, spec


def run_figure(
    name: str,
    scale: str | ExperimentScale = "tiny",
    patterns: Optional[Sequence[str]] = None,
    loads: Optional[Iterable[float]] = None,
    seeds: Optional[int] = None,
    **settings: Any,
) -> Tuple[Dict[str, List[Series]], SweepOutcome]:
    """Run figure ``name`` as one sweep: its filled panels and the outcome.

    ``patterns``, ``loads`` and ``seeds`` default to the figure's panels, the
    figure's (else the scale's) load grid and the scale's seed count.
    ``settings`` are :func:`~repro.experiments.orchestrator.run_jobs`'s
    keywords (``workers``, ``store``, ...), passed on untouched.  A point
    whose job failed is left out of its series' ``results`` and named on
    stderr; ``Series.missing`` keeps the reasons, and ``outcome.stats`` says
    how many points were simulated or served from the store.
    """
    panels, spec = figure_sweep(name, scale, patterns, loads, seeds)
    outcome = run_sweep(spec, **settings)
    entries = [entry for series in panels.values() for entry in series]
    for (label, _), entry in zip(spec.series, entries):
        collect(entry, outcome, label)
        for load, seed, reason in entry.missing:
            print(
                f"[{name}] missing: {label} load={load} seed={seed}: {reason}",
                file=sys.stderr,
            )
    return panels, outcome
