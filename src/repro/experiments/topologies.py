"""Cross-topology sweep series: the FlexVC claims on *any* registered network.

The paper pitches FlexVC as a mechanism for any low-diameter network but only
evaluates Dragonfly and Flattened Butterfly.  This module runs the same
baseline-vs-FlexVC comparison, under every routing algorithm, on any topology
registered with :data:`repro.topology.TOPOLOGIES` — ``FIGURES`` binds
:func:`topology_series` to ``hyperx`` and ``megafly``::

    python -m repro.experiments run hyperx megafly --scale tiny --workers 4

Each figure is a load sweep with one series per ``routing/policy`` pair
(MIN/VAL/PAR/PB x baseline/FlexVC).  VC arrangements are not hard-coded per
topology: for each pair the *smallest feasible* arrangement is picked from a
ladder by asking :meth:`SimulationConfig.validate` — i.e. by the same
topology-declared reference-path machinery the simulator itself uses, so a
newly registered topology gets a correct sweep for free.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from ..config import NetworkConfig, RoutingConfig, SimulationConfig, TrafficConfig
from ..core.arrangement import VcArrangement
from .runner import ExperimentScale, Series, base_config

#: (local, global) candidate ladder, ascending in total buffer cost.
ARRANGEMENT_LADDER: tuple[tuple[int, int], ...] = (
    (2, 1), (2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (4, 4),
    (5, 3), (5, 4), (6, 4), (8, 4),
)

ROUTINGS = ("min", "val", "par", "pb")
POLICIES = ("baseline", "flexvc")


def minimal_feasible_arrangement(
    network: NetworkConfig,
    algorithm: str,
    vc_policy: str,
    *,
    reactive: bool = False,
) -> VcArrangement:
    """Smallest arrangement of the ladder that validates for the configuration."""
    last_error: Optional[Exception] = None
    for local, global_ in ARRANGEMENT_LADDER:
        arrangement = (
            VcArrangement.request_reply((local, global_), (local, global_))
            if reactive
            else VcArrangement.single_class(local, global_)
        )
        candidate = SimulationConfig(
            network=network,
            routing=RoutingConfig(algorithm=algorithm, vc_policy=vc_policy),
            arrangement=arrangement,
            traffic=TrafficConfig(reactive=reactive),
        )
        try:
            candidate.validate()
            return arrangement
        except ValueError as exc:
            last_error = exc
    raise ValueError(
        f"no feasible arrangement in the ladder for {algorithm}/{vc_policy} "
        f"on {network.topology}"
    ) from last_error


def topology_series(
    scale: ExperimentScale, pattern: str, *, topology: str
) -> List[Series]:
    """One series per routing/policy pair on ``topology``."""
    network = scale.network_for(topology)
    series: List[Series] = []
    for routing in ROUTINGS:
        for policy in POLICIES:
            arrangement = minimal_feasible_arrangement(network, routing, policy)
            label = (
                f"{routing.upper()} {'FlexVC' if policy == 'flexvc' else 'Baseline'} "
                f"{arrangement.request_local}/{arrangement.request_global}VCs"
            )
            series.append(
                Series(
                    label,
                    partial(
                        base_config, scale, pattern=pattern, algorithm=routing,
                        vc_policy=policy, arrangement=arrangement, network=network,
                    ),
                )
            )
    return series
