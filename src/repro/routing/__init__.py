"""Routing algorithms: MIN, Valiant, PAR and Piggyback."""

from __future__ import annotations

import random

from ..config import RoutingConfig
from ..core.arrangement import VcArrangement
from ..core.vc_policy import VcPolicy
from ..core.vc_selection import VcSelection
from ..topology.base import Topology
from .base import CandidateHop, EjectionRequest, Plan, RoutingAlgorithm
from .minimal import MinimalRouting
from .par import ProgressiveAdaptiveRouting
from .piggyback import PiggybackRouting
from .route_table import RouteTable
from .valiant import ValiantRouting

_ALGORITHMS = {
    "min": MinimalRouting,
    "val": ValiantRouting,
    "par": ProgressiveAdaptiveRouting,
    "pb": PiggybackRouting,
}


def make_routing(
    topology: Topology,
    policy: VcPolicy,
    selection: VcSelection,
    config: RoutingConfig,
    arrangement: VcArrangement,
    rng: random.Random,
    route_table=None,
) -> RoutingAlgorithm:
    """Instantiate the routing algorithm named in ``config.algorithm``.

    ``route_table`` shares one :class:`RouteTable` across consumers; when
    omitted the algorithm builds its own.
    """
    try:
        cls = _ALGORITHMS[config.algorithm]
    except KeyError as exc:
        raise ValueError(f"unknown routing algorithm {config.algorithm!r}") from exc
    return cls(topology, policy, selection, config, arrangement, rng, route_table)


__all__ = [
    "RoutingAlgorithm",
    "CandidateHop",
    "EjectionRequest",
    "Plan",
    "MinimalRouting",
    "ValiantRouting",
    "ProgressiveAdaptiveRouting",
    "PiggybackRouting",
    "RouteTable",
    "make_routing",
]
