"""Synthetic traffic: UN, ADV, BURSTY-UN and reactive (request-reply) wrappers."""

from __future__ import annotations

import random

from ..config import TrafficConfig
from ..topology.base import Topology
from .base import TrafficGenerator
from .bursty import BurstyUniformTraffic
from .patterns import AdversarialTraffic, UniformTraffic
from .reactive import TrafficManager


def make_generator(
    config: TrafficConfig,
    topology: Topology,
    rng: random.Random,
) -> TrafficGenerator:
    """Instantiate the traffic generator named in ``config.pattern``.

    For reactive (request-reply) traffic the request generation rate is half
    the configured offered load: every consumed request triggers a reply of
    the same size, so requests plus replies together equal ``config.load``
    phits/node/cycle — which keeps the offered/accepted load axes directly
    comparable between the oblivious (Figure 5) and request-reply (Figures 7
    and 8) experiments, as in the paper.
    """
    num_nodes = topology.num_nodes
    load = config.load / 2 if config.reactive else config.load
    if config.pattern == "uniform":
        return UniformTraffic(num_nodes, load, config.packet_size, rng)
    if config.pattern == "bursty":
        return BurstyUniformTraffic(
            num_nodes, load, config.packet_size, rng, config.burst_length
        )
    if config.pattern == "adversarial":
        return AdversarialTraffic(
            num_nodes, load, config.packet_size, rng, topology,
            config.adversarial_offset,
        )
    raise ValueError(f"unknown traffic pattern {config.pattern!r}")


__all__ = [
    "TrafficGenerator",
    "UniformTraffic",
    "AdversarialTraffic",
    "BurstyUniformTraffic",
    "TrafficManager",
    "make_generator",
]
