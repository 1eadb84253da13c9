"""Bernoulli traffic patterns: uniform (UN) and adversarial (ADV+i).

* **UN** — every generated packet targets a uniformly random node other than
  the source.  Minimal routing is optimal for this pattern.
* **ADV** — every packet targets a random node in the group ``offset`` groups
  ahead of the source's group (Section IV-B uses offset 1).  Groups are the
  topology's LOCAL-connected router sets (Dragonfly groups, HyperX/Flattened
  Butterfly dimension-0 rows, Megafly groups); under minimal routing all of a
  group's traffic funnels through its few global links towards the next
  group, so Valiant (or adaptive) routing is required.
"""

from __future__ import annotations

import random
from typing import Optional

from ..topology.base import Topology
from .base import TrafficGenerator


class UniformTraffic(TrafficGenerator):
    """Uniform random destinations (Bernoulli injection)."""

    name = "uniform"

    def destination_for(self, node: int, cycle: int) -> Optional[int]:
        destination = self.rng.randrange(self.num_nodes - 1)
        if destination >= node:
            destination += 1
        return destination


class AdversarialTraffic(TrafficGenerator):
    """ADV+offset traffic (random node in the group ``offset`` groups ahead)."""

    name = "adversarial"

    def __init__(
        self,
        num_nodes: int,
        load: float,
        packet_size: int,
        rng: random.Random,
        topology: Topology,
        offset: int = 1,
    ) -> None:
        super().__init__(num_nodes, load, packet_size, rng)
        groups = topology.router_groups()
        if len(groups) < 2:
            raise ValueError(
                "adversarial (+offset group) traffic needs a topology with at "
                "least two LOCAL-connected router groups"
            )
        if offset < 1 or offset >= len(groups):
            raise ValueError(
                f"offset must be in [1, num_groups), got {offset} "
                f"with {len(groups)} groups"
            )
        self.topology = topology
        self.offset = offset
        self.num_groups = len(groups)
        #: nodes attached to each group's routers, in node order.
        self._group_nodes = [
            [node for router in members for node in topology.nodes_of_router(router)]
            for members in groups
        ]
        if any(not nodes for nodes in self._group_nodes):
            raise ValueError("adversarial traffic needs nodes in every group")
        self._group_of_node = [0] * num_nodes
        for group_id, nodes in enumerate(self._group_nodes):
            for node in nodes:
                self._group_of_node[node] = group_id

    def destination_for(self, node: int, cycle: int) -> Optional[int]:
        target_group = (self._group_of_node[node] + self.offset) % self.num_groups
        candidates = self._group_nodes[target_group]
        return candidates[self.rng.randrange(len(candidates))]

