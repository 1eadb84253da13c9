"""Valiant (VAL) oblivious routing.

"Real" Valiant / Valiant-node routing: every packet is first sent minimally to
a uniformly random intermediate *router* and then minimally to its
destination.  This spreads any admissible traffic pattern uniformly over the
network at the cost of doubling the path length (and hence halving the
theoretical peak throughput).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..packet import Packet
from .base import RoutingAlgorithm

if TYPE_CHECKING:  # pragma: no cover
    from ..router.router import Router


class ValiantRouting(RoutingAlgorithm):
    """Oblivious Valiant-node routing."""

    name = "val"

    def decide_at_injection(self, router: "Router", packet: Packet) -> None:
        src_router = router.router_id
        dst_router = packet.dst_router  # never src_router: plan() ejects
        intermediate = self._pick_intermediate(packet, src_router, dst_router)
        packet.mark_valiant(intermediate)
