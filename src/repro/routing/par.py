"""Progressive Adaptive Routing (PAR) — in-transit adaptive routing.

PAR (Jiang, Kim & Dally) starts every packet on its minimal path and may
switch it to a Valiant path after a minimal hop, once better congestion
information is available.  The paper provisions 5/2 VCs for PAR under
distance-based deadlock avoidance (reference path l0-l1-g2-l3-l4-g5-l6) and
shows in Table III how FlexVC supports it opportunistically with as few as
3/2 VCs; its simulation results are omitted from the paper "for brevity", so
PAR here is exercised by tests and examples rather than by a figure
benchmark.

Decision rule: when the packet reaches its second router (or immediately at
injection when the source router already owns the minimal global link), PAR
compares the local credit occupancy of the minimal continuation against a
candidate Valiant continuation, UGAL-style, and diverts when the minimal
queue looks congested.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.link_types import LinkType
from ..packet import Packet, RouteKind
from .base import RoutingAlgorithm

if TYPE_CHECKING:  # pragma: no cover
    from ..router.router import Router


class ProgressiveAdaptiveRouting(RoutingAlgorithm):
    """In-transit adaptive routing with a single MIN->VAL diversion point."""

    name = "par"

    def decide_at_injection(self, router: "Router", packet: Packet) -> None:
        # PAR normally waits for one minimal hop; if the source router already
        # owns the minimal global link there is no earlier decision point, so
        # it decides right away (equivalent to UGAL-L at injection).
        here = router.router_id
        first_hop = self.route.column(packet.dst_router).next_port(here)
        if first_hop is None:
            packet.par_decided = True
            return
        wiring = self.wiring
        if wiring.link_type[here * wiring.ports_per_router + first_hop] == LinkType.GLOBAL:
            self._evaluate(router, packet)

    def maybe_divert_in_transit(self, router: "Router", packet: Packet) -> None:
        if packet.par_decided or packet.hops == 0:
            return
        if packet.dst_router == router.router_id:
            packet.par_decided = True
            return
        # Only divert while the packet is still routed minimally and has not
        # yet crossed a global link.
        if packet.route_kind == RouteKind.VALIANT or packet.phase_global_taken:
            packet.par_decided = True
            return
        self._evaluate(router, packet)

    # -- decision -----------------------------------------------------------
    def _evaluate(self, router: "Router", packet: Packet) -> None:
        packet.par_decided = True
        dst_router = packet.dst_router
        intermediate = self._pick_intermediate(packet, router.router_id, dst_router)
        if self._min_queue_longer(router, packet, intermediate):
            packet.mark_valiant(intermediate)
            # The pre-diversion minimal hops consumed the first reference slot;
            # the Valiant detour starts at the next slot window.
            if packet.hops > 0:
                packet.begin_phase((min(packet.hops, 1), 0))
                packet.intermediate_reached = False
