"""Piggyback (PB) source-adaptive routing with remote congestion sensing.

PB (Jiang, Kim & Dally, ISCA 2009) is the source-adaptive mechanism evaluated
in Section V-C.  Every router measures the credit occupancy of its global
ports, marks as *saturated* those whose occupancy exceeds the router's average
by 50%, and piggybacks these bits to the other routers of its group (the
topology's LOCAL-connected router set — a Dragonfly group, a HyperX
dimension-0 row, a Megafly leaf/spine group).  At injection, the source
router combines the saturation bit of the first global link on the minimal
path with a local UGAL-style credit comparison to decide between the minimal
path and a Valiant detour.

Everything PB adds to the network is built here, by :meth:`bind_routers`.
The first global link is walked off the route column the decision already
reads (:func:`first_global_link`); its bit is only available when a router
of the source's own group owns it (always true in a Dragonfly, where it is
the classic "gateway router"), so no code here depends on the topology.

Sensing variants (Figure 8):

* **per-port** — the saturation metric is the total occupancy of all VCs of
  the global port;
* **per-VC** — only the first VC of the port (the VC minimal traffic uses
  under distance-based management; with request-reply traffic, the first VC
  of each sub-path) is considered;
* **minCred** (``pb_min_credits_only``) — FlexVC-minCred: only credits held by
  minimally-routed packets are counted (each output port's
  ``minimal_phits``), restoring the pattern-identification ability that
  FlexVC's buffer sharing blurs.

All four read :meth:`OutputPort.occupancy_metric
<repro.router.ports.OutputPort.occupancy_metric>`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from ..core.link_types import LinkType, MessageClass
from ..packet import Packet
from ..router.saturation import SaturationBoard
from ..topology.base import Wiring
from .base import RoutingAlgorithm
from .route_table import RouteColumn

if TYPE_CHECKING:  # pragma: no cover
    from ..router.router import Router


def first_global_link(wiring: Wiring, column: RouteColumn,
                      src: int) -> Optional[Tuple[int, int]]:
    """``(owning router, global-port index)`` of the first GLOBAL hop on
    ``src``'s path in ``column``, or None when the path stays on LOCAL links.

    Follows the column's next ports from ``src`` and stops at the first
    GLOBAL slot: on a pristine minimal path that is at most one local hop on
    every registered topology (a fault detour may add hops).
    """
    per_router = wiring.ports_per_router
    current = src
    for _ in range(len(column.ports)):
        port = column.next_port(current)
        if port is None:
            return None
        slot = current * per_router + port
        if wiring.link_type[slot] == LinkType.GLOBAL:
            return current, wiring.global_index[slot]
        current = wiring.neighbor[slot]
    raise RuntimeError(f"minimal route {src}->{column.dst} does not converge")


class PiggybackRouting(RoutingAlgorithm):
    """UGAL-style source-adaptive routing driven by piggybacked saturation bits."""

    name = "pb"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: per-VC sensing of request-reply traffic keeps one board value per
        #: message class (the first VC of each sub-path); otherwise class 0.
        self._per_class = (self.config.pb_sensing == "vc"
                           and self.arrangement.is_reactive)
        #: saturation board of every group that owns global links, by group
        #: id (filled by :meth:`bind_routers`).
        self._boards: Dict[int, SaturationBoard] = {}

    # -- sensing --------------------------------------------------------------
    def sensing_vc(self, msg_class: MessageClass, link_type: LinkType) -> int:
        """First VC of the message class's sub-path on ``link_type`` ports
        (per-VC sensing): a reply reads the first reply VC, or the last VC
        where the link type carries no reply VC of its own."""
        arrangement = self.arrangement
        if msg_class == MessageClass.REPLY and arrangement.is_reactive:
            return min(arrangement.request_count(link_type),
                       arrangement.total(link_type) - 1)
        return 0

    def bind_routers(self, routers: Sequence["Router"]) -> None:
        """Give every router group a shared saturation board.

        Groups are the topology's LOCAL-connected router sets; each board is
        sized to the group's widest router.  A group without global links
        (e.g. a single-dimension HyperX) carries none and routes minimally.
        A boarded group's routers that own global ports post to it through
        ``Router.post_sensing``; readers need nothing (DESIGN §2).
        """
        topo = self.topology
        for group_id, members in enumerate(topo.router_groups()):
            width = max(topo.num_global_ports(router) for router in members)
            if width:
                self._boards[group_id] = SaturationBoard(
                    positions=len(members), global_ports=width, classes=2,
                    saturation_factor=self.config.pb_saturation_factor,
                )
        for router in routers:
            group_id, position = topo.group_slot(router.router_id)
            board = self._boards.get(group_id)
            if board is not None:
                router.post_sensing = self._poster(router, board, position)

    def _poster(self, router: "Router", board: SaturationBoard,
                position: int) -> Optional[Callable[[], None]]:
        """``router``'s post of its global ports' occupancy to ``board``, or
        None when it owns none (a Megafly leaf only reads its board)."""
        wiring = self.wiring
        base = router.router_id * wiring.ports_per_router
        global_ports = [
            (op, wiring.global_index[base + port])
            for port, op in sorted(router.output_ports.items())
            if op.link_type == LinkType.GLOBAL
        ]
        if not global_ports:
            return None
        posts = [
            (op, gport, int(msg_class),
             self._sensing_args(self.sensing_vc(msg_class, LinkType.GLOBAL)))
            for msg_class in MessageClass
            if msg_class == MessageClass.REQUEST or self._per_class
            for op, gport in global_ports
        ]

        def post() -> None:
            for op, gport, class_index, args in posts:
                board.post(position, gport, class_index,
                           op.occupancy_metric(*args))

        return post

    def _min_global_saturated(self, router: "Router", packet: Packet,
                              dst_col: RouteColumn) -> bool:
        """Saturation bit of the first global link on the packet's minimal path."""
        topo = self.topology
        src_group, _ = topo.group_slot(router.router_id)
        board = self._boards.get(src_group)
        if board is None:
            return False
        link = first_global_link(self.wiring, dst_col, router.router_id)
        if link is None:
            return False  # all-local path: no global link to protect
        owner, gport = link
        owner_group, owner_position = topo.group_slot(owner)
        if owner_group != src_group:
            # The minimal path enters its first global link outside the
            # source's group: no piggybacked information is available.
            return False
        class_index = int(packet.msg_class) if self._per_class else 0
        return board.is_saturated(owner_position, gport, class_index)

    # -- injection decision ---------------------------------------------------------
    def decide_at_injection(self, router: "Router", packet: Packet) -> None:
        src_router = router.router_id
        dst_router = packet.dst_router  # never src_router: plan() ejects
        # One column view serves the sequence test and the first-global walk.
        dst_col = self.route.column(dst_router)
        if LinkType.GLOBAL not in dst_col.hop_sequence(src_router):
            # Intra-group traffic: always minimal (no global link to protect).
            return
        intermediate = self._pick_intermediate(packet, src_router, dst_router)
        if (self._min_queue_longer(router, packet, intermediate)
                or self._min_global_saturated(router, packet, dst_col)):
            packet.mark_valiant(intermediate)
