"""Minimal (MIN) oblivious routing."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.link_types import LinkType
from ..packet import Packet
from .base import _MEMO_CAP, _NO_PLAN, EjectionRequest, Plan, RoutingAlgorithm

if TYPE_CHECKING:  # pragma: no cover
    from ..router.router import Router


class MinimalRouting(RoutingAlgorithm):
    """Shortest-path routing: optimal under uniform traffic, pathological under
    adversarial patterns (the single inter-group link saturates)."""

    name = "min"

    # Minimal routing needs no injection-time or in-transit decisions: the
    # defaults of :class:`RoutingAlgorithm` already route every packet along
    # its minimal path.

    def plan(
        self,
        router: "Router",
        packet: Packet,
        input_type: Optional[LinkType],
        input_vc: int,
    ) -> Plan:
        """Hot-path specialization of :meth:`RoutingAlgorithm.plan`.

        MIN packets never carry Valiant/PAR state, so the generic method's
        decision hooks and detour branches are dead; dropping them keeps the
        per-head cost at a memo lookup.  Behaviour-identical to the base
        implementation (the route_decided stamp is preserved for parity).
        """
        here = router.router_id
        dst_router = packet.dst_router
        if dst_router < 0:
            dst_router = self.topology.router_of_node(packet.dst_node)
            packet.dst_router = dst_router
        if dst_router == here:
            eject_key = (packet.dst_node, packet.msg_class)
            ejection = self._ejection_memo.get(eject_key)
            if ejection is None:
                ejection = EjectionRequest(
                    node=packet.dst_node, msg_class=packet.msg_class
                )
                self._ejection_memo[eject_key] = ejection
            return ejection
        packet.route_decided = True
        phase_local = packet.phase_local
        phase_global = packet.phase_global
        phase_position = packet.phase_position
        phase_global_taken = packet.phase_global_taken
        if (0 <= phase_local < 16 and 0 <= phase_global < 16
                and 0 <= phase_position < 32
                and 0 <= phase_global_taken < 16 and -1 <= input_vc < 15):
            key = (here * self._key_routers + dst_router) * 2 + packet.msg_class
            key = key * 3 + (0 if input_type is None else input_type + 1)
            key = (key * 16 + input_vc + 1) * 16 + phase_local
            key = ((key * 16 + phase_global) * 32 + phase_position) * 16 \
                + phase_global_taken
        else:  # pragma: no cover - beyond any canonical reference shape
            key = (
                here, dst_router, packet.msg_class, input_type, input_vc,
                phase_local, phase_global, phase_position, phase_global_taken,
            )
        cached = self._plan_memo.get(key)
        if cached is None:
            self.plan_misses += 1
            direct = self._candidate_towards(
                router, packet, dst_router, input_type, input_vc, is_detour=False
            )
            cached = direct.alone if direct is not None else _NO_PLAN
            if len(self._plan_memo) >= _MEMO_CAP:
                self._plan_memo.clear()
            self._plan_memo[key] = cached
        return cached
