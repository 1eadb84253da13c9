"""Packet representation used by the cycle-level simulator."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from .core.link_types import MessageClass

#: process-global fallback id counter, used only for packets constructed
#: without an explicit ``pid`` (hand-built packets in tests and tools).
#: Simulation-generated packets draw from a per-simulation counter instead
#: (see :class:`repro.traffic.reactive.TrafficManager`), so back-to-back
#: ``Simulation`` runs in one process see identical pid sequences.
_packet_ids = itertools.count()


class RouteKind(IntEnum):
    """How a packet is (currently) being routed."""

    MINIMAL = 0
    VALIANT = 1


@dataclass(slots=True)
class Packet:
    """A virtual-cut-through packet.

    Packets move through the simulator as atomic units; their size in phits
    determines serialization delay on links and crossbars as well as buffer
    and credit occupancy.
    """

    src_node: int
    dst_node: int
    size_phits: int
    msg_class: MessageClass = MessageClass.REQUEST
    created_at: int = 0
    pid: int = field(default_factory=lambda: next(_packet_ids))

    # -- routing state -------------------------------------------------------
    #: destination router, resolved lazily on first routing plan (-1 until then).
    dst_router: int = -1
    route_kind: RouteKind = RouteKind.MINIMAL
    #: True once the injection-time routing decision (MIN vs Valiant) is made.
    route_decided: bool = False
    #: Valiant intermediate router (None until chosen / for minimal packets).
    intermediate_router: Optional[int] = None
    #: True once the packet has reached (or abandoned) its Valiant intermediate.
    intermediate_reached: bool = False
    #: True once PAR has taken (or declined) its in-transit decision.
    par_decided: bool = False
    #: number of network hops taken so far (excludes injection/ejection).
    hops: int = 0

    # -- VC accounting phase (distance-based slot alignment) -------------------
    #: reference-slot offsets (local, global) of the current routing phase,
    #: stored as two plain ints so routing-plan memo keys stay flat.
    phase_local: int = 0
    phase_global: int = 0
    #: hops taken within the current phase.
    phase_position: int = 0
    #: number of global hops traversed within the current phase (truthy once
    #: the first one is taken; topologies like HyperX have several per phase).
    phase_global_taken: int = 0

    # -- credit state ----------------------------------------------------------
    #: routing class under which the packet's current buffer credits were
    #: debited upstream (must be echoed on the credit return).
    credit_tag_minimal: bool = True

    # -- bookkeeping ---------------------------------------------------------------
    delivered_at: int = -1
    #: measurement epoch this packet counts toward (0 = outside every window;
    #: the default of 1 equals the first window's epoch, so hand-built
    #: packets behave like the legacy boolean ``measured=True`` stamp).
    measured: int = 1
    #: id of the request packet that triggered this reply (reactive traffic).
    in_reply_to: Optional[int] = None

    @property
    def is_minimal(self) -> bool:
        return self.route_kind == RouteKind.MINIMAL

    @property
    def latency(self) -> int:
        """End-to-end latency (generation to delivery), in cycles."""
        if self.delivered_at < 0:
            raise ValueError("packet not delivered yet")
        return self.delivered_at - self.created_at

    def mark_valiant(self, intermediate_router: int) -> None:
        """Switch the packet onto a Valiant path through ``intermediate_router``.

        Called from within a routing decision, i.e. before the plan being
        computed is cached, so no plan-cache invalidation is needed.
        """
        self.route_kind = RouteKind.VALIANT
        self.intermediate_router = intermediate_router
        self.intermediate_reached = False

    @property
    def phase_offsets(self) -> tuple[int, int]:
        """Reference-slot offsets (local, global) of the current phase."""
        return (self.phase_local, self.phase_global)

    def begin_phase(self, offsets: tuple[int, int]) -> None:
        """Start a new routing phase (e.g. the second minimal segment of Valiant)."""
        self.phase_local, self.phase_global = offsets
        self.phase_position = 0
        self.phase_global_taken = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "MIN" if self.is_minimal else f"VAL(via {self.intermediate_router})"
        return (
            f"Packet(#{self.pid} {self.src_node}->{self.dst_node} "
            f"{self.msg_class.name} {kind} size={self.size_phits})"
        )
