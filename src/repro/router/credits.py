"""Credit-based flow control with optional min/non-min split accounting.

Each output port keeps a :class:`CreditTracker`: a mirror of the downstream
input port's buffer organization (statically partitioned or DAMQ) plus a
:class:`~repro.core.mincred.PortOccupancyLedger` tagging every outstanding
credit with the routing class of its packet.  The mirror answers the virtual
cut-through admission question ("does VC ``v`` downstream have room for the
whole packet?"); the ledger provides the occupancy metrics used by Piggyback
congestion sensing, including the FlexVC-minCred variant that only counts
minimally-routed packets.
"""

from __future__ import annotations

from ..buffers.base import BufferOrganization
from ..core.mincred import PortOccupancyLedger


class CreditTracker:
    """Upstream view of a downstream input port's free space.

    Every output port debits (grant time) and credits (return time) through
    the methods below, via ``OutputPort.debit`` / ``credit_return``; the
    mirror keeps the router's ``_credit_free`` slab in step as it goes.
    """

    __slots__ = ("mirror", "ledger")

    def __init__(self, mirror: BufferOrganization) -> None:
        self.mirror = mirror
        self.ledger = PortOccupancyLedger(mirror.num_vcs)

    @property
    def num_vcs(self) -> int:
        return self.mirror.num_vcs

    # -- admission ---------------------------------------------------------------
    def can_send(self, vc: int, phits: int) -> bool:
        return self.mirror.can_accept(vc, phits)

    def free_for(self, vc: int) -> int:
        return self.mirror.free_for(vc)

    # -- mutations ----------------------------------------------------------------
    def debit(self, vc: int, phits: int, minimal: bool) -> None:
        """Consume credits when a packet is granted towards VC ``vc``."""
        self.mirror.allocate(vc, phits)
        self.ledger.add(vc, phits, minimal)

    def credit(self, vc: int, phits: int, minimal: bool) -> None:
        """Return credits when the downstream buffer frees the packet."""
        self.mirror.release(vc, phits)
        self.ledger.remove(vc, phits, minimal)

    # -- occupancy metrics (congestion sensing) ----------------------------------------
    def vc_occupancy(self, vc: int, minimal_only: bool = False) -> int:
        return self.ledger.vc_occupancy(vc, minimal_only)

    def port_occupancy(self, minimal_only: bool = False) -> int:
        return self.ledger.port_occupancy(minimal_only)

    def occupancy_metric(self, per_vc: bool, vc: int, minimal_only: bool) -> int:
        """Unified accessor for the four sensing variants of Figure 8."""
        if per_vc:
            return self.vc_occupancy(vc, minimal_only)
        return self.port_occupancy(minimal_only)
