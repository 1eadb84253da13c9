"""Distance-based (fixed per-hop VC) baseline policy.

This is the deadlock-avoidance mechanism the paper compares against
(Guenther-style increasing VC order, Section II): every hop of the reference
path is bound to exactly one virtual channel.  Minimal traffic therefore only
ever touches the lowest-indexed VCs, Valiant traffic walks through the whole
sequence, and a hop never has more than a single admissible buffer — which is
precisely the source of head-of-line blocking that FlexVC removes.

Slot assignment
---------------
Hops are aligned onto the canonical reference path of the packet's routing
phase.  A routing phase is one minimal segment (the whole path for MIN, each
of the two minimal segments of a Valiant path, the pre-diversion hop plus the
two segments for PAR).  Each phase owns a contiguous window of reference
slots, communicated by the routing algorithm through
:attr:`HopContext.phase_offsets`:

* a *global* hop uses the phase's global slots in traversal order;
* a *local* hop uses the phase's pre-global local slots while no global hop
  has been traversed yet, and the post-global ones (which start after the
  single pre-global local slot of every supported reference shape)
  afterwards;
* in networks without link-type restrictions the slot is simply the hop's
  position within the phase.

For the Dragonfly/Flattened-Butterfly shapes (at most one global hop, at most
one local hop on each side of it) this is exactly the l0/g0/l1 assignment of
Section II; :func:`repro.core.feasibility.walk_reference_path` computes the
whole sequence (``l0 g0 l1 | l2 g1 l3`` for Dragonfly VAL).

Requests use the request sub-sequence of the arrangement; replies use the
reply sub-sequence, offset past the request VCs (separate virtual networks,
as in Cray Cascade).
"""

from __future__ import annotations

from typing import Optional

from .link_types import LinkType, MessageClass, hop_counts
from .vc_policy import HopContext, HopKind, VcPolicy, VcRange


class DistanceBasedPolicy(VcPolicy):
    """Classic distance-based deadlock avoidance with one fixed VC per hop."""

    @staticmethod
    def slot_for(ctx: HopContext) -> int:
        """Reference slot (within the packet's virtual network) for this hop."""
        globals_taken = int(ctx.phase_global_taken)
        if ctx.out_type == LinkType.GLOBAL:
            return ctx.phase_offsets[1] + globals_taken
        locals_taken = ctx.phase_position - globals_taken
        return ctx.phase_offsets[0] + (max(locals_taken, 1) if globals_taken else locals_taken)

    def _class_offset(self, link_type: LinkType, msg_class: MessageClass) -> int:
        """Index of the first VC of the packet's virtual network."""
        if msg_class == MessageClass.REPLY:
            return self.arrangement.request_count(link_type)
        return 0

    def _subsequence_size(self, link_type: LinkType, msg_class: MessageClass) -> int:
        if msg_class == MessageClass.REPLY and self.arrangement.is_reactive:
            return self.arrangement.reply_count(link_type)
        return self.arrangement.request_count(link_type)

    def evaluate(self, ctx: HopContext) -> tuple[Optional[VcRange], Optional[HopKind]]:
        slot = self.slot_for(ctx)
        if slot >= self._subsequence_size(ctx.out_type, ctx.msg_class):
            return None, None
        vc = self._class_offset(ctx.out_type, ctx.msg_class) + slot
        # There is no opportunistic mode: a hop whose own slot exists but
        # whose remaining path overflows the virtual network is FORBIDDEN.
        needed_local, needed_global = hop_counts(ctx.intended_remaining)
        fits = (
            needed_local <= self._subsequence_size(LinkType.LOCAL, ctx.msg_class)
            and needed_global <= self._subsequence_size(LinkType.GLOBAL, ctx.msg_class)
        )
        return VcRange(vc, vc), HopKind.SAFE if fits else HopKind.FORBIDDEN
