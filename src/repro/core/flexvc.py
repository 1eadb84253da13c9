"""FlexVC: flexible virtual-channel management (Section III of the paper).

FlexVC removes the strict "one VC per hop" order of distance-based deadlock
avoidance.  A packet may be forwarded into *any* VC whose index still leaves
room for an ascending safe path to the destination:

* **Safe hops** (Definition 1): the packet's whole intended remaining path
  fits, per link type, above its current buffer.  The routing relation then
  allows every VC from 0 up to ``n_t - remaining_hops_of_type_t`` — i.e. the
  higher-index VCs are *relegated to later steps of the path* but any lower
  VC is fair game, which is what mitigates head-of-line blocking and absorbs
  bursts.

* **Opportunistic hops** (Definition 2): the intended path itself does not
  fit (e.g. Valiant with only 3/2 Dragonfly VCs), but from the *next* buffer
  there is a safe minimal escape path.  The hop is then allowed into VCs up
  to ``n_t - 1 - escape_hops_of_type_t``, never below the VC currently
  holding the packet (``c_j1 >= c_j0``), and — enforced by the router, not
  the policy — only when the next buffer can hold the entire packet.

* **Request/reply traffic** (Section III-B): the per-type VC space is the
  concatenation ``[request VCs | reply VCs]``.  Requests are confined to the
  request prefix; replies may use the whole range, so the reply sub-sequence
  only needs to be dimensioned for minimal routing while non-minimal reply
  paths opportunistically borrow request VCs (the 3+2=5 and 5/3
  configurations of Tables II and IV).

* **Link-type restrictions** (Section III-C): all checks are done per link
  type, so the same code covers the Dragonfly (local/global) and generic
  diameter-2 networks (single type).
"""

from __future__ import annotations

from typing import Optional

from .arrangement import VcArrangement
from .link_types import HopSequence, LinkType, MessageClass, count_hops
from .vc_policy import HopContext, HopKind, VcPolicy, VcRange


class FlexVcPolicy(VcPolicy):
    """FlexVC buffer-management policy."""

    def evaluate(self, ctx: HopContext) -> tuple[Optional[VcRange], Optional[HopKind]]:
        if self.remaining_fits(
            ctx.intended_remaining, ctx.msg_class, ctx.input_type, ctx.input_vc
        ):
            return self._safe_range(ctx), HopKind.SAFE
        vc_range = self._opportunistic_range(ctx)
        if vc_range is None:
            return None, None
        return vc_range, HopKind.OPPORTUNISTIC

    # -- fit tests ---------------------------------------------------------------
    def class_ceiling(self, link_type: LinkType, msg_class: MessageClass) -> int:
        return self.arrangement.class_ceiling(link_type, msg_class)

    def remaining_fits(
        self,
        remaining: HopSequence,
        msg_class: MessageClass,
        input_type: Optional[LinkType],
        input_vc: int,
    ) -> bool:
        """Does ``remaining`` admit a strictly-increasing per-type assignment?

        The check counts hops per link type and compares against the class
        ceiling, additionally reserving the indices at or below ``input_vc``
        for the type of the buffer currently holding the packet (Definition 1:
        the safe path must ascend *from the current channel*).
        """
        for link_type in (LinkType.LOCAL, LinkType.GLOBAL):
            needed = count_hops(remaining, link_type)
            ceiling = self.class_ceiling(link_type, msg_class)
            if input_type == link_type and input_vc >= 0:
                ceiling -= input_vc + 1
            if needed > ceiling:
                return False
        return True

    def escape_fits(self, escape: HopSequence, msg_class: MessageClass) -> bool:
        """Does the escape path fit at all within the class ceilings?"""
        for link_type in (LinkType.LOCAL, LinkType.GLOBAL):
            if count_hops(escape, link_type) > self.class_ceiling(link_type, msg_class):
                return False
        return True

    # -- admissible VCs --------------------------------------------------------------
    def _safe_range(self, ctx: HopContext) -> VcRange:
        """VCs of a safe hop: any index leaving room, per type, for the rest
        of the intended path (``remaining_fits`` guarantees ``hi >= 0``)."""
        ceiling = self.class_ceiling(ctx.out_type, ctx.msg_class)
        return VcRange(0, ceiling - count_hops(ctx.intended_remaining, ctx.out_type))

    def _opportunistic_range(self, ctx: HopContext) -> Optional[VcRange]:
        # The escape (minimal continuation from the next router) must fit in
        # its entirety within the class ceilings ...
        if not self.escape_fits(ctx.escape_from_next, ctx.msg_class):
            return None
        ceiling = self.class_ceiling(ctx.out_type, ctx.msg_class)
        escape_of_type = count_hops(ctx.escape_from_next, ctx.out_type)
        # ... and strictly above the VC chosen for this hop.
        hi = ceiling - 1 - escape_of_type
        if hi < 0:
            return None
        # Definition 2: the next VC may not be lower than the one currently
        # holding the packet (same link type only; the cross-type order is
        # guaranteed by the escape requirement).
        lo = 0
        if ctx.input_type == ctx.out_type and ctx.input_vc >= 0:
            lo = ctx.input_vc
        if lo > hi:
            return None
        return VcRange(lo, hi)


def make_policy(name: str, arrangement: VcArrangement) -> VcPolicy:
    """Factory used by the simulation configuration layer.

    ``name`` is ``"baseline"`` (distance-based) or ``"flexvc"``.
    """
    from .baseline import DistanceBasedPolicy

    key = name.strip().lower()
    if key == "baseline":
        return DistanceBasedPolicy(arrangement)
    if key == "flexvc":
        return FlexVcPolicy(arrangement)
    raise ValueError(f"unknown VC policy {name!r}; expected 'baseline' or 'flexvc'")
