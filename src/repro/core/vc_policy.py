"""Virtual-channel policy interface.

A *VC policy* decides which virtual channels a packet may enter on its next
hop.  The distance-based baseline (Section II) admits exactly one VC per hop;
FlexVC (Section III) admits a whole range, bounded above by the escape-path
requirement.  Both are expressed through the same :class:`VcPolicy` interface
so routers, allocators and experiments are agnostic of the mechanism under
study.

The router supplies a :class:`HopContext` describing the hop about to be
taken; the policy answers with the inclusive range of admissible VC indices
(or ``None`` when the hop is not permitted at all, which a correctly
configured routing algorithm never requests).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .arrangement import VcArrangement
from .link_types import HopSequence, LinkType, MessageClass


class HopKind(Enum):
    """Classification of a hop under FlexVC (Definitions 1 and 2)."""

    SAFE = "safe"
    OPPORTUNISTIC = "opportunistic"
    FORBIDDEN = "forbidden"


@dataclass(frozen=True, slots=True)
class VcRange:
    """Inclusive range ``[lo, hi]`` of admissible VC indices for a hop."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"invalid VC range [{self.lo}, {self.hi}]")

    def __contains__(self, vc: int) -> bool:
        return self.lo <= vc <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return self.hi - self.lo + 1


@dataclass(slots=True)
class HopContext:
    """Everything a VC policy needs to know about the hop being evaluated.

    Attributes
    ----------
    msg_class:
        Request or reply.
    out_type:
        Link type of the output port about to be used.
    intended_remaining:
        Hop-type sequence of the packet's intended route from this hop
        (inclusive) to the destination router.
    escape_from_next:
        Hop-type sequence of the *minimal* path from the next router to the
        destination router — the safe escape of Definition 2.
    input_type:
        Link type of the input port currently holding the packet, or ``None``
        for packets still in an injection buffer.
    input_vc:
        VC index currently occupied (``-1`` at injection).
    phase_offsets:
        ``(local, global)`` reference-slot offsets of the packet's current
        routing phase — used only by the distance-based baseline to align
        hops onto the canonical reference path (e.g. the second minimal
        segment of a Valiant path starts at offsets ``(2, 1)``).
    phase_position:
        Hops already taken within the current phase.
    phase_global_taken:
        Number of global hops already traversed within the current phase
        (truthy after the first; used to discriminate the l0/l2-style local
        slots of a phase, and to order the successive global slots of
        topologies whose minimal paths take several global hops).
    """

    msg_class: MessageClass
    out_type: LinkType
    intended_remaining: HopSequence
    escape_from_next: HopSequence
    input_type: Optional[LinkType] = None
    input_vc: int = -1
    phase_offsets: tuple[int, int] = (0, 0)
    phase_position: int = 0
    phase_global_taken: int = 0

    def __post_init__(self) -> None:
        if not self.intended_remaining:
            raise ValueError("intended_remaining must contain at least the current hop")
        if self.intended_remaining[0] != self.out_type:
            raise ValueError(
                "first hop of intended_remaining must match out_type "
                f"({self.intended_remaining[0]!r} != {self.out_type!r})"
            )


class VcPolicy(ABC):
    """Common interface of the distance-based baseline and FlexVC.

    A policy is one pure function of the hop, :meth:`evaluate`; the routing
    layer memoizes its verdicts per :class:`HopContext`, and
    :func:`repro.core.feasibility.walk_reference_path` drives it along a
    reference path for config validation and Tables I-IV.
    """

    def __init__(self, arrangement: VcArrangement) -> None:
        self.arrangement = arrangement

    @abstractmethod
    def evaluate(self, ctx: HopContext) -> tuple[Optional[VcRange], Optional[HopKind]]:
        """Admissible VC range and classification of one hop.

        Returns ``(None, None)`` when the hop may enter no VC at all.
        """

    def allowed_vcs(self, ctx: HopContext) -> Optional[VcRange]:
        """Admissible output VC indices for the hop, or ``None`` if forbidden."""
        return self.evaluate(ctx)[0]

    def hop_kind(self, ctx: HopContext) -> HopKind:
        """Classify the hop as safe, opportunistic or forbidden."""
        return self.evaluate(ctx)[1] or HopKind.FORBIDDEN
