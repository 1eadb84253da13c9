"""Link types, hop sequences and reference paths.

Low-diameter networks classify their links into disjoint sets that are
traversed in a fixed order (Section II of the paper): local/global links in a
Dragonfly, per-dimension links in a Flattened Butterfly, a single class in
generic diameter-2 networks such as Slim Flies.  Deadlock avoidance assigns
virtual-channel indices *per link type*, so most of the FlexVC machinery
reasons about *hop-type sequences*: tuples of :class:`LinkType` describing the
remaining hops of a path.

This module provides the :class:`LinkType` enumeration, helpers to count hop
types, and the canonical *reference paths* used by the paper for the
Dragonfly and for generic diameter-2 networks (Tables I-IV).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, NamedTuple, Optional, Sequence


class LinkType(IntEnum):
    """Classification of a network link / hop.

    ``LOCAL`` and ``GLOBAL`` follow the Dragonfly terminology.  Topologies
    without link-type restrictions (generic diameter-2 networks) declare all
    their links as ``LOCAL``; topologies with two traversal stages (e.g. the
    two dimensions of a 2D Flattened Butterfly under DOR) map the first stage
    to ``LOCAL`` and the second to ``GLOBAL``.
    """

    LOCAL = 0
    GLOBAL = 1


class MessageClass(IntEnum):
    """Message class for protocol-deadlock avoidance (Section III-B)."""

    REQUEST = 0
    REPLY = 1


#: Convenient aliases used when writing hop sequences by hand.
L = LinkType.LOCAL
G = LinkType.GLOBAL

HopSequence = tuple[LinkType, ...]


def count_hops(seq: Iterable[LinkType], link_type: LinkType) -> int:
    """Number of hops of ``link_type`` in ``seq``."""
    return sum(1 for h in seq if h == link_type)


def hop_counts(seq: Iterable[LinkType]) -> tuple[int, int]:
    """Return ``(local_hops, global_hops)`` of a hop sequence."""
    n_local = 0
    n_global = 0
    for h in seq:
        if h == LinkType.LOCAL:
            n_local += 1
        else:
            n_global += 1
    return n_local, n_global


def sequence_str(seq: Sequence[LinkType]) -> str:
    """Human readable rendering, e.g. ``l-g-l`` for a Dragonfly MIN path."""
    if not seq:
        return "(empty)"
    return "-".join("l" if h == LinkType.LOCAL else "g" for h in seq)


# ---------------------------------------------------------------------------
# Canonical reference paths (Section II, "Routing or link-type restrictions")
# ---------------------------------------------------------------------------

#: Dragonfly minimal reference path: l0 - g1 - l2 (2 local VCs / 1 global VC).
#: VAL (l-g-l-l-g-l, 4/2) and PAR (l-l-g-l-l-g-l, 5/2) derive from it.
DRAGONFLY_MIN: HopSequence = (L, G, L)

#: Generic diameter-2 network (Slim Fly, adaptive Flattened Butterfly)
#: minimal reference path: 2 hops of a single link class (VAL 4, PAR 5).
DIAMETER2_MIN: HopSequence = (L, L)


class ReferencePhase(NamedTuple):
    """One routing phase (minimal segment) of a reference path."""

    #: ``(local, global)`` reference-slot offsets the phase starts at — what
    #: the routing layer hands ``Packet.begin_phase``.
    offsets: tuple[int, int]
    hops: HopSequence
    #: worst-case minimal continuation (Definition 2's escape) after each hop.
    escapes: tuple[HopSequence, ...]


def reference_phases(
    minimal: HopSequence,
    routing: str,
    worst_escape: Optional[HopSequence] = None,
    phase_ref: Optional[tuple[int, int]] = None,
) -> tuple[ReferencePhase, ...]:
    """Phases of ``routing``'s reference path on a network whose worst-case
    minimal path is ``minimal`` (Section II: l-g-l for the Dragonfly, l-l for
    a generic diameter-2 network).

    ``MIN`` is one minimal segment.  ``VAL`` adds a second (intermediate to
    destination) whose slots start ``phase_ref`` later — one segment's slot
    window, ``Topology.phase_ref``, by default the hop counts of ``minimal``.
    ``PAR`` prepends the pre-diversion minimal hop and starts the detour at
    slot ``(1, 0)``.  While a packet heads for its Valiant intermediate its
    escape is ``worst_escape``, the worst minimal continuation from an
    *arbitrary* router (``minimal`` unless transit routers can be farther
    from a destination than any source is, as Megafly spines are); on the
    last segment it is the actual remaining suffix.
    """
    if not minimal:
        raise ValueError("minimal reference sequence must not be empty")
    detour = (minimal if worst_escape is None else worst_escape,) * len(minimal)
    suffixes = tuple(minimal[i + 1:] for i in range(len(minimal)))
    ref_local, ref_global = hop_counts(minimal) if phase_ref is None else phase_ref
    key = routing.upper()
    if key == "MIN":
        return (ReferencePhase((0, 0), minimal, suffixes),)
    if key == "VAL":
        return (
            ReferencePhase((0, 0), minimal, detour),
            ReferencePhase((ref_local, ref_global), minimal, suffixes),
        )
    if key == "PAR":
        return (
            ReferencePhase((0, 0), minimal[:1], (minimal[1:],)),
            ReferencePhase((1, 0), minimal, detour),
            ReferencePhase((1 + ref_local, ref_global), minimal, suffixes),
        )
    raise ValueError(f"unknown routing {routing!r}; expected MIN, VAL or PAR")


def reference_path_for(minimal: HopSequence, routing: str) -> HopSequence:
    """Hop types of ``routing``'s whole reference path (phases concatenated)."""
    return tuple(
        hop for phase in reference_phases(minimal, routing) for hop in phase.hops
    )
