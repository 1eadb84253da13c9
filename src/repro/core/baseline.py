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

* a *global* hop uses the phase's single global slot;
* a *local* hop uses the phase's first local slot while the phase's global
  hop has not been traversed yet, and the second one afterwards;
* in networks without link-type restrictions the slot is simply the hop's
  position within the phase.

Requests use the request sub-sequence of the arrangement; replies use the
reply sub-sequence, offset past the request VCs (separate virtual networks,
as in Cray Cascade).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .arrangement import VcArrangement
from .link_types import LinkType, MessageClass
from .vc_policy import HopContext, HopKind, VcPolicy, VcRange


class PhaseVcTable:
    """Precomputed ``(phase_offsets, phase_position, link class) -> VC slot``.

    The distance-based baseline aligns every hop onto a reference-path slot
    through small integer arithmetic over the packet's phase state
    (:meth:`DistanceBasedPolicy.slot_for`).  All inputs are tiny bounded
    integers, so the whole function is enumerated once into a dense flat
    table and each per-hop evaluation becomes a single indexed lookup
    (inlined in ``slot_for``, which falls back to the closed form for inputs
    outside the enumerated bounds).

    Index layout (row-major):
    ``(((((g?*L + lo)*G + go)*T + gt)*P + pos)*2 + has_global_remaining)``
    with ``g?`` the output link class.
    """

    #: enumeration bounds: local/global offsets, globals-taken, position.
    MAX_OFFSET = 8
    MAX_TAKEN = 8
    MAX_POSITION = 16

    #: process-wide memo of ``slot_fn -> PhaseVcTable`` (see :meth:`shared`).
    _SHARED: Dict[object, "PhaseVcTable"] = {}

    @classmethod
    def shared(cls, slot_fn: Callable[..., int]) -> "PhaseVcTable":
        """Memoized table for ``slot_fn`` (one enumeration per process).

        The table is a pure function of ``slot_fn``; every
        :class:`DistanceBasedPolicy` instance uses the same static closed
        form, so enumerating the ~65k-entry table once per *simulation*
        (the pre-cache behaviour) wasted several milliseconds of every sweep
        job.  Keyed by the underlying function (bound methods are unwrapped
        via ``__func__``), so a different closed form — e.g. a subclass
        override, whether static or a plain method — gets exactly one table
        per class, never one per policy instance.

        Contract: the closed form must be *pure in its arguments* — the
        whole premise of enumerating it into a table.  An override that
        reads per-instance state would be shared per class here and must
        build its table with ``PhaseVcTable(fn)`` directly instead.
        """
        key = getattr(slot_fn, "__func__", slot_fn)
        table = cls._SHARED.get(key)
        if table is None:
            table = cls._SHARED[key] = cls(slot_fn)
        return table

    def __init__(self, slot_fn: Callable[..., int]) -> None:
        L = G = self.MAX_OFFSET
        T = self.MAX_TAKEN
        P = self.MAX_POSITION
        table: List[int] = []
        for out_is_global in (0, 1):
            for lo in range(L):
                for go in range(G):
                    for gt in range(T):
                        for pos in range(P):
                            for has_global in (0, 1):
                                table.append(
                                    slot_fn(out_is_global, lo, go, gt, pos,
                                            has_global)
                                )
        self._table = table


class DistanceBasedPolicy(VcPolicy):
    """Classic distance-based deadlock avoidance with one fixed VC per hop."""

    def __init__(self, arrangement: VcArrangement) -> None:
        super().__init__(arrangement)
        # Dense precomputed slot table (see PhaseVcTable): slot_for becomes
        # a single indexed lookup for in-bounds phase state.  The table is a
        # pure function of the (static) closed form, so it is built once per
        # process and shared by every policy instance.
        self._slot_table = PhaseVcTable.shared(self._slot_closed_form)
        #: interned VcRange singletons per slot VC (ranges here are always
        #: single-VC; construction of the frozen dataclass is not free).
        # devtools: unbounded-ok(keyed by slot VC index: at most num_vcs entries)
        self._range_cache: dict[int, VcRange] = {}

    # -- slot computation -----------------------------------------------------
    @staticmethod
    def _slot_closed_form(out_is_global: int, local_offset: int,
                          global_offset: int, globals_taken: int,
                          position: int, has_global_remaining: int) -> int:
        """Closed-form slot assignment over plain ints (table generator)."""
        if out_is_global:
            return global_offset + globals_taken
        if has_global_remaining or globals_taken:
            locals_taken = position - globals_taken
            if globals_taken:
                return local_offset + max(locals_taken, 1)
            return local_offset + locals_taken
        return local_offset + position

    def slot_for(self, ctx: HopContext) -> int:
        """Reference slot (within the packet's virtual network) for this hop.

        Slots align hops onto the phase's canonical reference segment: global
        hops occupy the phase's global slots in traversal order; local hops
        use the pre-global local slots while no global hop has been taken and
        the post-global slots (which start after the single pre-global local
        slot of every supported reference shape) afterwards.  For the
        Dragonfly/Flattened-Butterfly shapes (at most one global hop, at most
        one local hop on each side of it) this reduces exactly to the
        l0/g1/l2 assignment of Section II.

        The arithmetic is precomputed into ``self._slot_table`` — the hop
        evaluates as one dense-table index (inlined here); out-of-bounds
        phase state (never reached by the canonical reference shapes) falls
        back to the closed form.
        """
        local_offset, global_offset = ctx.phase_offsets
        globals_taken = int(ctx.phase_global_taken)
        position = ctx.phase_position
        out_is_global = 1 if ctx.out_type == LinkType.GLOBAL else 0
        has_global = 1 if (
            LinkType.GLOBAL in ctx.intended_remaining
        ) else 0
        if (0 <= local_offset < 8 and 0 <= global_offset < 8
                and 0 <= globals_taken < 8 and 0 <= position < 16):
            index = (((out_is_global * 8 + local_offset) * 8 + global_offset)
                     * 8 + globals_taken) * 16 + position
            return self._slot_table._table[index * 2 + has_global]
        return self._slot_closed_form(
            out_is_global, local_offset, global_offset, globals_taken,
            position, has_global,
        )

    def _class_offset(self, link_type: LinkType, msg_class: MessageClass) -> int:
        """Index of the first VC of the packet's virtual network."""
        if msg_class == MessageClass.REPLY:
            return self.arrangement.request_count(link_type)
        return 0

    def _subsequence_size(self, link_type: LinkType, msg_class: MessageClass) -> int:
        if msg_class == MessageClass.REPLY and self.arrangement.is_reactive:
            return self.arrangement.reply_count(link_type)
        return self.arrangement.request_count(link_type)

    # -- VcPolicy interface -----------------------------------------------------
    def allowed_vcs(self, ctx: HopContext) -> Optional[VcRange]:
        slot = self.slot_for(ctx)
        size = self._subsequence_size(ctx.out_type, ctx.msg_class)
        if slot >= size:
            return None
        vc = self._class_offset(ctx.out_type, ctx.msg_class) + slot
        cached = self._range_cache.get(vc)
        if cached is None:
            cached = self._range_cache[vc] = VcRange(vc, vc)
        return cached

    def evaluate(self, ctx: HopContext):
        """Combined allowed_vcs + hop_kind with one slot computation."""
        slot = self.slot_for(ctx)
        size = self._subsequence_size(ctx.out_type, ctx.msg_class)
        if slot >= size:
            return None, None
        vc = self._class_offset(ctx.out_type, ctx.msg_class) + slot
        cached = self._range_cache.get(vc)
        if cached is None:
            cached = self._range_cache[vc] = VcRange(vc, vc)
        needed_local = 0
        needed_global = 0
        for hop in ctx.intended_remaining:
            if hop == LinkType.LOCAL:
                needed_local += 1
            else:
                needed_global += 1
        if (needed_local > self._subsequence_size(LinkType.LOCAL, ctx.msg_class)
                or needed_global
                > self._subsequence_size(LinkType.GLOBAL, ctx.msg_class)):
            return cached, HopKind.FORBIDDEN
        return cached, HopKind.SAFE

    def hop_kind(self, ctx: HopContext) -> HopKind:
        # The baseline only admits hops whose entire remaining path fits the
        # per-class sub-sequence; there is no opportunistic mode.
        slot = self.slot_for(ctx)
        size = self._subsequence_size(ctx.out_type, ctx.msg_class)
        if slot >= size:
            return HopKind.FORBIDDEN
        needed_local = 0
        needed_global = 0
        for hop in ctx.intended_remaining:
            if hop == LinkType.LOCAL:
                needed_local += 1
            else:
                needed_global += 1
        if needed_local > self._subsequence_size(LinkType.LOCAL, ctx.msg_class):
            return HopKind.FORBIDDEN
        if needed_global > self._subsequence_size(LinkType.GLOBAL, ctx.msg_class):
            return HopKind.FORBIDDEN
        return HopKind.SAFE


def distance_based(arrangement: VcArrangement) -> DistanceBasedPolicy:
    """Convenience constructor mirroring :func:`repro.core.flexvc.flexvc`."""
    return DistanceBasedPolicy(arrangement)
