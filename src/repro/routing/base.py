"""Routing algorithm interface and shared forwarding machinery.

A routing algorithm answers one question per head packet per router: *where
should this packet go next, and which virtual channels may it use?*  The
answer is a prioritized list of :class:`CandidateHop` objects (or an
:class:`EjectionRequest` when the packet has reached its destination router).

The shared machinery in :class:`RoutingAlgorithm` handles everything that is
common to MIN, Valiant, PAR and Piggyback:

* computing the intended remaining hop-type sequence and the minimal escape
  path from the next router (the inputs of the VC policy);
* tracking the packet's routing *phase* so the distance-based baseline can
  align hops onto its reference path;
* offering the safe escape (minimal continuation) as a fallback candidate for
  opportunistic hops, per Section III-A ("packets revert to the corresponding
  safe path as an escape path" when the opportunistic buffer has no room).

Concrete algorithms only implement the decision hooks: what to do at
injection (:meth:`decide_at_injection`) and, for in-transit adaptive routing,
whether to divert mid-path (:meth:`maybe_divert_in_transit`).
"""

from __future__ import annotations

import random
from abc import ABC
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from ..config import RoutingConfig
from ..core.arrangement import VcArrangement
from ..core.link_types import LinkType, MessageClass
from ..core.vc_policy import HopContext, HopKind, VcPolicy, VcRange
from ..core.vc_selection import VcSelection
from ..packet import Packet, RouteKind
from ..topology.base import LINK_TYPES, Topology
from .route_table import RouteTable

if TYPE_CHECKING:  # pragma: no cover
    from ..router.router import Router

#: bound on the plan and hop memo dictionaries.  The first-level plan memo is
#: keyed by the (here, dst, phase-state) situations actually traversed —
#: effectively O(n²) under uniform traffic at 10^5-endpoint scale — and the
#: hop memo by (router, port, verdict), so each is cleared wholesale when it
#: reaches this many entries.  The constructions are pure (no RNG; randomness
#: lives in the per-packet injection decisions), so a rebuilt entry is
#: identical and the clear is invisible in results.  ~262k entries keep
#: worst-case memo memory around 70 MB; canonical paper-scale runs stay far
#: below the cap.  At system scale the plan memo does hit it and every entry
#: is then re-missed once — which is why a plan miss must stay cheap: two
#: route-column reads plus two small dict hits (see ``_candidate_towards``),
#: never a policy evaluation.
_MEMO_CAP = 1 << 18


@dataclass(slots=True)
class CandidateHop:
    """One admissible forwarding option for a head packet."""

    out_port: int
    next_router: int
    out_type: LinkType
    vc_range: VcRange
    opportunistic: bool = False
    #: granting this hop lands the packet on its Valiant intermediate router.
    reaches_intermediate: bool = False
    #: granting this hop abandons the remaining detour (escape fallback).
    abandons_detour: bool = False
    #: flattened copies of ``vc_range.lo`` / ``vc_range.hi`` so the allocator
    #: inner loop reads plain ints (filled in ``__post_init__``).
    vc_lo: int = -1
    vc_hi: int = -1
    #: packed router-resolved evaluation record — ``(out_port, vc_lo, vc_hi,
    #: out_state_base, credit_free_base, out_buffer_capacity,
    #: pending_releases, credit_fail_mask)``.  Candidates are memoized per
    #: router (the hop-memo key starts with the router id), so the
    #: router-local slab indices and references can be burned in at
    #: construction; the allocator then evaluates a candidate with a single
    #: attribute load plus flat reads.  Filled by
    #: RoutingAlgorithm._candidate_towards; hand-built candidates (tests)
    #: keep the 3-field prefix form.
    hot: tuple = ()
    #: grant-time fast-path flags: a *simple* hop updates only the packet's
    #: hop/phase counters, so the router inlines it; detour-affecting hops
    #: go through RoutingAlgorithm.on_hop_taken.
    is_global_hop: bool = False
    simple_hop: bool = False
    #: the one-element plan ``[self]``.  The first-level plan memo stores
    #: this list (plans are shared and never mutated), so its many entries
    #: that resolve to the same hop share one list instead of owning one each.
    alone: list = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.alone = [self]
        self.vc_lo = self.vc_range.lo
        self.vc_hi = self.vc_range.hi
        self.hot = (self.out_port, self.vc_lo, self.vc_hi)
        self.is_global_hop = self.out_type == LinkType.GLOBAL
        self.simple_hop = not (self.reaches_intermediate or self.abandons_detour)


@dataclass(slots=True)
class EjectionRequest:
    """The packet has reached its destination router and awaits consumption."""

    node: int
    msg_class: MessageClass
    #: flat ejection-port slot on the destination router (``2 * local_node +
    #: msg_class``), filled lazily by the first allocator evaluation.  Safe to
    #: cache on this shared memoized object because only the (unique)
    #: destination router of ``node`` ever plans an ejection for it.
    slot: int = -1


Plan = Union[EjectionRequest, List[CandidateHop]]

#: the shared plan of a head with no admissible hop (never mutated).
_NO_PLAN: List[CandidateHop] = []


class RoutingAlgorithm(ABC):
    """Base class of MIN / VAL / PAR / Piggyback routing."""

    #: human-readable name, overridden by subclasses.
    name = "abstract"

    def __init__(
        self,
        topology: Topology,
        policy: VcPolicy,
        selection: VcSelection,
        config: RoutingConfig,
        arrangement: VcArrangement,
        rng: random.Random,
        route_table=None,
    ) -> None:
        self.topology = topology
        self.policy = policy
        self.selection = selection
        self.config = config
        self.arrangement = arrangement
        self.rng = rng
        #: minimal-route table; every minimal next-port / hop-sequence query
        #: on the hot path reads its columns instead of the topology's
        #: per-pair computations.
        self.route = (
            route_table if route_table is not None else RouteTable(topology)
        )
        #: the topology's links: neighbor and link type of a candidate's port.
        self.wiring = topology.wiring()
        #: reference-slot contribution of one minimal segment (phase), used to
        #: advance the baseline's slot offsets between phases.
        self.phase_ref = topology.phase_ref
        #: routers eligible as Valiant intermediates (None = all routers).
        self._valiant_pool = topology.valiant_routers()
        #: Candidate construction is split by what it depends on.  The VC
        #: *verdict* is a function of the hop's path shapes, input buffer
        #: and phase state only (paper §III, Definitions 1–2) — never of
        #: which router asks — so it is memoized under every
        #: :class:`HopContext` field and its population is set by the
        #: topology's distinct path shapes × VC/phase states (tens to a few
        #: hundred entries), independent of network size.  The
        #: :class:`CandidateHop` itself (immutable in practice, shared by
        #: every packet in the same situation) is memoized per ``(router,
        #: out port, verdict, flags)``: at most routers × ports × verdict
        #: variety.  Neither embeds a route-table answer, so both survive a
        #: fault re-table.
        self._verdict_memo: dict = {}
        self._hop_memo: dict = {}
        #: first-level hit path: whole plans of the minimal branch keyed by
        #: ``(here, dst, state)`` (plan lists are shared and never mutated).
        #: Keys approach O(n²) under uniform traffic at system scale, hence
        #: the :data:`_MEMO_CAP` wholesale clear (purity makes the rebuild
        #: answer-identical, and plan lists held by callers stay valid);
        #: canonical paper-scale runs never reach the cap.
        self._plan_memo: dict = {}
        #: miss-path work counters (RunRecord provenance; the hit paths
        #: carry no counter).
        self.plan_misses = 0
        self.verdict_builds = 0
        self.hop_builds = 0
        # devtools: unbounded-ok(keyed by (dst router, msg class): at most 2n entries)
        self._ejection_memo: dict = {}
        #: packed-int plan-memo keys: every component is a small bounded
        #: non-negative int (after the +1 shifts), so the key packs into one
        #: integer — int hashing is much cheaper than hashing a 9-tuple.
        #: Out-of-range phase state (never produced by the canonical
        #: reference shapes) falls back to tuple keys, which cannot collide
        #: with ints in the same dict.
        self._key_routers = topology.num_routers
        #: hook elision: algorithms that keep the base-class no-op hooks
        #: (e.g. MIN/VAL never divert in transit) skip the virtual call on
        #: every plan computation.
        self._has_injection_hook = (
            type(self).decide_at_injection is not RoutingAlgorithm.decide_at_injection
        )
        self._has_transit_hook = (
            type(self).maybe_divert_in_transit
            is not RoutingAlgorithm.maybe_divert_in_transit
        )

    # ------------------------------------------------------------------
    # Fault support
    # ------------------------------------------------------------------
    def invalidate_route_caches(self) -> None:
        """Flush the memo that bakes in route-table answers.

        Called by the fault controller after re-table-ing: first-level plans
        embed next ports read from the mutated columns.  Verdicts (pure
        functions of path shape) and router-local hops (pure functions of
        the static ``(router, port)`` wiring) survive, as does the ejection
        memo — ejection requests depend only on the node attachment.
        """
        self._plan_memo.clear()

    def memo_stats(self) -> Dict[str, int]:
        """Miss-path work counters and memo sizes (RunRecord provenance)."""
        return {
            "plan_misses": self.plan_misses,
            "verdict_builds": self.verdict_builds,
            "hop_builds": self.hop_builds,
            "plan_memo_size": len(self._plan_memo),
            "verdict_memo_size": len(self._verdict_memo),
            "hop_memo_size": len(self._hop_memo),
        }

    # ------------------------------------------------------------------
    # Decision hooks
    # ------------------------------------------------------------------
    def decide_at_injection(self, router: "Router", packet: Packet) -> None:
        """Choose MIN vs Valiant for a packet about to leave its source router.

        The default (minimal routing) does nothing.
        """

    def maybe_divert_in_transit(self, router: "Router", packet: Packet) -> None:
        """In-transit adaptive hook (PAR).  Default: never divert."""

    def bind_routers(self, routers: Sequence["Router"]) -> None:
        """Bind the algorithm's state to the built routers (Piggyback's
        saturation boards).  Default: nothing."""

    # ------------------------------------------------------------------
    # Plan computation
    # ------------------------------------------------------------------
    def plan(
        self,
        router: "Router",
        packet: Packet,
        input_type: Optional[LinkType],
        input_vc: int,
    ) -> Plan:
        """Forwarding plan for ``packet`` currently heading a queue at ``router``."""
        here = router.router_id
        dst_router = packet.dst_router
        if dst_router < 0:
            dst_router = self.topology.router_of_node(packet.dst_node)
            packet.dst_router = dst_router
        if dst_router == here:
            eject_key = (packet.dst_node, packet.msg_class)
            ejection = self._ejection_memo.get(eject_key)
            if ejection is None:
                ejection = EjectionRequest(node=packet.dst_node, msg_class=packet.msg_class)
                self._ejection_memo[eject_key] = ejection
            return ejection

        if not packet.route_decided:
            if self._has_injection_hook:
                self.decide_at_injection(router, packet)
            packet.route_decided = True
        if self._has_transit_hook:
            self.maybe_divert_in_transit(router, packet)

        if packet.route_kind == RouteKind.VALIANT and not packet.intermediate_reached:
            if packet.intermediate_router == here:
                # Landed on the intermediate without taking a hop (possible when
                # the intermediate equals the source router's neighbourhood).
                self._enter_second_phase(packet)

        if packet.route_kind == RouteKind.VALIANT and not packet.intermediate_reached:
            candidates: List[CandidateHop] = []
            detour = self._candidate_towards(
                router, packet, packet.intermediate_router, input_type, input_vc,
                is_detour=True,
            )
            if detour is not None:
                candidates.append(detour)
                if detour.opportunistic:
                    escape = self._candidate_towards(
                        router, packet, dst_router, input_type, input_vc,
                        is_detour=False, abandons_detour=True,
                    )
                    if escape is not None:
                        candidates.append(escape)
            return candidates

        # Minimal continuation (MIN packets, and Valiant packets past their
        # intermediate — both take the same minimal path from here): the whole
        # plan is a pure function of this key, so memoize it.
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

    # ------------------------------------------------------------------
    # Candidate construction helpers
    # ------------------------------------------------------------------
    def _candidate_towards(
        self,
        router: "Router",
        packet: Packet,
        target_router: int,
        input_type: Optional[LinkType],
        input_vc: int,
        is_detour: bool,
        abandons_detour: bool = False,
    ) -> Optional[CandidateHop]:
        """Candidate for the next minimal hop towards ``target_router``.

        Only the first half depends on network position: two route-column
        reads (one lookup per destination keeps every per-source query a
        single flat index, so the lazy front-end touches each needed column
        once) yield the out port and the path *shapes*.  The VC verdict is
        then a memo hit on those shapes, and the shared
        :class:`CandidateHop` a memo hit on ``(router, port, verdict)``.
        """
        here = router.router_id
        route = self.route
        target_col = route.column(target_router)
        out_port = target_col.next_port(here)
        if out_port is None:
            return None
        wiring = self.wiring
        slot = here * wiring.ports_per_router + out_port
        next_router = wiring.neighbor[slot]
        out_type = LINK_TYPES[wiring.link_type[slot]]
        dst_router = packet.dst_router  # resolved by plan() before this point
        dst_col = (
            target_col if target_router == dst_router
            else route.column(dst_router)
        )
        # The intended route is the minimal path from here, except on the
        # detour (plan() requests one only for a Valiant packet short of its
        # intermediate): first leg to the intermediate, then on to dst.
        if is_detour:
            intended = (target_col.hop_sequence(here)
                        + dst_col.hop_sequence(target_router))
        else:
            intended = dst_col.hop_sequence(here)
        escape = dst_col.hop_sequence(next_router)
        # Every HopContext field, so a hit is exactly what evaluate() returns.
        key = (packet.msg_class, out_type, intended, escape, input_type,
               input_vc, packet.phase_offsets, packet.phase_position,
               packet.phase_global_taken)
        verdict = self._verdict_memo.get(key)
        if verdict is None:
            self.verdict_builds += 1
            verdict = self.policy.evaluate(HopContext(*key))
            if len(self._verdict_memo) >= _MEMO_CAP:
                self._verdict_memo.clear()
            self._verdict_memo[key] = verdict
        vc_range, kind = verdict
        if vc_range is None:
            return None
        opportunistic = kind == HopKind.OPPORTUNISTIC
        reaches_intermediate = (
            is_detour and next_router == packet.intermediate_router
        )
        hop_key = (here, out_port, vc_range.lo, vc_range.hi, opportunistic,
                   reaches_intermediate, abandons_detour)
        candidate = self._hop_memo.get(hop_key)
        if candidate is None:
            self.hop_builds += 1
            candidate = CandidateHop(
                out_port=out_port,
                next_router=next_router,
                out_type=out_type,
                vc_range=vc_range,
                opportunistic=opportunistic,
                reaches_intermediate=reaches_intermediate,
                abandons_detour=abandons_detour,
            )
            candidate.hot = router.resolve_candidate(candidate)
            if len(self._hop_memo) >= _MEMO_CAP:
                self._hop_memo.clear()
            self._hop_memo[hop_key] = candidate
        return candidate

    # ------------------------------------------------------------------
    # State updates on grant
    # ------------------------------------------------------------------
    def on_hop_taken(self, packet: Packet, candidate: CandidateHop) -> None:
        """Update the packet's routing/phase state after a granted hop."""
        packet.hops += 1
        packet.phase_position += 1
        if candidate.out_type == LinkType.GLOBAL:
            packet.phase_global_taken += 1
        if candidate.abandons_detour:
            # The packet reverts to its safe minimal continuation.
            packet.intermediate_reached = True
            self._enter_second_phase(packet)
        elif candidate.reaches_intermediate:
            packet.intermediate_reached = True
            self._enter_second_phase(packet)
        # No plan-cache invalidation needed here: the hop's grant popped the
        # packet from its input VC, which cleared the port's head-plan entry.

    def _enter_second_phase(self, packet: Packet) -> None:
        packet.begin_phase((packet.phase_local + self.phase_ref[0],
                            packet.phase_global + self.phase_ref[1]))
        packet.intermediate_reached = True

    # ------------------------------------------------------------------
    # Shared decision utilities (used by VAL / PAR / PB)
    # ------------------------------------------------------------------
    def _pick_intermediate(self, packet: Packet, src_router: int, dst_router: int) -> int:
        """Uniformly random eligible intermediate distinct from source and destination.

        Topologies restrict the pool through
        :meth:`~repro.topology.base.Topology.valiant_routers` (e.g. Megafly
        limits it to node-attached leaf routers); the default pool is every
        router.
        """
        pool = self._valiant_pool
        if pool is None:
            n = self.topology.num_routers
            if n <= 2:
                return dst_router
            while True:
                candidate = self.rng.randrange(n)
                if candidate != src_router and candidate != dst_router:
                    return candidate
        m = len(pool)
        if m <= 1:
            return dst_router
        for _ in range(4 * m):
            candidate = pool[self.rng.randrange(m)]
            if candidate != src_router and candidate != dst_router:
                return candidate
        return dst_router  # pragma: no cover - degenerate pools only

    def sensing_vc(self, msg_class: MessageClass, link_type: LinkType) -> int:
        """VC that per-VC sensing reads for ``msg_class`` on a ``link_type``
        port: the first (Piggyback overrides it for replies)."""
        return 0

    def _sensing_args(self, vc: int) -> tuple:
        """``port.occupancy_metric`` arguments of Figure 8's sensing
        variant: per port, or VC ``vc``."""
        return (self.config.pb_sensing == "vc", vc,
                self.config.pb_min_credits_only)

    def _queue_metric(self, router: "Router", target_router: int,
                      msg_class: MessageClass) -> int:
        """Sensing metric of the first port towards ``target_router``."""
        out_port = self.route.column(target_router).next_port(router.router_id)
        if out_port is None:
            return 0
        port = router.output_ports[out_port]
        vc = self.sensing_vc(msg_class, port.link_type)
        return port.occupancy_metric(*self._sensing_args(vc))

    def _min_queue_longer(self, router: "Router", packet: Packet,
                          intermediate: int) -> bool:
        """UGAL's local test (PAR and PB): the minimal queue exceeds twice
        the queue towards ``intermediate`` plus the threshold."""
        q_min = self._queue_metric(router, packet.dst_router, packet.msg_class)
        q_nonmin = self._queue_metric(router, intermediate, packet.msg_class)
        return q_min > 2 * q_nonmin + self.config.pb_threshold * packet.size_phits
