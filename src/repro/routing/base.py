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
from .route_table import _UNRESOLVED, RouteTable

if TYPE_CHECKING:  # pragma: no cover
    from ..router.router import Router

#: span of the packed plan-memo state: message class (2), input type (None,
#: local, global), input VC + 1 (16), phase_local (16), phase_global (16),
#: phase_position (32), phase_global_taken (16).  The route shape is packed
#: above it: packing the small state first keeps every step but the last
#: two on single-digit (30-bit) ints, which CPython multiplies and adds
#: faster than multi-digit ones.
_STATE_SPAN = 2 * 3 * 16 * 16 * 16 * 32 * 16


@dataclass(slots=True)
class CandidateHop:
    """One admissible forwarding option for a head packet."""

    out_port: int
    out_type: LinkType
    vc_range: VcRange
    opportunistic: bool = False
    #: granting this hop lands the packet on its Valiant intermediate router.
    reaches_intermediate: bool = False
    #: granting this hop abandons the remaining detour (escape fallback).
    abandons_detour: bool = False
    #: packed slab-resolved evaluation record — ``(out_port, lo, hi,
    #: out_state_base, credit_free_base, out_buffer_capacity,
    #: credit_fail_mask)`` (``Router.resolve_candidate``).  Candidates are
    #: shared by every router of a port layout class (the hop-memo key
    #: starts with the class), and those routers lay out their slabs
    #: identically, so the record holds offsets only; the allocator then
    #: evaluates a candidate with a single attribute load plus flat reads
    #: of its own router's slabs.  Filled by
    #: RoutingAlgorithm._candidate_towards.
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
        self.is_global_hop = self.out_type == LinkType.GLOBAL
        self.simple_hop = not (self.reaches_intermediate or self.abandons_detour)


@dataclass(slots=True)
class EjectionRequest:
    """The packet has reached its destination router and awaits consumption."""

    #: flat ejection-port slot on the destination router (``2 * local_node +
    #: msg_class``, ``Router.ejection_ports``).
    slot: int


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
        #: each router's port layout class, the router's part of every
        #: plan- and hop-memo key.
        self._layout = self.wiring.layout
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
        #: every packet in the same situation) is memoized per ``(layout
        #: class, out port, verdict, flags)``: at most layout classes ×
        #: ports × verdict variety, again independent of network size.
        #: Every memo is bounded by its key's parts, none of which is a
        #: router or a (source, destination) pair, so none needs a cap; a
        #: construction is pure (randomness lives in the per-packet
        #: injection decisions), and the h=13 scale smoke test holds all
        #: three below 1,000 entries (DESIGN.md §9(d)).
        # devtools: unbounded-ok(keyed by path shapes, input buffer and phase state: no router or pair factor)
        self._verdict_memo: dict = {}
        # devtools: unbounded-ok(keyed by layout class, port, VC range and 3 flags: no router factor)
        self._hop_memo: dict = {}
        #: first-level hit path: whole plans of the minimal branch keyed by
        #: route shape, ``(layout class of here, out port, intended-path id,
        #: state)``, read straight off the destination's route column (plan
        #: lists are shared and never mutated).  Routers of one class share
        #: an entry: the class fixes the out port's link type and slab
        #: offsets, and nothing else of the router reaches the plan.  The
        #: escape path is the intended path without its first hop (interned
        #: one-to-one), so the key fixes every input of the plan, and no
        #: memo holds a route-table answer: a fault re-table that rebuilds
        #: a column gives new keys and leaves every entry true, so it
        #: flushes nothing.
        # devtools: unbounded-ok(layout classes x ports + 1 x 255 interned path ids x the fixed state span: no router or pair factor)
        self._plan_memo: dict = {}
        #: miss-path work counters (RunRecord provenance; the hit paths
        #: carry no counter).
        self.plan_misses = 0
        self.verdict_builds = 0
        self.hop_builds = 0
        # devtools: unbounded-ok(keyed by ejection slot: 2 per node of the widest router)
        self._ejection_memo: dict = {}
        #: the plan memo's hit path reads the route columns directly (the
        #: table mutates this list in place, never replaces it).
        self._columns = self.route.columns
        #: packed-int memo keys: every component is a small bounded int, so
        #: a key packs into one integer — int hashing is much cheaper than
        #: hashing a tuple.  The bounds come from the wiring (ports per
        #: router), the route table (interned ids are below
        #: ``_UNRESOLVED``) and the arrangement (the widest port's VC
        #: count).  The column's no-port sentinel (255, or -1 on wide
        #: routers) is one more port value, so a head at a dead router keys
        #: its own entry and is planned ``[]`` on the miss path.  A plan key
        #: whose state overflows its packed span — a head in input VC 15 or
        #: above (a port with 16 or more VCs) or phase counters past their
        #: fields — falls back to a tuple key, which cannot collide with the
        #: ints in the same dict.
        self._key_ports = max(self.wiring.ports_per_router,
                              self.route.no_port) + 1
        self._key_vcs = max(arrangement.total_local, arrangement.total_global)
        #: hook elision: algorithms that keep the base-class no-op hooks
        #: skip the virtual call on every plan computation.  Only an
        #: algorithm with a decision hook can mark a packet Valiant, so MIN
        #: (no hook) skips the detour branch too.
        self._has_transit_hook = (
            type(self).maybe_divert_in_transit
            is not RoutingAlgorithm.maybe_divert_in_transit
        )
        self._decides = self._has_transit_hook or (
            type(self).decide_at_injection
            is not RoutingAlgorithm.decide_at_injection
        )

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------
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
            slot = 2 * (packet.dst_node - router.nodes[0]) + packet.msg_class
            ejection = self._ejection_memo.get(slot)
            if ejection is None:
                ejection = self._ejection_memo[slot] = EjectionRequest(slot)
            return ejection

        if self._decides:
            if not packet.route_decided:
                self.decide_at_injection(router, packet)
                packet.route_decided = True
            if self._has_transit_hook:
                self.maybe_divert_in_transit(router, packet)
            if (packet.route_kind == RouteKind.VALIANT
                    and not packet.intermediate_reached):
                if packet.intermediate_router == here:
                    # Landed on the intermediate without taking a hop
                    # (possible when the intermediate equals the source
                    # router's neighbourhood): on minimally from here.
                    self._enter_second_phase(packet)
                else:
                    # Towards the intermediate, plus the safe minimal escape
                    # when that hop is opportunistic (plans are shared and
                    # never mutated).
                    detour = self._candidate_towards(
                        router, packet, packet.intermediate_router,
                        input_type, input_vc, is_detour=True,
                    )
                    if detour is None:
                        return _NO_PLAN
                    if not detour.opportunistic:
                        return detour.alone
                    escape = self._candidate_towards(
                        router, packet, dst_router, input_type, input_vc,
                        is_detour=False, abandons_detour=True,
                    )
                    return detour.alone if escape is None else [detour, escape]

        # Minimal continuation (MIN packets, and Valiant packets past their
        # intermediate — both take the same minimal path from here): the whole
        # plan is a pure function of the route shape and state, so memoize
        # it.
        col = self._columns[dst_router]
        if col is None:
            col = self.route.column(dst_router)
        port = col.ports[here]
        seq_id = col.seq_ids[here]
        if seq_id == _UNRESOLVED:
            seq_id = col.seq_id(here)
        phase_local = packet.phase_local
        phase_global = packet.phase_global
        phase_position = packet.phase_position
        phase_global_taken = packet.phase_global_taken
        if (0 <= phase_local < 16 and 0 <= phase_global < 16
                and 0 <= phase_position < 32
                and 0 <= phase_global_taken < 16 and -1 <= input_vc < 15):
            key = packet.msg_class * 3 + (
                0 if input_type is None else input_type + 1)
            key = ((key * 16 + input_vc + 1) * 16 + phase_local) * 16 \
                + phase_global
            key = (key * 32 + phase_position) * 16 + phase_global_taken
            key += ((self._layout[here] * self._key_ports + port)
                    * _UNRESOLVED + seq_id) * _STATE_SPAN
        else:  # state beyond the packed span, e.g. input VC 15
            key = (
                self._layout[here], port, seq_id, packet.msg_class,
                input_type, input_vc,
                phase_local, phase_global, phase_position, phase_global_taken,
            )
        cached = self._plan_memo.get(key)
        if cached is None:
            self.plan_misses += 1
            direct = self._candidate_towards(
                router, packet, dst_router, input_type, input_vc, is_detour=False
            )
            cached = direct.alone if direct is not None else _NO_PLAN
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
        :class:`CandidateHop` a memo hit on ``(layout class, port,
        verdict)``.
        """
        here = router.router_id
        route = self.route
        target_col = route.column(target_router)
        out_port = target_col.next_port(here)
        if out_port is None:
            return None
        wiring = self.wiring
        ports_per_router = wiring.ports_per_router
        slot = here * ports_per_router + out_port
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
            self._verdict_memo[key] = verdict
        vc_range, kind = verdict
        if vc_range is None:
            return None
        opportunistic = kind == HopKind.OPPORTUNISTIC
        reaches_intermediate = (
            is_detour and next_router == packet.intermediate_router
        )
        vcs = self._key_vcs
        layout_slot = self._layout[here] * ports_per_router + out_port
        hop_key = (((layout_slot * vcs + vc_range.lo) * vcs + vc_range.hi) * 8
                   + opportunistic + 2 * reaches_intermediate
                   + 4 * abandons_detour)
        candidate = self._hop_memo.get(hop_key)
        if candidate is None:
            self.hop_builds += 1
            candidate = CandidateHop(
                out_port=out_port,
                out_type=out_type,
                vc_range=vc_range,
                opportunistic=opportunistic,
                reaches_intermediate=reaches_intermediate,
                abandons_detour=abandons_detour,
            )
            candidate.hot = router.resolve_candidate(candidate)
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
        # packet from its input VC, and ``InputPort.pop`` cleared
        # ``Packet.plan``.

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
