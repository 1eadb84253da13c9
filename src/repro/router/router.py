"""Cycle-level router model.

Combined input-output buffered router (Section IV): per-VC input buffers
(statically partitioned or DAMQ), an iterative input-first separable
allocator running ``speedup`` iterations per cycle, small per-port output
buffers decoupling the crossbar from link serialization, credit-based virtual
cut-through flow control, and separate consumption ports for requests and
replies.

One :class:`Router` instance owns the injection queues of its ``p`` attached
nodes and its network input/output ports.  A routing algorithm that senses
time-varying congestion (Piggyback) may give it a ``post_sensing`` callback,
run at the end of every pump; a credit return wakes such a router.

Hot-path architecture (see DESIGN.md §6)
----------------------------------------
The allocator runs every cycle for every active router, so its state is kept
in flat preallocated per-router slabs (plain lists indexed by small
integers) instead of object attributes:

* ``_in_state`` — per alloc-input ``[resident, min_ready]`` pairs shared
  with the :class:`InputPort` objects (``bind_hot_state``);
* ``_in_busy`` / ``_in_rr`` — input crossbar timers and round-robin VC
  pointers, owned entirely by the router;
* ``_out_state`` — per output port ``[xbar_busy, grant_stamp, grants,
  buf_occ, pending_releases, port]`` shared with the :class:`OutputPort`
  objects;
* ``_credit_free`` — downstream free space per ``(port, vc)``, maintained by
  the credit mirrors (``BufferOrganization.bind_free_slab``);
* ``_eject_busy`` — ejection busy timers per ``(node, msg_class)``;
* ``_inj_free`` — injection buffer free space per ``(node, vc)``.

Forwarding plans are computed once per head packet and cached on the packet
itself (``Packet.plan``), cleared when it leaves the port (pop).  Within a
cycle, allocation iterations after the first only rescan inputs that
proposed a request in the previous iteration: output resources are consumed
monotonically within a cycle and non-proposing ports' heads are unchanged,
so the skip is behaviour-identical to the full rescan (the property test in ``tests/test_alloc_equivalence.py``
checks this against :class:`repro.router.reference.ReferenceRouter`).

Three entry points are closures over the slabs, built once per *router*:
the allocation pass, the grant executor and the pump, which is the router's
whole per-cycle body (the engine calls nothing else).  The three per-*link*
callbacks — packet delivery, credit return, grant-time credit debit — are
not: they are methods of the ports (``InputPort.deliver``,
``OutputPort.credit_return`` / ``debit`` in :mod:`repro.router.ports`),
which reach this router's sleep/verdict state through their ``router`` slot.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..buffers.base import BufferOrganization
from ..buffers.damq import DamqBuffer
from ..buffers.fifo import StaticallyPartitionedBuffer
from ..config import RouterConfig
from ..core.arrangement import VcArrangement
from ..core.link_types import LinkType, MessageClass
from ..core.vc_selection import (
    HighestVc,
    JoinShortestQueue,
    LowestVc,
    VcSelection,
)
from ..packet import Packet, RouteKind
from ..routing.base import CandidateHop, EjectionRequest, RoutingAlgorithm
from ..topology.base import Topology
from .ports import (
    IN_BLOCKED, IN_STRIDE, OUT_STRIDE, EjectionPort, InputPort, OutputPort,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import Engine

#: sentinel "no deterministic retry time" (asynchronous wake only).
NEVER = 1 << 62

#: module-level binding of the hot-path route-kind comparison.
_MINIMAL = RouteKind.MINIMAL

#: inline VC-selection modes (identity-checked against the stock selection
#: classes; anything else falls back to the generic ``choose`` call).
_SEL_GENERIC = -1
_SEL_JSQ = 0
_SEL_HIGHEST = 1
_SEL_LOWEST = 2


def _selection_mode(selection: VcSelection) -> int:
    """Inline mode of ``selection`` — only for the exact stock behaviours."""
    choose = type(selection).choose
    if choose is JoinShortestQueue.choose:
        return _SEL_JSQ
    if choose is HighestVc.choose:
        return _SEL_HIGHEST
    if choose is LowestVc.choose:
        return _SEL_LOWEST
    return _SEL_GENERIC


def make_port_buffer(
    router_config: RouterConfig,
    num_vcs: int,
    is_global: bool,
) -> BufferOrganization:
    """Build the buffer organization of one network port.

    The same constructor is used for the downstream input port and for the
    upstream credit mirror, which keeps both views structurally identical.
    """
    port_capacity = router_config.port_capacity(num_vcs, is_global)
    if router_config.buffer_organization == "damq":
        return DamqBuffer.from_fraction(
            num_vcs, port_capacity, router_config.damq_private_fraction
        )
    per_vc = router_config.vc_capacity(num_vcs, is_global)
    return StaticallyPartitionedBuffer(num_vcs, per_vc)


class Router:
    """One network router plus the injection/ejection machinery of its nodes."""

    def __init__(
        self,
        router_id: int,
        topology: Topology,
        engine: "Engine",
        router_config: RouterConfig,
        arrangement: VcArrangement,
        routing: RoutingAlgorithm,
        selection: VcSelection,
        rng: random.Random,
        on_delivery: Callable[[Packet, int], None],
        on_injection: Optional[Callable[[Packet, int], None]] = None,
    ) -> None:
        self.router_id = router_id
        self.engine = engine
        self.routing = routing
        self.selection = selection
        self.rng = rng
        self.on_delivery = on_delivery
        self.on_injection = on_injection
        self.speedup = router_config.speedup
        self._pipeline_latency = router_config.pipeline_latency
        #: run at the end of every pump (Piggyback's board post); set by
        #: ``RoutingAlgorithm.bind_routers``.  A credit return wakes a
        #: router that has one, since the post reads its credit counts.
        self.post_sensing: Optional[Callable[[], None]] = None

        # Transit-only routers (e.g. Megafly spines) attach no nodes.
        self.nodes = list(topology.nodes_of_router(router_id))
        p = len(self.nodes)
        self.num_nodes = p

        # -- network ports ------------------------------------------------------
        self.input_ports: Dict[int, InputPort] = {}
        self.output_ports: Dict[int, OutputPort] = {}
        for info in topology.ports(router_id):
            num_vcs = arrangement.total(info.link_type)
            is_global = info.link_type == LinkType.GLOBAL
            in_port = InputPort(
                port_id=info.port,
                link_type=info.link_type,
                num_vcs=num_vcs,
                buffer=make_port_buffer(router_config, num_vcs, is_global),
                pipeline_latency=router_config.pipeline_latency,
            )
            in_port.router = self
            self.input_ports[info.port] = in_port
            out_port = OutputPort(
                port_id=info.port,
                link_type=info.link_type,
                mirror=make_port_buffer(router_config, num_vcs, is_global),
                output_buffer_phits=router_config.output_buffer_phits,
            )
            out_port.router = self
            self.output_ports[info.port] = out_port

        # -- injection / ejection -------------------------------------------------
        self.injection_ports: List[InputPort] = []
        for node_idx in range(p):
            buffer = StaticallyPartitionedBuffer(
                router_config.num_injection_vcs, router_config.injection_vc_phits
            )
            self.injection_ports.append(
                InputPort(
                    port_id=-(node_idx + 1),
                    link_type=None,
                    num_vcs=router_config.num_injection_vcs,
                    buffer=buffer,
                    pipeline_latency=router_config.pipeline_latency,
                    is_injection=True,
                )
            )
        #: ejection ports, two per node, at flat slot ``2 * local_node +
        #: msg_class`` (``MessageClass``: REQUEST=0, REPLY=1), the slot
        #: ``RoutingAlgorithm.plan`` names in this router's
        #: ``EjectionRequest``.
        self.ejection_ports: List[EjectionPort] = [
            EjectionPort(node, msg_class)
            for node in self.nodes
            for msg_class in (MessageClass.REQUEST, MessageClass.REPLY)
        ]
        #: per-node injection backlogs — plain lists (see InputPort.queues
        #: for the deque-vs-list memory rationale; one exists per node).
        self.source_queues: List[List[Packet]] = [[] for _ in range(p)]
        self.injection_busy_until: List[int] = [0] * p
        #: earliest cycle any source-queue head could enter an injection
        #: buffer (0 = scan needed; reset by enqueue_source).  Purely a
        #: skip-the-scan gate: a gated cycle is one where the scan would
        #: provably be a no-op.
        self._inject_gate = 0

        # -- allocator bookkeeping ----------------------------------------------------
        # Allocation inputs: injection ports first, then network ports in
        # ascending port order.
        self._alloc_inputs: List[InputPort] = list(self.injection_ports) + [
            self.input_ports[port] for port in sorted(self.input_ports)
        ]
        #: packets in the network input buffers (injection buffers are
        #: ``_injection_resident``); ``Simulation.held`` sums it over the
        #: routers.
        self.resident_packets = 0
        #: network-input heads planned ``[]`` (no admissible hop), on a
        #: network with every router up / while some router is dead
        #: (RunRecord provenance, see ``Simulation.routing_stats``).
        self.empty_plans = 0
        self.empty_plans_router_down = 0

        # -- hot-state slabs (see module docstring) -------------------------------
        n_in = len(self._alloc_inputs)
        self._n_in = n_in
        self._in_state: List[int] = [0, 0, -1] * n_in
        for index, port in enumerate(self._alloc_inputs):
            port.bind_hot_state(self._in_state, 3 * index)
        self._in_busy: List[int] = [0] * n_in
        self._in_rr: List[int] = [0] * n_in
        #: per alloc-input credit-dependency masks of the recorded per-port
        #: blocked verdicts, and their union (quick pre-filter for returns).
        self._pv_masks: List[int] = [0] * n_in
        self._pv_any_mask = 0

        # Output ports take their slab slices in ascending port order, so
        # routers of one port layout class share every offset;
        # ``resolve_candidate`` reads the offsets back off each port.
        outputs = [self.output_ports[port] for port in sorted(self.output_ports)]
        self._out_state: list = [0] * (OUT_STRIDE * len(outputs))
        self._credit_free: List[int] = [0] * sum(
            op.mirror.num_vcs for op in outputs
        )
        cfree_base = 0
        for j, op in enumerate(outputs):
            op.bind_hot_state(self._out_state, OUT_STRIDE * j)
            op.mirror.bind_free_slab(self._credit_free, cfree_base)
            cfree_base += op.mirror.num_vcs

        self._eject_busy: List[int] = [0] * (2 * p)
        for slot, ejection in enumerate(self.ejection_ports):
            ejection.bind_hot_state(self._eject_busy, slot)

        n_inj_vcs = router_config.num_injection_vcs
        self._n_inj_vcs = n_inj_vcs
        self._inj_free: List[int] = [0] * (p * n_inj_vcs)
        for i, port in enumerate(self.injection_ports):
            port.buffer.bind_free_slab(self._inj_free, i * n_inj_vcs)

        self._sel_mode = _selection_mode(selection)

        # -- activity tracking ---------------------------------------------------------
        #: index assigned by Engine.register_router; -1 until registered.
        self.engine_index = -1
        #: bound active-set insert, installed by Engine.register_router.
        self.engine_activate: Optional[Callable[[int], None]] = None
        #: O(1) work counters so pump() never scans queues when idle.
        self._source_backlog = 0
        self._injection_resident = 0
        #: cycle of the outstanding pipeline-wake event (-1 when none).
        self._next_wake = -1
        #: result of the last request-less allocation pass: the earliest cycle
        #: a retry could succeed (NEVER = only an async event can unblock),
        #: or -1 when allocation is not known to be blocked.  Reset by wake().
        self._alloc_sleep_until = -1
        #: bitmask over ``_credit_free`` indices the blocked verdict depends
        #: on: a credit return whose slab bit is set clears the verdict; all
        #: other credit returns leave the router asleep (they cannot change
        #: the outcome of the recorded pass).
        self._blocked_credit_mask = 0

        # -- probe dispatch (None = unsubscribed, zero-cost) ---------------------------
        #: ``hook(packet, now)`` fired on a packet's first non-minimal hop.
        self.on_misroute: Optional[Callable[[Packet, int], None]] = None
        #: ``hook(router_id, now, retry_cycle)`` fired when an allocation
        #: pass produces no request (once: the router sleeps on the verdict).
        self.on_stall: Optional[Callable[[int, int, int], None]] = None

        #: specialized grant/allocation entry points (closures over the
        #: slabs); the full-rescan ReferenceRouter replaces ``_allocate``
        #: with its own method but shares the grant executor.
        self._execute_grant: Callable[[tuple, int], None] = (
            self._make_grant_executor()
        )
        self._allocate: Callable[[int], None] = self._make_allocator()
        self.pump: Callable[[int], bool] = self._make_pump()

    # ------------------------------------------------------------------
    # External interface (wiring and traffic)
    # ------------------------------------------------------------------
    def wake(self) -> None:
        """Re-register with the engine's active set (idempotent).

        Every wake signals a state change (arrival, credit return, timer
        expiry), so any recorded allocation blockage is stale and dropped.
        """
        self._alloc_sleep_until = -1
        if self.engine_activate is not None:
            self.engine_activate(self.engine_index)

    def resolve_candidate(self, candidate: CandidateHop) -> tuple:
        """Burn the slab offsets of the candidate's port into its record.

        Returns the allocator's evaluation record ``(out_port, lo, hi,
        out_state_base, credit_free_base, out_buffer_capacity,
        credit_fail_mask)``, every field read off the candidate's
        :class:`OutputPort`.  It holds offsets and constants only, no object
        of this router: routers of one port layout class take identical
        slab slices, so the record is true at every router that shares the
        memoized candidate, and each reads its own pending-release list and
        port at ``out_state_base + OUT_PENDING`` / ``+ OUT_PORT``.
        """
        out_port = candidate.out_port
        op = self.output_ports[out_port]
        lo = candidate.vc_range.lo
        hi = candidate.vc_range.hi
        return (
            out_port, lo, hi, op._hb, op.mirror._free_base,
            op.output_buffer_capacity, op.credit_mask(lo, hi),
        )

    def enqueue_source(self, packet: Packet, now: int) -> None:
        """Queue a newly generated packet at its source node."""
        local = packet.src_node - self.nodes[0]
        if not 0 <= local < self.num_nodes:
            raise ValueError(
                f"packet source node {packet.src_node} is not attached to router {self.router_id}"
            )
        packet.created_at = packet.created_at if packet.created_at else now
        self.source_queues[local].append(packet)
        self._source_backlog += 1
        self._inject_gate = 0
        self.wake()

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------
    def forget_plans(self) -> int:
        """Drop every cached forwarding decision: the route table changed.

        Clears each input's head plans and blocked verdict and the recorded
        credit dependencies, and wakes the router so its next pump plans
        afresh.  Returns how many head plans it cleared.
        """
        cleared = 0
        for index, port in enumerate(self._alloc_inputs):
            for queue in port.queues:
                if queue:
                    head = queue[0][0]
                    if head.plan is not None:
                        head.plan = None
                        cleared += 1
            self._in_state[IN_STRIDE * index + IN_BLOCKED] = -1
        self._pv_masks[:] = [0] * self._n_in
        self._pv_any_mask = 0
        self._blocked_credit_mask = 0
        self.wake()
        return cleared

    def drop_resident(self) -> Tuple[List[Tuple[InputPort, int, Packet]], List[Packet]]:
        """Empty every buffer and source queue: the router failed.

        Returns the ``(port, vc, packet)`` of every buffered packet, in
        allocation-input and VC order, and every source-queued packet; no
        credit is sent and no hook fires, so accounting for them and the
        credits network inputs owe upstream are the caller's.
        """
        buffered = []
        for index, port in enumerate(self._alloc_inputs):
            for vc, queue in enumerate(port.queues):
                if queue:
                    for packet, _ready in queue:
                        port.buffer.release(vc, packet.size_phits)
                        packet.plan = None
                        buffered.append((port, vc, packet))
                    queue.clear()
            base = IN_STRIDE * index
            self._in_state[base:base + IN_STRIDE] = (0, 0, -1)
        self.resident_packets = self._injection_resident = 0
        queued = [packet for queue in self.source_queues for packet in queue]
        for queue in self.source_queues:
            queue.clear()
        self._source_backlog = 0
        return buffered, queued

    # ------------------------------------------------------------------
    # Per-cycle operation
    # ------------------------------------------------------------------
    def _make_pump(self) -> Callable[[int], bool]:
        """Build the router's per-cycle entry point as a closure.

        Returns False (and schedules any needed timed wake) when the cycle
        would be a no-op; otherwise injects, allocates and returns True.
        Either way it ends with ``post_sensing``.  The engine calls this
        once per active router per cycle, so the state it reads is prebound.
        """
        router = self
        in_state = self._in_state
        n_in = self._n_in
        source_queues = self.source_queues
        injection_busy_until = self.injection_busy_until
        num_nodes = self.num_nodes
        inject_from_sources = self._inject_from_sources
        schedule_wake = self.engine.schedule_wake

        def pump(now: int) -> bool:
            blocked = router._alloc_sleep_until
            if blocked >= 0 and blocked <= now:
                router._alloc_sleep_until = blocked = -1
            earliest = -1
            work = False
            if router.resident_packets or router._injection_resident:
                if blocked < 0:
                    for base in range(0, 3 * n_in, 3):
                        if in_state[base]:
                            ready = in_state[base + 1]
                            if ready <= now:
                                work = True
                                break
                            if earliest < 0 or ready < earliest:
                                earliest = ready
                elif blocked < NEVER:
                    earliest = blocked
            if not work and router._source_backlog:
                for local in range(num_nodes):
                    if source_queues[local]:
                        busy = injection_busy_until[local]
                        if busy <= now:
                            work = True
                            break
                        if earliest < 0 or busy < earliest:
                            earliest = busy
            if work:
                if router._source_backlog and now >= router._inject_gate:
                    inject_from_sources(now)
                if router.resident_packets or router._injection_resident:
                    blocked = router._alloc_sleep_until
                    if blocked < 0 or blocked <= now:
                        router._allocate(now)
            elif earliest >= 0 and router._next_wake != earliest:
                router._next_wake = earliest
                schedule_wake(earliest, router.engine_index)
            if router.post_sensing is not None:
                router.post_sensing()
            return work

        return pump

    # -- injection --------------------------------------------------------------------
    def _inject_from_sources(self, now: int) -> None:
        inj_free = self._inj_free
        n_vcs = self._n_inj_vcs
        # Probe hook bound once per step, outside the per-node loop.
        on_injection = self.on_injection
        #: earliest cycle the next scan could make progress (serialization
        #: timers; a full injection buffer keeps polling every cycle since
        #: its space frees through asynchronous allocator grants).
        gate = NEVER
        for local in range(self.num_nodes):
            queue = self.source_queues[local]
            if not queue:
                continue
            busy = self.injection_busy_until[local]
            if busy > now:
                if busy < gate:
                    gate = busy
                continue
            packet = queue[0]
            size = packet.size_phits
            base = local * n_vcs
            best_vc = -1
            best_free = -1
            for vc in range(n_vcs):
                free = inj_free[base + vc]
                if free >= size and free > best_free:
                    best_vc, best_free = vc, free
            if best_vc < 0:
                if now + 1 < gate:
                    gate = now + 1
                continue
            queue.pop(0)
            self._source_backlog -= 1
            # The packet finishes serializing from the node after size cycles.
            self.injection_ports[local].receive(packet, best_vc, now + size)
            # Same verdict clamp as InputPort.deliver: the injected head
            # becomes routable after pipeline latency on top of its
            # serialization, which a recorded verdict cannot know about.
            ready = now + size + self._pipeline_latency
            blocked = self._alloc_sleep_until
            if 0 <= blocked and ready < blocked:
                self._alloc_sleep_until = ready
            self._injection_resident += 1
            self.injection_busy_until[local] = now + size
            if queue and now + size < gate:
                gate = now + size
            if on_injection is not None:
                on_injection(packet, now)
        self._inject_gate = gate

    # -- allocation ---------------------------------------------------------------------
    def _make_allocator(self) -> Callable[[int], None]:
        """Build this router's specialized allocation closure.

        One cycle of iterative input-first separable allocation.  The whole
        input stage (round-robin VC pick, head-plan lookup, ejection/
        crossbar/grant-cap/output-buffer/credit admission) and the output
        stage (one grant per resource under rotating round-robin priority)
        are inlined over the flat hot-state slabs, which are captured as
        closure variables so each call binds nothing; requests are plain
        tuples ``(input_index, input_vc, packet, resource_key, out_vc,
        candidate)``.  Check-for-check identical to the layered reference
        implementation in :mod:`repro.router.reference`.
        """
        router = self
        in_state = self._in_state
        in_busy = self._in_busy
        in_rr = self._in_rr
        out_state = self._out_state
        credit_free = self._credit_free
        eject_busy = self._eject_busy
        pv_masks = self._pv_masks
        speedup = self.speedup
        sel_mode = self._sel_mode
        num_inputs = self._n_in
        #: output-stage round-robin priority over alloc inputs (what
        #: ``SeparableAllocator._priority`` is to the reference router).
        priority = 0
        routing_plan = self.routing.plan
        execute_grant = self._execute_grant
        router_id = self.router_id
        full_scan = range(self._n_in)
        #: per alloc-input constants, one list index + unpack per evaluation.
        port_data = [
            (port.queues, port.rr_orders, port.num_vcs,
             None if port.is_injection else port.link_type,
             port.is_injection)
            for port in self._alloc_inputs
        ]

        def allocate(now: int) -> None:
            nonlocal priority
            router._alloc_sleep_until = -1
            reject_until = NEVER
            credit_mask = 0
            # Alloc-input indices to evaluate; iterations after the first
            # only revisit inputs that proposed (output resources are
            # consumed monotonically within the cycle, so a port with
            # nothing requestable stays that way until the next cycle).
            scan = full_scan
            for iteration in range(speedup):
                requests: list = []
                proposed: list = []
                retry = NEVER
                for index in scan:
                    base = 3 * index
                    # Skip empty ports and ports whose every head packet is
                    # still in the router pipeline — the scan below could not
                    # find a packet, so the skip is behaviour-identical, O(1).
                    if in_state[base] == 0:
                        continue
                    busy = in_busy[index]
                    if busy > now:
                        if busy < retry:
                            retry = busy
                        continue
                    min_ready = in_state[base + 1]
                    if min_ready > now:
                        # No routable head yet; the fold makes a recorded
                        # router verdict cover this port's pipeline exit.
                        if min_ready < reject_until:
                            reject_until = min_ready
                        continue
                    blocked_until = in_state[base + 2]
                    if blocked_until >= 0:
                        if now < blocked_until:
                            # Recorded per-port verdict still holds: nothing
                            # on this port is requestable before
                            # ``blocked_until`` or a credit return matching
                            # its mask (head changes cleared the verdict in
                            # receive/pop).  Fold its blockers into the
                            # router-level bookkeeping and skip the scan.
                            credit_mask |= pv_masks[index]
                            if blocked_until < reject_until:
                                reject_until = blocked_until
                            continue
                        in_state[base + 2] = -1
                    # Input stage: one requestable head packet (round-robin).
                    (queues, rr_orders, num_vcs, input_type,
                     is_injection) = port_data[index]
                    request = None
                    p_retry = NEVER
                    p_mask = 0
                    for vc in rr_orders[in_rr[index]]:
                        queue = queues[vc]
                        if not queue:
                            continue
                        packet, ready = queue[0]
                        if ready > now:
                            # Not routable yet: part of the port verdict so
                            # the head is re-evaluated the cycle it clears.
                            if ready < p_retry:
                                p_retry = ready
                            continue
                        plan = packet.plan
                        if plan is None:
                            # Inlined ReferenceRouter._plan_for: compute and
                            # cache the head's forwarding plan on the packet.
                            if is_injection:
                                plan = routing_plan(router, packet, None, -1)
                            else:
                                plan = routing_plan(router, packet, input_type, vc)
                                if not plan:
                                    router._count_empty_plan()
                            packet.plan = plan
                        if type(plan) is EjectionRequest:
                            slot = plan.slot
                            ejection_busy = eject_busy[slot]
                            if ejection_busy > now:
                                if ejection_busy < p_retry:
                                    p_retry = ejection_busy
                                continue
                            # Ejection resource keys are the (small) negative
                            # ints, disjoint from the output-port keys.
                            request = (index, vc, packet, -1 - slot, -1, plan)
                        else:
                            size = packet.size_phits
                            for candidate in plan:
                                (out_port, lo, hi, ob, cb, cap,
                                 fail_mask) = candidate.hot
                                out_busy = out_state[ob]
                                if out_busy > now:
                                    if out_busy < p_retry:
                                        p_retry = out_busy
                                    continue
                                if out_state[ob + 1] == now and out_state[ob + 2] >= speedup:
                                    # Grant cap resets next cycle.
                                    if now + 1 < p_retry:
                                        p_retry = now + 1
                                    continue
                                occupancy = out_state[ob + 3]
                                pending = out_state[ob + 4]  # OUT_PENDING
                                if pending and pending[0][0] <= now:
                                    # Output-buffer reclamations are lazy,
                                    # not wake events.
                                    while pending and pending[0][0] <= now:
                                        occupancy -= pending.pop(0)[1]
                                    out_state[ob + 3] = occupancy
                                if occupancy + size > cap:
                                    # Space can only reappear when the oldest
                                    # pending reclamation matures.
                                    release = pending[0][0] if pending else now + 1
                                    if release < p_retry:
                                        p_retry = release
                                    continue
                                out_vc = -1
                                if sel_mode == _SEL_JSQ:
                                    best_free = -1
                                    for ovc in range(lo, hi + 1):
                                        free = credit_free[cb + ovc]
                                        if free >= size and free > best_free:
                                            out_vc, best_free = ovc, free
                                elif sel_mode == _SEL_LOWEST:
                                    for ovc in range(lo, hi + 1):
                                        if credit_free[cb + ovc] >= size:
                                            out_vc = ovc
                                            break
                                elif sel_mode == _SEL_HIGHEST:
                                    for ovc in range(hi, lo - 1, -1):
                                        if credit_free[cb + ovc] >= size:
                                            out_vc = ovc
                                            break
                                else:
                                    candidates: List[int] = []
                                    free_list: List[int] = []
                                    for ovc in range(lo, hi + 1):
                                        free = credit_free[cb + ovc]
                                        if free >= size:
                                            candidates.append(ovc)
                                            free_list.append(free)
                                    if candidates:
                                        out_vc = router.selection.choose(
                                            candidates, free_list, router.rng
                                        )
                                if out_vc < 0:
                                    # Blocked purely on downstream credits:
                                    # record which returns could change it.
                                    p_mask |= fail_mask
                                    continue
                                request = (index, vc, packet, out_port, out_vc, candidate)
                                break
                        if request is not None:
                            next_vc = vc + 1
                            in_rr[index] = 0 if next_vc >= num_vcs else next_vc
                            requests.append(request)
                            proposed.append(index)
                            break
                    if request is None:
                        # Record the per-port verdict: skip this port until
                        # the earliest deterministic blocker expires or a
                        # matching credit returns (receive/pop clear it on
                        # head changes).
                        in_state[base + 2] = p_retry
                        pv_masks[index] = p_mask
                        credit_mask |= p_mask
                        if p_retry < reject_until:
                            reject_until = p_retry
                if not requests:
                    if iteration == 0:
                        if reject_until < retry:
                            retry = reject_until
                        if router.on_stall is not None:
                            router.on_stall(router_id, now, retry)
                        # Nothing was requestable: record the earliest
                        # cycle a deterministic blocker (crossbar, ejection
                        # port, grant cap) expires so pump() can sleep until
                        # then; async blockers (credits) re-activate the
                        # router via the credit sinks.
                        router._alloc_sleep_until = retry
                        router._blocked_credit_mask = credit_mask
                    break
                # Output stage (inlined separable allocator, identical to
                # SeparableAllocator.arbitrate): at most one grant per
                # resource, rotating round-robin priority over input ports.
                # A network grant leaves the input crossbar busy for at
                # least one cycle, so only arbitration *losers* and inputs
                # granted an ejection (which does not use the crossbar) can
                # re-propose; when neither exists the next scan provably
                # yields nothing and is skipped.
                if len(requests) == 1:
                    priority = (priority + 1) % num_inputs
                    request = requests[0]
                    execute_grant(request, now)
                    if request[3] >= 0:
                        break  # network grant: input crossbar now busy
                else:
                    by_resource: dict = {}
                    for request in requests:
                        key = request[3]
                        bucket = by_resource.get(key)
                        if bucket is None:
                            by_resource[key] = [request]
                        else:
                            bucket.append(request)
                    any_eject = False
                    for bucket in by_resource.values():
                        winner = bucket[0]
                        if len(bucket) > 1:
                            best_rank = (winner[0] - priority) % num_inputs
                            for contender in bucket:
                                rank = (contender[0] - priority) % num_inputs
                                if rank < best_rank:
                                    best_rank = rank
                                    winner = contender
                        if winner[3] < 0:
                            any_eject = True
                        execute_grant(winner, now)
                    priority = (priority + 1) % num_inputs
                    if not any_eject and len(by_resource) == len(requests):
                        break  # no losers: nothing can re-propose this cycle
                if not router.resident_packets and not router._injection_resident:
                    # The grants drained the router: the next iteration's
                    # scan could not find a head, so skipping it is
                    # behaviour-identical.
                    break
                scan = proposed
            # The union of the live per-port credit masks (iteration 0 visits
            # every port, so folded skips plus fresh records cover them all).
            router._pv_any_mask = credit_mask

        return allocate

    def _count_empty_plan(self) -> None:
        """A network-input head was planned ``[]``: no hop is offered.

        Counted apart while any router is dead, since a re-table around a
        dead router may leave a head planless.
        """
        if self.routing.route.dead_routers:
            self.empty_plans_router_down += 1
        else:
            self.empty_plans += 1

    def _make_grant_executor(self) -> Callable[[tuple, int], None]:
        """Build the grant-execution closure (pop, debit, transmit).

        All router-local references are captured once; the probe hooks are
        read through ``router`` because they are wired after construction.
        """
        router = self
        alloc_inputs = self._alloc_inputs
        in_busy = self._in_busy
        out_state = self._out_state
        speedup = self.speedup
        on_hop_taken = self.routing.on_hop_taken
        router_id = self.router_id

        def execute_grant(grant: tuple, now: int) -> None:
            index, input_vc, packet, key, out_vc, candidate = grant
            port = alloc_inputs[index]
            if key < 0:
                router._eject(port, input_vc, packet, candidate, now)
                return
            ob = candidate.hot[3]
            op = out_state[ob + 5]  # OUT_PORT
            # Integer ceiling of size/speedup (no math.ceil/float division).
            size = packet.size_phits
            xbar_time = -(-size // speedup)
            if xbar_time < 1:
                xbar_time = 1
            # Returns credits upstream for network ports, tagged with the
            # class the space was debited under, i.e. *before* on_hop_taken
            # may retag it.
            port.pop(input_vc, now, packet.credit_tag_minimal)
            if port.is_injection:
                router._injection_resident -= 1
            else:
                router.resident_packets -= 1
            # Routing state update; detour-affecting hops take the generic
            # path, plain hops inline the counter bumps.
            if candidate.simple_hop:
                packet.hops += 1
                packet.phase_position += 1
                if candidate.is_global_hop:
                    packet.phase_global_taken += 1
            else:
                on_hop_taken(packet, candidate)
            # Debit downstream credits under the (possibly updated) class.
            minimal_tag = packet.route_kind == _MINIMAL
            op.debit(out_vc, size, minimal_tag)
            packet.credit_tag_minimal = minimal_tag
            in_busy[index] = now + xbar_time
            out_state[ob] = now + xbar_time
            if out_state[ob + 1] != now:
                out_state[ob + 1] = now
                out_state[ob + 2] = 1
            else:
                out_state[ob + 2] += 1
            # Output-buffer admission was checked by the proposal this cycle
            # and at most one grant per output per iteration can land, so
            # the space reservation needs no re-check.
            out_state[ob + 3] += size
            # Transmission timing is fully determined here (FIFO link, known
            # crossbar and serialization delays), so the send is scheduled
            # now instead of polling an output queue every cycle: the packet
            # starts serializing once it has crossed the crossbar and the
            # link is free.
            link = op.link
            if link is None:
                raise RuntimeError(f"output port {op.port_id} of router "
                                   f"{router_id} has no link attached")
            start = now + xbar_time
            if link.busy_until > start:
                start = link.busy_until
            tail_out = link.transmit(packet, out_vc, start)
            op.schedule_release(tail_out, size)
            if (not minimal_tag and packet.hops == 1
                    and router.on_misroute is not None):
                router.on_misroute(packet, now)

        return execute_grant

    def _eject(self, port: InputPort, input_vc: int, packet: Packet,
               request: EjectionRequest, now: int) -> None:
        ejection = self.ejection_ports[request.slot]
        port.pop(input_vc, now, packet.credit_tag_minimal)
        if port.is_injection:
            self._injection_resident -= 1
        else:
            self.resident_packets -= 1
        done = ejection.consume(packet, now)
        packet.delivered_at = done
        self.engine.schedule_call(done, self.on_delivery, (packet, done))
