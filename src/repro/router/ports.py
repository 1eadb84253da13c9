"""Router ports: network inputs, network outputs, injection and ejection.

The router is combined input-output buffered (Section IV): every network
input port holds per-VC queues backed by a
:class:`~repro.buffers.base.BufferOrganization`, every network output port
holds a small output buffer that decouples crossbar traversal from link
serialization, and each attached node owns an injection port (three deep VC
buffers in Table V) and two consumption (ejection) ports — one for requests,
one for replies — so that request-reply protocol deadlock is resolved at the
endpoints as in Cray Cascade.

Hot-state layout
----------------
The fields the allocator reads every cycle (resident counts, pipeline
readiness, ejection busy timers, output crossbar/grant/buffer state) live in
flat per-router slabs — preallocated lists indexed by a single integer — and
each port object is *bound* to its slice at construction time via
``bind_hot_state``.  Ports created standalone (unit tests, tools) own a
private mini-slab, so the methods below behave identically either way; the
attribute names of the old object-per-field layout remain available as
read-only properties.

Per-link state
--------------
A directed link's state lives in its two port ends, not in objects of its
own.  The three calls a link makes into its routers are *functions of the
port classes*: the link's ``deliver`` slot is :meth:`InputPort.deliver`
itself, called with the downstream port as its first argument; an input
port's ``pop`` schedules :meth:`OutputPort.credit_return` with its
``upstream`` port as the first argument after its ``credit_latency``; and
the grant executor calls :meth:`OutputPort.debit`.  Everything they touch is
already a slot of the port (queues, hot-state slice, buffer, credit mirror)
or reachable through its ``router`` slot, so a link holds no bound method,
closure or credit-channel object (DESIGN.md §6/§9).  There is one body per
callback, for every buffer organization and pipeline latency, layered
through ``BufferOrganization``: a copy fused into one frame for statically
partitioned buffers measured within noise of these (DESIGN.md §6 table), so
none is kept.

Credits
-------
An output port keeps one count per downstream VC, in its credit ``mirror``:
a :class:`~repro.buffers.base.BufferOrganization` like the downstream
buffer, which answers virtual cut-through admission.  FlexVC-minCred
(Section III-D) adds ``minimal_phits``, the part of each VC's occupancy
debited by minimally-routed packets; a credit return echoes its debit's
class, so the non-minimal share is the occupancy minus that part.
"""

from __future__ import annotations

from typing import List, Optional

from ..buffers.base import BufferOrganization
from ..buffers.damq import DamqBuffer
from ..core.link_types import LinkType, MessageClass
from ..link import Link
from ..packet import Packet

#: input-port slab offsets (stride 3): resident packet count, earliest head
#: pipeline-ready cycle, and the port's blocked-verdict expiry (-1 = none —
#: the allocator must evaluate the port; see Router._allocate).
IN_RESIDENT = 0
IN_MIN_READY = 1
IN_BLOCKED = 2
IN_STRIDE = 3

#: output-port slab offsets (stride 6): four counters, then the port's
#: pending-release list and the port itself, so a record holding only the
#: slab offset (``CandidateHop.hot``, shared by every router of a port
#: layout) reaches this router's objects.
OUT_XBAR_BUSY = 0
OUT_GRANT_STAMP = 1
OUT_GRANTS = 2
OUT_BUF_OCC = 3
OUT_PENDING = 4
OUT_PORT = 5
OUT_STRIDE = 6

#: shared round-robin visit orders keyed by VC count (every port with the
#: same ``num_vcs`` scans VCs in the same precomputed orders).
_RR_ORDERS: dict[int, tuple[tuple[int, ...], ...]] = {}


def _rr_orders(num_vcs: int) -> tuple[tuple[int, ...], ...]:
    orders = _RR_ORDERS.get(num_vcs)
    if orders is None:
        orders = _RR_ORDERS[num_vcs] = tuple(
            tuple((start + offset) % num_vcs for offset in range(num_vcs))
            for start in range(num_vcs)
        )
    return orders


class InputPort:
    """Per-VC queues of a network input port (or an injection port)."""

    __slots__ = (
        "port_id", "link_type", "num_vcs", "buffer", "pipeline_latency",
        "is_injection", "queues", "upstream", "credit_latency", "rr_orders",
        "on_occupancy", "_hot", "_hb", "router",
    )

    def __init__(
        self,
        port_id: int,
        link_type: Optional[LinkType],
        num_vcs: int,
        buffer: BufferOrganization,
        pipeline_latency: int,
        is_injection: bool = False,
    ) -> None:
        if buffer.num_vcs != num_vcs:
            raise ValueError("buffer organization VC count must match num_vcs")
        self.port_id = port_id
        self.link_type = link_type
        self.num_vcs = num_vcs
        self.buffer = buffer
        self.pipeline_latency = pipeline_latency
        self.is_injection = is_injection
        #: per-VC FIFO of (packet, ready_cycle) pairs.  Slots start as None
        #: and get their queue on first arrival — at 10^5-endpoint scale
        #: most of the millions of VC queues never see a packet during
        #: short runs.  Consumers already treat an empty queue as falsy,
        #: which None satisfies; only ``receive`` creates one.  The queue is
        #: a plain list, not a deque: its depth is bounded by the VC's
        #: buffer capacity in packets (small), ``pop(0)`` on a short list is
        #: cheap, and an empty deque costs ~11x the memory of an empty list
        #: — once steady-state traffic has touched every (port, VC) pair,
        #: that difference is hundreds of MB at system scale.
        self.queues: list[Optional[List[tuple[Packet, int]]]] = [None] * num_vcs
        #: precomputed round-robin visit orders: ``rr_orders[p]`` is the VC
        #: scan sequence starting at pointer ``p`` (allocator inner loop).
        #: Identical for every port with the same VC count, so shared
        #: process-wide instead of rebuilt per port.
        self.rr_orders: tuple[tuple[int, ...], ...] = _rr_orders(num_vcs)
        #: the output port at the other end of the link, which ``pop``
        #: returns credits to after ``credit_latency`` cycles (None for
        #: injection and standalone ports: no credit leaves them).
        self.upstream: Optional[OutputPort] = None
        self.credit_latency = 0
        #: probe dispatch ``hook(vc, delta_phits, occupancy, now)``; None (the
        #: default) keeps the no-probe receive/pop paths dispatch-free.
        self.on_occupancy = None
        #: hot-state slab slice [resident, min_ready, blocked_until];
        #: standalone ports own a private slab until a router binds them
        #: into its shared one.
        self._hot: list = [0, 0, -1]
        self._hb = 0
        #: owning router (None for standalone ports), told of link arrivals.
        self.router = None

    def bind_hot_state(self, slab: list, base: int) -> None:
        """Move this port's hot counters into ``slab[base:base+3]``."""
        hot = self._hot
        hb = self._hb
        for offset in range(IN_STRIDE):
            slab[base + offset] = hot[hb + offset]
        self._hot = slab
        self._hb = base

    @property
    def resident_packets(self) -> int:
        """Number of packets currently resident in the port."""
        return self._hot[self._hb + IN_RESIDENT]

    @property
    def min_ready(self) -> int:
        """Earliest cycle at which any head packet clears the pipeline (only
        meaningful while ``resident_packets > 0``)."""
        return self._hot[self._hb + IN_MIN_READY]

    # -- arrival --------------------------------------------------------------
    def receive(self, packet: Packet, vc: int, now: int) -> None:
        """Store an arriving packet into VC ``vc``; it becomes routable after
        the router pipeline latency."""
        self.buffer.allocate(vc, packet.size_phits)
        ready = now + self.pipeline_latency
        queue = self.queues[vc]
        if queue is None:
            queue = self.queues[vc] = []
        queue.append((packet, ready))
        hot = self._hot
        base = self._hb
        resident = hot[base] + 1
        hot[base] = resident
        if resident == 1 or ready < hot[base + 1]:
            hot[base + 1] = ready
        # A recorded blocked verdict never covers this new head, so it must
        # be re-evaluated (the head only becomes routable at ``ready``).
        hot[base + 2] = -1
        if self.on_occupancy is not None:
            self.on_occupancy(vc, packet.size_phits, self.buffer.occupancy(vc), now)

    def deliver(self, packet: Packet, vc: int, now: int) -> None:
        """Link delivery callback: store the packet and notify the router.

        An arrival deliberately does *not* clear a recorded allocation
        blockage: the new head cannot be granted before it clears the router
        pipeline, so the verdict's expiry is merely clamped down to that
        cycle and a timed wake re-evaluates exactly then.
        """
        self.receive(packet, vc, now)
        router = self.router
        router.resident_packets += 1
        ready = now + self.pipeline_latency
        blocked = router._alloc_sleep_until
        if 0 <= blocked and ready < blocked:
            router._alloc_sleep_until = ready
        if ready > now:
            # Nothing this arrival enables can happen before the head clears
            # the router pipeline, so wake exactly then instead of pumping a
            # guaranteed no-op cycle now.  (An active router keeps stepping
            # regardless; the extra wake is a cheap set-insert.)
            router.engine.schedule_wake(ready, router.engine_index)
        else:
            # Zero-latency pipelines make the head routable this cycle.
            router.engine_activate(router.engine_index)

    # -- head access -------------------------------------------------------------
    def head(self, vc: int, now: int) -> Optional[Packet]:
        """Head packet of VC ``vc`` if it has cleared the pipeline, else None."""
        queue = self.queues[vc]
        if not queue:
            return None
        packet, ready = queue[0]
        return packet if ready <= now else None

    def pop(self, vc: int, now: int, minimal: bool) -> Packet:
        """Remove the head packet of ``vc``, free its space and return credits."""
        packet, _ = self.queues[vc].pop(0)
        # The head's cached forwarding plan (``Packet.plan``) is this
        # router's; the packet's next head position plans afresh.
        packet.plan = None
        self.buffer.release(vc, packet.size_phits)
        hot = self._hot
        base = self._hb
        resident = hot[base] - 1
        hot[base] = resident
        hot[base + 2] = -1  # head changed: any blocked verdict is stale
        if resident:
            min_ready = -1
            for queue in self.queues:
                if queue:
                    ready = queue[0][1]
                    if min_ready < 0 or ready < min_ready:
                        min_ready = ready
            hot[base + 1] = min_ready
        upstream = self.upstream
        if upstream is not None:
            self.router.engine.schedule_call(
                now + self.credit_latency, _credit_return,
                (upstream, vc, packet.size_phits, minimal))
        if self.on_occupancy is not None:
            self.on_occupancy(vc, -packet.size_phits, self.buffer.occupancy(vc), now)
        return packet

    def occupancy(self, vc: int) -> int:
        return self.buffer.occupancy(vc)

    def is_empty(self) -> bool:
        return self.resident_packets == 0


class OutputPort:
    """Network output port: credit mirror, output buffer and link access."""

    __slots__ = (
        "port_id", "link_type", "mirror", "minimal_phits",
        "output_buffer_capacity", "_pending_releases", "link", "_hot", "_hb",
        "router",
    )

    def __init__(
        self,
        port_id: int,
        link_type: LinkType,
        mirror: BufferOrganization,
        output_buffer_phits: int,
    ) -> None:
        self.port_id = port_id
        self.link_type = link_type
        #: upstream copy of the downstream input port's buffer accounting.
        self.mirror = mirror
        #: per-VC phits of the mirror's occupancy debited by minimally-routed
        #: packets (the non-minimal share is the rest).
        self.minimal_phits = [0] * mirror.num_vcs
        self.output_buffer_capacity = output_buffer_phits
        #: (cycle, phits) reclamations applied lazily by buffer_space_for —
        #: cheaper than scheduling one engine event per transmitted packet.
        #: A plain list, not a deque: it holds at most the few transmissions
        #: in flight on one link, and an empty deque costs ~11x the memory
        #: of an empty list — measurable with one instance per output port
        #: at 10^5-endpoint scale.
        self._pending_releases: list[tuple[int, int]] = []
        self.link: Optional[Link] = None
        #: hot-state slab slice [xbar_busy, grant_stamp, grants, buf_occ]
        #: (a standalone port's private one holds the counters only).
        #: The grant stamp makes the per-cycle grant counter self-resetting,
        #: so the allocator never sweeps output ports at the top of a cycle.
        self._hot: list = [0, -1, 0, 0]
        self._hb = 0
        #: owning router (None for standalone ports): its blocked verdicts
        #: are what a returning credit may clear.
        self.router = None

    def bind_hot_state(self, slab: list, base: int) -> None:
        """Move this port's hot counters into ``slab[base:base+4]`` and
        put its pending-release list and itself after them."""
        hot = self._hot
        hb = self._hb
        for offset in range(4):
            slab[base + offset] = hot[hb + offset]
        slab[base + OUT_PENDING] = self._pending_releases
        slab[base + OUT_PORT] = self
        self._hot = slab
        self._hb = base

    @property
    def xbar_busy_until(self) -> int:
        return self._hot[self._hb + OUT_XBAR_BUSY]

    @property
    def grant_stamp(self) -> int:
        return self._hot[self._hb + OUT_GRANT_STAMP]

    @property
    def grants_this_cycle(self) -> int:
        return self._hot[self._hb + OUT_GRANTS]

    # -- admission -----------------------------------------------------------------
    def buffer_space_for(self, phits: int, now: Optional[int] = None) -> bool:
        """Room for ``phits`` in the output buffer (after matured releases)?

        ``now`` lets the port apply pending lazy reclamations first; omit it
        for a pure occupancy check (e.g. the post-grant assertion).
        """
        hot = self._hot
        index = self._hb + OUT_BUF_OCC
        if now is not None:
            pending = self._pending_releases
            while pending and pending[0][0] <= now:
                hot[index] -= pending.pop(0)[1]
        return hot[index] + phits <= self.output_buffer_capacity

    def schedule_release(self, cycle: int, phits: int) -> None:
        """Reclaim ``phits`` of output buffer at ``cycle`` (applied lazily).

        Transmissions finish in FIFO order on the single attached link, so
        the pending queue is naturally sorted by cycle.
        """
        self._pending_releases.append((cycle, phits))

    # -- credit flow ------------------------------------------------------------------
    def credit_mask(self, lo: int, hi: int) -> int:
        """Bits of the router's credit-free slab whose credit returns can
        lift a credit block on downstream VCs ``lo..hi``.

        A shared-pool (DAMQ) mirror lets any credit of the port raise any
        VC's free space, so its mask covers the whole port; a statically
        partitioned mirror's covers exactly ``lo..hi``.
        """
        mirror = self.mirror
        if isinstance(mirror, DamqBuffer):
            lo, hi = 0, mirror.num_vcs - 1
        return ((1 << (hi - lo + 1)) - 1) << (mirror._free_base + lo)

    def debit(self, vc: int, phits: int, minimal: bool) -> None:
        """Consume downstream credits when a packet is granted towards ``vc``."""
        self.mirror.allocate(vc, phits)
        if minimal:
            self.minimal_phits[vc] += phits

    def credit_return(self, vc: int, phits: int, minimal: bool) -> None:
        """Credit return from the downstream input port (its ``pop``).

        The mirror rejects a return larger than the VC's occupancy first;
        then the return's routing class must hold at least ``phits``.

        A returning credit re-activates the router when a recorded
        allocation blockage actually depends on it (its bit in
        ``_blocked_credit_mask``).  A router sleeping *without* a verdict has
        no pipeline-ready head, and a credit cannot create one, so nothing
        needs to happen then, unless the router posts (``post_sensing``).
        Debit and credit return are the only writers of what a post reads,
        so a return wakes a poster and its pump posts the new count.
        """
        mirror = self.mirror
        mirror.release(vc, phits)
        held = self.minimal_phits[vc]
        if minimal:
            if phits > held:
                raise ValueError(
                    f"removing {phits} minimal phits but only {held} accounted")
            self.minimal_phits[vc] = held - phits
        elif mirror._occupancy[vc] < held:
            raise ValueError(
                f"removing {phits} non-minimal phits but only "
                f"{mirror._occupancy[vc] + phits - held} accounted")
        router = self.router
        # The mirror's free-slab binding is the router's ``_credit_free``
        # slice of this port, which is also how the masks are indexed.
        index = mirror._free_base + vc
        bit = 1 << index
        if router._pv_any_mask & bit:
            # Clear the per-port blocked verdicts that depended on this
            # credit so the next allocation pass re-evaluates them.
            in_state = router._in_state
            pv_masks = router._pv_masks
            for port in range(router._n_in):
                if pv_masks[port] & bit:
                    in_state[3 * port + 2] = -1
                    pv_masks[port] = 0
        if (router._alloc_sleep_until >= 0
                and (router._blocked_credit_mask >> index) & 1):
            router._alloc_sleep_until = -1
            router.engine_activate(router.engine_index)
        elif router.post_sensing is not None:
            router.engine_activate(router.engine_index)

    # -- congestion sensing --------------------------------------------------------
    def occupancy_metric(self, per_vc: bool, vc: int, minimal_only: bool) -> int:
        """Downstream phits held on this port's credits, as one of Figure 8's
        four sensing variants: the whole port or VC ``vc`` only (``per_vc``),
        counting all credits or, for FlexVC-minCred (Section III-D), only
        those of minimally-routed packets (``minimal_only``)."""
        counts = self.minimal_phits if minimal_only else self.mirror._occupancy
        return counts[vc] if per_vc else sum(counts)


#: what ``InputPort.pop`` schedules: one function for every output port.
_credit_return = OutputPort.credit_return


class EjectionPort:
    """Consumption port of one node for one message class (1 phit/cycle)."""

    __slots__ = ("node", "msg_class", "_hot", "_hb")

    def __init__(self, node: int, msg_class: MessageClass) -> None:
        self.node = node
        self.msg_class = msg_class
        #: hot-state slab slice [busy_until].
        self._hot: list = [0]
        self._hb = 0

    def bind_hot_state(self, slab: list, base: int) -> None:
        slab[base] = self._hot[self._hb]
        self._hot = slab
        self._hb = base

    @property
    def busy_until(self) -> int:
        return self._hot[self._hb]

    def idle_at(self, now: int) -> bool:
        return self._hot[self._hb] <= now

    def consume(self, packet: Packet, now: int) -> int:
        """Start consuming ``packet``; returns its completion cycle."""
        if self._hot[self._hb] > now:
            raise RuntimeError("ejection port busy")
        done = now + packet.size_phits
        self._hot[self._hb] = done
        return done
