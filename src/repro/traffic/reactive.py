"""Traffic manager: injection plumbing plus reactive (request-reply) traffic.

The :class:`TrafficManager` sits between the traffic generators and the
routers.  Every cycle it asks the generator for new request packets and drops
them into the source routers' injection queues.  When ``reactive`` is enabled
(Section IV-B), every consumed request triggers a reply of the same size from
the destination node back to the original source, mirroring the
request-reply virtual networks of Cray Cascade.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from ..core.link_types import MessageClass
from ..metrics import MetricsCollector
from ..packet import Packet
from .base import TrafficGenerator


class TrafficManager:
    """Feeds routers with generated traffic and handles replies and metrics."""

    def __init__(
        self,
        generator: TrafficGenerator,
        routers: Sequence[object],
        nodes_per_router: int,
        metrics: MetricsCollector,
        reactive: bool = False,
        router_of_node: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.generator = generator
        self.routers = list(routers)
        self.nodes_per_router = nodes_per_router
        self.metrics = metrics
        self.reactive = reactive
        #: node -> source router mapping; None keeps the uniform division
        #: (topologies with transit-only routers supply their own).
        self.router_of_node = router_of_node
        #: hook invoked on every delivery, after metrics/replies are handled.
        self.delivery_hook: Optional[Callable[[Packet, int], None]] = None
        #: fault-injection admission filter (None on pristine networks):
        #: returns False to suppress a packet whose endpoint router is down,
        #: *before* it is counted as generated (see repro.faults).
        self.fault_filter: Optional[Callable[[Packet], bool]] = None
        #: set by Session.drain(): no new requests (replies still flow so
        #: in-flight request-reply exchanges can complete).
        self._stopped = False
        #: per-simulation packet-id counter, shared with the generator so
        #: request and reply pids interleave deterministically and reruns in
        #: the same process produce identical pid sequences.
        self._pids = itertools.count()
        generator.pid_source = self._pids

    # -- generation -------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Generate this cycle's request packets (called by the engine)."""
        if self._stopped:
            return
        for packet in self.generator.generate(cycle):
            self._enqueue(packet, cycle)

    def stop(self) -> None:
        """Stop generating new requests (drain phase)."""
        self._stopped = True

    def quiescent(self) -> bool:
        """True when no packet can be generated (lets the engine skip cycles).

        Replies are spawned from delivery events, which the engine never
        skips over, so only the request generator matters here.
        """
        return self._stopped or self.generator.quiescent()

    def _enqueue(self, packet: Packet, cycle: int) -> None:
        fault_filter = self.fault_filter
        if fault_filter is not None and not fault_filter(packet):
            # Suppressed (an endpoint's router is down): the RNG draw that
            # produced the packet already happened — surviving traffic is
            # bit-identical — and the packet never counts as generated.
            return
        if self.router_of_node is not None:
            router_index = self.router_of_node(packet.src_node)
        else:
            router_index = packet.src_node // self.nodes_per_router
        self.metrics.record_generation(packet, cycle)
        self.routers[router_index].enqueue_source(packet, cycle)

    # -- delivery ----------------------------------------------------------------------
    def on_delivery(self, packet: Packet, cycle: int) -> None:
        """Router callback: record statistics and spawn replies."""
        self.metrics.record_delivery(packet, cycle)
        if self.reactive and packet.msg_class == MessageClass.REQUEST:
            reply = Packet(
                src_node=packet.dst_node,
                dst_node=packet.src_node,
                size_phits=packet.size_phits,
                msg_class=MessageClass.REPLY,
                created_at=cycle,
                in_reply_to=packet.pid,
                pid=next(self._pids),
            )
            self._enqueue(reply, cycle)
        if self.delivery_hook is not None:
            self.delivery_hook(packet, cycle)
