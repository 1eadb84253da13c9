"""Simulation façade: build a network from a configuration and run it.

``Simulation(config)`` wires everything together — topology, routers, links,
traffic and metrics — and lets the routing algorithm bind
whatever state it keeps on the routers.  Execution lives in
the phased :class:`~repro.session.Session` API (warmup / measure / drain,
probes, RunRecords): ``Session(config).run()`` is the one way to run a point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .collector import paused_collector
from .config import SimulationConfig
from .core.flexvc import make_policy
from .core.link_types import LinkType
from .core.vc_selection import make_selection
from .engine import Engine
from .link import Link
from .metrics import MetricsCollector, SimulationResult
from .packet import Packet
from .router.router import Router
from .routing import make_routing
from .routing.route_table import RouteTable
from .topology.base import Topology
from .traffic import TrafficManager, make_generator

@dataclass
class SimulationArtifacts:
    """Reusable construction artifacts of one network description.

    Everything here is a pure function of ``config.network`` (graph and
    latencies): the built topology and its
    :class:`~repro.routing.route_table.RouteTable` (minimal next ports, hop
    sequences and distances; columns fill in on first touch).  A pristine
    run only ever adds columns to the table, so one
    instance can back any number of simulations — a sweep worker takes them
    from :func:`build_artifacts` and injects them via
    ``Simulation(cfg, artifacts=...)``, turning a 200-job sweep's 200
    rebuilds into a handful.  The caller is responsible for matching
    artifacts to configurations.
    """

    topology: Topology
    route_table: RouteTable


@paused_collector()
def build_artifacts(config: SimulationConfig) -> SimulationArtifacts:
    """Build-or-reuse the shareable construction artifacts for ``config``.

    The topology comes from the registry's bounded build cache and the route
    table from a memo *on the topology instance itself*, so configurations
    describing the same network — sweep points differing only in load, seed,
    routing or traffic — share one graph and one table per process, and
    evicting a topology from the registry cache releases its table with it
    (their lifetimes are one).  ``Simulation(config)`` without artifacts
    builds private instances (same contents).
    """
    topology = config.network.build_cached()
    route_table = topology.__dict__.get("_cached_route_table")
    if route_table is None:
        route_table = RouteTable(topology)
        topology.__dict__["_cached_route_table"] = route_table
    return SimulationArtifacts(topology=topology, route_table=route_table)


class Simulation:
    """One complete simulation instance (single seed).

    ``use_reference_allocator=True`` builds the network with
    :class:`~repro.router.reference.ReferenceRouter` — the kept-for-test
    full-rescan allocation pass — instead of the incremental fast path.
    Results are bit-identical by construction (asserted by
    ``tests/test_alloc_equivalence.py``); the flag exists for that test and
    for debugging suspected allocator regressions.

    ``artifacts`` injects pre-built construction artifacts
    (:class:`SimulationArtifacts`: topology + route table) instead of
    building them here.  The artifacts must describe ``config.network``
    (``build_artifacts(config)`` does by construction).  A pristine run only
    adds columns to the table, so sharing artifacts across simulations is
    bit-identical to private builds.  A run with
    ``config.faults`` re-tables in place, so it takes a private table
    instead of the injected table itself.
    """

    @paused_collector()
    def __init__(
        self,
        config: SimulationConfig,
        *,
        use_reference_allocator: bool = False,
        artifacts: Optional[SimulationArtifacts] = None,
    ) -> None:
        config.validate()
        self.config = config
        self._use_reference_allocator = use_reference_allocator
        self.rng = random.Random(config.seed)
        self.engine = Engine()
        self.topology = (
            artifacts.topology if artifacts is not None else config.network.build()
        )
        #: minimal-route table shared by every routing consumer (plans and
        #: the adaptive algorithms' congestion sensing).
        if artifacts is None or config.faults:
            self.route_table = RouteTable(self.topology)
        else:
            self.route_table = artifacts.route_table
        self.metrics = MetricsCollector(num_nodes=self.topology.num_nodes)
        self.policy = make_policy(config.routing.vc_policy, config.arrangement)
        self.selection = make_selection(config.routing.vc_selection)
        self.routing = make_routing(
            self.topology, self.policy, self.selection,
            config.routing, config.arrangement, self.rng,
            route_table=self.route_table,
        )
        self.routers: List[Router] = []
        self.traffic: Optional[TrafficManager] = None
        self._build_routers()
        self._wire_links()
        self.routing.bind_routers(self.routers)
        self._build_traffic()
        #: fault-injection runtime (None on pristine networks): wraps link
        #: deliveries and replays ``config.faults`` through the calendar.
        self.fault_controller = None
        if config.faults:
            from .faults import FaultController

            self.fault_controller = FaultController(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_routers(self) -> None:
        router_class = Router
        if self._use_reference_allocator:
            from .router.reference import ReferenceRouter

            router_class = ReferenceRouter
        for router_id in range(self.topology.num_routers):
            router = router_class(
                router_id=router_id,
                topology=self.topology,
                engine=self.engine,
                router_config=self.config.router,
                arrangement=self.config.arrangement,
                routing=self.routing,
                selection=self.selection,
                rng=self.rng,
                on_delivery=self._on_delivery,
            )
            self.routers.append(router)
            self.engine.register_router(router)

    def _link_latency(self, link_type: LinkType) -> int:
        net = self.config.network
        return net.local_latency if link_type == LinkType.LOCAL else net.global_latency

    def _wire_links(self) -> None:
        """Join the two port ends of every directed edge: the output port
        holds a :class:`Link` to the input port, and the input port holds
        the output port as its ``upstream``, where ``pop`` returns credits
        after the same latency."""
        wiring = self.topology.wiring()
        for slot, neighbor in enumerate(wiring.neighbor):
            if neighbor < 0:
                continue
            router_id, port = divmod(slot, wiring.ports_per_router)
            output = self.routers[router_id].output_ports[port]
            in_port = self.routers[neighbor].input_ports[wiring.back_port[slot]]
            latency = self._link_latency(output.link_type)
            output.link = Link(self.engine, latency, in_port)
            in_port.upstream = output
            in_port.credit_latency = latency

    def _build_traffic(self) -> None:
        generator = make_generator(self.config.traffic, self.topology, self.rng)
        self.traffic = TrafficManager(
            generator=generator,
            routers=self.routers,
            nodes_per_router=self.topology.nodes_per_router,
            metrics=self.metrics,
            reactive=self.config.traffic.reactive,
            # Topologies with transit-only routers (Megafly spines) need the
            # topology's own node mapping instead of the uniform division.
            router_of_node=(
                None
                if self.topology.has_uniform_node_mapping
                else self.topology.router_of_node
            ),
        )
        self.engine.register_traffic(self.traffic)

    def _on_delivery(self, packet: Packet, cycle: int) -> None:
        assert self.traffic is not None
        self.traffic.on_delivery(packet, cycle)

    # -- diagnostics -----------------------------------------------------------------
    def _deadlock_suspected(self) -> bool:
        """No delivery for a long stretch while packets wait in network input
        buffers (injection buffers and source queues are not counted)."""
        if not self.total_resident_packets():
            return False
        window = self.config.deadlock_window_cycles
        last = self.metrics.last_delivery_cycle
        if last < 0:
            return self.engine.now > window
        return (self.engine.now - last) > window

    def held(self) -> Tuple[int, int, int]:
        """Where the packets are: ``(network input buffers, injection
        buffers, source queues)``, each summed over the routers."""
        routers = self.routers
        return (
            sum(router.resident_packets for router in routers),
            sum(router._injection_resident for router in routers),
            sum(router._source_backlog for router in routers),
        )

    def total_resident_packets(self) -> int:
        """Packets in network input buffers (not injection buffers or source
        queues)."""
        return self.held()[0]

    def routing_stats(self) -> Dict[str, int]:
        """The routing algorithm's memo counters and the routers' empty-plan
        counts (RunRecord provenance)."""
        return {
            **self.routing.memo_stats(),
            "empty_plans": sum(r.empty_plans for r in self.routers),
            "empty_plans_router_down": sum(
                r.empty_plans_router_down for r in self.routers
            ),
        }


def _average_extras(results: List[SimulationResult]) -> Dict[str, float]:
    """Seed-average the ``extra`` dicts instead of silently dropping them.

    Keys are the union across seeds; values that are numeric (and non-bool)
    in every seed carrying the key are averaged, anything else keeps the
    first seen value.
    """
    merged: Dict[str, List[float]] = {}
    for result in results:
        for key, value in result.extra.items():
            merged.setdefault(key, []).append(value)
    averaged: Dict[str, float] = {}
    for key, values in merged.items():
        if all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        ):
            averaged[key] = sum(values) / len(values)
        else:
            averaged[key] = values[0]
    return averaged


def average_results(results: List[SimulationResult]) -> SimulationResult:
    """Average accepted load and latency across seeds (other fields from the first)."""
    if not results:
        raise ValueError("no results to average")
    base = results[0]
    n = len(results)
    return SimulationResult(
        offered_load=base.offered_load,
        accepted_load=sum(r.accepted_load for r in results) / n,
        average_latency=sum(r.average_latency for r in results) / n,
        latency_p99=sum(r.latency_p99 for r in results) / n,
        packets_delivered=sum(r.packets_delivered for r in results) // n,
        packets_generated=sum(r.packets_generated for r in results) // n,
        phits_delivered=sum(r.phits_delivered for r in results) // n,
        measured_cycles=base.measured_cycles,
        num_nodes=base.num_nodes,
        misrouted_fraction=sum(r.misrouted_fraction for r in results) / n,
        deadlock_suspected=any(r.deadlock_suspected for r in results),
        extra=_average_extras(results),
    )
