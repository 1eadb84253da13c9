"""The one ``Wiring`` per topology, checked against pinned digests.

Each digest is sha256[:16] over a network's every ``(router, port)`` link
(neighbor, link type, back port, global-port index), its ``router_groups()``
and every ``group_slot``, every ``min_next_ports_to(dst)`` column, and every
``RouteTable`` ``hop_sequence`` and Piggyback ``first_global_link``, pinned
per network in ``tests/data/pins.json``.  The values were captured when each
topology still derived its links and its minimal routes in closed form, per
pair (``port_to``, ``min_next_port``, ``min_hop_sequence``); the generic
derivations from ``ports()`` and ``min_next_ports_to`` must reproduce them
exactly.
"""

import pytest

from repro.config import NetworkConfig, RoutingConfig, SimulationConfig
from repro.core.arrangement import VcArrangement
from repro.core.link_types import LinkType
from repro.experiments.runner import TINY
from repro.routing.piggyback import first_global_link
from repro.routing.route_table import RouteTable
from repro.simulation import Simulation
from repro.topology import (
    TOPOLOGIES,
    Dragonfly,
    FlattenedButterfly2D,
    HyperX,
    Megafly,
    PortInfo,
    Topology,
    Wiring,
    verify_bidirectional,
)

from pins import digest

NETWORKS = {
    "dragonfly h=1": lambda: Dragonfly(h=1),
    "dragonfly h=2": lambda: Dragonfly(h=2),
    "dragonfly h=3": lambda: Dragonfly(h=3),
    "dragonfly h=2 6 groups": lambda: Dragonfly(h=2, num_groups=6),
    "dragonfly h=3 a=4 5 groups": lambda: Dragonfly(h=3, p=2, a=4, num_groups=5),
    "megafly 2/2 h=2": lambda: Megafly(spines=2, leaves=2, h=2, p=2),
    "megafly 3/2 h=2": lambda: Megafly(spines=3, leaves=2, h=2, p=1),
    "megafly 2/3 h=2 3 groups": lambda: Megafly(spines=2, leaves=3, h=2, p=1, num_groups=3),
    "hyperx (4,)": lambda: HyperX(dims=(4,), p=1),
    "hyperx (4,1)": lambda: HyperX(dims=(4, 1), p=1),
    "hyperx (3,3,3)": lambda: HyperX(dims=(3, 3, 3), p=1),
    "hyperx (2,3,1,2)": lambda: HyperX(dims=(2, 3, 1, 2), p=1),
    "fb 4x3": lambda: FlattenedButterfly2D(k1=4, k2=3, p=2),
    "fb 5x1": lambda: FlattenedButterfly2D(k1=5, k2=1, p=1),
    **{
        f"tiny {name}": (lambda name=name: TINY.network_for(name).build())
        for name in TOPOLOGIES.names()
    },
}

def wiring_digest(topo):
    chunks = []
    n = topo.num_routers
    for router in range(n):
        row = []
        for info in topo.ports(router):
            port = info.port
            link_type = topo.link_type(router, port)
            index = (topo.global_port_index(router, port)
                     if link_type == LinkType.GLOBAL else -1)
            row.append((port, topo.neighbor(router, port), int(link_type),
                        topo.back_port(router, port), index))
        chunks.append(repr((router, row)))
    chunks.append(repr(topo.router_groups()))
    chunks.append(repr([topo.group_slot(router) for router in range(n)]))
    for dst in range(n):
        chunks.append(repr((dst, list(topo.min_next_ports_to(dst)))))
    table = RouteTable(topo)
    wiring = topo.wiring()
    for dst in range(n):
        chunks.append(repr((dst, [
            (tuple(int(t) for t in table.hop_sequence(src, dst)),
             first_global_link(wiring, table.column(dst), src))
            for src in range(n)
        ])))
    return digest(*chunks)


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_wiring_and_routes_match_closed_form_digest(name, pin):
    pin(wiring_digest(NETWORKS[name]()))


class _Line(Topology):
    """Two routers joined by one link whose far end is declared or not."""

    def __init__(self, back_type):
        self._back_type = back_type

    num_routers = 2
    nodes_per_router = 1
    radix = 1
    diameter = 1
    canonical_minimal_sequence = (LinkType.LOCAL,)

    def ports(self, router):
        if router == 0:
            return [PortInfo(0, 1, LinkType.LOCAL)]
        return [] if self._back_type is None else [PortInfo(0, 0, self._back_type)]

    def min_next_ports_to(self, dst_router):
        return [-1 if src == dst_router else 0 for src in range(2)]


class TestWiring:
    def test_two_methods_make_a_topology(self):
        line = _Line(LinkType.LOCAL)
        assert line.back_port(0, 0) == 0 and line.neighbor(1, 0) == 0
        assert not line.has_link_type_restrictions
        assert line.router_groups() == [[0, 1]]
        assert RouteTable(line).hop_sequence(0, 1) == (LinkType.LOCAL,)

    @pytest.mark.parametrize("back_type", [None, LinkType.GLOBAL])
    def test_asymmetric_wiring_raises(self, back_type):
        line = _Line(back_type)
        with pytest.raises(ValueError, match="asymmetric"):
            Wiring.of(line)
        assert not verify_bidirectional(line)

    def test_port_without_link_raises(self, topo):
        per = topo.wiring().ports_per_router
        for port in (-1, per):
            with pytest.raises(ValueError):
                topo.neighbor(0, port)

    def test_bfs_skips_dead_links_and_routers(self, topo):
        wiring = topo.wiring()
        dist, toward = wiring.bfs(0)
        assert min(dist) == 0 and toward[0] == -1
        for router in range(1, topo.num_routers):
            # Each router's port towards the root leads one hop closer.
            assert dist[topo.neighbor(router, toward[router])] == dist[router] - 1
        info = topo.ports(0)[0]
        dead = frozenset({(0, info.port),
                          (info.neighbor, topo.back_port(0, info.port))})
        dist, toward = wiring.bfs(0, dead, frozenset({topo.num_routers - 1}))
        assert toward[info.neighbor] != topo.back_port(0, info.port)
        assert dist[topo.num_routers - 1] == -1


def test_saturation_board_width_is_the_wired_global_count():
    """Dragonfly(h=3, num_groups=3) wires two global channels per group,
    both on position 0; Piggyback's group boards are 2 wide, not h = 3."""
    network = NetworkConfig(topology="dragonfly", params={"h": 3, "num_groups": 3})
    topology = network.build()
    assert [topology.num_global_ports(r) for r in range(6)] == [2, 0, 0, 0, 0, 0]
    sim = Simulation(SimulationConfig(
        network=network,
        routing=RoutingConfig(algorithm="pb"),
        arrangement=VcArrangement.single_class(4, 2),
    ))
    widths = {board.global_ports for board in sim.routing._boards.values()}
    assert widths == {2}
