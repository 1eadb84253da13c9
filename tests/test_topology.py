"""Topology invariants: per-construction checks for Dragonfly and Flattened
Butterfly, plus registry-driven property tests that every registered topology
(HyperX and Megafly included) must satisfy."""

import pytest
from topology_instances import REGISTRY_INSTANCES, min_walk

from repro.core.link_types import LinkType, hop_counts
from repro.routing.piggyback import first_global_link
from repro.routing.route_table import RouteTable
from repro.topology import (
    TOPOLOGIES,
    Dragonfly,
    FlattenedButterfly2D,
    HyperX,
    Megafly,
    bfs_distances,
    degree_histogram,
    is_connected,
    measured_diameter,
    verify_bidirectional,
)


@pytest.fixture(params=[1, 2, 3])
def dragonfly(request):
    return Dragonfly(h=request.param)


class TestDragonflySizes:
    def test_balanced_sizes(self, dragonfly):
        h = dragonfly.h
        assert dragonfly.a == 2 * h
        assert dragonfly.p == h
        assert dragonfly.num_groups == 2 * h * h + 1
        assert dragonfly.num_routers == dragonfly.num_groups * dragonfly.a
        assert dragonfly.num_nodes == dragonfly.num_routers * h

    def test_paper_configuration(self):
        df = Dragonfly(h=8, p=8, a=16)
        assert df.num_groups == 129
        assert df.num_routers == 2064
        assert df.num_nodes == 16512
        # 31-port router: 8 injection + 15 local + 8 global.
        assert df.radix == 15 + 8

    def test_radix(self, dragonfly):
        assert dragonfly.radix == (dragonfly.a - 1) + dragonfly.h

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Dragonfly(h=0)
        with pytest.raises(ValueError):
            Dragonfly(h=2, num_groups=1)
        with pytest.raises(ValueError):
            Dragonfly(h=2, num_groups=100)


class TestDragonflyConnectivity:
    def test_connected(self, dragonfly):
        assert is_connected(dragonfly)

    def test_bidirectional_links(self, dragonfly):
        assert verify_bidirectional(dragonfly)

    def test_degree_regular(self, dragonfly):
        histogram = degree_histogram(dragonfly)
        assert histogram == {dragonfly.radix: dragonfly.num_routers}

    def test_diameter_at_most_three(self):
        df = Dragonfly(h=2)
        assert measured_diameter(df) <= 3

    def test_one_global_link_per_group_pair(self, dragonfly):
        seen = set()
        for router in range(dragonfly.num_routers):
            for info in dragonfly.ports(router):
                if info.link_type != LinkType.GLOBAL:
                    continue
                pair = tuple(sorted((dragonfly.group_of(router),
                                     dragonfly.group_of(info.neighbor))))
                seen.add(pair)
        groups = dragonfly.num_groups
        assert len(seen) == groups * (groups - 1) // 2


class TestDragonflyMinimalRouting:
    def test_min_path_respects_lgl_order(self, dragonfly):
        n = dragonfly.num_routers
        rng_pairs = [(0, n - 1), (min(3, n - 1), n // 2), (n // 2, 1)]
        for src, dst in rng_pairs:
            if src == dst:
                continue
            walk = min_walk(dragonfly, dragonfly.min_next_ports_to(dst), src, dst)
            seq = [link_type for _, _, link_type in walk]
            assert len(seq) <= 3
            # The sequence must be a subsequence of l-g-l (never g after l after g).
            labels = "".join("l" if s == LinkType.LOCAL else "g" for s in seq)
            assert labels in {"", "l", "g", "lg", "gl", "lgl"}

    def test_min_next_port_walk_reaches_destination(self, dragonfly):
        table = RouteTable(dragonfly)
        for dst in range(0, dragonfly.num_routers, max(1, dragonfly.num_routers // 5)):
            ports = dragonfly.min_next_ports_to(dst)
            for src in range(0, dragonfly.num_routers, max(1, dragonfly.num_routers // 7)):
                hops = len(min_walk(dragonfly, ports, src, dst))
                assert hops <= 3
                assert hops == table.distance(src, dst)

    def test_min_distance_bounds(self):
        # Dragonfly minimal routing is restricted to l-g-l paths, so the
        # routing distance can exceed the raw graph distance (which may use
        # two global hops) but never the diameter of 3.
        df = Dragonfly(h=2)
        table = RouteTable(df)
        for src in range(0, df.num_routers, 5):
            distances = bfs_distances(df, src)
            for dst in range(0, df.num_routers, 7):
                routed = table.distance(src, dst)
                assert distances[dst] <= routed <= 3

    def test_same_router_has_empty_path(self, dragonfly):
        table = RouteTable(dragonfly)
        assert table.hop_sequence(0, 0) == ()
        assert table.next_port(0, 0) is None
        assert dragonfly.min_next_ports_to(0)[0] == -1

    def test_gateway_and_entry_routers_consistent(self, dragonfly):
        g0, g1 = 0, 1
        gateway, gport = dragonfly.gateway_router(g0, g1)
        assert dragonfly.group_of(gateway) == g0
        peer = dragonfly.global_peer(gateway, gport)
        assert dragonfly.group_of(peer) == g1
        # The gateway's global port is the wired link to the entry router,
        # and minimal routing from the gateway to the entry router takes it.
        port = dragonfly.a - 1 + gport
        assert dragonfly.neighbor(gateway, port) == peer
        assert dragonfly.min_next_ports_to(peer)[gateway] == port


class TestDragonflyNodeMapping:
    def test_router_of_node_roundtrip(self, dragonfly):
        for node in range(0, dragonfly.num_nodes, max(1, dragonfly.num_nodes // 11)):
            router = dragonfly.router_of_node(node)
            assert node in dragonfly.nodes_of_router(router)

    def test_out_of_range_rejected(self, dragonfly):
        with pytest.raises(ValueError):
            dragonfly.router_of_node(dragonfly.num_nodes)
        with pytest.raises(ValueError):
            dragonfly.ports(dragonfly.num_routers)


class TestFlattenedButterfly:
    def test_sizes(self):
        fb = FlattenedButterfly2D(k1=4, k2=3, p=2)
        assert fb.num_routers == 12
        assert fb.num_nodes == 24
        assert fb.radix == 3 + 2

    def test_connected_and_bidirectional(self):
        fb = FlattenedButterfly2D(k1=4, k2=4, p=2)
        assert is_connected(fb)
        assert verify_bidirectional(fb)

    def test_diameter_two(self):
        fb = FlattenedButterfly2D(k1=4, k2=4, p=2)
        assert fb.diameter == 2
        assert measured_diameter(fb) == 2

    def test_single_dimension_degenerates_to_complete_graph(self):
        fb = FlattenedButterfly2D(k1=5, k2=1, p=1)
        assert fb.diameter == 1
        assert not fb.has_link_type_restrictions
        assert measured_diameter(fb) == 1

    def test_dor_order(self):
        fb = FlattenedButterfly2D(k1=3, k2=3, p=1)
        src = fb.router_at(0, 0)
        dst = fb.router_at(2, 2)
        assert RouteTable(fb).hop_sequence(src, dst) == (LinkType.LOCAL, LinkType.GLOBAL)

    def test_min_walk_reaches_destination(self):
        fb = FlattenedButterfly2D(k1=4, k2=4, p=1)
        for dst in range(fb.num_routers):
            ports = fb.min_next_ports_to(dst)
            for src in range(fb.num_routers):
                assert len(min_walk(fb, ports, src, dst)) <= 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FlattenedButterfly2D(k1=1, k2=2, p=1)
        with pytest.raises(ValueError):
            FlattenedButterfly2D(k1=3, k2=3, p=0)

    def test_is_a_hyperx_alias(self):
        fb = FlattenedButterfly2D(k1=4, k2=3, p=2)
        assert isinstance(fb, HyperX)
        assert fb.dims == (4, 3)


# ---------------------------------------------------------------------------
# Registry-driven property tests: every registered topology must satisfy these.
# ---------------------------------------------------------------------------

def test_every_registered_topology_has_an_instance():
    # Force conftest's REGISTRY_INSTANCES (the ``topo`` fixture's
    # parameters) to grow with the registry.
    assert set(REGISTRY_INSTANCES) == set(TOPOLOGIES.names())


class TestRegisteredTopologyProperties:
    def test_connected(self, topo):
        assert is_connected(topo)

    def test_link_symmetry(self, topo):
        # Every link has a reverse link of the same type (verify_bidirectional)
        # and the wiring reads back the advertised ports.
        assert verify_bidirectional(topo)
        for router in range(topo.num_routers):
            for info in topo.ports(router):
                assert topo.neighbor(router, info.port) == info.neighbor
                assert topo.link_type(router, info.port) == info.link_type
                back = topo.back_port(router, info.port)
                assert topo.neighbor(info.neighbor, back) == router
                assert topo.back_port(info.neighbor, back) == info.port

    def test_diameter_bound(self, topo):
        assert measured_diameter(topo) <= topo.diameter

    def test_minimal_routes_valid(self, topo):
        """Each minimal route uses declared ports, reaches its destination,
        and its traversed link types match the route table's hop sequence."""
        max_local, max_global = topo.max_min_hop_counts()
        table = RouteTable(topo)
        for dst in range(topo.num_routers):
            ports = topo.min_next_ports_to(dst)
            assert ports[dst] == -1
            for src in range(topo.num_routers):
                walk = min_walk(topo, ports, src, dst)
                for router, port, _ in walk:
                    assert port in {info.port for info in topo.ports(router)}
                assert len(walk) <= topo.diameter
                seq = tuple(link_type for _, _, link_type in walk)
                assert table.hop_sequence(src, dst) == seq
                # Node-attached endpoints stay within the declared envelope.
                if topo.nodes_of_router(src) and topo.nodes_of_router(dst):
                    locals_, globals_ = hop_counts(seq)
                    assert locals_ <= max_local and globals_ <= max_global

    def test_canonical_sequence_is_achieved(self, topo):
        """The declared worst case is tight: some node-router pair needs it."""
        canonical = topo.canonical_minimal_sequence
        table = RouteTable(topo)
        counts = {
            hop_counts(table.hop_sequence(src, dst))
            for src in range(topo.num_routers)
            if topo.nodes_of_router(src)
            for dst in range(topo.num_routers)
            if topo.nodes_of_router(dst)
        }
        assert hop_counts(canonical) in counts

    def test_route_table_matches_topology(self, topo):
        table = RouteTable(topo)
        for dst in range(topo.num_routers):
            ports = topo.min_next_ports_to(dst)
            for src in range(topo.num_routers):
                expected = ports[src] if ports[src] >= 0 else None
                assert table.next_port(src, dst) == expected
                walk = min_walk(topo, ports, src, dst)
                seq = tuple(link_type for _, _, link_type in walk)
                assert table.hop_sequence(src, dst) == seq
                assert table.distance(src, dst) == len(seq)
                # The owner is the router taking the walk's first global hop.
                first_global = next(
                    ((router, topo.global_port_index(router, port))
                     for router, port, link_type in walk
                     if link_type == LinkType.GLOBAL),
                    None,
                )
                assert first_global_link(
                    topo.wiring(), table.column(dst), src
                ) == first_global

    def test_router_groups_partition(self, topo):
        groups = topo.router_groups()
        flat = [router for members in groups for router in members]
        assert sorted(flat) == list(range(topo.num_routers))
        for gid, members in enumerate(groups):
            for position, router in enumerate(members):
                assert topo.group_slot(router) == (gid, position)
        # LOCAL links never leave a group; GLOBAL links never stay inside.
        slot = {r: topo.group_slot(r)[0] for r in flat}
        for router in flat:
            for info in topo.ports(router):
                same = slot[router] == slot[info.neighbor]
                assert same == (info.link_type == LinkType.LOCAL)

    def test_node_mapping_roundtrip(self, topo):
        seen = []
        for router in range(topo.num_routers):
            for node in topo.nodes_of_router(router):
                assert topo.router_of_node(node) == router
                seen.append(node)
        assert sorted(seen) == list(range(topo.num_nodes))


class TestHyperX:
    def test_matches_flattened_butterfly_exactly(self):
        fb = FlattenedButterfly2D(k1=4, k2=3, p=2)
        hx = HyperX(dims=(4, 3), p=2)
        assert fb.num_routers == hx.num_routers
        for router in range(hx.num_routers):
            assert fb.ports(router) == hx.ports(router)
            assert fb.min_next_ports_to(router) == hx.min_next_ports_to(router)

    def test_three_dimensions_hop_sequence(self):
        hx = HyperX(dims=(3, 3, 3), p=1)
        src = hx.router_at(0, 0, 0)
        dst = hx.router_at(2, 2, 2)
        assert RouteTable(hx).hop_sequence(src, dst) == (
            LinkType.LOCAL, LinkType.GLOBAL, LinkType.GLOBAL
        )
        assert hx.canonical_minimal_sequence == (
            LinkType.LOCAL, LinkType.GLOBAL, LinkType.GLOBAL
        )
        assert hx.max_min_hop_counts() == (1, 2)

    def test_trunking_rejected(self):
        from repro.topology import HyperXParams

        with pytest.raises(ValueError):
            HyperXParams(s=(4, 4), k=2).validate()

    def test_scalar_s_with_l(self):
        from repro.topology import HyperXParams

        params = HyperXParams(s=3, l=3, nodes_per_router=1)
        params.validate()
        assert params.dims() == (3, 3, 3)


class TestMegafly:
    def test_spines_have_no_nodes(self):
        mf = Megafly(spines=2, leaves=2, h=2, p=2)
        for router in range(mf.num_routers):
            nodes = list(mf.nodes_of_router(router))
            if mf.is_spine(router):
                assert nodes == []
            else:
                assert len(nodes) == 2
        assert mf.num_nodes == mf.num_groups * mf.leaves * mf.p

    def test_leaf_to_leaf_paths_within_lgl(self):
        mf = Megafly(spines=2, leaves=2, h=2, p=2)
        table = RouteTable(mf)
        for src in mf.valiant_routers():
            for dst in mf.valiant_routers():
                seq = table.hop_sequence(src, dst)
                locals_, globals_ = hop_counts(seq)
                assert locals_ <= 2 and globals_ <= 1

    def test_valiant_pool_is_leaves(self):
        mf = Megafly(spines=2, leaves=2, h=2, p=2)
        pool = mf.valiant_routers()
        assert all(not mf.is_spine(router) for router in pool)
        assert len(pool) == mf.num_groups * mf.leaves

    def test_one_global_link_per_group_pair(self):
        mf = Megafly(spines=2, leaves=2, h=2, p=1)
        seen = set()
        for router in range(mf.num_routers):
            for info in mf.ports(router):
                if info.link_type != LinkType.GLOBAL:
                    continue
                pair = tuple(sorted((mf.group_of(router), mf.group_of(info.neighbor))))
                seen.add(pair)
        groups = mf.num_groups
        assert len(seen) == groups * (groups - 1) // 2

    def test_worst_escape_longer_than_canonical(self):
        mf = Megafly(spines=2, leaves=2, h=2, p=1)
        assert len(mf.worst_escape_sequence) == len(mf.canonical_minimal_sequence) + 1
        # A non-gateway spine really needs the extra local hop.
        table = RouteTable(mf)
        worst = max(
            (hop_counts(table.hop_sequence(spine, leaf)))
            for spine in range(mf.num_routers) if mf.is_spine(spine)
            for leaf in mf.valiant_routers()
        )
        assert worst == hop_counts(mf.worst_escape_sequence)
