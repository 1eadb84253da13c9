"""Route-table construction modes: dense precompute vs lazy column cache.

The dense table and the lazy per-destination column cache are two front-ends
over the same suffix-merge column fill, so every query — ``next_port``,
``hop_sequence``, ``distance``, ``first_global_link`` — must answer
identically for every (src, dst) pair on every registered topology, under
any LRU capacity (evicted columns must rebuild byte-identically).  Simulation
results and fingerprints must not depend on the mode at all.
"""

import dataclasses
import os

import pytest

from repro import Session, Simulation, SimulationConfig
from repro.config import NetworkConfig
from repro.routing.route_table import (
    DEFAULT_LAZY_STATE_BUDGET,
    DENSE_ROUTER_THRESHOLD,
    LazyRouteTable,
    RouteTable,
    make_route_table,
    resolve_route_table_mode,
)
from repro.simulation import build_artifacts
from repro.topology import TOPOLOGIES

# One representative instance per registered topology (kept in sync with the
# registry by test_every_registered_topology_is_covered below).
REGISTRY_INSTANCES = {
    "dragonfly": {"h": 2},
    "flattened_butterfly": {"k1": 4, "k2": 3, "nodes_per_router": 2},
    "hyperx": {"s": (4, 3, 3), "nodes_per_router": 2},
    "megafly": {"spines": 2, "leaves": 2, "h": 2, "nodes_per_router": 2},
}


def test_every_registered_topology_is_covered():
    assert set(REGISTRY_INSTANCES) == set(TOPOLOGIES.names())


@pytest.fixture(params=sorted(REGISTRY_INSTANCES), name="topo")
def topo_fixture(request):
    return TOPOLOGIES.build(request.param, REGISTRY_INSTANCES[request.param])


def assert_tables_agree(dense, lazy, n):
    for dst in range(n):
        for src in range(n):
            assert lazy.next_port(src, dst) == dense.next_port(src, dst)
            assert lazy.hop_sequence(src, dst) == dense.hop_sequence(src, dst)
            assert lazy.distance(src, dst) == dense.distance(src, dst)
            assert (lazy.first_global_link(src, dst)
                    == dense.first_global_link(src, dst))


class TestLazyDenseEquality:
    def test_full_table_equality(self, topo):
        dense = RouteTable(topo)
        lazy = LazyRouteTable(topo)
        assert_tables_agree(dense, lazy, topo.num_routers)

    def test_equality_under_heavy_eviction(self, topo):
        # capacity 2 forces near-constant eviction; answers must not change.
        dense = RouteTable(topo)
        lazy = LazyRouteTable(topo, capacity=2)
        assert_tables_agree(dense, lazy, topo.num_routers)
        assert lazy.evictions > 0

    def test_column_views_agree(self, topo):
        dense = RouteTable(topo)
        lazy = LazyRouteTable(topo)
        for dst in range(topo.num_routers):
            dcol, lcol = dense.column(dst), lazy.column(dst)
            for src in range(topo.num_routers):
                assert lcol.next_port(src) == dcol.next_port(src)
                assert lcol.hop_sequence(src) == dcol.hop_sequence(src)
                assert lcol.distance(src) == dcol.distance(src)
                assert lcol.first_global_link(src) == dcol.first_global_link(src)

    def test_min_next_ports_to_matches_pairwise(self, topo):
        # The batch column fill (closed-form where overridden) must agree
        # with the per-pair minimal next-port query.
        for dst in range(topo.num_routers):
            ports = topo.min_next_ports_to(dst)
            for src in range(topo.num_routers):
                expected = topo.min_next_port(src, dst)
                got = ports[src] if ports[src] >= 0 else None
                assert got == expected, (src, dst)


class TestLruEviction:
    def test_evicted_columns_rebuild_identically(self, topo):
        lazy = LazyRouteTable(topo, capacity=2)
        n = topo.num_routers
        first = {}
        for dst in range(n):
            col = lazy.column(dst)
            first[dst] = (bytes(col.seq_ids), bytes(col.ports),
                          col.first_global.tobytes())
        # All but the last 2 columns have been evicted; touch them again and
        # byte-compare the rebuilt arrays.
        built_before = lazy.columns_built
        for dst in range(n):
            col = lazy.column(dst)
            assert (bytes(col.seq_ids), bytes(col.ports),
                    col.first_global.tobytes()) == first[dst]
        assert lazy.columns_built > built_before  # recomputation happened

    def test_stats_accounting(self, topo):
        lazy = LazyRouteTable(topo, capacity=4)
        n = topo.num_routers
        for dst in range(n):
            lazy.column(dst)
        lazy.column(n - 1)  # hit
        stats = lazy.table_stats()
        assert stats["mode"] == "lazy"
        assert stats["routers"] == n
        assert stats["capacity"] == 4
        assert stats["columns_built"] == n
        assert stats["columns_resident"] == min(4, n)
        assert stats["hits"] >= 1
        assert stats["misses"] == n
        assert stats["evictions"] == stats["columns_built"] - stats["columns_resident"]
        assert stats["route_state_bytes"] > 0

    def test_capacity_clamped_to_table_size(self, topo):
        lazy = LazyRouteTable(topo, capacity=10**9)
        assert lazy.capacity == topo.num_routers
        lazy = LazyRouteTable(topo, capacity=0)
        assert lazy.capacity == 1


class TestModeResolution:
    def test_auto_picks_dense_below_threshold(self):
        assert resolve_route_table_mode("auto", DENSE_ROUTER_THRESHOLD) == "dense"
        assert resolve_route_table_mode("auto", DENSE_ROUTER_THRESHOLD + 1) == "lazy"

    def test_explicit_modes_pass_through(self):
        assert resolve_route_table_mode("dense", 10**6) == "dense"
        assert resolve_route_table_mode("lazy", 4) == "lazy"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_route_table_mode("sparse", 10)

    def test_factory_returns_matching_class(self, topo):
        assert isinstance(make_route_table(topo, "dense"), RouteTable)
        assert isinstance(make_route_table(topo, "lazy"), LazyRouteTable)
        # tiny topologies resolve auto -> dense
        assert isinstance(make_route_table(topo, "auto"), RouteTable)

    def test_default_capacity_is_bounded(self, topo):
        lazy = LazyRouteTable(topo)
        # The byte budget always exceeds 2n bytes for registry-sized
        # topologies, so the default clamps to one column per destination;
        # resident state can never exceed the budget either way.
        assert lazy.capacity == topo.num_routers
        assert lazy.capacity * 2 * topo.num_routers <= DEFAULT_LAZY_STATE_BUDGET


class TestSimulationEquivalence:
    def test_result_fingerprint_identical_under_lazy(self):
        config = SimulationConfig()
        dense = dataclasses.asdict(
            Simulation(config, route_table_mode="dense").run())
        lazy = dataclasses.asdict(
            Simulation(config, route_table_mode="lazy").run())
        assert lazy == dense

    def test_build_artifacts_honors_mode(self):
        config = SimulationConfig()
        artifacts = build_artifacts(config, cached=False,
                                    route_table_mode="lazy")
        assert isinstance(artifacts.route_table, LazyRouteTable)

    def test_provenance_surfaces_table_stats(self):
        sim = Simulation(SimulationConfig(), route_table_mode="lazy")
        session = Session(simulation=sim)
        session.warmup(50)
        session.measure(100)
        record = session.record()
        stats = record.provenance["route_table"]
        assert stats["mode"] == "lazy"
        assert stats["columns_built"] >= 1
        assert stats["hits"] + stats["misses"] > 0


class TestGlobalPortIndexCache:
    def test_cached_index_matches_scan(self, topo):
        from repro.core.link_types import LinkType
        for router in range(topo.num_routers):
            expected = {}
            for info in topo.ports(router):
                if info.link_type == LinkType.GLOBAL:
                    expected[info.port] = len(expected)
            assert topo.num_global_ports(router) == len(expected)
            for port, index in expected.items():
                assert topo.global_port_index(router, port) == index

    def test_non_global_port_still_raises(self, topo):
        from repro.core.link_types import LinkType
        for info in topo.ports(0):
            if info.link_type != LinkType.GLOBAL:
                with pytest.raises(ValueError):
                    topo.global_port_index(0, info.port)
                break


@pytest.mark.scale_smoke
@pytest.mark.skipif(not os.environ.get("RUN_SCALE_SMOKE"),
                    reason="set RUN_SCALE_SMOKE=1 to run the 10^5-endpoint "
                           "construction smoke test (several minutes, ~GB RSS)")
def test_system_scale_constructs_within_budget():
    """A 10^5-endpoint Dragonfly constructs and runs a short warmup+measure
    session in lazy mode within the CI scale-smoke budget (wall clock is
    enforced by the job timeout; RSS is asserted here)."""
    import resource
    import sys

    from repro.experiments import SYSTEM

    network = SYSTEM.network_for("dragonfly")
    config = SimulationConfig(network=network).with_load(SYSTEM.loads[0])
    sim = Simulation(config, route_table_mode="auto")
    assert isinstance(sim.route_table, LazyRouteTable)
    assert sim.topology.num_nodes >= 100_000
    session = Session(simulation=sim)
    session.warmup(SYSTEM.warmup_cycles)
    session.measure(SYSTEM.measure_cycles)
    record = session.record()
    assert record.provenance["route_table"]["mode"] == "lazy"

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_bytes = peak_kb * (1 if sys.platform == "darwin" else 1024)
    # 1,280 MiB measured (1,976 MiB before the per-link callbacks became
    # port methods) + 10%.
    budget = 1408 * 1024**2
    assert peak_bytes <= budget, (
        f"peak RSS {peak_bytes / 1024**2:.0f} MiB > {budget // 1024**2} MiB")
