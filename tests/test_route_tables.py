"""The route table: per-destination columns checked against the topology walk.

``RouteTable`` builds a destination's column on first touch and answers
``next_port``, ``hop_sequence`` and ``distance`` from it; Piggyback's
``first_global_link`` walks a column's ports.  The oracle walks the
topology's ``min_next_ports_to`` over its wiring, on every registered
topology: a dropped column must rebuild byte-identically and — under
faults — every column must be a pure function of the current dead set,
whatever was resident when it changed.

(The class names predate the single table — they used to compare a dense
and a lazy front-end — and ``TestLruEviction`` predates columns living
until a fault drops them; all are kept so the test ids stay stable.)
"""

import dataclasses
import os

import pytest
from topology_instances import REGISTRY_INSTANCES, min_walk
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, Simulation, SimulationConfig
from repro.config import NetworkConfig
from repro.core.link_types import LinkType
from repro.faults import NetworkPartitionedError
from repro.routing.piggyback import first_global_link
from repro.routing.route_table import (
    _UNRESOLVED,
    RouteTable,
    make_route_table,
)
from repro.simulation import build_artifacts
from repro.topology import TOPOLOGIES
from repro.topology.base import PortInfo, Topology


def assert_matches_topology(query, topo):
    """``query(src, dst)`` yields the four answers; compare with the walk."""
    n = topo.num_routers
    for dst in range(n):
        ports = topo.min_next_ports_to(dst)
        for src in range(n):
            next_port, hop_sequence, distance, first_global_link = query(src, dst)
            walk = min_walk(topo, ports, src, dst)
            sequence = tuple(link_type for _, _, link_type in walk)
            assert next_port == (walk[0][1] if walk else None)
            assert hop_sequence == sequence
            assert distance == len(sequence)
            assert first_global_link == next(
                ((router, topo.global_port_index(router, port))
                 for router, port, link_type in walk if link_type == LinkType.GLOBAL),
                None,
            )


def pair_api(table):
    wiring = table.topology.wiring()
    return lambda src, dst: (
        table.next_port(src, dst), table.hop_sequence(src, dst),
        table.distance(src, dst),
        first_global_link(wiring, table.column(dst), src),
    )


def resolved_sequences(col):
    """Every source's hop sequence, read through the column (a source's id
    is assigned on its first read)."""
    return [col.hop_sequence(src) for src in range(len(col.seq_ids))]


def column_bytes(col):
    """A column's stored arrays once every source has been read."""
    resolved_sequences(col)
    return bytes(col.ports), bytes(col.seq_ids)


def column_answers(col):
    """Like :func:`column_bytes`, with the sequences in place of their ids:
    two tables intern sequences in the order pairs are first read, so ids
    are comparable only between tables read in the same order."""
    return bytes(col.ports), resolved_sequences(col)


def first_global_links(wiring, col):
    """Every source's first global link, walked off the column."""
    return [first_global_link(wiring, col, src)
            for src in range(len(col.seq_ids))]


def assert_walk_follows_sequences(wiring, col):
    """The walk stops where the column's hop sequence first goes GLOBAL."""
    per_router = wiring.ports_per_router
    for src, link in enumerate(first_global_links(wiring, col)):
        sequence = col.hop_sequence(src)
        if LinkType.GLOBAL not in sequence:
            assert link is None
            continue
        router = src
        for _ in range(sequence.index(LinkType.GLOBAL)):
            router = wiring.neighbor[router * per_router + col.next_port(router)]
        slot = router * per_router + col.next_port(router)
        assert link == (router, wiring.global_index[slot])


class TestLazyDenseEquality:
    def test_full_table_equality(self, topo):
        assert_matches_topology(pair_api(RouteTable(topo)), topo)

    def test_column_views_agree(self, topo):
        table = RouteTable(topo)
        wiring = topo.wiring()

        def column_api(src, dst):
            col = table.column(dst)
            assert col is table.column(dst)  # resident: the same view
            return (col.next_port(src), col.hop_sequence(src),
                    col.distance(src), first_global_link(wiring, col, src))

        assert_matches_topology(column_api, topo)


class TestLruEviction:
    def test_evicted_columns_rebuild_identically(self, topo):
        n = topo.num_routers
        wiring = topo.wiring()
        table = RouteTable(topo)

        def answers(col):
            return column_bytes(col), first_global_links(wiring, col)

        first = [answers(table.column(dst)) for dst in range(n)]
        # Drop one pristine column: the interning state outlives it, so the
        # rebuilt arrays and walks equal its first build.
        dst = n // 2
        table.invalidate(dst)
        assert table.columns[dst] is None
        assert answers(table.column(dst)) == first[dst]
        assert table.columns_built == n + 1  # recomputation happened

    def test_stats_accounting(self, topo):
        table = RouteTable(topo)
        n = topo.num_routers
        for dst in range(n):
            table.column(dst)
        table.column(n - 1)  # hit
        stats = table.table_stats()
        assert "mode" not in stats
        assert stats["routers"] == n
        assert stats["columns_built"] == n
        assert stats["columns_resident"] == n
        assert stats["hits"] == 1
        assert stats["misses"] == n
        assert stats["pairs_resolved"] == 0  # built, never read
        assert stats["route_state_bytes"] == table.route_state_bytes() > 0


class TestModeResolution:
    """``make_route_table`` — the seam the frozen ledger still calls."""

    def test_unknown_mode_rejected(self):
        topo = TOPOLOGIES.build("dragonfly", REGISTRY_INSTANCES["dragonfly"])
        for mode in ("sparse", "dense", ""):
            with pytest.raises(ValueError):
                make_route_table(topo, mode)

    def test_factory_returns_matching_class(self, topo):
        for table in (make_route_table(topo), make_route_table(topo, "auto"),
                      make_route_table(topo, "lazy")):
            assert type(table) is RouteTable


class TestSimulationEquivalence:
    def test_provenance_surfaces_table_stats(self):
        session = Session(SimulationConfig())
        session.warmup(50)
        session.measure(100)
        stats = session.record().provenance["route_table"]
        assert "mode" not in stats
        assert stats["columns_built"] >= 1
        assert stats["hits"] + stats["misses"] > 0

    def test_provenance_keeps_the_keys_readers_use(self):
        # The performance ledger reads columns_resident and
        # route_state_bytes, the scale smoke columns_built, columns_resident
        # and pairs_resolved, and `inspect` columns_built and hits.
        session = Session(SimulationConfig())
        session.warmup(50)
        session.measure(100)
        stats = session.record().provenance["route_table"]
        for key in ("columns_built", "columns_resident", "hits", "misses",
                    "route_state_bytes", "pairs_resolved"):
            assert key in stats, key


class _LoopingRing(Topology):
    """Four routers in a ring whose next hops towards router 0 send routers
    1 and 2 to each other (port 0 climbs the ring, port 1 descends)."""

    num_routers = 4
    nodes_per_router = 1
    radix = 2
    diameter = 2
    canonical_minimal_sequence = (LinkType.LOCAL, LinkType.LOCAL)

    def ports(self, router):
        return [PortInfo(0, (router + 1) % 4, LinkType.LOCAL),
                PortInfo(1, (router - 1) % 4, LinkType.LOCAL)]

    def min_next_ports_to(self, dst_router):
        ports = [0 if (dst_router - src) % 4 <= 2 else 1 for src in range(4)]
        ports[dst_router] = -1
        if dst_router == 0:
            ports[1], ports[2] = 0, 1
        return ports


class TestFirstReadResolution:
    """A column resolves a source's hop sequence the first time it is read."""

    def test_reading_k_pairs_leaves_the_rest_unresolved(self, topo):
        n = topo.num_routers
        dst = n - 1
        ports = topo.min_next_ports_to(dst)
        src = max(range(n), key=lambda s: len(min_walk(topo, ports, s, dst)))
        walk = min_walk(topo, ports, src, dst)
        table = RouteTable(topo)
        col = table.column(dst)
        assert list(col.seq_ids).count(_UNRESOLVED) == n - 1
        # One read resolves the k routers of its path; reading them again
        # (each its own pair) resolves nothing more.
        assert col.hop_sequence(src) == tuple(t for _, _, t in walk)
        for router, _, _ in walk:
            col.distance(router)
        k = len(walk)
        assert list(col.seq_ids).count(_UNRESOLVED) == n - k - 1
        assert table.table_stats()["pairs_resolved"] == k

    def test_a_looping_route_fails_at_its_first_read(self):
        table = RouteTable(_LoopingRing())
        col = table.column(0)  # building the column walks nothing
        assert col.hop_sequence(3) == (LinkType.LOCAL,)
        with pytest.raises(RuntimeError, match="does not converge"):
            col.hop_sequence(1)
        with pytest.raises(RuntimeError, match="does not converge"):
            table.distance(2, 0)

    def test_query_order_never_reaches_a_result(self):
        """Jobs sharing the registry's table read its pairs in another order
        than a private table does; each gets the private table's result."""
        # A parameter set no other test builds: the registry is process-wide.
        network = NetworkConfig(topology="dragonfly",
                                params={"h": 2, "num_groups": 6})
        configs = [SimulationConfig(network=network).with_load(load)
                   for load in (0.6, 0.3)]
        private = [Simulation(config) for config in configs]
        expected = [dataclasses.asdict(Session(simulation=sim).run().summary)
                    for sim in private]
        shared = build_artifacts(configs[0])
        table = shared.route_table
        n = table.num_routers
        # Another job's order: the one-global-hop pairs, then every pair in
        # reverse, so (GLOBAL,) takes the id a simulation gives (LOCAL,).
        for src in range(n):
            for info in shared.topology.ports(src):
                if info.link_type == LinkType.GLOBAL:
                    table.hop_sequence(src, info.neighbor)
        for dst in reversed(range(n)):
            for src in reversed(range(n)):
                table.hop_sequence(src, dst)
        for config, want in zip(reversed(configs), reversed(expected)):
            got = Session(simulation=Simulation(config, artifacts=shared)).run()
            assert dataclasses.asdict(got.summary) == want
        assert table.sequences != private[0].route_table.sequences


# -- columns are a pure function of (topology, dst, current dead set) --------

def _physical_links(topo):
    """Both directed keys of every physical link, in a canonical order."""
    links = []
    for router in range(topo.num_routers):
        for info in topo.ports(router):
            back = (info.neighbor, topo.back_port(router, info.port))
            if (router, info.port) < back:
                links.append(frozenset({(router, info.port), back}))
    return links


_LINKS = {
    name: _physical_links(TOPOLOGIES.build(name, params))
    for name, params in REGISTRY_INSTANCES.items()
}


def _fresh_columns(topo, dead):
    """What a new table builds for every destination under ``dead``."""
    table = RouteTable(topo)
    table.set_fault_state(dead, frozenset())
    return [column_answers(table.column(dst)) for dst in range(topo.num_routers)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_columns_are_a_pure_function_of_the_dead_set(data):
    name = data.draw(st.sampled_from(sorted(REGISTRY_INSTANCES)), label="topology")
    topo = TOPOLOGIES.build(name, REGISTRY_INSTANCES[name])
    n = topo.num_routers
    links = _LINKS[name]
    dead_sets = data.draw(
        st.lists(st.sets(st.sampled_from(range(len(links))),
                         min_size=1, max_size=3), min_size=1, max_size=3),
        label="successive dead sets",
    )
    touches = st.lists(st.integers(0, n - 1), max_size=2 * n)
    pristine = _fresh_columns(topo, frozenset())
    table = RouteTable(topo)
    for dst in data.draw(touches, label="touched while pristine"):
        assert column_answers(table.column(dst)) == pristine[dst]
    # Each step swaps the whole dead set (links fail and recover at once) and
    # then touches columns, so later steps start from every mix of resident
    # pristine, resident detour, dropped and never-built columns.  The last
    # step is full recovery.
    for chosen in dead_sets + [set()]:
        dead = frozenset().union(*(links[i] for i in chosen))
        try:
            expected = _fresh_columns(topo, dead)
        except NetworkPartitionedError:
            continue  # a partitioning dead set is refused, not routed
        table.set_fault_state(dead, frozenset())
        for dst in data.draw(touches, label="touched under this dead set"):
            assert column_answers(table.column(dst)) == expected[dst]
        resident = [dst for dst in range(n) if table.columns[dst] is not None]
        for dst in resident:
            assert column_answers(table.columns[dst]) == expected[dst]
            assert_walk_follows_sequences(topo.wiring(), table.columns[dst])
        # A detour fill is taken iff the pristine route crosses a dead link.
        assert table._fault_dirty == {
            dst for dst in resident if expected[dst] != pristine[dst]
        }
    assert not table._fault_dirty


class TestGlobalPortIndexCache:
    def test_cached_index_matches_scan(self, topo):
        for router in range(topo.num_routers):
            expected = {}
            for info in topo.ports(router):
                if info.link_type == LinkType.GLOBAL:
                    expected[info.port] = len(expected)
            assert topo.num_global_ports(router) == len(expected)
            for port, index in expected.items():
                assert topo.global_port_index(router, port) == index

    def test_non_global_port_still_raises(self, topo):
        for info in topo.ports(0):
            if info.link_type != LinkType.GLOBAL:
                with pytest.raises(ValueError):
                    topo.global_port_index(0, info.port)
                break


#: one system-scale smoke run, in its own process because ``ru_maxrss`` is a
#: process-lifetime peak: prints the route-table and routing provenance, the
#: router and node counts and the peak RSS in bytes as one JSON line.
_SYSTEM_SMOKE_CHILD = """
import dataclasses, json, resource, sys
from repro import Session, Simulation, SimulationConfig
from repro.config import RoutingConfig
from repro.core.arrangement import VcArrangement
from repro.experiments import SYSTEM

config = SimulationConfig(network=SYSTEM.network_for("dragonfly"))
if sys.argv[1] == "pb":
    config = dataclasses.replace(
        config, routing=RoutingConfig(algorithm="pb"),
        arrangement=VcArrangement.single_class(4, 2))
config = config.with_load(SYSTEM.loads[0])
sim = Simulation(config)
session = Session(simulation=sim)
session.warmup(SYSTEM.warmup_cycles)
session.measure(SYSTEM.measure_cycles)
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
provenance = session.record().provenance
print(json.dumps({
    "route_table": provenance["route_table"],
    "routing": provenance["routing"],
    "routers": sim.topology.num_routers,
    "nodes": sim.topology.num_nodes,
    "peak_bytes": peak_kb * (1 if sys.platform == "darwin" else 1024),
}))
"""


@pytest.mark.scale_smoke
@pytest.mark.skipif(not os.environ.get("RUN_SCALE_SMOKE"),
                    reason="set RUN_SCALE_SMOKE=1 to run the 10^5-endpoint "
                           "construction smoke test (several minutes, ~GB RSS)")
@pytest.mark.parametrize("algorithm", ["min", "pb"])
def test_system_scale_constructs_within_budget(algorithm):
    """A 10^5-endpoint Dragonfly constructs and runs a short warmup+measure
    session within the CI scale-smoke budget (wall clock is enforced by the
    job timeout; RSS is asserted here), for minimal routing and for
    Piggyback (baseline 4/2), whose sensing reads the same columns."""
    import json
    import subprocess
    import sys

    child = subprocess.run(
        [sys.executable, "-c", _SYSTEM_SMOKE_CHILD, algorithm],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["nodes"] >= 100_000
    stats = result["route_table"]
    assert stats["columns_resident"] == stats["columns_built"]
    # Hop sequences are resolved per pair on first read: a short session
    # reads a sliver of the n^2 pairs, so an eager fill cannot come back
    # unnoticed.
    assert stats["pairs_resolved"] < 0.01 * result["routers"] ** 2
    # No routing memo has a cap: each is bounded by its key's parts.  The
    # plan and hop memos are keyed by port layout class, not router, and
    # the verdict memo by path shapes and state: a few hundred entries at
    # most, where a router id in a key makes hundreds of thousands.
    routing = result["routing"]
    assert routing["plan_memo_size"] < 1000, routing
    assert routing["verdict_memo_size"] < 1000, routing
    assert routing["hop_memo_size"] < 1000, routing

    peak_bytes = result["peak_bytes"]
    # 908 MiB measured for Piggyback, the larger of the two, + 10%; MIN read
    # 865 MiB.  With a router id in the plan- and hop-memo keys they read
    # 1,023 and 976 MiB (226,348 plan entries under MIN); 1,175 MiB for MIN
    # with a credit channel, two bound methods and a name tuple per link and
    # a head-plan list per input port; 1,976 MiB before the per-link
    # callbacks became port methods.
    budget = 1000 * 1024**2
    assert peak_bytes <= budget, (
        f"peak RSS {peak_bytes / 1024**2:.0f} MiB > {budget // 1024**2} MiB")
