"""Two-level plan construction: shape-keyed verdicts, layout-shared hops.

``RoutingAlgorithm`` memoizes the minimal plan on its route *shape*
``(port layout class, out port, intended-path id, state)``, the VC verdict
on the hop's path shapes and the ``CandidateHop`` on ``(layout class, port,
verdict)`` (DESIGN.md §6).  The guarantees locked here:

* **differential** — a plan served through the memos equals one assembled by
  calling ``policy.evaluate(HopContext(...))`` directly on an independent
  table, for generated positions, inputs and phase states, on a pristine
  network and after a link-down re-table of a memo warmed before it, and
  through the tuple-key fallback of a head in input VC 15;
* **ejection** — a head at its destination router is planned the ejection
  port of its node and message class;
* **scale invariance** — the verdict memo's population does not depend on
  the network size, and none of the three memos grows with the destinations
  touched;
* **layout invariance** — every router of a port layout class resolves a
  candidate to the same record and is served the same plan objects, and no
  memo key holds a router id;
* **fault survival** — a re-table flushes no memo, and the run is
  trace-identical to one that drops every memo at each re-table;
* **observability** — the miss-path counters land in RunRecord provenance
  and never in the simulated statistics that fingerprints hash.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import RoutingConfig, SimulationConfig
from repro.core.arrangement import VcArrangement
from repro.core.link_types import LinkType, MessageClass
from repro.core.vc_policy import HopContext, HopKind
from repro.experiments.runner import TINY
from repro.experiments.topologies import minimal_feasible_arrangement
from repro.faults import FaultSchedule, LinkDown, LinkUp
from repro.packet import Packet, RouteKind
from repro.routing.base import CandidateHop, EjectionRequest
from repro.routing.route_table import RouteTable
from repro.session import Session
from repro.simulation import Simulation

NETWORKS = {
    "dragonfly-h2": TINY.network_for("dragonfly"),
    # the next Dragonfly size up: 114 routers against 36.
    "dragonfly-h3": dataclasses.replace(TINY, h=3).network_for("dragonfly"),
    "megafly": TINY.network_for("megafly"),
    "hyperx": TINY.network_for("hyperx"),
}


#: 16 local VCs: a head in input VC 15 overflows the packed plan key's
#: input-VC field, so its plan is memoized under a tuple key.
WIDE = VcArrangement.single_class(16, 8)


@functools.lru_cache(maxsize=None)
def _simulation(network: str, policy: str, algorithm: str,
                wide: bool = False) -> Simulation:
    """One shared simulation per combination: later examples hit its memos."""
    config = SimulationConfig(
        network=NETWORKS[network],
        routing=RoutingConfig(algorithm=algorithm, vc_policy=policy),
        arrangement=WIDE if wide else minimal_feasible_arrangement(
            NETWORKS[network], algorithm, policy
        ),
    )
    return Simulation(config)


@functools.lru_cache(maxsize=None)
def _reference_table(network: str) -> RouteTable:
    return RouteTable(NETWORKS[network].build())


def _direct_plan(sim: Simulation, table: RouteTable, here: int, packet: Packet,
                 input_type, input_vc: int) -> list:
    """The plan of ``RoutingAlgorithm.plan`` with no memo in the way."""
    dst = packet.dst_router
    topology = sim.topology

    def hop(target: int, is_detour: bool, abandons: bool):
        port = table.next_port(here, target)
        nxt = next(i.neighbor for i in topology.ports(here) if i.port == port)
        out_type = topology.link_type(here, port)
        intended = table.hop_sequence(here, dst)
        if is_detour:
            intended = (table.hop_sequence(here, target)
                        + table.hop_sequence(target, dst))
        vc_range, kind = sim.policy.evaluate(HopContext(
            msg_class=packet.msg_class,
            out_type=out_type,
            intended_remaining=intended,
            escape_from_next=table.hop_sequence(nxt, dst),
            input_type=input_type,
            input_vc=input_vc,
            phase_offsets=packet.phase_offsets,
            phase_position=packet.phase_position,
            phase_global_taken=packet.phase_global_taken,
        ))
        if vc_range is None:
            return None
        candidate = CandidateHop(
            out_port=port, out_type=out_type,
            vc_range=vc_range,
            opportunistic=kind == HopKind.OPPORTUNISTIC,
            reaches_intermediate=(
                is_detour and nxt == packet.intermediate_router
            ),
            abandons_detour=abandons,
        )
        candidate.hot = sim.routers[here].resolve_candidate(candidate)
        return candidate

    on_detour = (sim.routing.name != "min"
                 and packet.route_kind == RouteKind.VALIANT
                 and not packet.intermediate_reached)
    if not on_detour:
        plan = [hop(dst, False, False)]
    else:
        plan = [hop(packet.intermediate_router, True, False)]
        if plan[0] is not None and plan[0].opportunistic:
            plan.append(hop(dst, False, True))
    return [candidate for candidate in plan if candidate is not None]


@functools.lru_cache(maxsize=None)
def _faulted_table(network: str, dead_links: frozenset) -> RouteTable:
    """An independent table built with ``dead_links`` already down."""
    table = RouteTable(NETWORKS[network].build())
    table.set_fault_state(dead_links, frozenset())
    return table


_PLAN_INPUTS = dict(
    network=st.sampled_from(sorted(NETWORKS)),
    policy=st.sampled_from(("baseline", "flexvc")),
    algorithm=st.sampled_from(("min", "val", "par")),
    routers=st.lists(st.integers(0, 10_000), min_size=3, max_size=3),
    valiant=st.booleans(),
    reached=st.booleans(),
    input_type=st.sampled_from((None, LinkType.LOCAL, LinkType.GLOBAL)),
    input_vc=st.integers(-1, 5),
    phase=st.tuples(st.integers(0, 4), st.integers(0, 2),
                    st.integers(0, 6), st.integers(0, 3)),
)


def _example(sim: Simulation, routers, valiant, reached, phase):
    """``(here, packet)`` of one generated plan query on ``sim``."""
    n = sim.topology.num_routers
    here = routers[0] % n
    dst = (here + 1 + routers[1] % (n - 1)) % n
    intermediate = next(
        r % n for r in range(routers[2], routers[2] + 3)
        if r % n not in (here, dst)
    )
    packet = Packet(
        0, 0, 8, dst_router=dst, route_decided=True, par_decided=True,
        route_kind=RouteKind.VALIANT if valiant else RouteKind.MINIMAL,
        intermediate_router=intermediate if valiant else None,
        intermediate_reached=valiant and reached,
        phase_local=phase[0], phase_global=phase[1],
        phase_position=phase[2], phase_global_taken=phase[3],
    )
    return here, packet


def _assert_plans(sim: Simulation, table: RouteTable, here: int,
                  packet: Packet, input_type, input_vc: int) -> None:
    expected = _direct_plan(sim, table, here, packet, input_type, input_vc)
    for _ in range(2):  # second pass: every memo level is a hit
        plan = sim.routing.plan(sim.routers[here], packet, input_type, input_vc)
        assert plan == expected
        for got, want in zip(plan, expected):
            assert got.hot == want.hot and len(got.hot) == 7


@settings(max_examples=300, deadline=None)
@given(wide_vc=st.none() | st.integers(-1, 15), **_PLAN_INPUTS)
@example(network="dragonfly-h2", policy="flexvc", algorithm="val",
         routers=[0, 1, 2], valiant=True, reached=True,
         input_type=LinkType.LOCAL, input_vc=0, phase=(1, 0, 1, 0),
         wide_vc=15)
def test_memoized_plan_equals_direct_evaluation(
    network, policy, algorithm, routers, valiant, reached, input_type,
    input_vc, phase, wide_vc,
):
    # ``wide_vc``: ask from that input VC of the WIDE arrangement instead.
    if wide_vc is not None:
        input_vc = wide_vc
    sim = _simulation(network, policy, algorithm, wide_vc is not None)
    here, packet = _example(sim, routers, valiant, reached, phase)
    _assert_plans(sim, _reference_table(network), here, packet, input_type,
                  input_vc)
    minimal = algorithm == "min" or not valiant or reached
    if input_vc == 15 and minimal:
        column = sim.route_table.column(packet.dst_router)
        fallback_key = (
            sim.topology.wiring().layout[here], column.ports[here],
            column.seq_id(here), packet.msg_class, input_type, input_vc,
            packet.phase_local, packet.phase_global, packet.phase_position,
            packet.phase_global_taken,
        )
        assert fallback_key in sim.routing._plan_memo


@settings(max_examples=100, deadline=None)
@given(link=st.integers(0, 10_000), **_PLAN_INPUTS)
def test_memo_warmed_before_a_link_down_answers_for_the_new_table(
    link, network, policy, algorithm, routers, valiant, reached, input_type,
    input_vc, phase,
):
    sim = _simulation(network, policy, algorithm)
    here, packet = _example(sim, routers, valiant, reached, phase)
    wiring = sim.topology.wiring()
    slots = [slot for slot, peer in enumerate(wiring.neighbor) if peer >= 0]
    slot = slots[link % len(slots)]
    router, port = divmod(slot, wiring.ports_per_router)
    dead = frozenset({
        (router, port),
        (wiring.neighbor[slot], wiring.back_port[slot]),
    })
    # Warm every memo level on the pristine table, then re-table as the
    # fault controller does (no memo is flushed) and ask again.
    _assert_plans(sim, _reference_table(network), here, packet, input_type,
                  input_vc)
    sim.route_table.set_fault_state(dead, frozenset())
    try:
        _assert_plans(sim, _faulted_table(network, dead), here, packet,
                      input_type, input_vc)
    finally:
        sim.route_table.set_fault_state(frozenset(), frozenset())


@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_ejection_plan_names_its_port(network):
    # The plan is complete when planned: no allocator fills in the slot.
    sim = _simulation(network, "flexvc", "min")
    for router in sim.routers:
        for node in sim.topology.nodes_of_router(router.router_id):
            for msg_class in MessageClass:
                packet = Packet(0, node, 8, msg_class=msg_class)
                plan = sim.routing.plan(router, packet, None, -1)
                assert type(plan) is EjectionRequest
                port = router.ejection_ports[plan.slot]
                assert (port.node, port.msg_class) == (node, msg_class)


def _uniform_min_stats(network: str) -> dict:
    config = SimulationConfig(
        network=NETWORKS[network], warmup_cycles=300, measure_cycles=900, seed=5,
    ).with_load(0.3)
    return Session(config).run().provenance["routing"]


def test_verdict_memo_is_scale_invariant():
    h2 = _uniform_min_stats("dragonfly-h2")
    h3 = _uniform_min_stats("dragonfly-h3")
    assert h2["verdict_memo_size"] == h3["verdict_memo_size"] < 100
    assert h2["verdict_builds"] == h2["verdict_memo_size"]
    # 36 vs 114 routers, 5 vs 8 ports, one port layout class each: the
    # plan and hop memos grow with the radix, not with the router count.
    assert h3["hop_memo_size"] > h2["hop_memo_size"]
    assert h3["plan_memo_size"] > h2["plan_memo_size"]


def test_memos_do_not_grow_with_destinations_touched():
    # A private simulation: the shared ones carry other tests' entries.
    sim = _simulation.__wrapped__("dragonfly-h3", "flexvc", "min")
    routing = sim.routing
    router = sim.routers[0]
    n = sim.topology.num_routers
    radix = len(list(sim.topology.ports(0)))

    for dst in range(1, n):
        routing.plan(router, Packet(0, 0, 8, dst_router=dst), None, -1)
    verdicts = len(routing._verdict_memo)
    hops = len(routing._hop_memo)
    # One injection state, every destination: verdicts are bounded by the
    # topology's distinct minimal shapes, hops and first-level plans by this
    # router's ports times those shapes.
    assert verdicts <= len(sim.route_table.sequences)
    assert hops <= radix * verdicts < n - 1
    assert len(routing._plan_memo) <= radix * verdicts < n - 1


def _plan_everywhere(sim: Simulation) -> dict:
    """``{(here, dst): plan}`` of an injected packet at every router towards
    every node-attached router."""
    topology = sim.topology
    n = topology.num_routers
    targets = [dst for dst in range(n) if topology.nodes_of_router(dst)]
    return {
        (here, dst): sim.routing.plan(sim.routers[here],
                                      Packet(0, 0, 8, dst_router=dst), None, -1)
        for here in range(n) for dst in targets if dst != here
    }


@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_routers_of_one_layout_class_share_plans_and_records(network):
    sim = _simulation.__wrapped__(network, "flexvc", "min")
    layout = sim.topology.wiring().layout
    members = collections.defaultdict(list)
    for router, cls in enumerate(layout):
        members[cls].append(router)
    # Megafly: leaves and spines.
    assert len(members) == (2 if network == "megafly" else 1)
    plans = _plan_everywhere(sim)
    # One plan object per route shape, whichever router of the class asks.
    by_shape: dict = {}
    askers = collections.defaultdict(set)
    for (here, dst), plan in plans.items():
        column = sim.route_table.column(dst)
        shape = (layout[here], column.ports[here], column.seq_id(here))
        assert by_shape.setdefault(shape, plan) is plan
        askers[shape].add(here)
    assert max(map(len, askers.values())) > 1
    # Every router of the class resolves a shared candidate to its record,
    # and no plan or candidate is served to two classes.
    served = collections.defaultdict(set)
    for (here, _dst), plan in plans.items():
        if plan:
            served[id(plan)].add(layout[here])
        for candidate in plan:
            served[id(candidate)].add(layout[here])
            assert len(candidate.hot) == 7
            for router in members[layout[here]]:
                assert sim.routers[router].resolve_candidate(candidate) \
                    == candidate.hot
    assert served and all(len(classes) == 1 for classes in served.values())


def test_hop_memo_has_no_router_factor():
    sim = _simulation.__wrapped__("dragonfly-h3", "flexvc", "min")
    routing = sim.routing
    _plan_everywhere(sim)
    wiring = sim.topology.wiring()
    classes = len(set(wiring.layout))
    assert len(routing._hop_memo) <= (
        classes * wiring.ports_per_router * len(routing._verdict_memo))


def _flap_config() -> SimulationConfig:
    """TINY dragonfly riding through a global-link flap (as test_faults.py)."""
    base = SimulationConfig(
        warmup_cycles=300, measure_cycles=600, seed=3,
        arrangement=VcArrangement.single_class(4, 2),
    ).with_load(0.5)
    topology = base.network.build()
    port = next(info.port for info in topology.ports(0)
                if info.link_type == LinkType.GLOBAL)
    schedule = FaultSchedule(
        events=(LinkDown(250, 0, port), LinkUp(550, 0, port)), policy="drop"
    )
    return dataclasses.replace(base, faults=schedule)


def test_fault_retable_keeps_hop_and_verdict_memos():
    # A re-table flushes no memo at all, the plan memo included.
    def run(drop_everything: bool):
        sim = Simulation(_flap_config())
        routing = sim.routing
        memos = (routing._plan_memo, routing._verdict_memo, routing._hop_memo)
        sizes = []
        set_fault_state = sim.route_table.set_fault_state

        def spy(dead_links, dead_routers):
            sizes.append([tuple(map(len, memos))])
            dropped = set_fault_state(dead_links, dead_routers)
            if drop_everything:
                for memo in memos:
                    memo.clear()
            return dropped

        sim.route_table.set_fault_state = spy
        # Fires once the whole re-table (columns, head plans) is done.
        sim.fault_controller.on_fault_applied = (
            lambda event, cycle: sizes[-1].append(tuple(map(len, memos)))
        )
        trace = []
        sim.traffic.delivery_hook = lambda packet, cycle: trace.append(
            (packet.pid, packet.src_node, packet.dst_node, packet.hops, cycle)
        )
        result = dataclasses.asdict(Session(simulation=sim).run().summary)
        return trace, result, sizes

    trace, result, sizes = run(drop_everything=False)
    assert len(sizes) == 2, "link down + link up re-table once each"
    for before, after in sizes:
        assert min(before) > 0
        assert all(a >= b for a, b in zip(after, before)), (before, after)
    cold_trace, cold_result, _ = run(drop_everything=True)
    assert trace and trace == cold_trace
    assert result == cold_result


def test_miss_counters_live_in_provenance_not_in_results(tiny_config):
    session = Session(tiny_config)
    record = session.run()
    stats = record.provenance["routing"]
    assert set(stats) == {
        "plan_misses", "verdict_builds", "hop_builds",
        "plan_memo_size", "verdict_memo_size", "hop_memo_size",
        "empty_plans", "empty_plans_router_down",
    }
    assert stats == session.sim.routing_stats()
    assert stats["empty_plans"] == stats["empty_plans_router_down"] == 0
    assert stats["plan_misses"] >= stats["plan_memo_size"] > 0
    assert stats["hop_builds"] == stats["hop_memo_size"] > 0
    # The goldens (tests/test_golden_results.py, "tiny result fingerprint")
    # compare dataclasses.asdict(SimulationResult) and the ledger's
    # sim_fingerprint hashes its to_dict(): neither may see a counter.
    for payload in (dataclasses.asdict(record.summary), record.summary.to_dict()):
        flat = json.dumps(payload)
        assert not any(name in flat for name in stats)
        assert "routing" not in payload and "routing" not in payload["extra"]
