"""Two-level plan construction: shape-keyed verdicts, router-local hops.

``RoutingAlgorithm`` memoizes the VC verdict on the hop's path *shape* and
the ``CandidateHop`` on ``(router, port, verdict)`` (DESIGN.md §6).  The
guarantees locked here:

* **differential** — a plan served through the memos equals one assembled by
  calling ``policy.evaluate(HopContext(...))`` directly on an independent
  dense table, for generated positions, inputs and phase states;
* **scale invariance** — the verdict memo's population does not depend on
  the network size, and neither memo grows with the destinations touched;
* **fault survival** — a re-table drops only the first-level plan memo, and
  the run is trace-identical to one that drops everything;
* **observability** — the miss-path counters land in RunRecord provenance
  and never in the simulated statistics that fingerprints hash.
"""

from __future__ import annotations

import dataclasses
import functools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RoutingConfig, SimulationConfig
from repro.core.arrangement import VcArrangement
from repro.core.link_types import LinkType
from repro.core.vc_policy import HopContext, HopKind
from repro.experiments.runner import TINY
from repro.experiments.topologies import minimal_feasible_arrangement
from repro.faults import FaultSchedule, LinkDown, LinkUp
from repro.packet import Packet, RouteKind
from repro.routing.base import CandidateHop
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


@functools.lru_cache(maxsize=None)
def _simulation(network: str, policy: str, algorithm: str) -> Simulation:
    """One shared simulation per combination: later examples hit its memos."""
    config = SimulationConfig(
        network=NETWORKS[network],
        routing=RoutingConfig(algorithm=algorithm, vc_policy=policy),
        arrangement=minimal_feasible_arrangement(
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
            out_port=port, next_router=nxt, out_type=out_type,
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


@settings(max_examples=300, deadline=None)
@given(
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
def test_memoized_plan_equals_direct_evaluation(
    network, policy, algorithm, routers, valiant, reached, input_type,
    input_vc, phase,
):
    sim = _simulation(network, policy, algorithm)
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
    expected = _direct_plan(sim, _reference_table(network), here, packet,
                            input_type, input_vc)
    for _ in range(2):  # second pass: every memo level is a hit
        plan = sim.routing.plan(sim.routers[here], packet, input_type, input_vc)
        assert plan == expected
        for got, want in zip(plan, expected):
            assert got.hot == want.hot and len(got.hot) == 8


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
    # 36 vs 114 routers: only the position-keyed memos grow.
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
    # One injection state, every destination: only the first-level memo has
    # an entry per destination.  Verdicts are bounded by the topology's
    # distinct minimal shapes, hops by this router's ports.
    assert len(routing._plan_memo) == n - 1
    assert verdicts <= len(sim.route_table.sequences)
    assert hops <= radix * verdicts < n - 1


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
    def run(drop_everything: bool):
        sim = Simulation(_flap_config())
        routing = sim.routing
        survivors = []
        invalidate = routing.invalidate_route_caches

        def spy() -> None:
            invalidate()
            if drop_everything:
                routing._verdict_memo.clear()
                routing._hop_memo.clear()
            survivors.append((len(routing._plan_memo),
                              len(routing._verdict_memo),
                              len(routing._hop_memo)))

        routing.invalidate_route_caches = spy
        trace = []
        sim.traffic.delivery_hook = lambda packet, cycle: trace.append(
            (packet.pid, packet.src_node, packet.dst_node, packet.hops, cycle)
        )
        result = dataclasses.asdict(Session(simulation=sim).run().summary)
        return trace, result, survivors

    trace, result, survivors = run(drop_everything=False)
    assert len(survivors) == 2, "link down + link up re-table once each"
    for plans, verdicts, hops in survivors:
        assert plans == 0 and verdicts > 0 and hops > 0
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
    }
    assert stats == session.sim.routing.memo_stats()
    assert stats["plan_misses"] >= stats["plan_memo_size"] > 0
    assert stats["hop_builds"] == stats["hop_memo_size"] > 0
    # The goldens (tests/test_golden_results.py, "tiny result fingerprint")
    # compare dataclasses.asdict(SimulationResult) and the ledger's
    # sim_fingerprint hashes its to_dict(): neither may see a counter.
    for payload in (dataclasses.asdict(record.summary), record.summary.to_dict()):
        flat = json.dumps(payload)
        assert not any(name in flat for name in stats)
        assert "routing" not in payload and "routing" not in payload["extra"]
