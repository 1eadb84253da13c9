"""Fault-injection subsystem: schedules, re-table-ing, accounting, recovery.

The load-bearing guarantees:

* **determinism** — a faulted run is bit-identical across in-process reruns
  for the same (seed, schedule), and a *no-fault* config hashes to the same
  ``config_key`` as before the subsystem existed (goldens untouched);
* **re-table-ing** — under fault state the route table detours around the
  dead links on every registered topology, and recovery rebuilds columns
  byte-identical to the pristine fill (``tests/test_route_tables.py`` holds
  the generated columns-are-a-pure-function-of-the-dead-set test);
* **the timeline** — a schedule resolves before cycle 0 into the dead sets
  a brute-force per-cycle replay gives, and one that disconnects the live
  graph in any interval is refused at validation with a typed
  :class:`~repro.faults.NetworkPartitionedError`;
* **conservation** — with the drop policy, every packet that entered the
  network is either delivered or dropped-with-accounting once drained.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, SimulationConfig
from repro.core.arrangement import VcArrangement
from repro.faults import (
    FaultSchedule,
    FaultSpec,
    LinkDown,
    LinkUp,
    NetworkPartitionedError,
    RouterDown,
    RouterUp,
    _revival,
    parse_faults,
)
from repro.routing.route_table import RouteTable
from repro.session import Session
from repro.simulation import Simulation, SimulationArtifacts
from repro.topology.base import LinkType

from pins import digest


def flap_config(policy: str = "drop", **overrides) -> SimulationConfig:
    """TINY dragonfly with a warmup-spanning global-link flap.

    A *global* link is faulted on purpose: detours around a dead global link
    stay within the VC arrangement's escape budget, whereas local-link
    detours can exceed the default 2-VC arrangement and wedge (documented in
    DESIGN.md §11) — the roomier ``single_class(4, 2)`` arrangement guards
    against that here too.
    """
    base = SimulationConfig(
        warmup_cycles=300,
        measure_cycles=600,
        seed=3,
        arrangement=VcArrangement.single_class(4, 2),
    ).with_load(0.5)
    topology = base.network.build()
    port = next(
        info.port
        for info in topology.ports(0)
        if info.link_type == LinkType.GLOBAL
    )
    schedule = FaultSchedule(
        events=(LinkDown(400, 0, port), LinkUp(900, 0, port)), policy=policy
    )
    return dataclasses.replace(base, faults=schedule, **overrides)


def pinned_schedules(config: SimulationConfig) -> dict:
    """Named event lists on ``flap_config``'s network, one per fault shape:
    flaps of a global link and of the router behind it, overlapping link
    and router windows in both revival orders, a link downed from both
    ends and repaired from one, a local link never repaired, and sampled
    link and router schedules."""
    topology = config.network.build()
    port = config.faults.events[0].port
    local = next(
        info.port for info in topology.ports(0)
        if info.link_type == LinkType.LOCAL
    )
    far = topology.neighbor(0, port)
    back = topology.back_port(0, port)
    sampled = {
        f"sample-{element}": parse_faults(
            f"sample:mtbf={mtbf},mttr={mttr},until=1500,seed=4,"
            f"element={element}"
        ).resolve(config).events
        for element, mtbf, mttr in (("link", 20000, 400), ("router", 6000, 300))
    }
    return {
        "global-link-flap": config.faults.events,
        "neighbour-router-flap": (RouterDown(400, far), RouterUp(900, far)),
        "link-and-router-link-revives-first": (
            LinkDown(400, 0, port), RouterDown(500, far),
            LinkUp(800, 0, port), RouterUp(1000, far),
        ),
        "link-and-router-router-revives-first": (
            LinkDown(400, 0, port), RouterDown(500, far),
            RouterUp(800, far), LinkUp(1000, 0, port),
        ),
        "both-ends-down-one-up": (
            LinkDown(400, 0, port), LinkDown(450, far, back),
            LinkUp(900, 0, port),
        ),
        "local-link-never-repaired": (LinkDown(400, 0, local),),
        **sampled,
    }


def run_session(config: SimulationConfig, windows: int = 3):
    session = Session(config)
    session.warmup()
    results = [session.measure(label=f"w{index}") for index in range(windows)]
    return session, results, session.record()


# ---------------------------------------------------------------------------
# Schedules: validation, parsing, sampling, hashing
# ---------------------------------------------------------------------------

class TestFaultSchedule:
    def test_events_sorted_and_validated(self):
        schedule = FaultSchedule(
            events=(LinkUp(900, 0, 1), LinkDown(400, 0, 1), RouterDown(500, 2))
        )
        assert [event.cycle for event in schedule.events] == [400, 500, 900]
        schedule.validate()
        with pytest.raises(ValueError):
            FaultSchedule(events=(LinkDown(0, 0, 1),)).validate()
        with pytest.raises(ValueError):
            FaultSchedule(policy="explode").validate()

    def test_digest_is_stable_and_order_insensitive(self):
        a = FaultSchedule(events=(LinkDown(400, 0, 1), LinkUp(900, 0, 1)))
        b = FaultSchedule(events=(LinkUp(900, 0, 1), LinkDown(400, 0, 1)))
        assert a.digest() == b.digest()
        assert a.digest() != FaultSchedule(events=(LinkDown(401, 0, 1),)).digest()

    def test_parse_grammar(self):
        spec = parse_faults("link:0:3@400-900; router:7@500-1000; policy=stall")
        schedule = spec.resolve(SimulationConfig())
        kinds = [event.kind for event in schedule.events]
        assert kinds == ["link-down", "router-down", "link-up", "router-up"]
        assert schedule.policy == "stall"
        with pytest.raises(ValueError):
            parse_faults("wormhole:3@1-2")

    def test_sampled_schedules_are_seed_deterministic(self):
        config = SimulationConfig()
        spec = parse_faults("sample:mtbf=4000,mttr=400,until=2000,seed=9")
        again = parse_faults("sample:mtbf=4000,mttr=400,until=2000,seed=9")
        other = parse_faults("sample:mtbf=4000,mttr=400,until=2000,seed=10")
        assert spec.resolve(config) == again.resolve(config)
        assert spec.resolve(config) != other.resolve(config)

    def test_empty_schedule_leaves_config_key_unchanged(self):
        from repro.keys import config_key

        config = SimulationConfig(warmup_cycles=150, measure_cycles=300)
        payload = dataclasses.asdict(config)
        payload.pop("faults")
        legacy = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()
        assert legacy.startswith(config_key(config))

    def test_non_empty_schedule_changes_config_key(self):
        from repro.keys import config_key

        assert config_key(flap_config()) != config_key(
            dataclasses.replace(flap_config(), faults=FaultSchedule())
        )


# ---------------------------------------------------------------------------
# Determinism and transient visibility
# ---------------------------------------------------------------------------

class TestFaultedRunDeterminism:
    @pytest.mark.parametrize("policy", ["drop", "stall"])
    def test_faulted_runs_are_bit_identical(self, policy):
        _, first, record_a = run_session(flap_config(policy))
        _, second, record_b = run_session(flap_config(policy))
        for a, b in zip(first, second):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        dict_a, dict_b = record_a.to_dict(), record_b.to_dict()
        # Wall-clock provenance is stamped on purpose and never bit-stable.
        dict_a["provenance"].pop("wall_time_s")
        dict_b["provenance"].pop("wall_time_s")
        assert dict_a == dict_b

    @pytest.mark.parametrize("down_cycle, delivered", [(1, 2745), (400, 2711)])
    def test_result_independent_of_route_table_capacity(self, down_cycle, delivered):
        # A column first built while a fault is active must equal one that
        # was resident when the fault fired: the link goes down before
        # (cycle 1) or after (cycle 400) the columns are first touched.
        config = flap_config("drop")
        port = config.faults.events[0].port
        schedule = FaultSchedule(
            events=(LinkDown(down_cycle, 0, port), LinkUp(900, 0, port)),
            policy="drop",
        )
        config = dataclasses.replace(config, faults=schedule)
        topology = config.network.build()
        table = RouteTable(topology)
        sim = Simulation(config, artifacts=SimulationArtifacts(topology, table))
        # A faulted run re-tables a private table.
        assert sim.route_table is not table
        session = Session(simulation=sim)
        session.warmup()
        assert session.measure().packets_delivered == delivered

    def test_transient_visible_in_window_summaries(self):
        session, results, record = run_session(flap_config("drop"))
        controller = session.sim.fault_controller
        assert controller is not None
        assert controller.faults_applied == 2
        assert controller.packets_dropped > 0
        assert controller.packets_rerouted > 0
        assert controller.columns_invalidated > 0
        # Window 0 (cycles 300-900) sees only the down-event at 400; the
        # recovery at 900 lands on the boundary and shows from window 1 on —
        # the cumulative counters make the transient *visible per window*.
        assert results[0].extra["faults_applied"] >= 1
        assert "columns_invalidated" not in results[0].extra  # cache state
        assert results[-1].extra["faults_applied"] == 2
        assert results[0].extra["packets_dropped"] > 0
        assert results[-1].extra["packets_dropped"] == controller.packets_dropped
        provenance = record.provenance["faults"]
        assert provenance["applied"] == 2
        assert provenance["policy"] == "drop"
        assert provenance["schedule_digest"] == flap_config().faults.digest()
        assert provenance["packets_dropped"] == controller.packets_dropped
        assert provenance["columns_invalidated"] == controller.columns_invalidated

    @pytest.mark.parametrize("name", sorted(pinned_schedules(flap_config())))
    @pytest.mark.parametrize("policy", ["drop", "stall"])
    def test_faulted_run_matches_pinned_digest(self, policy, name, pin):
        # The digest covers the three windows, the post-drain packet counts
        # and the fault provenance block of each schedule: a rewrite of the
        # fault runtime must reproduce every one bit for bit.
        config = flap_config(policy)
        events = pinned_schedules(config)[name]
        config = dataclasses.replace(
            config, faults=FaultSchedule(events=events, policy=policy)
        )
        session = Session(config)
        session.warmup()
        windows = [dataclasses.asdict(session.measure()) for _ in range(3)]
        session.drain()
        metrics = session.sim.metrics
        payload = {
            "windows": windows,
            "counts": [
                metrics.packets_generated,
                metrics.packets_delivered_total,
                session.sim.total_resident_packets(),
            ],
            "faults": session.record().provenance["faults"],
        }
        pin(digest(json.dumps(payload, sort_keys=True)))

    def test_stall_policy_drops_nothing(self):
        session, _, _ = run_session(flap_config("stall"))
        controller = session.sim.fault_controller
        assert controller.packets_dropped == 0
        assert controller.packets_rerouted > 0

    def test_probe_hooks_fire(self):
        from repro.probes import Probe

        seen = {"faults": [], "drops": 0}

        class FaultWatcher(Probe):
            def on_fault_applied(self, event, cycle):
                seen["faults"].append((event.kind, cycle))

            def on_packet_dropped(self, packet, router_id, reason, cycle):
                seen["drops"] += 1

        session = Session(flap_config("drop"), probes=[FaultWatcher()])
        session.warmup()
        session.measure()
        session.measure()  # second window covers the recovery at cycle 900
        assert seen["faults"] == [("link-down", 400), ("link-up", 900)]
        assert seen["drops"] == session.sim.fault_controller.packets_dropped


# ---------------------------------------------------------------------------
# Conservation and router failures
# ---------------------------------------------------------------------------

class TestAccounting:
    def test_drop_conservation_after_drain(self):
        session = Session(flap_config("drop"))
        session.warmup()
        for index in range(3):
            session.measure(label=f"w{index}")
        session.drain()
        sim = session.sim
        metrics = sim.metrics
        controller = sim.fault_controller
        assert sim._resident_ledger.count == 0
        assert (
            metrics.packets_generated
            == metrics.packets_delivered_total + controller.packets_dropped
        )

    def test_router_failure_drops_and_suppresses(self):
        config = flap_config("drop")
        topology = config.network.build()
        victim = topology.neighbor(0, config.faults.events[0].port)
        schedule = FaultSchedule(
            events=(RouterDown(400, victim), RouterUp(900, victim)),
            policy="drop",
        )
        session = Session(dataclasses.replace(config, faults=schedule))
        session.warmup()
        for index in range(3):
            session.measure(label=f"w{index}")
        controller = session.sim.fault_controller
        assert controller.packets_suppressed > 0  # traffic to/from dead nodes
        assert controller.packets_dropped > 0  # buffered state was lost
        session.drain()
        metrics = session.sim.metrics
        # Conservation with an in-flight term: packets detoured mid-path can
        # end up past their VC budget once pristine routes return, and stay
        # resident forever (DESIGN.md §11 documents the capacity caveat) —
        # but they are *accounted* resident, never silently lost.
        assert (
            metrics.packets_generated
            == metrics.packets_delivered_total
            + controller.packets_dropped
            + session.sim._resident_ledger.count
        )
        record = session.record()
        provenance = record.provenance["faults"]
        assert provenance["packets_suppressed"] == controller.packets_suppressed


def _isolate(config: SimulationConfig, router: int, cycle: int) -> tuple:
    """``LinkDown`` at ``cycle`` for every link of ``router``."""
    topology = config.network.build()
    return tuple(
        LinkDown(cycle, router, info.port) for info in topology.ports(router)
    )


class TestPartitionDetection:
    def test_isolating_a_router_raises_typed_error(self):
        # The down-events would fire at cycle 400, mid-measure: the
        # schedule is refused before warm-up instead.
        config = flap_config("drop")
        config = dataclasses.replace(
            config, faults=FaultSchedule(events=_isolate(config, 0, 400))
        )
        with pytest.raises(NetworkPartitionedError, match="cycle 400"):
            config.validate()
        with pytest.raises(NetworkPartitionedError):
            Session(config)

    def test_router_dying_with_its_links_is_not_a_partition(self):
        # Only the state after *all* of a cycle's events counts: with every
        # link of router 0 down at cycle 400 it is isolated, but it dies at
        # the same cycle, so no live router is cut off.
        config = flap_config("drop")
        events = _isolate(config, 0, 400) + (RouterDown(400, 0),)
        session, results, _ = run_session(
            dataclasses.replace(config, faults=FaultSchedule(events=events))
        )
        assert results[-1].packets_delivered > 0
        assert session.sim.fault_controller.faults_applied == len(events)

    def test_router_revived_into_isolation_is_refused(self):
        # Router 5 dies, its links go down while it is dead, and it comes
        # back with every link still down: live but cut off.  Run anyway,
        # the route table would keep holding router 5 dead while its nodes
        # inject, and packets would pile up in its injection buffers.
        config = flap_config("drop")
        events = (
            (RouterDown(340, 5),) + _isolate(config, 5, 350) + (RouterUp(500, 5),)
        )
        config = dataclasses.replace(config, faults=FaultSchedule(events=events))
        with pytest.raises(NetworkPartitionedError, match="cycle 500"):
            config.validate()

    def test_events_naming_missing_elements_are_refused(self):
        config = flap_config("drop")
        missing_port = config.network.build().wiring().ports_per_router
        for event, message in (
            (LinkDown(5, 999, 0), "router 999"),
            (LinkDown(5, 0, missing_port), f"port {missing_port} of router 0"),
            (RouterDown(5, 36), "router 36"),
        ):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(
                    config, faults=FaultSchedule(events=(event,))
                ).validate()

    def test_dead_router_is_not_a_partition(self):
        # Sink-hole rule: a dead router removes itself from the live graph,
        # so taking it (and all its links) down partitions nothing.
        config = flap_config("drop")
        schedule = FaultSchedule(events=(RouterDown(400, 0), RouterUp(900, 0)))
        session, results, _ = run_session(
            dataclasses.replace(config, faults=schedule)
        )
        assert results[-1].packets_delivered > 0


# ---------------------------------------------------------------------------
# The timeline against a brute-force per-cycle replay
# ---------------------------------------------------------------------------

#: the tiny Dragonfly, and a HyperX small enough that random events often
#: cut it apart.
ORACLE_WIRINGS = {
    "dragonfly": NetworkConfig().build().wiring(),
    "hyperx": NetworkConfig(topology="hyperx", params={"s": (3, 3)}).build().wiring(),
}


def _replay(wiring, events, cycle):
    """Dead links and routers after every event up to ``cycle``, straight
    from the rule: a directed link is dead while its physical link's last
    Link event is a LinkDown or either endpoint's last Router event is a
    RouterDown."""
    per = wiring.ports_per_router

    def physical(router, port):
        slot = router * per + port
        return frozenset({(router, port), (wiring.neighbor[slot], wiring.back_port[slot])})

    last_link, last_router = {}, {}
    for event in events:
        if event.cycle > cycle:
            break
        if isinstance(event, (LinkDown, LinkUp)):
            last_link[physical(event.router, event.port)] = event
        else:
            last_router[event.router] = event
    dead_routers = {r for r, e in last_router.items() if isinstance(e, RouterDown)}
    dead_links = set()
    for slot, far in enumerate(wiring.neighbor):
        router, port = divmod(slot, per)
        if far >= 0 and (
            isinstance(last_link.get(physical(router, port)), LinkDown)
            or router in dead_routers or far in dead_routers
        ):
            dead_links.add((router, port))
    return dead_links, dead_routers


def _connected(wiring, dead_links, dead_routers):
    """Depth-first search: every live router reachable over live links."""
    per = wiring.ports_per_router
    live = [r for r in range(wiring.num_routers) if r not in dead_routers]
    seen = set(live[:1])
    stack = list(seen)
    while stack:
        router = stack.pop()
        for port in range(per):
            far = wiring.neighbor[router * per + port]
            if (far >= 0 and far not in dead_routers and far not in seen
                    and (router, port) not in dead_links):
                seen.add(far)
                stack.append(far)
    return len(seen) == len(live)


@st.composite
def fault_events(draw, wiring):
    """Up to a dozen events over cycles 1-6 (so repeats, overlaps and
    same-cycle events are common), some downing every link of a router,
    with or without the router itself."""
    per = wiring.ports_per_router
    links = [
        divmod(slot, per) for slot, far in enumerate(wiring.neighbor) if far >= 0
    ]
    cycles = st.integers(1, 6)
    routers = st.integers(0, wiring.num_routers - 1)
    one = st.one_of(
        st.builds(lambda kind, cycle, link: (kind(cycle, *link),),
                  st.sampled_from([LinkDown, LinkUp]), cycles, st.sampled_from(links)),
        st.builds(lambda kind, cycle, router: (kind(cycle, router),),
                  st.sampled_from([RouterDown, RouterUp]), cycles, routers),
        st.builds(lambda cycle, router, dies: tuple(
            LinkDown(cycle, router, port) for port in range(per)
            if wiring.neighbor[router * per + port] >= 0
        ) + ((RouterDown(cycle, router),) if dies else ()),
                  cycles, routers, st.booleans()),
    )
    return tuple(event for group in draw(st.lists(one, max_size=12)) for event in group)


@pytest.mark.parametrize("network", sorted(ORACLE_WIRINGS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_timeline_matches_per_cycle_replay(network, data):
    wiring = ORACLE_WIRINGS[network]
    schedule = FaultSchedule(events=data.draw(fault_events(wiring)))
    last = max((event.cycle for event in schedule.events), default=0)
    states = [_replay(wiring, schedule.events, cycle) for cycle in range(last + 1)]
    cycles = sorted({event.cycle for event in schedule.events})
    if not all(_connected(wiring, *states[cycle]) for cycle in cycles):
        with pytest.raises(NetworkPartitionedError):
            schedule.timeline(wiring)
        return
    timeline = schedule.timeline(wiring)
    assert [interval.cycle for interval in timeline] == cycles
    for interval in timeline:
        assert (interval.dead_links, interval.dead_routers) == states[interval.cycle]
        assert interval.events == tuple(
            event for event in schedule.events if event.cycle == interval.cycle
        )
    # Revival lookups, asked (as at run time) of an element dead at ``now``:
    # the oracle's first later cycle at which it is live, None if never.
    for now, (dead_links, dead_routers) in enumerate(states):
        later = range(now + 1, last + 1)
        for key in dead_links:
            expected = next((t for t in later if key not in states[t][0]), None)
            assert _revival(timeline, now, lambda i: key in i.dead_links) == expected
        for router in dead_routers:
            expected = next((t for t in later if router not in states[t][1]), None)
            assert _revival(timeline, now, lambda i: router in i.dead_routers) == expected


# ---------------------------------------------------------------------------
# Route-table invalidation: detours and recovery byte-identity
# ---------------------------------------------------------------------------

def _dead_pair(topo, router=0, port=0):
    """Directed (router, port) keys of both ends of one link."""
    back = (topo.neighbor(router, port), topo.back_port(router, port))
    return frozenset({(router, port), back})


def _column_bytes(table):
    """Every column's stored arrays, touching (building) each one and
    reading every source's hop sequence (ids are assigned on first read)."""
    n = table.num_routers
    columns = [table.column(dst) for dst in range(n)]
    for col in columns:
        for src in range(n):
            col.hop_sequence(src)
    return [(bytes(col.ports), bytes(col.seq_ids)) for col in columns]


class TestFaultRetabling:
    def test_detours_avoid_the_dead_link(self, topo):
        table = RouteTable(topo)
        _column_bytes(table)  # every pristine column resident
        dead = _dead_pair(topo)
        assert table.set_fault_state(dead, frozenset()) > 0
        for dst in range(topo.num_routers):
            for src in range(topo.num_routers):
                if src == dst:
                    continue
                port = table.next_port(src, dst)
                assert port >= 0
                assert (src, port) not in dead

    def test_recovery_restores_pristine_bytes(self, topo):
        pristine = RouteTable(topo)
        table = RouteTable(topo)
        expected = _column_bytes(pristine)
        assert _column_bytes(table) == expected
        table.set_fault_state(_dead_pair(topo), frozenset())
        assert _column_bytes(table) != expected
        # Recovery: clearing the fault state drops what was filled under
        # faults, and the pristine fill must come back byte-identical
        # (persistent sequence interning keeps ids stable across rebuilds).
        table.set_fault_state(frozenset(), frozenset())
        assert _column_bytes(table) == expected
        assert not table._fault_dirty
        # Persistent interning: the pristine ids are a stable prefix (detour
        # sequences interned during the fault stay allocated but unreferenced).
        prefix = len(pristine.sequences)
        assert table.sequences[:prefix] == pristine.sequences

    def test_unreachable_destination_raises(self, topo):
        table = RouteTable(topo)
        dead = set()
        for info in topo.ports(0):
            dead |= _dead_pair(topo, 0, info.port)
        table.set_fault_state(frozenset(dead), frozenset())
        with pytest.raises(NetworkPartitionedError):
            table.column(0)

    def test_dead_destination_keeps_stale_column(self, topo):
        # Sink-hole rule: the column *to* a dead router keeps its pristine
        # fill, whether it was resident when the router died or not.
        pristine = RouteTable(topo)
        dead_router = topo.neighbor(0, 0)
        dead = set()
        for info in topo.ports(dead_router):
            dead |= _dead_pair(topo, dead_router, info.port)
        for resident in (True, False):
            table = RouteTable(topo)
            if resident:
                table.column(dead_router)
            table.set_fault_state(frozenset(dead), frozenset({dead_router}))
            for src in range(topo.num_routers):
                assert table.next_port(src, dead_router) == pristine.next_port(
                    src, dead_router
                )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2(d): a Valiant packet set up while a router was "
    "dead is left with an empty head plan after the router revives",
)
@pytest.mark.parametrize("policy", ["drop", "stall"])
def test_packets_drain_after_a_router_revives(policy):
    """Tiny Dragonfly, PB FlexVC per-VC 4/2+4/2 request-reply, ADV load 0.5,
    router 1 down from 250 to 450.  Today one packet stays resident after a
    4,000-cycle drain, neither delivered nor counted as dropped; the fix
    deletes the marker."""
    from repro.experiments.runner import TINY, base_config

    config = base_config(
        TINY, pattern="adversarial", algorithm="pb", reactive=True,
        vc_policy="flexvc", pb_sensing="vc",
        arrangement=VcArrangement.request_reply((4, 2), (4, 2)),
    ).with_load(0.5)
    config = dataclasses.replace(config, faults=FaultSchedule(
        events=(RouterDown(250, 1), RouterUp(450, 1)), policy=policy))
    session = Session(config)
    session.warmup()
    session.measure(300)
    session.measure(300)
    session.drain(4000)
    assert session.sim.total_resident_packets() == 0


# ---------------------------------------------------------------------------
# Orchestration integration
# ---------------------------------------------------------------------------

class TestFaultOrchestration:
    def test_fault_spec_applies_to_jobs_and_rewrites_keys(self, tmp_path):
        from repro.experiments.orchestrator import Job, run_jobs
        from repro.keys import config_key
        from repro.store import ResultStore

        config = SimulationConfig(
            warmup_cycles=150, measure_cycles=300, seed=5
        ).with_load(0.3)
        job = Job(
            key=config_key(config), series="faulted", load=0.3, seed=5,
            config=config,
        )
        spec = parse_faults("link:0:3@200-400")
        with ResultStore(str(tmp_path / "store.json")) as store:
            stats = run_jobs([job], store=store, faults=spec)
            entries = list(store.entries())
        assert len(stats.results) == 1
        faulted_key = next(iter(stats.results))
        assert faulted_key != job.key  # schedules hash into the config key
        assert len(entries) == 1
        _, record, _ = entries[0]
        assert record.provenance["faults"]["applied"] == 2

    def test_run_jobs_refuses_a_partitioning_spec_before_any_job(self, tmp_path):
        from repro.experiments.orchestrator import (
            FaultSpecError,
            SweepSpec,
            run_jobs,
        )
        from repro.store import ResultStore

        jobs = SweepSpec(
            series=[("s", lambda: SimulationConfig(warmup_cycles=50, measure_cycles=100))],
            loads=[0.3],
            seeds=2,
        ).expand()
        isolate = parse_faults(";".join(f"link:0:{port}@5" for port in range(5)))
        path = tmp_path / "store.journal"
        store = ResultStore(str(path))
        with pytest.raises(FaultSpecError, match="cycle 5"):
            run_jobs(jobs, workers=1, store=store, faults=isolate)
        assert len(store) == 0 and store.writes == 0
        assert not path.exists()

    @pytest.mark.parametrize("spec", [
        "link:999:0@5",
        ";".join(f"link:0:{port}@5" for port in range(5)),  # cuts off router 0
    ])
    def test_cli_refuses_a_bad_schedule_before_any_job(self, spec, tmp_path, capsys):
        from repro.experiments.__main__ import main

        store = tmp_path / "store.json"
        status = main(["run", "fig5", "--scale", "tiny", "--faults", spec,
                       "--store", str(store)])
        assert status == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("--faults: ")

    def test_deadlock_outcome_is_typed_and_inspectable(self, tmp_path):
        import subprocess
        import sys

        from repro.store import ResultStore

        config = SimulationConfig(
            warmup_cycles=10, measure_cycles=50, deadlock_window_cycles=5
        ).with_load(0.0)
        session = Session(config)
        session.warmup()
        # Plant a resident packet so the idle window reads as a wedge.
        session.sim._resident_ledger.count = 1
        result = session.measure()
        assert result.deadlock_suspected
        assert result.extra["outcome"] == "deadlock"
        outcome = result.extra["deadlock"]
        assert outcome["resident_packets"] == 1
        record = session.record()
        assert record.provenance["deadlock"][0]["cycle"] == outcome["cycle"]

        path = tmp_path / "store.json"
        store = ResultStore(str(path))
        store.put_record(
            "wedged", record, meta={"series": "w", "load": 0.0, "seed": 1}
        )
        store.flush()
        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "inspect", str(path),
             "--verbose"],
            capture_output=True, text=True,
        )
        assert completed.returncode == 0
        assert "DEADLOCK suspected at cycle" in completed.stdout
        assert "deadlock:" in completed.stdout
