"""Incremental-allocator equivalence and in-process reproducibility.

The fast router rebuilds allocation around per-port blocked verdicts,
iteration skip-lists, inlined arbitration and flat hot-state slabs
(DESIGN.md §6).  These are pure execution-strategy changes: every simulation
must remain bit-identical to the kept-for-test full-rescan implementation
(:class:`repro.router.reference.ReferenceRouter`).  The property test below
checks *delivery traces* — every delivered packet's id, endpoints and
delivery cycle — across ~50 short randomized configurations spanning all
four routings, both VC policies and three topologies.

The reproducibility tests cover the per-simulation packet-id counter:
back-to-back runs in one process must produce identical results *and*
identical pid sequences (the old module-global counter leaked state between
Simulation instances).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.config import RoutingConfig, SimulationConfig, TrafficConfig
from repro.experiments.runner import TINY
from repro.experiments.topologies import minimal_feasible_arrangement
from repro.session import Session
from repro.simulation import Simulation

TOPOLOGIES = ("dragonfly", "hyperx", "megafly")
ROUTINGS = ("min", "val", "par", "pb")
POLICIES = ("baseline", "flexvc")

#: randomized variants per (topology, routing, policy) combination; with the
#: 24 combinations this exercises 48 distinct configurations.
VARIANTS = 2


def _random_config(rng: random.Random, topology: str, algorithm: str,
                   vc_policy: str) -> SimulationConfig:
    # Short link latencies keep the short runs delivery-rich (TINY's default
    # 100-cycle global latency would starve a 240-cycle run of deliveries).
    network = dataclasses.replace(
        TINY.network_for(topology), local_latency=4, global_latency=12
    )
    arrangement = minimal_feasible_arrangement(network, algorithm, vc_policy)
    from repro.config import RouterConfig

    return SimulationConfig(
        network=network,
        router=RouterConfig(
            buffer_organization=rng.choice(("static", "damq")),
        ),
        routing=RoutingConfig(
            algorithm=algorithm,
            vc_policy=vc_policy,
            vc_selection=rng.choice(("jsq", "highest", "lowest", "random")),
        ),
        arrangement=arrangement,
        traffic=TrafficConfig(
            pattern=rng.choice(("uniform", "adversarial")),
            load=rng.choice((0.3, 0.5, 0.7, 0.9)),
        ),
        warmup_cycles=80,
        measure_cycles=160,
        seed=rng.randrange(10_000),
    )


def _delivery_trace(sim: Simulation) -> list:
    trace: list = []
    sim.traffic.delivery_hook = (
        lambda packet, cycle: trace.append(
            (packet.pid, packet.src_node, packet.dst_node, packet.hops, cycle)
        )
    )
    return trace


def _run(config: SimulationConfig, reference: bool):
    sim = Simulation(config, use_reference_allocator=reference)
    trace = _delivery_trace(sim)
    result = dataclasses.asdict(Session(simulation=sim).run().summary)
    return trace, result


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("algorithm", ROUTINGS)
@pytest.mark.parametrize("vc_policy", POLICIES)
def test_incremental_allocator_matches_full_rescan(topology, algorithm, vc_policy):
    rng = random.Random(hash((topology, algorithm, vc_policy)) & 0xFFFF)
    for _ in range(VARIANTS):
        config = _random_config(rng, topology, algorithm, vc_policy)
        fast_trace, fast_result = _run(config, reference=False)
        ref_trace, ref_result = _run(config, reference=True)
        label = (f"{topology}/{algorithm}/{vc_policy} "
                 f"{config.traffic.pattern}@{config.traffic.load} "
                 f"{config.router.buffer_organization}/"
                 f"{config.routing.vc_selection} seed={config.seed}")
        assert fast_trace, f"no deliveries in {label} (degenerate config)"
        assert fast_trace == ref_trace, f"delivery trace drifted: {label}"
        assert fast_result == ref_result, f"summary drifted: {label}"


@pytest.mark.parametrize("organization, pipeline_latency, input_body, output_body", [
    ("static", 5, "InputPort", "OutputPort"),
    ("static", 0, "InputPort", "OutputPort"),
    ("damq", 5, "InputPort", "OutputPort"),
    ("damq", 0, "InputPort", "OutputPort"),
])
def test_link_callback_bodies_match_full_rescan(
        organization, pipeline_latency, input_body, output_body):
    """The per-link callbacks are port methods with one body each, whatever
    the buffer organization and pipeline depth: each combination runs it and
    stays trace-identical to the reference router."""
    from repro.config import RouterConfig

    config = dataclasses.replace(
        _random_config(random.Random(5), "dragonfly", "val", "flexvc"),
        router=RouterConfig(buffer_organization=organization,
                            pipeline_latency=pipeline_latency),
    )
    sim = Simulation(config)
    links = [port.link for router in sim.routers
             for port in router.output_ports.values()]
    assert {link.deliver.__qualname__ for link in links} == {
        f"{input_body}.deliver"}
    assert {type(link.port.upstream).credit_return.__qualname__
            for link in links} == {f"{output_body}.credit_return"}
    fast_trace = _delivery_trace(sim)
    fast_result = dataclasses.asdict(Session(simulation=sim).run().summary)
    ref_trace, ref_result = _run(config, reference=True)
    assert fast_trace and fast_trace == ref_trace
    assert fast_result == ref_result


class TestInProcessReproducibility:
    """Per-simulation packet ids: sequential runs are exactly identical."""

    CONFIG = dataclasses.replace(
        SimulationConfig(warmup_cycles=150, measure_cycles=300).with_load(0.5),
        seed=11,
    )

    def test_sequential_runs_have_identical_traces_and_pids(self):
        traces = []
        for _ in range(2):
            sim = Simulation(self.CONFIG)
            trace = _delivery_trace(sim)
            Session(simulation=sim).run()
            traces.append(trace)
        assert traces[0] == traces[1]
        # pid sequences start from zero per simulation.
        assert min(pid for pid, *_ in traces[0]) < 50

    def test_sequential_runrecords_identical(self):
        records = []
        for _ in range(2):
            session = Session(self.CONFIG)
            session.warmup()
            session.measure()
            records.append(session.record())
        first, second = records
        assert first.summary == second.summary
        assert first.channels == second.channels
        assert first.windows == second.windows
        prov_a = {k: v for k, v in first.provenance.items() if k != "wall_time_s"}
        prov_b = {k: v for k, v in second.provenance.items() if k != "wall_time_s"}
        assert prov_a == prov_b

    def test_reactive_replies_reproducible(self):
        config = dataclasses.replace(
            self.CONFIG,
            traffic=dataclasses.replace(
                self.CONFIG.traffic, reactive=True, load=0.4
            ),
            arrangement=__import__(
                "repro.core.arrangement", fromlist=["VcArrangement"]
            ).VcArrangement.request_reply((2, 1), (2, 1)),
        )
        traces = []
        for _ in range(2):
            sim = Simulation(config)
            trace = _delivery_trace(sim)
            Session(simulation=sim).run()
            traces.append(trace)
        assert traces[0] == traces[1]
