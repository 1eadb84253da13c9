"""Piggyback (PB) routing off the Dragonfly.

The pinned Piggyback digests in ``test_credits_and_ports.py`` all run on a
Dragonfly, where the first global link of a minimal path is always owned by
the source router's group and posted to by a router that also reads the
board.  The runs below pin the other registered topologies: a Megafly leaf
reads a board it never posts to (only spines own global ports) and its first
global hop is one local hop away, a HyperX row and a Flattened Butterfly row
sense through their dimension-0 neighbours.

Piggyback reads its first global link off the route column the decision
already holds, so a PB run's resident route state costs what a MIN run's
does.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.arrangement import VcArrangement
from repro.experiments.runner import TINY, base_config
from repro.experiments.topologies import minimal_feasible_arrangement
from repro.session import Session

from pins import digest

#: the short PB runs whose summaries are pinned, one per topology and pattern.
PB_RUNS = [(topology, pattern)
           for topology in ("flattened_butterfly", "hyperx", "megafly")
           for pattern in ("adversarial", "uniform")]


def _pb_config(topology: str, pattern: str):
    """FlexVC per-VC PB at load 0.6 on the smallest feasible arrangement;
    adversarial runs are request-reply so the reply sensing class posts."""
    reactive = pattern == "adversarial"
    network = dataclasses.replace(
        TINY.network_for(topology), local_latency=4, global_latency=12
    )
    arrangement = minimal_feasible_arrangement(
        network, "pb", "flexvc", reactive=reactive
    )
    config = base_config(
        TINY, pattern=pattern, algorithm="pb", vc_policy="flexvc",
        reactive=reactive, arrangement=arrangement, network=network,
        pb_sensing="vc",
    )
    return dataclasses.replace(
        config, warmup_cycles=200, measure_cycles=400
    ).with_load(0.6)


@pytest.mark.parametrize("topology,pattern", PB_RUNS)
def test_piggyback_summary_matches_pinned_digest(topology, pattern, pin):
    """Pinned: sha256[:16] of the run's summary."""
    summary = Session(_pb_config(topology, pattern)).run().summary
    pin(digest(json.dumps(dataclasses.asdict(summary), sort_keys=True)))


@pytest.mark.parametrize("algorithm", ["min", "pb"])
def test_resident_columns_cost_two_bytes_per_source(algorithm):
    """Every resident column holds one port byte and one sequence-id byte
    per source after a run, whichever algorithm read it."""
    config = base_config(TINY, algorithm=algorithm,
                         arrangement=VcArrangement.single_class(4, 2))
    config = dataclasses.replace(
        config, warmup_cycles=100, measure_cycles=200
    ).with_load(0.5)
    session = Session(config)
    session.run()
    table = session.sim.route_table
    n = table.num_routers
    resident = [col for col in table.columns if col is not None]
    assert len(resident) == n
    assert [col.nbytes() for col in resident] == [2 * n] * n


def test_piggyback_network_goes_quiet():
    """A drained Piggyback network sleeps: posters wake on credit returns
    only, so nothing stays active and the engine skips the idle cycles."""
    config = base_config(
        TINY, algorithm="pb", reactive=True, pb_sensing="vc",
        arrangement=VcArrangement.request_reply((4, 2), (4, 2)),
    )
    config = dataclasses.replace(config, warmup_cycles=300).with_load(0.4)
    session = Session(config)
    session.warmup()
    session.drain()
    engine = session.engine
    assert session.sim.total_resident_packets() == 0
    assert engine.active_count() == 0
    skipped = engine.idle_cycles_skipped
    session.run_until(engine.now + 1000)
    assert engine.idle_cycles_skipped - skipped >= 990


def test_reply_senses_the_first_reply_vc_of_its_ports_link_type():
    """Per-VC sensing reads the first VC of the packet's sub-path on the
    port it senses: on a 4/2+2/1 router a reply reads VC 4 of a local port
    and VC 2 of a global one, a request reads VC 0 of either.  A link type
    with no reply VC of its own (4/2+2/0 globally) reads its last VC."""
    from repro.core.link_types import LinkType, MessageClass
    from repro.simulation import Simulation

    def sensed(arrangement):
        config = base_config(
            TINY, pattern="adversarial", algorithm="pb", reactive=True,
            vc_policy="flexvc", pb_sensing="vc", arrangement=arrangement,
        )
        sim = Simulation(config)
        ports = sim.routers[0].output_ports.values()
        return {
            (port.link_type, msg_class): (
                sim.routing.sensing_vc(msg_class, port.link_type),
                port.mirror.num_vcs,
            )
            for port in ports
            for msg_class in MessageClass
        }

    L, G = LinkType.LOCAL, LinkType.GLOBAL
    REQUEST, REPLY = MessageClass.REQUEST, MessageClass.REPLY
    assert sensed(VcArrangement.request_reply((4, 2), (2, 1))) == {
        (L, REQUEST): (0, 6), (L, REPLY): (4, 6),
        (G, REQUEST): (0, 3), (G, REPLY): (2, 3),
    }
    assert sensed(VcArrangement.request_reply((4, 2), (2, 0)))[G, REPLY] == (1, 2)


def test_reply_queue_reads_land_on_reply_vcs(monkeypatch):
    """Every per-VC read a 4/2+2/1 run makes, injection decisions and board
    posts alike, is a request read of VC 0 or a reply read of the port's
    first reply VC: 4 on local ports, 2 on global ones."""
    from repro.core.link_types import LinkType
    from repro.router.ports import OutputPort

    reads = set()
    original = OutputPort.occupancy_metric

    def spy(port, per_vc, vc, minimal_only):
        reads.add((port.link_type, vc))
        return original(port, per_vc, vc, minimal_only)

    monkeypatch.setattr(OutputPort, "occupancy_metric", spy)
    config = base_config(
        TINY, pattern="adversarial", algorithm="pb", reactive=True,
        vc_policy="flexvc", pb_sensing="vc",
        arrangement=VcArrangement.request_reply((4, 2), (2, 1)),
    )
    session = Session(dataclasses.replace(config, warmup_cycles=300).with_load(0.5))
    session.warmup()
    assert reads == {(LinkType.LOCAL, 0), (LinkType.LOCAL, 4),
                     (LinkType.GLOBAL, 0), (LinkType.GLOBAL, 2)}
