"""Accepted means drains: the tier-1 census of wedged configurations.

The paper promises deadlock freedom for every VC arrangement its tables
accept.  This census runs each registered topology x routing x VC policy at
its minimal feasible arrangement (the one the topology figures use), under
uniform load 0.5 and adversarial load 0.9, and gives each a verdict:

* **drains** - ``drain(4000)`` empties the network;
* **wedged** - packets are held after ``drain(4000)`` and the count does not
  move over two more ``drain(2000)`` steps;
* **slow** - anything else (Dragonfly MIN under adversarial load empties in
  the first extra step); it passes.

"Held" counts network input buffers, injection buffers and source queues
(``Simulation.held``).  Every configuration wedged today is a strict
``xfail``, so a change that mends one fails here until its marker is
deleted.  A wedge's message gives the held counts, the run's count of heads
planned empty (``[]``: no hop is offered at all) and splits the stuck heads
into those whose cached plan is empty and those that have candidates (a
cyclic wait).  A configuration outside ``WEDGED`` plans no head empty.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.core.arrangement import VcArrangement
from repro.experiments.runner import TINY, base_config
from repro.experiments.topologies import (
    POLICIES,
    ROUTINGS,
    minimal_feasible_arrangement,
)
from repro.session import Session
from repro.topology import TOPOLOGIES

#: (pattern, load) points of the census.
POINTS = (("uniform", 0.5), ("adversarial", 0.9))

#: configurations that wedge today, as (topology, routing, policy, pattern);
#: all are FlexVC at the minimal feasible arrangement.
WEDGED = {
    ("dragonfly", "val", "flexvc", "adversarial"),
    ("dragonfly", "par", "flexvc", "uniform"),
    ("dragonfly", "par", "flexvc", "adversarial"),
    ("hyperx", "val", "flexvc", "uniform"),
    ("hyperx", "val", "flexvc", "adversarial"),
    ("hyperx", "par", "flexvc", "uniform"),
    ("hyperx", "par", "flexvc", "adversarial"),
    ("hyperx", "pb", "flexvc", "uniform"),
    ("hyperx", "pb", "flexvc", "adversarial"),
    ("megafly", "par", "flexvc", "uniform"),
    ("megafly", "par", "flexvc", "adversarial"),
    ("flattened_butterfly", "par", "flexvc", "uniform"),
    ("flattened_butterfly", "par", "flexvc", "adversarial"),
}


def _held(session: Session) -> int:
    return sum(session.sim.held())


def _empty_plans(session: Session) -> int:
    return session.sim.routing_stats()["empty_plans"]


def _stuck_heads(session: Session) -> Tuple[int, int]:
    """(heads whose cached plan is empty, heads whose plan has candidates)."""
    empty = candidates = 0
    for router in session.sim.routers:
        ports = list(router.injection_ports) + list(router.input_ports.values())
        for port in ports:
            for queue in port.queues:
                if queue:
                    plan = queue[0][0].plan
                    if plan == []:
                        empty += 1
                    elif plan:
                        candidates += 1
    return empty, candidates


def _measured(topology: str, algorithm: str, policy: str, pattern: str,
              load: float,
              arrangement: Optional[VcArrangement] = None) -> Session:
    """One census configuration after its warm-up and measurement window."""
    network = TINY.network_for(topology)
    if arrangement is None:
        arrangement = minimal_feasible_arrangement(network, algorithm, policy)
    config = base_config(
        TINY, pattern=pattern, algorithm=algorithm, vc_policy=policy,
        arrangement=arrangement, network=network, seed=1,
    ).with_load(load)
    session = Session(config)
    session.warmup(200)
    session.measure(600)
    return session


def census(topology: str, algorithm: str, policy: str, pattern: str,
           load: float,
           arrangement: Optional[VcArrangement] = None) -> Tuple[str, str, int]:
    """Run one census configuration; returns ``(verdict, detail,
    empty_plans)``."""
    session = _measured(topology, algorithm, policy, pattern, load,
                        arrangement)
    session.drain(4000)
    held: List[int] = [_held(session)]
    while held[-1] and len(held) < 3:
        session.drain(2000)
        held.append(_held(session))
    if not held[0]:
        verdict = "drains"
    elif len(set(held)) == 1:
        verdict = "wedged"
    else:
        verdict = "slow"
    empty, candidates = _stuck_heads(session)
    empty_plans = _empty_plans(session)
    detail = (
        f"{session.config.arrangement.label()}: held {held} after "
        f"drain(4000) and each drain(2000); heads planned empty "
        f"{empty_plans}; stuck heads with an empty plan {empty}, with "
        f"candidates {candidates}"
    )
    return verdict, detail, empty_plans


def _cases():
    for topology in TOPOLOGIES.names():
        for algorithm in ROUTINGS:
            for policy in POLICIES:
                for pattern, load in POINTS:
                    key = (topology, algorithm, policy, pattern)
                    marks = ()
                    if key in WEDGED:
                        marks = pytest.mark.xfail(
                            strict=True,
                            reason="ROADMAP item 18: accepted arrangement "
                            "wedges",
                        )
                    yield pytest.param(*key, load, id="-".join(key),
                                       marks=marks)


@pytest.mark.parametrize("topology, algorithm, policy, pattern, load",
                         list(_cases()))
def test_accepted_configuration_is_not_wedged(topology, algorithm, policy,
                                              pattern, load):
    verdict, detail, empty_plans = census(topology, algorithm, policy,
                                          pattern, load)
    assert verdict != "wedged", detail
    assert empty_plans == 0, detail


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP items 1 and 18(d): cyclic wait, every stuck head has "
    "candidates",
)
def test_dragonfly_pb_flexvc_5_2_adversarial_is_not_wedged():
    verdict, detail, _ = census(
        "dragonfly", "pb", "flexvc", "adversarial", 0.9,
        arrangement=VcArrangement.single_class(5, 2),
    )
    assert verdict != "wedged", detail


@pytest.mark.parametrize(
    "topology, algorithm, arrangement, pattern, load, planned_empty", [
        # Two of the empty-plan wedges: their heads are planned empty before
        # the drain starts.
        ("hyperx", "val", VcArrangement.single_class(3, 3), "uniform", 0.5, True),
        ("dragonfly", "par", VcArrangement.single_class(3, 2), "adversarial",
         0.9, True),
        # The two cyclic waits: every stuck head has candidates.
        ("dragonfly", "val", VcArrangement.single_class(3, 2), "adversarial",
         0.9, False),
        ("dragonfly", "pb", VcArrangement.single_class(5, 2), "adversarial",
         0.9, False),
    ], ids=["hyperx-val-3/3-uniform", "dragonfly-par-3/2-adversarial",
            "dragonfly-val-3/2-adversarial", "dragonfly-pb-5/2-adversarial"])
def test_empty_plan_count_tells_the_two_wedge_kinds_apart(
    topology, algorithm, arrangement, pattern, load, planned_empty,
):
    # The count a wedge verdict can read: positive where the routing offers
    # a head no hop, zero where heads wait on one another.  Mending the
    # empty plans turns the first two to zero.
    session = _measured(topology, algorithm, "flexvc", pattern, load,
                        arrangement)
    assert (_empty_plans(session) > 0) == planned_empty
