"""Golden-result checks: Dragonfly and Flattened Butterfly results must stay
bit-identical across refactors of the topology/routing/config stack.

Each case runs one fixed-seed configuration of ``GOLDEN`` and hands its
``SimulationResult`` fields to the ``pin`` fixture (``tests/pins.py``); the
expected values live in ``tests/data/pins.json`` under the case's node id.
They were captured before the route table existed; any drift here means a
refactor changed simulation behaviour, not just structure.  Floating-point
values are compared exactly on purpose — the simulator is deterministic.
Seven fields are pinned per configuration, except for the
``tiny_result_fingerprint``: the complete ``SimulationResult`` (all twelve
fields) of a fixed-seed run at the ``tiny`` experiment scale.
"""

from dataclasses import asdict

import pytest

from repro.config import NetworkConfig, RoutingConfig, SimulationConfig, TrafficConfig
from repro.core.arrangement import VcArrangement
from repro.experiments.runner import TINY, base_config
from repro.session import Session

DRAGONFLY = NetworkConfig(topology="dragonfly", params={"h": 2})
FB = NetworkConfig(
    topology="flattened_butterfly",
    params={"k1": 4, "k2": 4, "nodes_per_router": 2},
)


def build_config(network, algorithm, vc_policy, arrangement, pattern="uniform",
                 load=0.6, reactive=False, buffer_organization="static"):
    from repro.config import RouterConfig

    return SimulationConfig(
        network=network,
        router=RouterConfig(buffer_organization=buffer_organization),
        routing=RoutingConfig(algorithm=algorithm, vc_policy=vc_policy),
        arrangement=arrangement,
        traffic=TrafficConfig(pattern=pattern, load=load, reactive=reactive),
        warmup_cycles=300,
        measure_cycles=700,
        seed=3,
    )


FINGERPRINT = "tiny result fingerprint"

#: name -> the fixed-seed configuration whose result is pinned.
GOLDEN = {
    "dragonfly min baseline uniform": build_config(
        network=DRAGONFLY, algorithm="min", vc_policy="baseline",
        arrangement=VcArrangement.single_class(2, 1)),
    "dragonfly val flexvc adversarial": build_config(
        network=DRAGONFLY, algorithm="val", vc_policy="flexvc",
        arrangement=VcArrangement.single_class(3, 2), pattern="adversarial"),
    "dragonfly pb baseline adversarial": build_config(
        network=DRAGONFLY, algorithm="pb", vc_policy="baseline",
        arrangement=VcArrangement.single_class(4, 2), pattern="adversarial"),
    "dragonfly par flexvc uniform": build_config(
        network=DRAGONFLY, algorithm="par", vc_policy="flexvc",
        arrangement=VcArrangement.single_class(3, 2)),
    "fb min baseline uniform": build_config(
        network=FB, algorithm="min", vc_policy="baseline",
        arrangement=VcArrangement.single_class(2, 1)),
    "dragonfly min baseline reactive": build_config(
        network=DRAGONFLY, algorithm="min", vc_policy="baseline",
        arrangement=VcArrangement.request_reply((2, 1), (2, 1)),
        load=0.5, reactive=True),
    "fb min flexvc damq": build_config(
        network=FB, algorithm="min", vc_policy="flexvc",
        arrangement=VcArrangement.single_class(4, 2), load=0.8,
        buffer_organization="damq"),
    FINGERPRINT: base_config(TINY, pattern="uniform", seed=7).with_load(0.2),
}

#: the result fields a golden pins; the fingerprint pins every field.
FIELDS = ("accepted_load", "average_latency", "latency_p99", "packets_delivered",
          "packets_generated", "phits_delivered", "misrouted_fraction")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_result_bit_identical(name, pin):
    result = asdict(Session(GOLDEN[name]).run().summary)
    assert not result["deadlock_suspected"]
    pin(result if name == FINGERPRINT else {key: result[key] for key in FIELDS})
