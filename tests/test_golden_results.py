"""Golden-result checks: Dragonfly and Flattened Butterfly results must stay
bit-identical across refactors of the topology/routing/config stack.

The expected values were captured on the pre-route-table code (PR 1) with
fixed seeds; any drift here means the refactor changed simulation behaviour,
not just structure.  Floating-point values are compared exactly on purpose —
the simulator is deterministic.  The last entry is the ``tiny_result_fingerprint``:
the complete ``SimulationResult`` (all twelve fields) of a fixed-seed run at
the ``tiny`` experiment scale.
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


GOLDEN = {
    "dragonfly min baseline uniform": (
        build_config(network=DRAGONFLY, algorithm="min", vc_policy="baseline",
             arrangement=VcArrangement.single_class(2, 1)),
        {"accepted_load": 0.596031746031746, "average_latency": 182.96911608093717,
         "latency_p99": 276.0, "packets_delivered": 3755, "packets_generated": 5374,
         "phits_delivered": 30040, "misrouted_fraction": 0.0},
    ),
    "dragonfly val flexvc adversarial": (
        build_config(network=DRAGONFLY, algorithm="val", vc_policy="flexvc",
             arrangement=VcArrangement.single_class(3, 2), pattern="adversarial"),
        {"accepted_load": 0.36412698412698413, "average_latency": 397.800875273523,
         "latency_p99": 627.0, "packets_delivered": 2294, "packets_generated": 5418,
         "phits_delivered": 18352, "misrouted_fraction": 1.0},
    ),
    "dragonfly pb baseline adversarial": (
        build_config(network=DRAGONFLY, algorithm="pb", vc_policy="baseline",
             arrangement=VcArrangement.single_class(4, 2), pattern="adversarial"),
        {"accepted_load": 0.3780952380952381, "average_latency": 389.4191555097837,
         "latency_p99": 627.0, "packets_delivered": 2382, "packets_generated": 5429,
         "phits_delivered": 19056, "misrouted_fraction": 0.776519052523172},
    ),
    "dragonfly par flexvc uniform": (
        build_config(network=DRAGONFLY, algorithm="par", vc_policy="flexvc",
             arrangement=VcArrangement.single_class(3, 2)),
        {"accepted_load": 0.4531746031746032, "average_latency": 199.98352165725046,
         "latency_p99": 441.0, "packets_delivered": 2855, "packets_generated": 5404,
         "phits_delivered": 22840, "misrouted_fraction": 0.1327683615819209},
    ),
    "fb min baseline uniform": (
        build_config(network=FB, algorithm="min", vc_policy="baseline",
             arrangement=VcArrangement.single_class(2, 1)),
        {"accepted_load": 0.5914285714285714, "average_latency": 138.42968142968144,
         "latency_p99": 216.0, "packets_delivered": 1656, "packets_generated": 2405,
         "phits_delivered": 13248, "misrouted_fraction": 0.0},
    ),
    "dragonfly min baseline reactive": (
        build_config(network=DRAGONFLY, algorithm="min", vc_policy="baseline",
             arrangement=VcArrangement.request_reply((2, 1), (2, 1)),
             load=0.5, reactive=True),
        {"accepted_load": 0.4607936507936508, "average_latency": 171.8189045936396,
         "latency_p99": 228.0, "packets_delivered": 2903, "packets_generated": 4004,
         "phits_delivered": 23224, "misrouted_fraction": 0.0},
    ),
    "fb min flexvc damq": (
        build_config(network=FB, algorithm="min", vc_policy="flexvc",
             arrangement=VcArrangement.single_class(4, 2), load=0.8,
             buffer_organization="damq"),
        {"accepted_load": 0.7717857142857143, "average_latency": 155.5262836185819,
         "latency_p99": 341.0, "packets_delivered": 2161, "packets_generated": 3172,
         "phits_delivered": 17288, "misrouted_fraction": 0.0},
    ),
    "tiny result fingerprint": (
        base_config(TINY, pattern="uniform", seed=7).with_load(0.2),
        {"offered_load": 0.2, "accepted_load": 0.20851851851851852,
         "average_latency": 166.33292831105712, "latency_p99": 210.0,
         "packets_delivered": 1126, "packets_generated": 1690,
         "phits_delivered": 9008, "measured_cycles": 600, "num_nodes": 72,
         "misrouted_fraction": 0.0, "deadlock_suspected": False, "extra": {}},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_result_bit_identical(name):
    config, expected = GOLDEN[name]
    result = asdict(Session(config).run().summary)
    assert not result["deadlock_suspected"]
    for key, value in expected.items():
        assert result[key] == value, f"{name}: {key} drifted"
