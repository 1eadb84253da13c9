"""Regression locks for the violations the devtools determinism rules surfaced.

PR 8's linter flagged ``RandomVc.choose`` falling back to the module-level
(unseeded) ``random`` generator when called without an rng.  Every real call
site threads the simulation's seeded ``random.Random`` through, so the fix
turns the silent fallback into a loud error — and these tests pin down that
(a) the error fires, (b) seeded behaviour is unchanged, and (c) a
random-selection simulation stays bit-identical run to run.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro.config import (
    NetworkConfig,
    RouterConfig,
    RoutingConfig,
    SimulationConfig,
    TrafficConfig,
)
from repro.core.arrangement import VcArrangement
from repro.core.vc_selection import RandomVc
from repro.session import Session


def test_randomvc_requires_seeded_rng():
    with pytest.raises(ValueError, match="seeded rng"):
        RandomVc().choose([0, 1, 2], [4, 4, 4])


def test_randomvc_seeded_behaviour_unchanged():
    # The fix only removed the rng=None fallback; with an explicit rng the
    # choices must match what random.Random produced before the change.
    selection = RandomVc()
    rng = random.Random(7)
    picks = [selection.choose([3, 5, 9], [1, 1, 1], rng) for _ in range(16)]
    expected_rng = random.Random(7)
    expected = [[3, 5, 9][expected_rng.randrange(3)] for _ in range(16)]
    assert picks == expected


def _random_selection_config() -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(topology="dragonfly", params={"h": 2}),
        router=RouterConfig(),
        routing=RoutingConfig(
            algorithm="min", vc_policy="flexvc", vc_selection="random"
        ),
        arrangement=VcArrangement.single_class(2, 1),
        traffic=TrafficConfig(pattern="uniform", load=0.5),
        warmup_cycles=200,
        measure_cycles=400,
        seed=11,
    )


def test_random_selection_simulation_is_reproducible():
    first = asdict(Session(_random_selection_config()).run().summary)
    second = asdict(Session(_random_selection_config()).run().summary)
    assert first == second
