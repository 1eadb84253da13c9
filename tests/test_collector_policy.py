"""The collector policy (DESIGN §9): its premise, its helper, its reclamation.

The policy pauses the cyclic collector for construction and every Session
phase because a run makes no cyclic garbage.  That premise is an invariant
of the code, not an observation about it, so (a) pins it per configuration;
(b) holds the helper to its contract; (c) holds the orchestrator to
reclaiming the one cycle a run does build — the finished ``Simulation``.
"""

from __future__ import annotations

import dataclasses
import gc
from contextlib import contextmanager
from functools import partial

import pytest

from repro.collector import paused_collector
from repro.core.arrangement import VcArrangement
from repro.experiments import TINY, base_config
from repro.experiments.executors import _run_job
from repro.experiments.orchestrator import Job
from repro.experiments.topologies import minimal_feasible_arrangement
from repro.faults import FaultSchedule
from repro.probes import PROBES, Probe, make_probes
from repro.session import Session
from repro.simulation import Simulation

LOAD = 0.6


def _dragonfly(algorithm: str, policy: str):
    return base_config(
        TINY, algorithm=algorithm, vc_policy=policy,
        arrangement=VcArrangement.single_class(8, 4),
    )


def _on(topology: str):
    network = TINY.network_for(topology)
    return base_config(
        TINY, algorithm="val", vc_policy="flexvc", network=network,
        arrangement=minimal_feasible_arrangement(network, "val", "flexvc"),
    )


def _faulted():
    config = _dragonfly("min", "flexvc")
    schedule = FaultSchedule.sample(
        config.network.build_cached(), seed=7, mtbf_cycles=700,
        mttr_cycles=100, horizon_cycles=400,
    )
    assert len(schedule.events) == 96  # links going down and up all run long
    return dataclasses.replace(config, faults=schedule)


CONFIGS = {
    **{
        f"{algorithm}-{policy}-8/4": partial(_dragonfly, algorithm, policy)
        for algorithm in ("min", "val", "par", "pb")
        for policy in ("baseline", "flexvc")
    },
    "damq-4/2": partial(
        base_config, TINY, algorithm="val", buffer_organization="damq",
        arrangement=VcArrangement.single_class(4, 2),
    ),
    "request-reply-val": partial(
        base_config, TINY, algorithm="val", vc_policy="flexvc", reactive=True,
        arrangement=VcArrangement.request_reply((4, 2), (4, 2)),
    ),
    "hyperx": partial(_on, "hyperx"),
    "megafly": partial(_on, "megafly"),
    "faults": _faulted,
}


@contextmanager
def _collector_off():
    """Nothing may collect behind the test's back: the closing count must see
    every cycle the run made."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# -- (a) the premise --------------------------------------------------------


@pytest.mark.parametrize("probed", (False, True), ids=("bare", "all-probes"))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_run_makes_no_cyclic_garbage(name, probed):
    config = CONFIGS[name]().with_load(LOAD)
    probes = make_probes(sorted(PROBES)) if probed else []
    with _collector_off():
        session = Session(config, probes=probes)
        session.warmup(100)
        session.measure(200)
        session.measure(100)
        session.drain(5_000)
        record = session.record()
        unreachable = gc.collect()
    assert record.summary.packets_delivered > 0
    assert unreachable == 0, (
        f"{name}: {unreachable} objects were only reachable through reference "
        "cycles after a run; the paused collector will not free them"
    )


# -- (b) the helper ---------------------------------------------------------


class _Collections:
    """Counts collector passes by generation through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.generations = []

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self.generations.append(info["generation"])

    def __enter__(self) -> "_Collections":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def test_helper_restores_an_enabled_collector_and_settles_once():
    assert gc.isenabled()
    with _Collections() as seen:
        with paused_collector():
            assert not gc.isenabled()
            with paused_collector():  # nests: the inner one touches nothing
                assert not gc.isenabled()
            assert not gc.isenabled()
            churn = [[] for _ in range(5_000)]  # noqa: F841  far past every threshold
            assert seen.generations == []
        assert gc.isenabled()
        assert seen.generations == [0]


def test_helper_respects_a_disabled_collector():
    gc.disable()
    try:
        with _Collections() as seen:
            with paused_collector():
                pass
            assert not gc.isenabled()
            assert seen.generations == []
    finally:
        gc.enable()


class _SamplerThatRaises(Probe):
    sample_interval = 50

    def on_sample(self, cycle: int) -> None:
        raise RuntimeError("probe bug")


def test_collector_restored_when_a_phase_raises(tiny_config):
    session = Session(tiny_config, probes=[_SamplerThatRaises()])
    with pytest.raises(RuntimeError, match="probe bug"):
        session.warmup()
    assert gc.isenabled()


class _PhaseWatch(Probe):
    """Reports the collector's state from inside every phase."""

    sample_interval = 25

    def __init__(self) -> None:
        self.enabled_inside = []

    def on_sample(self, cycle: int) -> None:
        self.enabled_inside.append(gc.isenabled())


def test_phases_run_paused_and_settle_at_their_exit(tiny_config):
    simulation = Simulation(tiny_config)
    assert gc.isenabled()
    watch = _PhaseWatch()
    session = Session(simulation=simulation, probes=[watch])
    phases = (
        lambda: session.warmup(200),
        lambda: session.measure(400),
        lambda: session.run_until(session.now + 100),
        lambda: session.drain(5_000),
    )
    for phase in phases:
        with _Collections() as seen:
            phase()
            # No automatic pass from the phase's first cycle to its last;
            # exactly one young pass on the way out.
            assert seen.generations == [0]
        assert gc.isenabled()
    assert watch.enabled_inside and not any(watch.enabled_inside)


# -- (c) reclamation --------------------------------------------------------


def test_run_job_holds_one_simulation_at_a_time():
    config = dataclasses.replace(
        _dragonfly("min", "flexvc"), warmup_cycles=100, measure_cycles=200
    )
    jobs = [
        Job(key=f"job{seed}", series="s", load=LOAD, seed=seed,
            config=config.with_load(LOAD).with_seed(seed))
        for seed in range(6)
    ]
    _run_job(jobs[0])
    after_first = len(gc.get_objects())
    records = [_run_job(job) for job in jobs[1:]]
    assert len(records) == 5
    # A live tiny Simulation is 10-17k tracked objects; five records are not.
    assert len(gc.get_objects()) - after_first < 1_000
    assert gc.collect() == 0
