"""Event-driven engine tests: activity tracking, wakes, fast-forward, determinism."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import SimulationConfig
from repro.core.arrangement import VcArrangement
from repro.engine import Engine
from repro.experiments.runner import TINY
from repro.session import Session
from repro.simulation import Simulation


def make_config(**overrides) -> SimulationConfig:
    base = SimulationConfig(warmup_cycles=150, measure_cycles=400)
    return dataclasses.replace(base, **overrides)


class _Stepper:
    """Minimal engine client used to probe the activity protocol."""

    def __init__(self):
        self.busy = False
        self.steps = []
        self.engine_index = -1
        self.engine_activate = None

    def pump(self, now):
        if not self.busy:
            return False
        self.steps.append(now)
        return True


class TestActivityTracking:
    def test_idle_router_is_dropped_from_the_active_set(self):
        engine = Engine()
        stepper = _Stepper()
        engine.register_router(stepper)
        assert engine.active_count() == 1
        engine.run(3)
        assert engine.active_count() == 0
        assert stepper.steps == []

    def test_activate_restores_stepping(self):
        engine = Engine()
        stepper = _Stepper()
        engine.register_router(stepper)
        engine.run(2)  # deactivates
        stepper.busy = True
        engine.activate(stepper)
        engine.run(1)
        assert stepper.steps == [2]

    def test_schedule_wake_reactivates_at_cycle(self):
        engine = Engine()
        stepper = _Stepper()
        engine.register_router(stepper)
        engine.run(1)  # deactivate
        stepper.busy = True
        engine.schedule_wake(5, stepper.engine_index)
        engine.run_until(8)
        assert stepper.steps == [5, 6, 7]


class TestFastForward:
    def test_skips_to_scheduled_events(self):
        engine = Engine()
        fired = []
        engine.schedule(100, fired.append)
        engine.schedule(5000, fired.append)
        engine.run_until(10_000)
        assert fired == [100, 5000]
        assert engine.now == 10_000
        # Only 3 cycles actually ticked (the two event cycles + none after).
        assert engine.idle_cycles_skipped >= 10_000 - 3

    def test_busy_stepper_prevents_skipping(self):
        engine = Engine()
        stepper = _Stepper()
        stepper.busy = True
        engine.register_router(stepper)
        engine.run_until(20)
        assert len(stepper.steps) == 20
        assert engine.idle_cycles_skipped == 0

    def test_non_quiescent_generator_prevents_skipping(self):
        class Source:
            def __init__(self):
                self.ticks = 0

            def tick(self, cycle):
                self.ticks += 1

            def quiescent(self):
                return False

        engine = Engine()
        source = Source()
        engine.register_traffic(source)
        engine.run_until(30)
        assert source.ticks == 30

    def test_zero_load_simulation_fast_forwards(self):
        sim = Simulation(make_config().with_load(0.0))
        result = Session(simulation=sim).run().summary
        assert result.packets_generated == 0
        assert sim.engine.idle_cycles_skipped > 500


class TestDeterminism:
    """Same seed => bit-identical results, run after run."""

    CONFIGS = {
        "uniform": dict(),
        "flexvc": dict(
            routing=dataclasses.replace(
                SimulationConfig().routing, vc_policy="flexvc"
            ),
            arrangement=VcArrangement.single_class(4, 2),
        ),
        "reactive": dict(
            traffic=dataclasses.replace(
                SimulationConfig().traffic, reactive=True, load=0.4
            ),
            arrangement=VcArrangement.request_reply((2, 1), (2, 1)),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_repeated_runs_are_bit_identical(self, name):
        config = make_config(**self.CONFIGS[name]).with_load(0.4)
        first = Session(config).run().summary
        second = Session(config).run().summary
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_different_seeds_differ(self):
        config = make_config().with_load(0.4)
        a = Session(config).run().summary
        b = Session(config.with_seed(99)).run().summary
        assert dataclasses.asdict(a) != dataclasses.asdict(b)

    @staticmethod
    def _assert_polling_changes_nothing(config):
        """Forcing every router to poll every cycle, and every Piggyback
        poster to post on each of those pumps whatever its pump did, must
        not change results."""
        reference = Session(config).run().summary

        polled = Simulation(config)
        engine = polled.engine
        always_on = list(range(len(polled.routers)))
        for router in polled.routers:
            post = router.post_sensing
            if post is not None:
                def pump_and_post(now, pump=engine._pumps[router.engine_index],
                                  post=post):
                    busy = pump(now)
                    post()
                    return busy

                engine._pumps[router.engine_index] = pump_and_post
        original_tick = engine.tick

        def tick_all():
            engine._active.update(always_on)
            original_tick()

        engine.tick = tick_all
        result = Session(simulation=polled).run().summary
        assert dataclasses.asdict(result) == dataclasses.asdict(reference)

    def test_sleeping_routers_do_not_change_results(self):
        self._assert_polling_changes_nothing(make_config().with_load(0.3))

    #: Piggyback inputs: posters sleep and wake on credit returns, readers
    #: decide on board state; a Megafly leaf reads its board but never posts.
    PB_CONFIGS = {
        "adv-request-reply-vc": dict(
            routing=dataclasses.replace(
                SimulationConfig().routing, algorithm="pb", pb_sensing="vc"
            ),
            traffic=dataclasses.replace(
                SimulationConfig().traffic, pattern="adversarial", reactive=True
            ),
            arrangement=VcArrangement.request_reply((4, 2), (4, 2)),
        ),
        "adv-mincred-port": dict(
            routing=dataclasses.replace(
                SimulationConfig().routing, algorithm="pb", vc_policy="flexvc",
                pb_sensing="port", pb_min_credits_only=True,
            ),
            traffic=dataclasses.replace(
                SimulationConfig().traffic, pattern="adversarial"
            ),
            arrangement=VcArrangement.single_class(4, 2),
        ),
        "megafly-adv-vc": dict(
            network=TINY.network_for("megafly"),
            routing=dataclasses.replace(
                SimulationConfig().routing, algorithm="pb", vc_policy="flexvc",
                pb_sensing="vc",
            ),
            traffic=dataclasses.replace(
                SimulationConfig().traffic, pattern="adversarial"
            ),
            arrangement=VcArrangement.single_class(4, 2),
        ),
    }

    @pytest.mark.parametrize("name", sorted(PB_CONFIGS))
    def test_sleeping_piggyback_routers_do_not_change_results(self, name):
        self._assert_polling_changes_nothing(
            make_config(**self.PB_CONFIGS[name]).with_load(0.4))
