"""End-to-end simulation tests: delivery, latency, deadlock freedom and the
qualitative relationships the paper reports."""

from dataclasses import replace

import pytest

from repro.config import RoutingConfig, SimulationConfig, TrafficConfig
from repro.core.arrangement import VcArrangement
from repro.experiments.orchestrator import SweepSpec, run_sweep
from repro.session import Session


def make_config(**overrides) -> SimulationConfig:
    base = SimulationConfig(warmup_cycles=300, measure_cycles=700)
    return replace(base, **overrides)


class TestBasicDelivery:
    def test_low_load_delivers_everything_offered(self):
        result = Session(make_config().with_load(0.1)).run().summary
        assert result.accepted_load == pytest.approx(0.1, abs=0.03)
        assert result.packets_delivered > 0
        assert not result.deadlock_suspected

    def test_zero_load_latency_is_plausible(self):
        # Zero-load latency ~ serialization + pipeline + link latencies; with
        # 10/100-cycle links and a <=3-hop Dragonfly it must sit well below the
        # saturated values and above the single-global-link latency.
        result = Session(make_config().with_load(0.05)).run().summary
        assert 100 < result.average_latency < 350

    def test_packets_conserved_at_low_load(self):
        session = Session(make_config().with_load(0.1))
        result = session.run().summary
        # Nothing should be lost: generated >= delivered and the difference is
        # bounded by what can still be in flight.
        assert result.packets_generated >= result.packets_delivered
        in_flight = session.sim.total_resident_packets()
        assert in_flight < result.packets_generated

    def test_multiple_seeds_average(self):
        spec = SweepSpec(series=[("point", make_config)], loads=[0.2], seeds=2)
        results = run_sweep(spec).seed_results("point", 0.2)
        assert len(results) == 2
        assert results[0].accepted_load == pytest.approx(results[1].accepted_load, abs=0.05)


class TestUniformSaturation:
    def test_baseline_min_saturates_below_capacity(self):
        result = Session(make_config().with_load(1.0)).run().summary
        assert 0.5 < result.accepted_load < 0.95

    def test_flexvc_with_more_vcs_beats_baseline(self):
        baseline = Session(make_config().with_load(1.0)).run().summary
        flexvc = Session(
            make_config(
                routing=RoutingConfig(vc_policy="flexvc"),
                arrangement=VcArrangement.single_class(4, 2),
            ).with_load(1.0)
        ).run().summary
        assert flexvc.accepted_load > baseline.accepted_load

    def test_flexvc_same_vcs_at_least_as_good_as_baseline(self):
        baseline = Session(make_config().with_load(1.0)).run().summary
        flexvc = Session(
            make_config(routing=RoutingConfig(vc_policy="flexvc")).with_load(1.0)
        ).run().summary
        assert flexvc.accepted_load >= baseline.accepted_load - 0.03


class TestAdversarialTraffic:
    def test_min_routing_collapses_under_adv(self):
        result = Session(
            make_config(traffic=TrafficConfig(pattern="adversarial", load=0.5))
        ).run().summary
        # All inter-group traffic squeezes through one global link per group:
        # accepted load must be far below the offered 0.5.
        assert result.accepted_load < 0.3

    def test_valiant_rescues_adv(self):
        min_result = Session(
            make_config(traffic=TrafficConfig(pattern="adversarial", load=0.4))
        ).run().summary
        val_result = Session(
            make_config(
                traffic=TrafficConfig(pattern="adversarial", load=0.4),
                routing=RoutingConfig(algorithm="val"),
                arrangement=VcArrangement.single_class(4, 2),
            )
        ).run().summary
        assert val_result.accepted_load > min_result.accepted_load
        assert val_result.misrouted_fraction == pytest.approx(1.0)

    def test_valiant_throughput_near_half_capacity(self):
        result = Session(
            make_config(
                traffic=TrafficConfig(pattern="adversarial", load=0.5),
                routing=RoutingConfig(algorithm="val"),
                arrangement=VcArrangement.single_class(4, 2),
            )
        ).run().summary
        assert 0.3 < result.accepted_load <= 0.55


class TestDeadlockFreedom:
    @pytest.mark.parametrize("vc_policy,arrangement", [
        ("baseline", VcArrangement.single_class(2, 1)),
        ("flexvc", VcArrangement.single_class(2, 1)),
        ("flexvc", VcArrangement.single_class(4, 2)),
    ])
    def test_no_deadlock_at_saturation_min(self, vc_policy, arrangement):
        result = Session(
            make_config(
                routing=RoutingConfig(vc_policy=vc_policy),
                arrangement=arrangement,
            ).with_load(1.0)
        ).run().summary
        assert not result.deadlock_suspected
        assert result.accepted_load > 0.3

    def test_no_deadlock_opportunistic_valiant(self):
        # FlexVC 3/2: Valiant paths exist only opportunistically; the escape
        # mechanism must keep the network deadlock-free under heavy ADV load.
        result = Session(
            make_config(
                traffic=TrafficConfig(pattern="adversarial", load=0.6),
                routing=RoutingConfig(algorithm="val", vc_policy="flexvc"),
                arrangement=VcArrangement.single_class(3, 2),
            )
        ).run().summary
        assert not result.deadlock_suspected
        assert result.accepted_load > 0.15


class TestBurstyTraffic:
    def test_bursty_saturates_below_uniform(self):
        uniform = Session(make_config().with_load(1.0)).run().summary
        bursty = Session(
            make_config(traffic=TrafficConfig(pattern="bursty", load=1.0))
        ).run().summary
        assert bursty.accepted_load < uniform.accepted_load


class TestRequestReply:
    def test_reactive_traffic_generates_replies(self):
        session = Session(
            make_config(
                traffic=TrafficConfig(load=0.4, reactive=True),
                arrangement=VcArrangement.request_reply((2, 1), (2, 1)),
            )
        )
        session.run()
        assert session.sim.traffic is not None
        assert session.sim.traffic.replies_generated > 0

    def test_flexvc_request_reply_runs_with_fewer_vcs(self):
        result = Session(
            make_config(
                traffic=TrafficConfig(load=0.6, reactive=True),
                routing=RoutingConfig(vc_policy="flexvc"),
                arrangement=VcArrangement.request_reply((3, 2), (2, 1)),
            )
        ).run().summary
        assert not result.deadlock_suspected
        assert result.accepted_load > 0.3


class TestAdaptiveRouting:
    def _pb_config(self, pattern, *, vc_policy="baseline", min_credits=False,
                   sensing="port"):
        arrangement = (
            VcArrangement.request_reply((4, 2), (4, 2))
            if vc_policy == "baseline"
            else VcArrangement.request_reply((4, 2), (2, 1))
        )
        return make_config(
            traffic=TrafficConfig(pattern=pattern, load=0.4, reactive=True),
            routing=RoutingConfig(algorithm="pb", vc_policy=vc_policy,
                                  pb_sensing=sensing,
                                  pb_min_credits_only=min_credits),
            arrangement=arrangement,
        )

    def test_pb_mostly_minimal_under_uniform(self):
        result = Session(self._pb_config("uniform")).run().summary
        assert result.misrouted_fraction < 0.5

    def test_pb_mostly_valiant_under_adversarial(self):
        result = Session(self._pb_config("adversarial")).run().summary
        assert result.misrouted_fraction > 0.5

    def test_pb_flexvc_mincred_handles_adv(self):
        result = Session(
            self._pb_config("adversarial", vc_policy="flexvc", min_credits=True)
        ).run().summary
        assert result.misrouted_fraction > 0.5
        assert result.accepted_load > 0.2
        assert not result.deadlock_suspected

    def test_pb_per_vc_sensing_runs(self):
        result = Session(self._pb_config("adversarial", sensing="vc")).run().summary
        assert not result.deadlock_suspected


class TestDamq:
    def test_damq_75_runs_and_is_competitive(self):
        from repro.config import RouterConfig

        static = Session(make_config().with_load(1.0)).run().summary
        damq = Session(
            make_config(router=RouterConfig(buffer_organization="damq")).with_load(1.0)
        ).run().summary
        assert not damq.deadlock_suspected
        # DAMQ should be in the same ballpark as the static baseline (paper:
        # only a modest improvement).
        assert damq.accepted_load > 0.8 * static.accepted_load
