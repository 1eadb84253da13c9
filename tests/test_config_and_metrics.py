"""Configuration validation, metrics accounting and the engine event wheel."""

import tomllib
from pathlib import Path

import pytest

import repro
from repro.config import (
    NetworkConfig,
    RouterConfig,
    RoutingConfig,
    SimulationConfig,
    TrafficConfig,
)
from repro.core.arrangement import VcArrangement
from repro.engine import Engine
from repro.metrics import MetricsCollector
from repro.packet import Packet, RouteKind


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        declared = tomllib.load(handle)["project"]["version"]
    assert repro.__version__ == declared


class TestConfigValidation:
    def test_default_config_is_valid(self):
        SimulationConfig().validate()

    def test_baseline_valiant_needs_4_2(self):
        config = SimulationConfig(
            routing=RoutingConfig(algorithm="val"),
            arrangement=VcArrangement.single_class(2, 1),
        )
        with pytest.raises(ValueError):
            config.validate()

    def test_flexvc_valiant_allowed_with_3_2(self):
        SimulationConfig(
            routing=RoutingConfig(algorithm="val", vc_policy="flexvc"),
            arrangement=VcArrangement.single_class(3, 2),
        ).validate()

    def test_flexvc_valiant_rejected_with_2_1(self):
        config = SimulationConfig(
            routing=RoutingConfig(algorithm="val", vc_policy="flexvc"),
            arrangement=VcArrangement.single_class(2, 1),
        )
        with pytest.raises(ValueError):
            config.validate()

    def test_reactive_requires_reply_vcs(self):
        config = SimulationConfig(
            traffic=TrafficConfig(reactive=True),
            arrangement=VcArrangement.single_class(4, 2),
        )
        with pytest.raises(ValueError):
            config.validate()

    def test_pb_baseline_reactive_needs_reply_vcs_for_val(self):
        config = SimulationConfig(
            routing=RoutingConfig(algorithm="pb"),
            traffic=TrafficConfig(reactive=True),
            arrangement=VcArrangement.request_reply((4, 2), (2, 1)),
        )
        with pytest.raises(ValueError):
            config.validate()

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(topology="torus").validate()
        with pytest.raises(ValueError):
            RouterConfig(buffer_organization="circular").validate()
        with pytest.raises(ValueError):
            RoutingConfig(algorithm="ugal").validate()
        with pytest.raises(ValueError):
            TrafficConfig(load=2.0).validate()

    def test_with_load_and_with_seed(self):
        config = SimulationConfig()
        assert config.with_load(0.9).traffic.load == 0.9
        assert config.with_seed(7).seed == 7
        # the originals are untouched (frozen dataclasses)
        assert config.traffic.load == 0.5 and config.seed == 1

    def test_port_capacity_override(self):
        router = RouterConfig(local_port_phits=64)
        assert router.port_capacity(num_vcs=4, is_global=False) == 64
        assert router.vc_capacity(num_vcs=4, is_global=False) == 16
        default = RouterConfig()
        assert default.port_capacity(num_vcs=2, is_global=False) == 64


class TestNetworkConfigRegistry:
    def test_unknown_keyword_rejected(self):
        # Topology parameters travel in params={...} only: the flat
        # pre-registry keywords (own or another topology's) and anything
        # else are the interpreter's plain TypeError, never silently dropped.
        for topology, keyword in (
            ("dragonfly", "h"), ("dragonfly", "k1"), ("dragonfly", "bogus"),
            ("megafly", "fb_nodes_per_router"), ("hyperx", "k1"),
        ):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
                NetworkConfig(topology=topology, **{keyword: 2})

    def test_unknown_param_rejected_at_validation(self):
        config = NetworkConfig(topology="dragonfly", params={"bogus": 1})
        with pytest.raises(ValueError):
            config.validate()

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(topology="dragonfly", params={"h": 0}).validate()
        with pytest.raises(ValueError):
            NetworkConfig(topology="flattened_butterfly", params={"k1": 1}).validate()
        with pytest.raises(ValueError):
            NetworkConfig(topology="hyperx", params={"s": (1, 4)}).validate()
        with pytest.raises(ValueError):
            NetworkConfig(topology="megafly", params={"spines": 0}).validate()

    def test_build_through_registry(self):
        from repro.topology import Dragonfly, HyperX, Megafly

        assert isinstance(
            NetworkConfig(topology="dragonfly", params={"h": 2}).build(), Dragonfly
        )
        assert isinstance(
            NetworkConfig(topology="hyperx", params={"s": (3, 3)}).build(), HyperX
        )
        mf = NetworkConfig(topology="megafly",
                           params={"spines": 2, "leaves": 2, "h": 1}).build()
        assert isinstance(mf, Megafly)

    def test_aliases_resolve(self):
        from repro.topology import TOPOLOGIES

        assert TOPOLOGIES.get("fb").name == "flattened_butterfly"
        assert TOPOLOGIES.get("dragonfly+").name == "megafly"
        assert "hyperx" in TOPOLOGIES

    def test_params_are_hashable_and_stable(self):
        config = NetworkConfig(topology="hyperx", params={"s": (4, 3), "k": 1})
        hash(config)  # sorted (name, value) tuples keep the dataclass hashable
        assert dict(config.params)["s"] == (4, 3)

    def test_params_normalized_against_defaults(self):
        # Spelling out a default must not change equality or the content
        # hash the orchestrator's result store keys on.
        from repro.keys import config_key

        implicit = NetworkConfig(topology="dragonfly")
        explicit = NetworkConfig(topology="dragonfly", params={"h": 2})
        assert implicit == explicit
        assert dict(explicit.params)["h"] == 2
        assert config_key(SimulationConfig(network=implicit)) == \
            config_key(SimulationConfig(network=explicit))

    def test_list_params_frozen_to_tuples(self):
        # JSON-derived lists must not break hashability.
        config = NetworkConfig(topology="hyperx", params={"s": [4, 3, 3]})
        hash(config)
        assert dict(config.params)["s"] == (4, 3, 3)
        config.validate()


class TestUntypedBaselineRequirements:
    """Baseline VC validation must match the runtime slot arithmetic on
    untyped (no link-type restriction) networks — a complete graph needs
    1/3/4 local VCs for MIN/VAL/PAR (phase offsets advance by max(2, d))."""

    NET = NetworkConfig(topology="hyperx", params={"s": (6,), "nodes_per_router": 2})

    def _config(self, algorithm, local, global_=1):
        from repro.core.arrangement import VcArrangement

        return SimulationConfig(
            network=self.NET,
            routing=RoutingConfig(algorithm=algorithm),
            arrangement=VcArrangement.single_class(local, global_),
        )

    def test_underprovisioned_val_rejected(self):
        with pytest.raises(ValueError):
            self._config("val", 2).validate()
        self._config("val", 3).validate()

    def test_underprovisioned_par_rejected(self):
        with pytest.raises(ValueError):
            self._config("par", 3).validate()
        self._config("par", 4).validate()

    def test_min_single_vc_allowed_on_complete_graph(self):
        self._config("min", 1).validate()

    def test_diameter2_matches_paper_requirements(self):
        # FB with k2=1 degenerates to diameter 1; a genuine untyped
        # diameter-2 network keeps the paper's 2/4/5 requirements — checked
        # through the reference walk that validation shares.
        from repro.core.baseline import DistanceBasedPolicy
        from repro.core.feasibility import walk_reference_path
        from repro.core.link_types import DIAMETER2_MIN

        for routing, needed in (("MIN", 2), ("VAL", 4), ("PAR", 5)):
            for vcs in (needed - 1, needed):
                policy = DistanceBasedPolicy(VcArrangement.single_class(vcs, 0))
                walk = walk_reference_path(policy, DIAMETER2_MIN, routing)
                assert walk.feasible == (vcs == needed)


class TestDeadlockWindowConfig:
    def test_default_matches_legacy_constant(self):
        assert SimulationConfig().deadlock_window_cycles == 2500

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(deadlock_window_cycles=0).validate()
        SimulationConfig(deadlock_window_cycles=1).validate()

    def test_threaded_through_to_ledger_check(self):
        from repro.simulation import Simulation

        config = SimulationConfig(
            warmup_cycles=10, measure_cycles=30, deadlock_window_cycles=5
        ).with_load(0.0)
        sim = Simulation(config)
        # Plant a resident packet so the ledger is non-empty, then check the
        # configured window (not the 2500-cycle default) drives the verdict.
        sim._resident_ledger.count = 1
        sim.engine.run_until(config.total_cycles())
        assert sim._deadlock_suspected()  # 40 cycles idle > window of 5


class TestMetrics:
    def _collector(self):
        collector = MetricsCollector(num_nodes=10)
        collector.open_window(100, 200)
        return collector

    def test_throughput_counts_only_window_deliveries(self):
        collector = self._collector()
        inside = Packet(src_node=0, dst_node=1, size_phits=8, created_at=120)
        outside = Packet(src_node=0, dst_node=1, size_phits=8, created_at=10)
        collector.record_generation(inside, 120)
        collector.record_generation(outside, 10)
        inside.delivered_at = 150
        outside.delivered_at = 90
        collector.record_delivery(outside, 90)
        collector.record_delivery(inside, 150)
        result = collector.result(offered_load=0.5)
        assert result.phits_delivered == 8
        assert result.accepted_load == pytest.approx(8 / (10 * 100))

    def test_latency_only_for_measured_packets(self):
        collector = self._collector()
        warmup_packet = Packet(src_node=0, dst_node=1, size_phits=8, created_at=50)
        collector.record_generation(warmup_packet, 50)
        warmup_packet.delivered_at = 130
        collector.record_delivery(warmup_packet, 130)
        assert collector.latency_histogram.values() == []

    def test_misrouted_fraction(self):
        collector = self._collector()
        for kind in (RouteKind.MINIMAL, RouteKind.VALIANT):
            packet = Packet(src_node=0, dst_node=1, size_phits=8, created_at=110)
            packet.route_kind = kind
            collector.record_generation(packet, 110)
            packet.delivered_at = 160
            collector.record_delivery(packet, 160)
        result = collector.result(offered_load=0.5)
        assert result.misrouted_fraction == pytest.approx(0.5)

    def test_window_required(self):
        collector = MetricsCollector(num_nodes=4)
        with pytest.raises(ValueError):
            collector.result(offered_load=0.1)


class TestEngine:
    def test_events_fire_at_their_cycle(self):
        engine = Engine()
        fired = []
        engine.schedule(3, lambda t: fired.append(("a", t)))
        engine.schedule(1, lambda t: fired.append(("b", t)))
        engine.run(5)
        assert fired == [("b", 1), ("a", 3)]

    def test_cannot_schedule_in_the_past(self):
        engine = Engine()
        engine.run(5)
        with pytest.raises(ValueError):
            engine.schedule(2, lambda t: None)

    def test_run_until(self):
        engine = Engine()
        engine.run_until(42)
        assert engine.now == 42

    def test_registered_router_stepped_only_when_busy(self):
        class Stepper:
            def __init__(self, busy):
                self.busy = busy
                self.steps = 0

            def pump(self, now):
                if self.busy:
                    self.steps += 1
                return self.busy

        busy, idle = Stepper(True), Stepper(False)
        engine = Engine()
        engine.register_router(busy)
        engine.register_router(idle)
        engine.run(10)
        assert busy.steps == 10 and idle.steps == 0
