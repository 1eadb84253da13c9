"""Phased Session API + probe subsystem: zero-cost invariant, telemetry
consistency, multi-window measurement, drain, and the latency histogram.

The two load-bearing guarantees:

* a **no-probe** session stepped phase by phase is bit-identical to the
  one-call ``Session.run()`` (which itself is pinned to the PR 2 goldens by
  test_golden_results.py);
* a **probe-attached** session produces the *same* summary (probes observe,
  never perturb) plus telemetry channels that are consistent with it — the
  time-series accepted-load integral over the measurement window reproduces
  ``phits_delivered`` exactly.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.config import RoutingConfig, SimulationConfig, TrafficConfig
from repro.core.arrangement import VcArrangement
from repro.experiments.runner import TINY, base_config
from repro.experiments.topologies import minimal_feasible_arrangement
from repro.metrics import LatencyHistogram
from repro.probes import (
    AllocStallProbe,
    LatencyHistogramProbe,
    LinkUtilizationProbe,
    Probe,
    TimeSeriesProbe,
    VcOccupancyProbe,
    make_probes,
)
from repro.session import Session
from repro.simulation import average_results
from repro.topology import TOPOLOGIES
from repro.metrics import SimulationResult


def tiny_config(**overrides) -> SimulationConfig:
    base = SimulationConfig(warmup_cycles=300, measure_cycles=700, seed=3)
    return dataclasses.replace(base, **overrides).with_load(0.6)


class DeliveredHopPhits(Probe):
    """Sums ``hops * size_phits`` over delivered packets: once a run has
    drained, the phits that every link carried."""

    def __init__(self) -> None:
        super().__init__()
        self.phits = 0

    def on_packet_delivered(self, packet, cycle: int) -> None:
        self.phits += packet.hops * packet.size_phits

    def channels(self):
        return {"delivered_hop_phits": {"meta": {}, "data": self.phits}}


class TestNoProbeEquivalence:
    def test_session_matches_one_shot_runner(self):
        config = tiny_config()
        one_shot = Session(config).run().summary
        session = Session(config)
        session.warmup()
        result = session.measure()
        assert dataclasses.asdict(result) == dataclasses.asdict(one_shot)

    def test_no_probe_session_installs_no_hooks(self):
        session = Session(tiny_config())
        session.warmup()
        session.measure()
        sim = session.sim
        assert sim.traffic.delivery_hook is None
        for router in sim.routers:
            assert router.on_injection is None
            assert router.on_misroute is None
            assert router.on_stall is None
            for port in router.input_ports.values():
                assert port.on_occupancy is None
            for output in router.output_ports.values():
                assert output.link.probe_hook is None

    def test_valiant_with_probes_matches_golden_style_run(self):
        # An adversarial VAL config (misrouting active) with every built-in
        # probe attached must still produce the unprobed summary.
        config = dataclasses.replace(
            SimulationConfig(warmup_cycles=300, measure_cycles=700, seed=3),
            routing=RoutingConfig(algorithm="val", vc_policy="flexvc"),
            arrangement=VcArrangement.single_class(3, 2),
            traffic=TrafficConfig(pattern="adversarial", load=0.6),
        )
        plain = Session(config).run().summary
        session = Session(config, probes=make_probes(sorted(
            ("timeseries", "linkutil", "vcocc", "lathist", "stalls"))))
        session.warmup()
        probed = session.measure()
        assert dataclasses.asdict(probed) == dataclasses.asdict(plain)
        assert plain.misrouted_fraction > 0  # probes saw real misroutes


class TestProbeTelemetry:
    @pytest.fixture(scope="class")
    def recorded(self):
        config = tiny_config()
        session = Session(config, probes=[
            TimeSeriesProbe(100), LinkUtilizationProbe(), VcOccupancyProbe(),
            LatencyHistogramProbe(), AllocStallProbe(), DeliveredHopPhits(),
        ])
        session.warmup()
        summary = session.measure()
        session.drain()
        return config, summary, session, session.record()

    def test_timeseries_integral_matches_accepted_load(self, recorded):
        config, summary, session, record = recorded
        rows = record.channel("timeseries")["data"]
        start, end = config.warmup_cycles, config.total_cycles()
        window_phits = sum(r["phits"] for r in rows if start < r["cycle"] <= end)
        assert window_phits == summary.phits_delivered
        integral = sum(r["accepted_load"] * r["elapsed"] for r in rows
                       if start < r["cycle"] <= end)
        assert integral / summary.measured_cycles == pytest.approx(
            summary.accepted_load
        )

    def test_timeseries_covers_drain_phase(self, recorded):
        config, _, session, record = recorded
        rows = record.channel("timeseries")["data"]
        assert rows[-1]["cycle"] > config.total_cycles()  # drain samples exist
        assert rows[-1]["resident"] == 0  # network drained empty

    def test_link_utilization_totals(self, recorded):
        _, _, session, record = recorded
        data = record.channel("link_utilization")["data"]
        assert data  # traffic flowed
        links = {
            output.link.name
            for router in session.sim.routers
            for output in router.output_ports.values()
        }
        assert set(data) <= links
        for entry in data.values():
            assert 0.0 <= entry["utilization"] <= 1.0
        # The drained run's link phits are the delivered packets' hop phits.
        assert sum(entry["phits"] for entry in data.values()) == (
            record.channel("delivered_hop_phits")["data"]
        )

    def test_vc_occupancy_bounded_and_positive(self, recorded):
        _, _, session, record = recorded
        data = record.channel("vc_occupancy")["data"]
        assert data
        for entry in data.values():
            assert entry["peak_phits"] > 0
            assert 0.0 <= entry["mean_phits"] <= entry["peak_phits"]

    def test_latency_histogram_consistent_with_summary(self, recorded):
        _, summary, _, record = recorded
        payload = record.channel("latency_histogram")["data"]
        # The probe sees warm-up and drain deliveries too, so its count is a
        # superset of the measured packets.
        assert payload["count"] >= summary.packets_delivered
        assert payload["max"] >= summary.latency_p99

    def test_alloc_stalls_recorded(self, recorded):
        _, _, _, record = recorded
        data = record.channel("alloc_stalls")["data"]
        assert data and all(count > 0 for count in data.values())

    def test_drain_empties_network(self, recorded):
        _, _, session, _ = recorded
        assert session.sim.held() == (0, 0, 0)

    def test_provenance(self, recorded):
        config, _, session, record = recorded
        from repro.keys import config_key

        prov = record.provenance
        assert prov["config_key"] == config_key(config)
        assert prov["engine_cycles"] == session.now
        assert prov["schema_version"] == 2
        assert "TimeSeriesProbe" in prov["probes"]


@pytest.mark.parametrize("algorithm", ["min", "val", "pb"])
@pytest.mark.parametrize("topology", TOPOLOGIES.names())
def test_drained_run_conserves_packets_and_phits(topology, algorithm):
    """A drained baseline run delivered every packet it generated, holds
    none in a network input, and its links carried exactly the phits of
    the delivered packets' hops."""
    network = TINY.network_for(topology)
    config = base_config(
        TINY, network=network, algorithm=algorithm,
        arrangement=minimal_feasible_arrangement(network, algorithm, "baseline"),
        seed=3,
    ).with_load(0.4)
    session = Session(config, probes=[LinkUtilizationProbe(), DeliveredHopPhits()])
    session.warmup()
    session.measure()
    session.drain()
    metrics = session.sim.metrics
    assert metrics.packets_delivered_total > 0
    assert metrics.packets_generated == metrics.packets_delivered_total
    assert session.sim.total_resident_packets() == 0
    record = session.record()
    links = record.channel("link_utilization")["data"]
    assert sum(entry["phits"] for entry in links.values()) == (
        record.channel("delivered_hop_phits")["data"]
    )


class TestSessionLifecycle:
    def test_multiple_measurement_windows(self):
        config = tiny_config()
        session = Session(config)
        session.warmup()
        first = session.measure(400, label="early")
        second = session.measure(400, label="late")
        assert [label for label, _ in session.windows] == ["early", "late"]
        # Both windows saw steady-state traffic of the same offered load.
        assert first.packets_delivered > 0 and second.packets_delivered > 0
        assert first.measured_cycles == second.measured_cycles == 400
        assert second.accepted_load == pytest.approx(first.accepted_load, rel=0.25)
        record = session.record()
        assert record.summary == first
        assert len(record.windows) == 2

    def test_window_isolation_from_late_deliveries(self):
        # Packets measured in window 1 but delivered during window 2 must not
        # pollute window 2's latency statistics (epoch stamping).
        config = tiny_config()
        session = Session(config)
        session.warmup()
        session.measure(400)
        metrics = session.sim.metrics
        assert metrics.latency_histogram.count == 0  # reset on close
        second = session.measure(400)
        # window-2 measured deliveries only — cannot exceed window deliveries
        assert metrics.latency_histogram.count == 0  # closed again
        assert second.packets_delivered > 0

    def test_run_until_stepping(self):
        session = Session(tiny_config())
        session.run_until(150)
        assert session.now == 150
        session.run_until(300)
        result = session.measure()
        assert result.packets_delivered > 0

    def test_attach_after_start_rejected(self):
        session = Session(tiny_config())
        session.warmup(10)
        with pytest.raises(RuntimeError):
            session.attach(TimeSeriesProbe())

    def test_duplicate_channel_names_rejected_before_running(self):
        session = Session(tiny_config(), probes=[
            TimeSeriesProbe(1000), TimeSeriesProbe(10),
        ])
        with pytest.raises(ValueError, match="duplicate telemetry channel"):
            session.warmup(10)  # rejected at wire time, not after the run
        assert session.now == 0  # no cycle ran

    def test_record_requires_a_window(self):
        session = Session(tiny_config())
        session.warmup(10)
        with pytest.raises(ValueError):
            session.record()

    def test_config_xor_simulation_required(self):
        from repro.simulation import Simulation

        with pytest.raises(ValueError):
            Session()
        sim = Simulation(tiny_config())
        with pytest.raises(ValueError):
            Session(tiny_config(), simulation=sim)

    def test_custom_probe_phase_transitions(self):
        class PhaseSpy(Probe):
            def __init__(self):
                super().__init__()
                self.phases = []

            def on_phase(self, phase, cycle):
                self.phases.append((phase, cycle))

        spy = PhaseSpy()
        session = Session(tiny_config(), probes=[spy])
        session.warmup()
        session.measure()
        session.drain()
        session.record()
        names = [name for name, _ in spy.phases]
        assert names[0] == "warmup"
        assert "measure" in names and "drain" in names and names[-1] == "done"


class TestLatencyHistogram:
    def test_fine_region_exact_vs_reference_list(self):
        rng = random.Random(11)
        values = [rng.randrange(0, LatencyHistogram.FINE_LIMIT) for _ in range(5000)]
        histogram = LatencyHistogram()
        for value in values:
            histogram.add(value)
        ordered = sorted(values)
        assert histogram.mean() == sum(values) / len(values)
        for fraction in (0.0, 0.5, 0.9, 0.99, 1.0):
            index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
            assert histogram.percentile(fraction) == float(ordered[index])
        assert histogram.values() == ordered

    def test_coarse_region_bounded_relative_error(self):
        rng = random.Random(7)
        values = [rng.randrange(LatencyHistogram.FINE_LIMIT, 1 << 24)
                  for _ in range(2000)]
        histogram = LatencyHistogram()
        for value in values:
            histogram.add(value)
        ordered = sorted(values)
        assert histogram.mean() == sum(values) / len(values)  # mean stays exact
        for fraction in (0.5, 0.99):
            index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
            true = ordered[index]
            approx = histogram.percentile(fraction)
            assert approx <= true
            assert (true - approx) / true <= 1 / (1 << LatencyHistogram.COARSE_SUBBITS)

    def test_memory_is_bounded(self):
        histogram = LatencyHistogram()
        for value in range(0, 1 << 22, 13):
            histogram.add(value)
        assert len(histogram.fine) <= LatencyHistogram.FINE_LIMIT
        # 8 sub-buckets per octave over ~8 coarse octaves
        assert len(histogram.coarse) <= 8 * 64

    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.mean() == 0.0
        assert histogram.percentile(0.99) == 0.0
        assert histogram.values() == []

    def test_roundtrip_dict(self):
        histogram = LatencyHistogram()
        for value in (1, 1, 5, 100000):
            histogram.add(value)
        payload = histogram.to_dict()
        assert payload["count"] == 4
        assert payload["total"] == 100007
        assert sum(count for _, count in payload["buckets"]) == 4


class TestAverageResultsSatellite:
    def _result(self, **overrides):
        base = dict(
            offered_load=0.5, accepted_load=0.4, average_latency=100.0,
            latency_p99=200.0, packets_delivered=10, packets_generated=12,
            phits_delivered=80, measured_cycles=100, num_nodes=4,
            misrouted_fraction=0.0, deadlock_suspected=False, extra={},
        )
        base.update(overrides)
        return SimulationResult(**base)

    def test_extra_carried_and_averaged(self):
        a = self._result(extra={"temp": 1.0, "tag": "x", "only_a": 3})
        b = self._result(extra={"temp": 2.0, "tag": "y"})
        merged = average_results([a, b])
        assert merged.extra["temp"] == pytest.approx(1.5)
        assert merged.extra["tag"] == "x"  # non-numeric: first wins
        assert merged.extra["only_a"] == 3.0

    def test_extra_empty_stays_empty(self):
        assert average_results([self._result(), self._result()]).extra == {}

    def test_str_flags_deadlock(self):
        ok = self._result()
        bad = self._result(deadlock_suspected=True)
        assert "DEADLOCK" not in str(ok)
        assert "DEADLOCK" in str(bad)
