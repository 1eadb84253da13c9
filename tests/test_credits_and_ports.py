"""Credit tracking, min/non-min ledgers, allocator and port behaviour."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import StaticallyPartitionedBuffer
from repro.core.link_types import LinkType, MessageClass
from repro.core.mincred import PortOccupancyLedger
from repro.packet import Packet
from repro.router.allocator import Request, SeparableAllocator
from repro.router.credits import CreditTracker
from repro.router.ports import EjectionPort, InputPort
from repro.router.saturation import SaturationBoard


def make_packet(size=8, src=0, dst=1):
    return Packet(src_node=src, dst_node=dst, size_phits=size)


class TestPortOccupancyLedger:
    def test_add_remove(self):
        ledger = PortOccupancyLedger(num_vcs=2)
        ledger.add(1, 8, minimal=True)
        ledger.add(1, 8, minimal=False)
        assert ledger.vc_occupancy(1) == 16
        assert ledger.vc_occupancy(1, minimal_only=True) == 8
        ledger.remove(1, 8, minimal=True)
        assert ledger.minimal == [0, 0] and ledger.nonminimal == [0, 8]

    def test_underflow_rejected_per_class(self):
        ledger = PortOccupancyLedger(num_vcs=2)
        ledger.add(0, 8, minimal=False)
        with pytest.raises(ValueError, match="removing 1 minimal phits but only 0"):
            ledger.remove(0, 1, minimal=True)
        with pytest.raises(ValueError,
                           match="removing 9 non-minimal phits but only 8"):
            ledger.remove(0, 9, minimal=False)

    def test_needs_a_vc(self):
        with pytest.raises(ValueError):
            PortOccupancyLedger(num_vcs=0)

    def test_ledger_port_occupancy(self):
        ledger = PortOccupancyLedger(num_vcs=2)
        ledger.add(0, 8, minimal=True)
        ledger.add(1, 8, minimal=False)
        assert ledger.port_occupancy() == 16
        assert ledger.port_occupancy(minimal_only=True) == 8
        assert ledger.vc_occupancy(1, minimal_only=True) == 0


class TestCreditTracker:
    def test_debit_and_credit(self):
        tracker = CreditTracker(StaticallyPartitionedBuffer(2, 32))
        assert tracker.can_send(0, 8)
        tracker.debit(0, 8, minimal=True)
        assert tracker.free_for(0) == 24
        assert tracker.vc_occupancy(0) == 8
        tracker.credit(0, 8, minimal=True)
        assert tracker.free_for(0) == 32

    def test_vct_admission(self):
        tracker = CreditTracker(StaticallyPartitionedBuffer(1, 16))
        tracker.debit(0, 8, minimal=True)
        assert tracker.can_send(0, 8)
        tracker.debit(0, 8, minimal=False)
        assert not tracker.can_send(0, 1)

    def test_occupancy_metric_variants(self):
        tracker = CreditTracker(StaticallyPartitionedBuffer(2, 64))
        tracker.debit(0, 8, minimal=True)
        tracker.debit(1, 16, minimal=False)
        assert tracker.occupancy_metric(per_vc=False, vc=0, minimal_only=False) == 24
        assert tracker.occupancy_metric(per_vc=False, vc=0, minimal_only=True) == 8
        assert tracker.occupancy_metric(per_vc=True, vc=0, minimal_only=False) == 8
        assert tracker.occupancy_metric(per_vc=True, vc=1, minimal_only=True) == 0


@settings(max_examples=50, deadline=None)
@given(events=st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=50))
def test_credit_conservation_property(events):
    """Every debit matched by a credit restores the tracker exactly."""
    tracker = CreditTracker(StaticallyPartitionedBuffer(2, 512))
    outstanding = []
    for vc, minimal in events:
        if tracker.can_send(vc, 8):
            tracker.debit(vc, 8, minimal)
            outstanding.append((vc, minimal))
    for vc, minimal in outstanding:
        tracker.credit(vc, 8, minimal)
    assert tracker.port_occupancy() == 0
    for vc in range(2):
        assert tracker.free_for(vc) == 512


class TestInputPort:
    def make_port(self, vcs=2, cap=32):
        return InputPort(0, LinkType.LOCAL, vcs,
                         StaticallyPartitionedBuffer(vcs, cap), pipeline_latency=5)

    def test_pipeline_latency_gates_head(self):
        port = self.make_port()
        packet = make_packet()
        port.receive(packet, 0, now=10)
        assert port.head(0, now=10) is None
        assert port.head(0, now=14) is None
        assert port.head(0, now=15) is packet

    def test_fifo_order(self):
        port = self.make_port()
        first, second = make_packet(), make_packet()
        port.receive(first, 0, now=0)
        port.receive(second, 0, now=0)
        assert port.head(0, now=100) is first
        port.pop(0, now=100, minimal=True)
        assert port.head(0, now=100) is second

    def test_occupancy_tracking(self):
        port = self.make_port()
        packet = make_packet(size=8)
        port.receive(packet, 1, now=0)
        assert port.occupancy(1) == 8
        assert port.resident_packets == 1
        port.pop(1, now=10, minimal=True)
        assert port.occupancy(1) == 0
        assert port.is_empty()


class TestEjectionPort:
    def test_serialization(self):
        port = EjectionPort(node=0, msg_class=MessageClass.REQUEST)
        packet = make_packet(size=8)
        done = port.consume(packet, now=10)
        assert done == 18
        assert not port.idle_at(15)
        assert port.idle_at(18)

    def test_busy_rejects(self):
        port = EjectionPort(node=0, msg_class=MessageClass.REQUEST)
        port.consume(make_packet(), now=0)
        with pytest.raises(RuntimeError):
            port.consume(make_packet(), now=3)


class TestSeparableAllocator:
    def _request(self, input_index, resource):
        return Request(input_index=input_index, input_vc=0,
                       packet=make_packet(), resource=resource)

    def test_one_grant_per_resource(self):
        allocator = SeparableAllocator(num_inputs=4)
        requests = [self._request(i, ("out", 0)) for i in range(4)]
        grants = allocator.arbitrate(requests)
        assert len(grants) == 1

    def test_distinct_resources_all_granted(self):
        allocator = SeparableAllocator(num_inputs=4)
        requests = [self._request(i, ("out", i)) for i in range(4)]
        grants = allocator.arbitrate(requests)
        assert len(grants) == 4

    def test_round_robin_priority_rotates(self):
        allocator = SeparableAllocator(num_inputs=3)
        winners = []
        for _ in range(3):
            requests = [self._request(i, ("out", 0)) for i in range(3)]
            winners.append(allocator.arbitrate(requests)[0].input_index)
        # Over three rounds with the same contenders every input wins once.
        assert sorted(winners) == [0, 1, 2]


class TestSaturationBoard:
    def test_hot_port_detected_against_group_average(self):
        board = SaturationBoard(positions=4, global_ports=2, saturation_factor=1.5)
        # Seven lightly loaded ports and one hot one.
        for position in range(4):
            for port in range(2):
                board.post(position, port, 0, 10)
        board.post(1, 1, 0, 200)
        assert board.is_saturated(1, 1, 0)
        assert not board.is_saturated(0, 0, 0)
        assert board.saturated_count(0) == 1

    def test_uniform_occupancy_never_saturated(self):
        board = SaturationBoard(positions=2, global_ports=2)
        for position in range(2):
            for port in range(2):
                board.post(position, port, 0, 50)
        assert board.saturated_count(0) == 0

    def test_zero_occupancy_not_saturated(self):
        board = SaturationBoard(positions=2, global_ports=2)
        assert not board.is_saturated(0, 0, 0)

    def test_post_updates_average(self):
        board = SaturationBoard(positions=2, global_ports=1)
        board.post(0, 0, 0, 100)
        board.post(1, 0, 0, 0)
        assert board.average(0) == pytest.approx(50)
        board.post(0, 0, 0, 20)
        assert board.average(0) == pytest.approx(10)

    def test_bounds_checked(self):
        board = SaturationBoard(positions=2, global_ports=2)
        with pytest.raises(ValueError):
            board.post(2, 0, 0, 1)
        with pytest.raises(ValueError):
            board.is_saturated(0, 2, 0)
        with pytest.raises(ValueError):
            board.post(0, 0, 5, 1)


class TestLinkCallbacks:
    """The three calls a link makes into its routers are port methods."""

    @staticmethod
    def _wired_link(**router_kwargs):
        """A link of a small wired network with its two ends: (link, output
        port upstream, input port downstream)."""
        from repro.config import RouterConfig, SimulationConfig
        from repro.simulation import Simulation

        sim = Simulation(SimulationConfig(router=RouterConfig(**router_kwargs)))
        upstream = sim.routers[0]
        info = next(iter(sim.topology.ports(0)))
        back_port = sim.topology.back_port(0, info.port)
        output = upstream.output_ports[info.port]
        return output.link, output, sim.routers[info.neighbor].input_ports[back_port]

    def test_object_budget_per_link(self):
        """Construction costs a bounded number of gc-tracked objects per
        directed link, and no link owns a function object: every delivery
        callback and every credit sink is the same port method."""
        import dataclasses
        import gc

        from repro.config import SimulationConfig
        from repro.experiments.runner import TINY
        from repro.simulation import Simulation, build_artifacts

        config = SimulationConfig(
            network=dataclasses.replace(TINY, h=3).network_for("dragonfly"))
        artifacts = build_artifacts(config)
        gc.collect()
        before = len(gc.get_objects())
        sim = Simulation(config, artifacts=artifacts)
        gc.collect()
        built = len(gc.get_objects()) - before
        outputs = [port for router in sim.routers
                   for port in router.output_ports.values()]
        inputs = [port for router in sim.routers
                  for port in router.input_ports.values()]
        assert len(outputs) == len(inputs) == 114 * 8
        # 31.8 per link when written (67.8 with per-link closures).
        assert built / len(outputs) <= 35.0
        assert len({port.link._deliver.__func__ for port in outputs}) == 1
        assert len({port.credit_channel._deliver.__func__ for port in inputs}) == 1

    @pytest.mark.parametrize("pipeline_latency", [5, 0])  # timed wake, activate
    def test_delivery_overflow_is_the_buffers_error(self, pipeline_latency):
        link, _output, input_port = self._wired_link(
            pipeline_latency=pipeline_latency)
        capacity = input_port.buffer.capacity_for(0)
        for _ in range(capacity // 8):
            link._deliver(make_packet(size=8), 0, 10)
        assert input_port.occupancy(0) == capacity
        with pytest.raises(
                ValueError,
                match=f"VC 0 overflow: occupancy {capacity} \\+ 8 > capacity {capacity}"):
            link._deliver(make_packet(size=8), 0, 10)

    def test_credit_underflow_is_the_mirrors_then_the_ledgers_error(self):
        _link, output, input_port = self._wired_link()
        sink = input_port.credit_channel._deliver
        with pytest.raises(ValueError,
                           match="VC 0 underflow: releasing 8 with occupancy 0"):
            sink(0, 8, True)
        output.debit(0, 8, True)
        with pytest.raises(ValueError,
                           match="removing 8 non-minimal phits but only 0 accounted"):
            sink(0, 8, False)

    def test_debit_overflow_is_the_mirrors_error(self):
        _link, output, _input_port = self._wired_link()
        capacity = output.credits.mirror.capacity_for(1)
        output.debit(1, capacity, False)
        assert output.credits.free_for(1) == 0
        assert output.credits.vc_occupancy(1, minimal_only=True) == 0
        with pytest.raises(ValueError, match="VC 1 overflow"):
            output.debit(1, 1, False)


#: sha256[:16] of the three measure() windows of each Piggyback run below.
#: Piggyback's sensing reads the credit ledger that every debit and credit
#: return maintains, and its routers are pumped every cycle, so these runs pin
#: the link callbacks and the pump body for all three buffer set-ups.
PINNED_PB_DIGESTS = {
    "mincred-port-4/2+2/1": {
        "static-5": "c6e95d31e189b51d",
        "static-0": "1198a5fa0cbe6de8",
        "damq": "9c0b2dd034599778",
    },
    "flexvc-vc-4/2+2/1": {
        "static-5": "2142ae12c6d92cc6",
        "static-0": "ee49eaadb7a47c8a",
        "damq": "f7bf12a5cc28711b",
    },
    "baseline-vc-4/2+4/2": {
        "static-5": "1b57f4a02f416e5f",
        "static-0": "9d05c98c337e6d75",
        "damq": "1bc0c676953eafa9",
    },
}


#: the Piggyback variants: VC policy, sensing and arrangement.
PB_VARIANTS = {
    "mincred-port-4/2+2/1": dict(
        vc_policy="flexvc", pb_sensing="port", pb_min_credits_only=True,
        split=((4, 2), (2, 1))),
    "flexvc-vc-4/2+2/1": dict(
        vc_policy="flexvc", pb_sensing="vc", split=((4, 2), (2, 1))),
    "baseline-vc-4/2+4/2": dict(
        vc_policy="baseline", pb_sensing="vc", split=((4, 2), (4, 2))),
}

#: buffer set-ups: organization and router pipeline latency.
PB_BUFFERS = {"static-5": ("static", 5), "static-0": ("static", 0),
              "damq": ("damq", 5)}


def _pb_config(variant: str, buffers: str):
    from repro.core.arrangement import VcArrangement
    from repro.experiments.runner import TINY, base_config

    kwargs = dict(PB_VARIANTS[variant])
    arrangement = VcArrangement.request_reply(*kwargs.pop("split"))
    config = base_config(TINY, pattern="adversarial", algorithm="pb",
                         reactive=True, arrangement=arrangement, **kwargs)
    organization, pipeline_latency = PB_BUFFERS[buffers]
    return dataclasses.replace(config, router=dataclasses.replace(
        config.router, buffer_organization=organization,
        pipeline_latency=pipeline_latency))


@pytest.mark.parametrize("buffers", list(PB_BUFFERS))
@pytest.mark.parametrize("variant", sorted(PINNED_PB_DIGESTS))
def test_piggyback_windows_match_pinned_digest(variant, buffers):
    from repro.session import Session

    session = Session(_pb_config(variant, buffers))
    session.warmup()
    windows = [dataclasses.asdict(session.measure()) for _ in range(3)]
    digest = hashlib.sha256(
        json.dumps(windows, sort_keys=True).encode()
    ).hexdigest()[:16]
    assert digest == PINNED_PB_DIGESTS[variant][buffers]
