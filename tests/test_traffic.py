"""Traffic generator statistics and the reactive traffic manager."""

import random

import pytest

from repro.config import TrafficConfig
from repro.core.link_types import MessageClass
from repro.metrics import MetricsCollector
from repro.packet import Packet
from repro.topology import Dragonfly
from repro.traffic import (
    AdversarialTraffic,
    BurstyUniformTraffic,
    TrafficManager,
    UniformTraffic,
    make_generator,
)


class TestUniformTraffic:
    def test_offered_load_matches_request(self):
        rng = random.Random(7)
        gen = UniformTraffic(num_nodes=64, load=0.5, packet_size=8, rng=rng)
        cycles = 4000
        packets = sum(len(list(gen.generate(c))) for c in range(cycles))
        offered = packets * 8 / (64 * cycles)
        assert offered == pytest.approx(0.5, rel=0.1)

    def test_never_self_addressed(self):
        rng = random.Random(3)
        gen = UniformTraffic(num_nodes=16, load=1.0, packet_size=8, rng=rng)
        for cycle in range(200):
            for packet in gen.generate(cycle):
                assert packet.src_node != packet.dst_node

    def test_destinations_cover_the_network(self):
        rng = random.Random(11)
        gen = UniformTraffic(num_nodes=16, load=1.0, packet_size=1, rng=rng)
        destinations = {gen.destination_for(0, c) for c in range(2000)}
        assert destinations == set(range(1, 16))

    def test_invalid_parameters(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            UniformTraffic(1, 0.5, 8, rng)
        with pytest.raises(ValueError):
            UniformTraffic(8, 1.5, 8, rng)
        with pytest.raises(ValueError):
            UniformTraffic(8, 0.5, 0, rng)


class TestAdversarialTraffic:
    def test_destination_always_next_group(self):
        topo = Dragonfly(h=2)
        rng = random.Random(5)
        gen = AdversarialTraffic(topo.num_nodes, 0.5, 8, rng, topo, offset=1)
        for node in range(0, topo.num_nodes, 3):
            for _ in range(5):
                dst = gen.destination_for(node, 0)
                src_group = topo.group_of(topo.router_of_node(node))
                dst_group = topo.group_of(topo.router_of_node(dst))
                assert dst_group == (src_group + 1) % topo.num_groups

    def test_generic_groups_flattened_butterfly_rows(self):
        # ADV is no longer Dragonfly-specific: groups are the topology's
        # LOCAL-connected router sets (dimension-0 rows for a 2D FB).
        from repro.topology import FlattenedButterfly2D

        fb = FlattenedButterfly2D(4, 4, 2)
        gen = AdversarialTraffic(fb.num_nodes, 0.5, 8, random.Random(0), fb, offset=1)
        for node in range(fb.num_nodes):
            dst = gen.destination_for(node, 0)
            _, src_y = fb.coords(fb.router_of_node(node))
            _, dst_y = fb.coords(fb.router_of_node(dst))
            assert dst_y == (src_y + 1) % fb.k2

    def test_requires_multiple_groups(self):
        from repro.topology import FlattenedButterfly2D

        single_row = FlattenedButterfly2D(5, 1, 2)
        with pytest.raises(ValueError):
            AdversarialTraffic(single_row.num_nodes, 0.5, 8, random.Random(0), single_row)

    def test_offset_validation(self):
        topo = Dragonfly(h=2)
        with pytest.raises(ValueError):
            AdversarialTraffic(topo.num_nodes, 0.5, 8, random.Random(0), topo, offset=0)


class TestBurstyTraffic:
    def test_average_load_approximates_target(self):
        rng = random.Random(13)
        gen = BurstyUniformTraffic(num_nodes=64, load=0.4, packet_size=8, rng=rng,
                                   burst_length=5.0)
        cycles = 6000
        packets = sum(len(list(gen.generate(c))) for c in range(cycles))
        offered = packets * 8 / (64 * cycles)
        assert offered == pytest.approx(0.4, rel=0.2)

    def test_destination_fixed_within_burst(self):
        rng = random.Random(1)
        gen = BurstyUniformTraffic(num_nodes=32, load=0.9, packet_size=4, rng=rng,
                                   burst_length=50.0)
        destinations_per_burst = []
        current: set[int] = set()
        was_on = False
        for cycle in range(3000):
            on_before = gen._state_on[0]
            generated = gen.should_generate(0, cycle)
            if gen._state_on[0] and not on_before:
                if current:
                    destinations_per_burst.append(current)
                current = set()
            if generated:
                current.add(gen.destination_for(0, cycle))
            was_on = gen._state_on[0]
        _ = was_on
        assert all(len(burst) == 1 for burst in destinations_per_burst if burst)

    def test_burst_length_validation(self):
        with pytest.raises(ValueError):
            BurstyUniformTraffic(8, 0.5, 8, random.Random(0), burst_length=0.5)


class TestMakeGenerator:
    def test_reactive_halves_the_request_rate(self):
        topo = Dragonfly(h=2)
        plain = make_generator(TrafficConfig(load=0.8), topo, random.Random(0))
        reactive = make_generator(TrafficConfig(load=0.8, reactive=True), topo,
                                  random.Random(0))
        assert reactive.injection_probability == pytest.approx(
            plain.injection_probability / 2
        )

    def test_unknown_pattern_rejected_by_config(self):
        with pytest.raises(ValueError):
            TrafficConfig(pattern="tornado").validate()


class _StubRouter:
    def __init__(self):
        self.queued = []

    def enqueue_source(self, packet, now):
        self.queued.append((packet, now))


class TestTrafficManager:
    def _manager(self, reactive: bool):
        routers = [_StubRouter() for _ in range(4)]
        metrics = MetricsCollector(num_nodes=8)
        metrics.open_window(0, 1000)
        topo_nodes_per_router = 2
        gen = UniformTraffic(8, 0.0, 8, random.Random(0))  # manual enqueue only
        manager = TrafficManager(gen, routers, topo_nodes_per_router, metrics, reactive)
        return manager, routers, metrics

    def test_enqueue_routes_to_source_router(self):
        manager, routers, _ = self._manager(reactive=False)
        packet = Packet(src_node=5, dst_node=0, size_phits=8, created_at=3)
        manager._enqueue(packet, 3)
        assert routers[2].queued and routers[2].queued[0][0] is packet

    def test_reply_generated_on_request_delivery(self):
        manager, routers, metrics = self._manager(reactive=True)
        request = Packet(src_node=1, dst_node=6, size_phits=8, created_at=0)
        manager._enqueue(request, 0)
        request.delivered_at = 50
        manager.on_delivery(request, 50)
        replies = [
            (index, packet, now)
            for index, router in enumerate(routers)
            for packet, now in router.queued
            if packet.msg_class == MessageClass.REPLY
        ]
        assert len(replies) == 1
        index, reply, queued_at = replies[0]
        assert index == 3  # reply originates at node 6 -> router 3
        assert queued_at == 50 and reply.created_at == 50
        assert reply.src_node == 6 and reply.dst_node == 1
        assert reply.in_reply_to == request.pid

    def test_no_reply_without_reactive(self):
        manager, routers, _ = self._manager(reactive=False)
        request = Packet(src_node=1, dst_node=6, size_phits=8, created_at=0)
        manager._enqueue(request, 0)
        request.delivered_at = 9
        manager.on_delivery(request, 9)
        assert [p for r in routers for p, _ in r.queued] == [request]

    def test_delivery_recorded_in_metrics(self):
        manager, _, metrics = self._manager(reactive=False)
        packet = Packet(src_node=0, dst_node=7, size_phits=8, created_at=10)
        manager._enqueue(packet, 10)
        packet.delivered_at = 60
        manager.on_delivery(packet, 60)
        assert metrics.packets_delivered_window == 1
        assert metrics.latency_histogram.values() == [50]
