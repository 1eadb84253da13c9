"""Credit flow and minCred sensing on output ports, allocator and port
behaviour."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import StaticallyPartitionedBuffer
from repro.core.link_types import LinkType, MessageClass
from repro.packet import Packet
from repro.router.allocator import Request, SeparableAllocator
from repro.router.ports import EjectionPort, InputPort
from repro.router.saturation import SaturationBoard


def make_packet(size=8, src=0, dst=1):
    return Packet(src_node=src, dst_node=dst, size_phits=size)


def _wired_link(**router_kwargs):
    """A link of a small wired network with its two ends: (link, output port
    upstream, input port downstream).  A credit return reaches the upstream
    router, so credit tests need one."""
    from repro.config import RouterConfig, SimulationConfig
    from repro.simulation import Simulation

    sim = Simulation(SimulationConfig(router=RouterConfig(**router_kwargs)))
    upstream = sim.routers[0]
    info = next(iter(sim.topology.ports(0)))
    back_port = sim.topology.back_port(0, info.port)
    output = upstream.output_ports[info.port]
    return output.link, output, sim.routers[info.neighbor].input_ports[back_port]


class TestPortOccupancyLedger:
    """The minimal / non-minimal split of a wired output port's credits
    (FlexVC-minCred, Section III-D).  Static mirror: 2 VCs of 32 phits."""

    def test_add_remove(self):
        _link, port, _input_port = _wired_link()
        port.debit(1, 8, minimal=True)
        port.debit(1, 8, minimal=False)
        assert port.occupancy_metric(per_vc=True, vc=1, minimal_only=False) == 16
        assert port.occupancy_metric(per_vc=True, vc=1, minimal_only=True) == 8
        port.credit_return(1, 8, minimal=True)
        assert port.minimal_phits == [0, 0]
        assert [port.mirror.occupancy(vc) for vc in range(2)] == [0, 8]

    def test_underflow_rejected_per_class(self):
        _link, port, _input_port = _wired_link()
        # The mirror holds 16 phits on each VC, so only the class rejects.
        for vc in range(2):
            port.debit(vc, 8, minimal=True)
            port.debit(vc, 8, minimal=False)
        with pytest.raises(ValueError,
                           match="removing 9 minimal phits but only 8 accounted"):
            port.credit_return(0, 9, minimal=True)
        with pytest.raises(
                ValueError,
                match="removing 9 non-minimal phits but only 8 accounted"):
            port.credit_return(1, 9, minimal=False)

    def test_ledger_port_occupancy(self):
        _link, port, _input_port = _wired_link()
        port.debit(0, 8, minimal=True)
        port.debit(1, 8, minimal=False)
        assert port.occupancy_metric(per_vc=False, vc=0, minimal_only=False) == 16
        assert port.occupancy_metric(per_vc=False, vc=0, minimal_only=True) == 8
        assert port.occupancy_metric(per_vc=True, vc=1, minimal_only=True) == 0


class TestCreditTracker:
    """Debits and credit returns on a wired output port move its mirror.
    Static mirror: 2 VCs of 32 phits."""

    def test_debit_and_credit(self):
        _link, port, _input_port = _wired_link()
        assert port.mirror.can_accept(0, 8)
        port.debit(0, 8, minimal=True)
        assert port.mirror.free_for(0) == 24
        assert port.occupancy_metric(per_vc=True, vc=0, minimal_only=False) == 8
        port.credit_return(0, 8, minimal=True)
        assert port.mirror.free_for(0) == 32

    def test_occupancy_metric_variants(self):
        _link, port, _input_port = _wired_link()
        port.debit(0, 8, minimal=True)
        port.debit(1, 16, minimal=False)
        assert port.occupancy_metric(per_vc=False, vc=0, minimal_only=False) == 24
        assert port.occupancy_metric(per_vc=False, vc=0, minimal_only=True) == 8
        assert port.occupancy_metric(per_vc=True, vc=0, minimal_only=False) == 8
        assert port.occupancy_metric(per_vc=True, vc=1, minimal_only=True) == 0


#: one step of the credit property: (debit?, VC, phits, minimal tag, which
#: outstanding debit a return gives back).
credit_steps = st.lists(
    st.tuples(st.booleans(), st.integers(0, 1), st.integers(1, 8),
              st.booleans(), st.integers(0, 63)),
    max_size=60,
)


@pytest.mark.parametrize("organization", ["static", "damq"])
@settings(max_examples=50, deadline=None)
@given(steps=credit_steps)
def test_port_credits_match_outstanding_phits(organization, steps):
    """Random debits and tagged credit returns on a wired output port: after
    every step Figure 8's four sensing variants equal a brute-force tally of
    the outstanding phits; a return tagged with a class holding fewer phits
    is that class's error; returning everything restores every VC."""
    _link, port, _input_port = _wired_link(buffer_organization=organization)
    num_vcs = port.mirror.num_vcs
    fresh = [port.mirror.free_for(vc) for vc in range(num_vcs)]
    outstanding = []

    def tally(vc, minimal_only):
        return sum(phits for debit_vc, phits, minimal in outstanding
                   if (vc is None or debit_vc == vc)
                   and (minimal or not minimal_only))

    def check_metrics():
        for minimal_only in (False, True):
            assert port.occupancy_metric(False, 0, minimal_only) == tally(
                None, minimal_only)
            for vc in range(num_vcs):
                assert port.occupancy_metric(True, vc, minimal_only) == tally(
                    vc, minimal_only)

    for debit, vc, phits, minimal, pick in steps:
        if debit:
            if port.mirror.free_for(vc) >= phits:
                port.debit(vc, phits, minimal)
                outstanding.append((vc, phits, minimal))
        elif outstanding:
            port.credit_return(*outstanding.pop(pick % len(outstanding)))
        check_metrics()

    for vc in range(num_vcs):
        occupancy = tally(vc, False)
        for minimal, name in ((True, "minimal"), (False, "non-minimal")):
            held = tally(vc, True) if minimal else occupancy - tally(vc, True)
            if held < occupancy:
                # The mirror holds held + 1 phits, so only the class rejects.
                with pytest.raises(ValueError, match=(
                        f"removing {held + 1} {name} phits but only {held} "
                        f"accounted")):
                    port.credit_return(vc, held + 1, minimal)
                port.mirror.allocate(vc, held + 1)  # undo the mirror's release
    check_metrics()

    while outstanding:
        port.credit_return(*outstanding.pop())
    check_metrics()
    assert [port.mirror.free_for(vc) for vc in range(num_vcs)] == fresh


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
        # 28.4 per link when written (31.4 with a credit tracker and
        # min/non-min ledger per output port, 67.8 with per-link closures).
        assert built / len(outputs) <= 30.0
        assert len({port.link._deliver.__func__ for port in outputs}) == 1
        assert len({port.credit_channel._deliver.__func__ for port in inputs}) == 1

    @pytest.mark.parametrize("pipeline_latency", [5, 0])  # timed wake, activate
    def test_delivery_overflow_is_the_buffers_error(self, pipeline_latency):
        link, _output, input_port = _wired_link(
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
        _link, output, input_port = _wired_link()
        sink = input_port.credit_channel._deliver
        with pytest.raises(ValueError,
                           match="VC 0 underflow: releasing 8 with occupancy 0"):
            sink(0, 8, True)
        output.debit(0, 8, True)
        with pytest.raises(ValueError,
                           match="removing 8 non-minimal phits but only 0 accounted"):
            sink(0, 8, False)

    def test_debit_overflow_is_the_mirrors_error(self):
        _link, output, _input_port = _wired_link()
        capacity = output.mirror.capacity_for(1)
        output.debit(1, capacity, False)
        assert output.mirror.free_for(1) == 0
        assert output.occupancy_metric(True, 1, True) == 0
        with pytest.raises(ValueError, match="VC 1 overflow"):
            output.debit(1, 1, False)


#: sha256[:16] of the three measure() windows of each Piggyback run below.
#: Piggyback's sensing reads the credit counts that every debit and credit
#: return maintains, and a poster posts at the end of every pump and is woken
#: by every credit return, so these runs pin the link callbacks, the pump
#: body and that wake rule for all three buffer set-ups.  The
#: five variants cover all four branches of ``OutputPort.occupancy_metric``.
PINNED_PB_DIGESTS = {
    "mincred-port-4/2+2/1": {
        "static-5": "c6e95d31e189b51d",
        "static-0": "1198a5fa0cbe6de8",
        "damq": "9c0b2dd034599778",
    },
    "flexvc-vc-4/2+2/1": {
        "static-5": "8444fe57fa9ee2e4",
        "static-0": "2aff52be14d1460b",
        "damq": "9ba12005c4483ed5",
    },
    "baseline-vc-4/2+4/2": {
        "static-5": "6d9f2261beb080f8",
        "static-0": "8136cbd4a5d49e1a",
        "damq": "171efc3570a72c31",
    },
    "baseline-port-4/2+4/2": {
        "static-5": "d0ba68d84f231430",
        "static-0": "7dc4fd6def3802c4",
        "damq": "6060753ed4d76c4a",
    },
    "mincred-vc-4/2+2/1": {
        "static-5": "f358ad6dc373e6ee",
        "static-0": "fae90354bc289b80",
        "damq": "4d4b64f4d6df3cc3",
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
    "baseline-port-4/2+4/2": dict(
        vc_policy="baseline", pb_sensing="port", split=((4, 2), (4, 2))),
    "mincred-vc-4/2+2/1": dict(
        vc_policy="flexvc", pb_sensing="vc", pb_min_credits_only=True,
        split=((4, 2), (2, 1))),
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
