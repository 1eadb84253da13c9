"""Unit tests for the distance-based baseline and FlexVC policies.

These tests encode the worked examples of Sections II and III: the l0-g1-l2
slot assignment of the Dragonfly baseline, the per-hop VC ranges of Figures 1,
3 and 4, and the opportunistic-hop constraints of Definitions 1 and 2.
"""

import pytest

from repro.core.arrangement import VcArrangement
from repro.core.baseline import DistanceBasedPolicy
from repro.core.flexvc import FlexVcPolicy, make_policy
from repro.core.link_types import G, L, LinkType, MessageClass
from repro.core.vc_policy import HopContext, HopKind


def ctx(out_type, remaining, escape, input_type=None, input_vc=-1,
        msg_class=MessageClass.REQUEST, phase_offsets=(0, 0),
        phase_position=0, phase_global_taken=False):
    return HopContext(
        msg_class=msg_class,
        out_type=out_type,
        intended_remaining=remaining,
        escape_from_next=escape,
        input_type=input_type,
        input_vc=input_vc,
        phase_offsets=phase_offsets,
        phase_position=phase_position,
        phase_global_taken=phase_global_taken,
    )


class TestHopContextValidation:
    def test_first_hop_must_match_out_type(self):
        with pytest.raises(ValueError):
            ctx(G, (L, G, L), (L,))

    def test_empty_remaining_rejected(self):
        with pytest.raises(ValueError):
            ctx(L, (), ())


class TestBaselineDragonflyMin:
    """Baseline MIN in a 2/1 Dragonfly uses slots l0 - g0 - l1."""

    policy = DistanceBasedPolicy(VcArrangement.single_class(2, 1))

    def test_first_local_hop(self):
        r = self.policy.allowed_vcs(ctx(L, (L, G, L), (G, L)))
        assert (r.lo, r.hi) == (0, 0)

    def test_global_hop(self):
        r = self.policy.allowed_vcs(
            ctx(G, (G, L), (L,), input_type=L, input_vc=0, phase_position=1)
        )
        assert (r.lo, r.hi) == (0, 0)

    def test_final_local_hop_uses_second_vc(self):
        r = self.policy.allowed_vcs(
            ctx(L, (L,), (), input_type=G, input_vc=0,
                phase_position=2, phase_global_taken=True)
        )
        assert (r.lo, r.hi) == (1, 1)

    def test_short_path_global_first_still_uses_slot_zero(self):
        # Path g1-l2 (source router owns the global link).
        r = self.policy.allowed_vcs(ctx(G, (G, L), (L,)))
        assert (r.lo, r.hi) == (0, 0)

    def test_all_hops_are_safe(self):
        assert self.policy.hop_kind(ctx(L, (L, G, L), (G, L))) == HopKind.SAFE


class TestBaselineValiantPhases:
    """Baseline VAL in a 4/2 Dragonfly walks slots l0,g0,l1 then l2,g1,l3."""

    policy = DistanceBasedPolicy(VcArrangement.single_class(4, 2))

    def test_first_phase_local(self):
        r = self.policy.allowed_vcs(ctx(L, (L, G, L, L, G, L), (L, G, L)))
        assert (r.lo, r.hi) == (0, 0)

    def test_second_phase_first_local(self):
        r = self.policy.allowed_vcs(
            ctx(L, (L, G, L), (G, L), input_type=L, input_vc=1, phase_offsets=(2, 1))
        )
        assert (r.lo, r.hi) == (2, 2)

    def test_second_phase_global(self):
        r = self.policy.allowed_vcs(
            ctx(G, (G, L), (L,), input_type=L, input_vc=2,
                phase_offsets=(2, 1), phase_position=1)
        )
        assert (r.lo, r.hi) == (1, 1)

    def test_second_phase_last_local(self):
        r = self.policy.allowed_vcs(
            ctx(L, (L,), (), input_type=G, input_vc=1,
                phase_offsets=(2, 1), phase_position=2, phase_global_taken=True)
        )
        assert (r.lo, r.hi) == (3, 3)


class TestBaselineRequestReply:
    policy = DistanceBasedPolicy(VcArrangement.request_reply((2, 1), (2, 1)))

    def test_request_uses_request_subsequence(self):
        r = self.policy.allowed_vcs(ctx(L, (L, G, L), (G, L)))
        assert (r.lo, r.hi) == (0, 0)

    def test_reply_is_offset_past_request_vcs(self):
        r = self.policy.allowed_vcs(
            ctx(L, (L, G, L), (G, L), msg_class=MessageClass.REPLY)
        )
        assert (r.lo, r.hi) == (2, 2)

    def test_reply_global_offset(self):
        r = self.policy.allowed_vcs(
            ctx(G, (G, L), (L,), msg_class=MessageClass.REPLY)
        )
        assert (r.lo, r.hi) == (1, 1)

    def test_forbidden_when_slot_beyond_subsequence(self):
        # A Valiant request path cannot be expressed with 2/1 request VCs.
        policy = DistanceBasedPolicy(VcArrangement.request_reply((2, 1), (2, 1)))
        context = ctx(L, (L, G, L, L, G, L), (L, G, L))
        assert policy.hop_kind(context) == HopKind.FORBIDDEN


class TestFlexVcSafeHops:
    """Figure 3a: safe MIN/VAL paths in a generic diameter-2 network with 4 VCs."""

    policy = FlexVcPolicy(VcArrangement.single_class(4, 0))

    def test_min_first_hop_allows_vcs_0_to_2(self):
        r = self.policy.allowed_vcs(ctx(L, (L, L), (L,)))
        assert (r.lo, r.hi) == (0, 2)

    def test_min_last_hop_allows_vcs_0_to_3(self):
        r = self.policy.allowed_vcs(ctx(L, (L,), (), input_type=L, input_vc=1))
        assert (r.lo, r.hi) == (0, 3)

    def test_valiant_first_hop_allows_only_vc0(self):
        r = self.policy.allowed_vcs(ctx(L, (L, L, L, L), (L, L)))
        assert (r.lo, r.hi) == (0, 0)

    def test_valiant_third_hop(self):
        r = self.policy.allowed_vcs(ctx(L, (L, L), (L,), input_type=L, input_vc=1))
        assert (r.lo, r.hi) == (0, 2)

    def test_hops_are_safe(self):
        assert self.policy.hop_kind(ctx(L, (L, L), (L,))) == HopKind.SAFE


class TestFlexVcOpportunisticHops:
    """Figure 3b: opportunistic Valiant with 3 VCs in a diameter-2 network."""

    policy = FlexVcPolicy(VcArrangement.single_class(3, 0))

    def test_valiant_first_hop_is_opportunistic(self):
        context = ctx(L, (L, L, L, L), (L, L))
        assert self.policy.hop_kind(context) == HopKind.OPPORTUNISTIC
        r = self.policy.allowed_vcs(context)
        assert (r.lo, r.hi) == (0, 0)

    def test_opportunistic_hop_cannot_go_below_current_vc(self):
        # Packet already sits in VC 1: no VC >= 1 leaves room for a 2-hop escape.
        context = ctx(L, (L, L, L), (L, L), input_type=L, input_vc=1)
        assert self.policy.allowed_vcs(context) is None
        assert self.policy.hop_kind(context) == HopKind.FORBIDDEN

    def test_valiant_impossible_with_two_vcs(self):
        policy = FlexVcPolicy(VcArrangement.single_class(2, 0))
        context = ctx(L, (L, L, L, L), (L, L))
        assert policy.allowed_vcs(context) is None

    def test_min_still_safe_with_three_vcs(self):
        assert self.policy.hop_kind(ctx(L, (L, L), (L,))) == HopKind.SAFE


class TestFlexVcDragonfly:
    """Table III: Dragonfly with link-type restrictions."""

    def test_val_opportunistic_with_3_2(self):
        policy = FlexVcPolicy(VcArrangement.single_class(3, 2))
        # First hop of the Valiant path (4 local hops remain, only 3 local VCs
        # implemented): the path is only supported opportunistically.
        first = ctx(L, (L, G, L, L, G, L), (L, G, L))
        assert policy.hop_kind(first) == HopKind.OPPORTUNISTIC
        assert policy.allowed_vcs(first) is not None
        # Third hop (local into the intermediate router): the admissible range
        # collapses to the single lowest VC, leaving room for the l-g-l escape.
        third = ctx(L, (L, L, G, L), (L, G, L), input_type=G, input_vc=0)
        r = policy.allowed_vcs(third)
        assert (r.lo, r.hi) == (0, 0)

    def test_val_forbidden_with_2_2(self):
        policy = FlexVcPolicy(VcArrangement.single_class(2, 2))
        context = ctx(L, (L, G, L, L, G, L), (L, G, L))
        assert policy.allowed_vcs(context) is None

    def test_val_forbidden_global_hop_with_3_1(self):
        policy = FlexVcPolicy(VcArrangement.single_class(3, 1))
        context = ctx(G, (G, L, L, G, L), (L, G, L), input_type=L, input_vc=0)
        assert policy.allowed_vcs(context) is None

    def test_min_wider_range_with_4_2(self):
        policy = FlexVcPolicy(VcArrangement.single_class(4, 2))
        r = policy.allowed_vcs(ctx(L, (L, G, L), (G, L)))
        assert (r.lo, r.hi) == (0, 2)
        r = policy.allowed_vcs(ctx(G, (G, L), (L,), input_type=L, input_vc=0))
        assert (r.lo, r.hi) == (0, 1)


class TestFlexVcRequestReply:
    """Figure 4: 3+2 = 5 VCs in a generic diameter-2 network."""

    policy = FlexVcPolicy(VcArrangement.request_reply((3, 0), (2, 0)))

    def test_request_min_first_hop(self):
        r = self.policy.allowed_vcs(ctx(L, (L, L), (L,)))
        assert (r.lo, r.hi) == (0, 1)

    def test_reply_min_can_borrow_request_vcs(self):
        r = self.policy.allowed_vcs(ctx(L, (L, L), (L,), msg_class=MessageClass.REPLY))
        assert (r.lo, r.hi) == (0, 3)

    def test_reply_valiant_opportunistically_feasible(self):
        context = ctx(L, (L, L, L, L), (L, L), msg_class=MessageClass.REPLY)
        r = self.policy.allowed_vcs(context)
        assert r is not None and r.lo == 0

    def test_request_valiant_opportunistic_with_3_request_vcs(self):
        context = ctx(L, (L, L, L, L), (L, L))
        assert self.policy.hop_kind(context) == HopKind.OPPORTUNISTIC


class TestPolicyFactory:
    def test_make_baseline(self):
        assert isinstance(make_policy("baseline", VcArrangement.single_class(2, 1)),
                          DistanceBasedPolicy)

    def test_make_flexvc(self):
        assert isinstance(make_policy("flexvc", VcArrangement.single_class(2, 1)),
                          FlexVcPolicy)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("damq", VcArrangement.single_class(2, 1))


class TestPolicyNeverExceedsImplementedVcs:
    @pytest.mark.parametrize("local,global_", [(2, 1), (3, 2), (4, 2), (8, 4)])
    def test_ranges_within_bounds(self, local, global_):
        policy = FlexVcPolicy(VcArrangement.single_class(local, global_))
        for remaining, escape in [
            ((L, G, L), (G, L)),
            ((G, L), (L,)),
            ((L,), ()),
            ((L, G, L, L, G, L), (L, G, L)),
        ]:
            context = ctx(remaining[0], remaining, escape)
            r = policy.allowed_vcs(context)
            if r is None:
                continue
            ceiling = local if remaining[0] == LinkType.LOCAL else global_
            assert 0 <= r.lo <= r.hi < ceiling


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: per-link-type safe range vs interleaved VC order",
)
def test_flexvc_4_2_valiant_keeps_delivering_under_adversarial_load():
    """FlexVC 4/2 + Valiant under ADV at load 0.7 must not wedge (the paper's
    headline case).  Today the eight windows deliver 1972, 1460, 109, 0, 0,
    0, 0, 0 packets; the fix deletes the marker."""
    from repro.experiments.runner import TINY, base_config
    from repro.session import Session

    config = base_config(
        TINY, pattern="adversarial", algorithm="val", vc_policy="flexvc",
        arrangement=VcArrangement.single_class(4, 2), seed=102,
    ).with_load(0.7)
    session = Session(config)
    session.warmup(1000)
    delivered = [session.measure(500).packets_delivered for _ in range(8)]
    assert min(delivered) >= 1500, delivered


def _hyperx_drain(algorithm: str):
    """Tiny HyperX (4x3x3) at FlexVC's minimal feasible arrangement, uniform
    load 0.2: warm-up 200, one 300-cycle window, then a 4,000-cycle drain.
    Returns (arrangement, drain cycles, packets left resident)."""
    from repro.experiments.runner import TINY, base_config
    from repro.experiments.topologies import minimal_feasible_arrangement
    from repro.session import Session

    network = TINY.network_for("hyperx")
    arrangement = minimal_feasible_arrangement(network, algorithm, "flexvc")
    config = base_config(
        TINY, network=network, algorithm=algorithm, vc_policy="flexvc",
        arrangement=arrangement,
    ).with_load(0.2)
    session = Session(config)
    session.warmup(200)
    session.measure(300)
    cycles = session.drain(4000)
    return arrangement, cycles, session.sim.total_resident_packets()


def test_hyperx_flexvc_min_drains():
    """The control of the wedge below: MIN at 2/2 empties the network."""
    arrangement, cycles, resident = _hyperx_drain("min")
    assert arrangement == VcArrangement.single_class(2, 2)
    assert resident == 0 and cycles < 4000


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: HyperX wires LOCAL and GLOBAL links (minimal "
    "path L G G), and FlexVC at 3/3 wedges like the Dragonfly Valiant case",
)
@pytest.mark.parametrize("algorithm", ["val", "par", "pb"])
def test_hyperx_flexvc_minimal_arrangement_drains(algorithm):
    """Today VAL, PAR and PB at 3/3 leave 159, 11 and 15 packets resident
    after the drain; the fix deletes the marker."""
    arrangement, _, resident = _hyperx_drain(algorithm)
    assert arrangement == VcArrangement.single_class(3, 3)
    assert resident == 0
