"""Tables I-IV must match the paper exactly."""

import pytest

from repro.core.arrangement import VcArrangement
from repro.core.feasibility import (
    TABLES,
    PathSupport,
    classify,
    classify_request_reply,
    combined_support,
    generate_table,
    walk_reference_path,
)
from repro.core.flexvc import FlexVcPolicy
from repro.core.link_types import (
    DIAMETER2_MIN,
    DRAGONFLY_MIN,
    reference_path_for,
    reference_phases,
)
from repro.experiments.tables import (
    EXPECTED_TABLE1,
    EXPECTED_TABLE2,
    EXPECTED_TABLE3,
    EXPECTED_TABLE4,
    matches_paper,
    render_all_tables,
)


class TestTablesMatchPaper:
    def test_table1(self):
        assert generate_table("Table I") == EXPECTED_TABLE1

    def test_table2(self):
        assert generate_table("Table II") == EXPECTED_TABLE2

    def test_table3(self):
        assert generate_table("Table III") == EXPECTED_TABLE3

    def test_table4(self):
        assert generate_table("Table IV") == EXPECTED_TABLE4

    def test_matches_paper_helper(self):
        assert list(TABLES) == ["Table I", "Table II", "Table III", "Table IV"]
        assert matches_paper()

    def test_render_names_all_four_tables(self):
        text = render_all_tables()
        assert "Table I" in text and "Table IV" in text


class TestClassification:
    def test_min_always_safe_with_reference_vcs(self):
        assert classify(VcArrangement.single_class(2, 1), DRAGONFLY_MIN, "MIN") \
            == PathSupport.SAFE

    def test_memory_saving_headline_50_percent(self):
        """Distance-based needs 5+5=10 VCs for VAL+PAR; FlexVC supports them with 3+2=5."""
        arrangement = VcArrangement.request_reply((3, 0), (2, 0))
        for routing in ("MIN", "VAL", "PAR"):
            request, reply = classify_request_reply(arrangement, DIAMETER2_MIN, routing)
            assert request != PathSupport.UNSUPPORTED
            assert reply != PathSupport.UNSUPPORTED

    def test_dragonfly_5_3_headline(self):
        """Table IV: 3/2+2/1 = 5/3 supports VAL and PAR opportunistically."""
        arrangement = VcArrangement.request_reply((3, 2), (2, 1))
        for routing in ("VAL", "PAR"):
            request, reply = classify_request_reply(arrangement, DRAGONFLY_MIN, routing)
            assert request == PathSupport.OPPORTUNISTIC
            assert reply == PathSupport.OPPORTUNISTIC

    def test_combined_support_takes_the_weaker(self):
        assert combined_support(PathSupport.SAFE, PathSupport.OPPORTUNISTIC) \
            == PathSupport.OPPORTUNISTIC
        assert combined_support(PathSupport.UNSUPPORTED, PathSupport.SAFE) \
            == PathSupport.UNSUPPORTED


class TestFeasibilityWalk:
    def test_walk_records_one_vc_per_hop(self):
        policy = FlexVcPolicy(VcArrangement.single_class(4, 2))
        result = walk_reference_path(policy, DRAGONFLY_MIN, "VAL")
        assert result.feasible
        assert len(result.chosen_vcs) == len(reference_path_for(DRAGONFLY_MIN, "VAL"))

    def test_walk_reports_failed_hop(self):
        policy = FlexVcPolicy(VcArrangement.single_class(2, 1))
        result = walk_reference_path(policy, DRAGONFLY_MIN, "VAL")
        assert not result.feasible
        assert result.failed_hop >= 0

    def test_escape_sequences_align_with_reference_paths(self):
        for minimal in (DRAGONFLY_MIN, DIAMETER2_MIN):
            for routing in ("MIN", "VAL", "PAR"):
                phases = reference_phases(minimal, routing)
                for phase in phases:
                    assert len(phase.hops) == len(phase.escapes)
                # The escape after the final hop is always empty (consumption).
                assert phases[-1].escapes[-1] == ()


class TestMonotonicity:
    """More VCs can never reduce the support level (sanity property)."""

    ORDER = {PathSupport.UNSUPPORTED: 0, PathSupport.OPPORTUNISTIC: 1, PathSupport.SAFE: 2}

    @pytest.mark.parametrize("routing", ["MIN", "VAL", "PAR"])
    def test_generic_network_monotone_in_vc_count(self, routing):
        previous = -1
        for vcs in range(2, 8):
            support = classify(VcArrangement.single_class(vcs, 0), DIAMETER2_MIN, routing)
            assert self.ORDER[support] >= previous
            previous = self.ORDER[support]

    @pytest.mark.parametrize("routing", ["MIN", "VAL", "PAR"])
    def test_dragonfly_monotone_in_local_vcs(self, routing):
        previous = -1
        for local in range(2, 8):
            support = classify(VcArrangement.single_class(local, 2), DRAGONFLY_MIN, routing)
            assert self.ORDER[support] >= previous
            previous = self.ORDER[support]
