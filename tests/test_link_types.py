"""Unit tests for hop sequences and reference paths."""

import pytest

from repro.core.link_types import (
    DIAMETER2_MIN,
    DRAGONFLY_MIN,
    G,
    L,
    LinkType,
    count_hops,
    hop_counts,
    reference_path_for,
    reference_phases,
    sequence_str,
)


class TestHopCounting:
    def test_count_hops_local(self):
        assert count_hops((L, G, L), LinkType.LOCAL) == 2

    def test_count_hops_global(self):
        assert count_hops((L, G, L), LinkType.GLOBAL) == 1

    def test_count_hops_empty(self):
        assert count_hops((), LinkType.LOCAL) == 0

    def test_hop_counts_pair(self):
        assert hop_counts((L, G, L, L, G, L)) == (4, 2)

    def test_hop_counts_par(self):
        assert hop_counts((L, L, G, L, L, G, L)) == (5, 2)


class TestSequenceStr:
    def test_min_path(self):
        assert sequence_str(DRAGONFLY_MIN) == "l-g-l"

    def test_empty(self):
        assert sequence_str(()) == "(empty)"

    def test_valiant(self):
        assert sequence_str((L, G, L, L, G, L)) == "l-g-l-l-g-l"


class TestReferencePaths:
    @pytest.mark.parametrize(
        "routing,dragonfly,expected",
        [
            ("MIN", True, (2, 1)),
            ("VAL", True, (4, 2)),
            ("PAR", True, (5, 2)),
            ("MIN", False, (2, 0)),
            ("VAL", False, (4, 0)),
            ("PAR", False, (5, 0)),
        ],
    )
    def test_vc_requirements_match_paper(self, routing, dragonfly, expected):
        minimal = DRAGONFLY_MIN if dragonfly else DIAMETER2_MIN
        assert hop_counts(reference_path_for(minimal, routing)) == expected

    def test_case_insensitive(self):
        assert reference_path_for(DRAGONFLY_MIN, "min") == DRAGONFLY_MIN

    def test_unknown_routing_raises(self):
        with pytest.raises(ValueError):
            reference_path_for(DRAGONFLY_MIN, "UGAL")

    def test_dragonfly_min_order(self):
        assert DRAGONFLY_MIN == (L, G, L)

    def test_dragonfly_val_is_two_min_segments(self):
        assert reference_path_for(DRAGONFLY_MIN, "VAL") == (L, G, L, L, G, L)
        first, second = reference_phases(DRAGONFLY_MIN, "VAL")
        assert first.hops == second.hops == DRAGONFLY_MIN
        assert (first.offsets, second.offsets) == ((0, 0), (2, 1))

    def test_par_prepends_the_pre_diversion_hop(self):
        assert reference_path_for(DRAGONFLY_MIN, "PAR") == (L, L, G, L, L, G, L)
        assert [phase.offsets for phase in reference_phases(DRAGONFLY_MIN, "PAR")] \
            == [(0, 0), (1, 0), (3, 1)]
        # an untyped complete graph reserves two slots per phase
        assert [phase.offsets for phase in
                reference_phases((L,), "PAR", phase_ref=(2, 0))] \
            == [(0, 0), (1, 0), (3, 0)]
