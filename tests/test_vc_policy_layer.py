"""The VC-policy layer says each thing once — and says what it said before.

A policy is one verdict function (``VcPolicy.evaluate``) and feasibility is
one walk (``walk_reference_path``) that config validation, Tables I-IV and the
Section II slot assignment all read.  The three digests below were captured at
``1830dda``, before the layer was folded, over exactly the inputs generated
here: accept/reject of ``SimulationConfig.validate()``, the verdict memo a run
leaves behind, and the rendered tables.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.config import NetworkConfig, RoutingConfig, SimulationConfig, TrafficConfig
from repro.core.arrangement import VcArrangement
from repro.core.baseline import DistanceBasedPolicy
from repro.core.feasibility import walk_reference_path
from repro.core.flexvc import FlexVcPolicy
from repro.core.link_types import (
    DIAMETER2_MIN,
    DRAGONFLY_MIN,
    MessageClass,
    reference_path_for,
    reference_phases,
)
from repro.core.vc_policy import VcPolicy
from repro.experiments.runner import TINY, base_config
from repro.experiments.tables import render_all_tables
from repro.session import Session


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# (i) validate() accepts and rejects what it did
# ---------------------------------------------------------------------------

def _grid_networks():
    networks = [TINY.network_for(name) for name in
                ("dragonfly", "flattened_butterfly", "hyperx", "megafly")]
    networks += [
        # 1-D is the untyped diameter-1 special case (two slots per phase)
        NetworkConfig("hyperx", {"s": (4,), "nodes_per_router": 1}),
        NetworkConfig("hyperx", {"s": (3, 3), "nodes_per_router": 1}),
        NetworkConfig("hyperx", {"s": (3, 2, 2), "nodes_per_router": 1}),
        NetworkConfig("hyperx", {"s": (2, 2, 2, 2), "nodes_per_router": 1}),
        NetworkConfig("dragonfly", {"h": 3}),
        NetworkConfig("megafly", {"spines": 2, "leaves": 3, "h": 2, "nodes_per_router": 1}),
        NetworkConfig("megafly", {"spines": 3, "leaves": 2, "h": 1, "nodes_per_router": 2}),
        NetworkConfig("flattened_butterfly", {"k1": 3, "k2": 5, "nodes_per_router": 1}),
    ]
    return networks


def _grid_arrangements():
    """``(arrangement, reactive)`` cells: 48 single-class, 48 request-reply."""
    cells = [(VcArrangement.single_class(local, global_), False)
             for local in range(1, 9) for global_ in range(0, 6)]
    for local in range(1, 7):
        for global_ in range(0, 4):
            # a symmetric split, and one whose reply half is a MIN-sized 2/1
            request = (local, global_)
            cells.append((VcArrangement.request_reply(request, request), True))
            cells.append((VcArrangement.request_reply(request, (2, 1)), True))
    return cells


def _validate_grid_lines():
    lines = []
    for network in _grid_networks():
        for algorithm in ("min", "val", "par", "pb"):
            for policy in ("baseline", "flexvc"):
                for arrangement, reactive in _grid_arrangements():
                    config = SimulationConfig(
                        network=network,
                        routing=RoutingConfig(algorithm=algorithm, vc_policy=policy),
                        traffic=TrafficConfig(reactive=reactive),
                        arrangement=arrangement,
                    )
                    try:
                        config.validate()
                        ok = 1
                    except ValueError:
                        ok = 0
                    lines.append("|".join(map(str, (
                        network.topology, network.params, algorithm, policy,
                        arrangement.label(), int(reactive), ok))))
    return sorted(lines)


def test_validate_accepts_and_rejects_the_same_grid():
    lines = _validate_grid_lines()
    assert len(lines) == 9216
    assert sum(line.endswith("|1") for line in lines) == 3908
    assert _digest(lines) == "e6d772e4813e9e6f"


# ---------------------------------------------------------------------------
# (ii) a run's verdict memo is entry for entry what it was
# ---------------------------------------------------------------------------

MEMO_RUNS = {
    "baseline min": (dict(algorithm="min"), 9, "795a19ea24df7d5b"),
    "baseline val 4/2 adv": (
        dict(algorithm="val", pattern="adversarial",
             arrangement=VcArrangement.single_class(4, 2)),
        73, "f929fecb5c638bc3"),
    "baseline pb 4/2": (
        dict(algorithm="pb", arrangement=VcArrangement.single_class(4, 2)),
        71, "db66a2548a9b3d70"),
    "flexvc val 8/4 adv": (
        dict(algorithm="val", pattern="adversarial", vc_policy="flexvc",
             arrangement=VcArrangement.single_class(8, 4)),
        209, "5f8ec75974c9d6e6"),
    "flexvc par 8/4": (
        dict(algorithm="par", vc_policy="flexvc",
             arrangement=VcArrangement.single_class(8, 4)),
        389, "1002f56f389da74e"),
}


@lru_cache(maxsize=None)
def _verdict_memo(name: str) -> dict:
    """The verdict memo one ``tiny`` run at load 0.7 leaves behind."""
    session = Session(base_config(TINY, **MEMO_RUNS[name][0]).with_load(0.7))
    session.run()
    return session.sim.routing._verdict_memo


def _memo_lines(memo: dict):
    """The memo as plain ints and strings, sorted."""
    lines = []
    for key, (vc_range, kind) in memo.items():
        (msg_class, out_type, intended, escape, input_type, input_vc,
         offsets, position, globals_taken) = key
        lines.append(repr((
            int(msg_class), int(out_type), tuple(map(int, intended)),
            tuple(map(int, escape)),
            None if input_type is None else int(input_type), input_vc,
            tuple(offsets), position, int(globals_taken),
            None if vc_range is None else (vc_range.lo, vc_range.hi),
            None if kind is None else kind.value,
        )))
    return sorted(lines)


@pytest.mark.parametrize("name", sorted(MEMO_RUNS))
def test_verdict_memo_is_what_it_was(name):
    _, entries, digest = MEMO_RUNS[name]
    lines = _memo_lines(_verdict_memo(name))
    assert len(lines) == entries
    assert _digest(lines) == digest


@pytest.mark.parametrize("name, routings", [
    ("baseline val 4/2 adv", ("VAL",)),
    ("baseline pb 4/2", ("MIN", "VAL")),
    # a PAR packet that diverts at injection has taken no pre-diversion hop
    # and walks the VAL shape
    ("flexvc par 8/4", ("MIN", "PAR", "VAL")),
])
def test_run_time_phase_offsets_are_the_walks(name, routings):
    """What ``Packet.begin_phase`` is handed at run time is what the reference
    walk hands the policy: validation checks the slots the simulator uses."""
    topology = base_config(TINY).network.build_cached()
    walked = {
        phase.offsets
        for routing in routings
        for phase in reference_phases(
            topology.canonical_minimal_sequence, routing, phase_ref=topology.phase_ref)
    }
    seen = {key[6] for key in _verdict_memo(name)}
    assert seen <= walked
    assert len(seen) > 1  # the run did leave its first phase


# ---------------------------------------------------------------------------
# (iii) Tables I-IV render as they did
# ---------------------------------------------------------------------------

TABLES_TEXT = """\
Table I
  MIN  | 2: safe | 3: safe | 4: safe | 5: safe
  VAL  | 2: X | 3: opport. | 4: safe | 5: safe
  PAR  | 2: X | 3: opport. | 4: opport. | 5: safe

Table II
  MIN  | (2, 2): safe | (3, 2): safe | (3, 3): safe | (4, 4): safe | (5, 5): safe
  VAL  | (2, 2): X | (3, 2): opport. | (3, 3): opport. | (4, 4): safe | (5, 5): safe
  PAR  | (2, 2): X | (3, 2): opport. | (3, 3): opport. | (4, 4): opport. | (5, 5): safe

Table III
  MIN  | (2, 1): safe | (3, 1): safe | (2, 2): safe | (3, 2): safe | (4, 2): safe | (5, 2): safe
  VAL  | (2, 1): X | (3, 1): X | (2, 2): X | (3, 2): opport. | (4, 2): safe | (5, 2): safe
  PAR  | (2, 1): X | (3, 1): X | (2, 2): X | (3, 2): opport. | (4, 2): opport. | (5, 2): safe

Table IV
  MIN  | ((2, 1), (2, 1)): safe / safe | ((3, 2), (2, 1)): safe / safe | ((4, 2), (4, 2)): safe / safe | ((5, 2), (5, 2)): safe / safe
  VAL  | ((2, 1), (2, 1)): X / opport. | ((3, 2), (2, 1)): opport. / opport. | ((4, 2), (4, 2)): safe / safe | ((5, 2), (5, 2)): safe / safe
  PAR  | ((2, 1), (2, 1)): X / opport. | ((3, 2), (2, 1)): opport. / opport. | ((4, 2), (4, 2)): opport. / opport. | ((5, 2), (5, 2)): safe / safe"""


def test_tables_render_as_they_did():
    assert render_all_tables() == TABLES_TEXT
    assert _digest([TABLES_TEXT]) == "4db12da5d33fb062"


# ---------------------------------------------------------------------------
# The baseline's walked slots are the Section II assignments
# ---------------------------------------------------------------------------

def _walked_slots(arrangement, minimal, routing, msg_class=MessageClass.REQUEST):
    walk = walk_reference_path(
        DistanceBasedPolicy(arrangement), minimal, routing, msg_class)
    assert walk.feasible
    return " ".join(
        f"{'lg'[hop]}{vc}"
        for hop, vc in zip(reference_path_for(minimal, routing), walk.chosen_vcs))


@pytest.mark.parametrize("minimal, routing, slots", [
    (DRAGONFLY_MIN, "MIN", "l0 g0 l1"),
    (DRAGONFLY_MIN, "VAL", "l0 g0 l1 l2 g1 l3"),
    (DRAGONFLY_MIN, "PAR", "l0 l1 g0 l2 l3 g1 l4"),
    (DIAMETER2_MIN, "MIN", "l0 l1"),
    (DIAMETER2_MIN, "VAL", "l0 l1 l2 l3"),
    (DIAMETER2_MIN, "PAR", "l0 l1 l2 l3 l4"),
])
def test_baseline_walk_yields_the_section_2_assignment(minimal, routing, slots):
    assert _walked_slots(VcArrangement.single_class(5, 2), minimal, routing) == slots


def test_baseline_reply_walk_is_offset_past_the_request_vcs():
    arrangement = VcArrangement.request_reply((4, 2), (4, 2))
    assert _walked_slots(arrangement, DRAGONFLY_MIN, "VAL", MessageClass.REPLY) \
        == "l4 g2 l5 l6 g3 l7"


def test_baseline_walk_fails_at_the_first_slot_it_lacks():
    # 3/2: the fourth local hop of l0 g0 l1 | l2 g1 l3 has no slot.
    walk = walk_reference_path(
        DistanceBasedPolicy(VcArrangement.single_class(3, 2)), DRAGONFLY_MIN, "VAL")
    assert (walk.feasible, walk.chosen_vcs, walk.failed_hop) == (False, (0, 0, 1, 2, 1), 5)


# ---------------------------------------------------------------------------
# One verdict function per policy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy_cls", [DistanceBasedPolicy, FlexVcPolicy])
def test_evaluate_is_the_single_override(policy_cls):
    assert "evaluate" in vars(policy_cls)
    assert "allowed_vcs" not in vars(policy_cls)
    assert "hop_kind" not in vars(policy_cls)
    assert VcPolicy.__abstractmethods__ == {"evaluate"}
