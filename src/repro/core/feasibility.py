"""Analytical path-feasibility classification (Tables I-IV of the paper).

Given a routing protocol (MIN/VAL/PAR), a VC arrangement and a network's
worst-case minimal path, this module walks the protocol's reference path
under a VC policy.  Under FlexVC the walk classifies the path as *safe*,
*opportunistic* or *unsupported* — reproducing Tables I, II, III and IV
without running the simulator; under the distance-based baseline it yields
the Section II slot assignment (``l0 g0 l1 | l2 g1 l3`` for Dragonfly VAL).
Config validation asks the same walk whether an arrangement can carry a
routing at all.

The walk drives the policy hop by hop through the path's routing phases with
the escape path available at each position, greedily occupying the lowest
admissible VC (which is optimal for feasibility since every constraint is
monotone in the occupied index).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, NamedTuple, Optional

from .arrangement import VcArrangement
from .baseline import DistanceBasedPolicy
from .flexvc import FlexVcPolicy
from .link_types import (
    DIAMETER2_MIN,
    DRAGONFLY_MIN,
    HopSequence,
    LinkType,
    MessageClass,
    reference_path_for,
    reference_phases,
)
from .vc_policy import HopContext, VcPolicy


class PathSupport(Enum):
    """Support level of a routing protocol for a given VC arrangement."""

    SAFE = "safe"
    OPPORTUNISTIC = "opport."
    UNSUPPORTED = "X"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class WalkResult(NamedTuple):
    """Outcome of a feasibility walk along a reference path."""

    feasible: bool
    #: VC index chosen (greedy lowest) at each hop up to the first infeasible one.
    chosen_vcs: tuple[int, ...]
    #: index of the first infeasible hop (or -1).
    failed_hop: int = -1


def walk_reference_path(
    policy: VcPolicy,
    minimal: HopSequence,
    routing: str,
    msg_class: MessageClass = MessageClass.REQUEST,
    worst_escape: Optional[HopSequence] = None,
    phase_ref: Optional[tuple[int, int]] = None,
) -> WalkResult:
    """Drive ``policy`` along the reference path of ``routing`` on a network
    with worst-case minimal path ``minimal`` (see :func:`reference_phases`)."""
    ref = reference_path_for(minimal, routing)
    input_type: Optional[LinkType] = None
    input_vc = -1
    chosen: list[int] = []
    for phase in reference_phases(minimal, routing, worst_escape, phase_ref):
        globals_taken = 0
        for position, (hop_type, escape) in enumerate(zip(phase.hops, phase.escapes)):
            admissible, _ = policy.evaluate(HopContext(
                msg_class=msg_class,
                out_type=hop_type,
                intended_remaining=ref[len(chosen):],
                escape_from_next=escape,
                input_type=input_type,
                input_vc=input_vc,
                phase_offsets=phase.offsets,
                phase_position=position,
                phase_global_taken=globals_taken,
            ))
            if admissible is None:
                return WalkResult(False, tuple(chosen), failed_hop=len(chosen))
            chosen.append(admissible.lo)
            input_type, input_vc = hop_type, admissible.lo
            globals_taken += hop_type == LinkType.GLOBAL
    return WalkResult(True, tuple(chosen))


def classify(
    arrangement: VcArrangement,
    minimal: HopSequence,
    routing: str,
    msg_class: MessageClass = MessageClass.REQUEST,
) -> PathSupport:
    """Classify one routing protocol / message class under FlexVC on a
    network with worst-case minimal path ``minimal``.

    A path is *safe*, in the paper's sense, when it fits the class's *own* VC
    sub-sequence — requests within the request VCs, replies within the reply
    VCs — which is exactly when the distance-based baseline can walk it.
    Replies that need to borrow request VCs are "opportunistic" even though
    they are trivially deadlock-free.
    """
    if walk_reference_path(
        DistanceBasedPolicy(arrangement), minimal, routing, msg_class
    ).feasible:
        return PathSupport.SAFE
    if walk_reference_path(FlexVcPolicy(arrangement), minimal, routing, msg_class).feasible:
        return PathSupport.OPPORTUNISTIC
    return PathSupport.UNSUPPORTED


def classify_request_reply(
    arrangement: VcArrangement,
    minimal: HopSequence,
    routing: str,
) -> tuple[PathSupport, PathSupport]:
    """(request, reply) classifications for a reactive arrangement."""
    return (
        classify(arrangement, minimal, routing, MessageClass.REQUEST),
        classify(arrangement, minimal, routing, MessageClass.REPLY),
    )


_WEAKEST_FIRST = (PathSupport.UNSUPPORTED, PathSupport.OPPORTUNISTIC, PathSupport.SAFE)


def combined_support(request: PathSupport, reply: PathSupport) -> PathSupport:
    """Overall support of a request-reply exchange (the weaker of the two)."""
    return min(request, reply, key=_WEAKEST_FIRST.index)


def _classify_exchange(
    arrangement: VcArrangement, minimal: HopSequence, routing: str
) -> PathSupport:
    return combined_support(*classify_request_reply(arrangement, minimal, routing))


# ---------------------------------------------------------------------------
# Tables I-IV
# ---------------------------------------------------------------------------

ROUTINGS = ("MIN", "VAL", "PAR")


class Table(NamedTuple):
    """One feasibility table of the paper: a network, the VC arrangement of
    each column (keyed as the paper prints it) and what a cell holds."""

    minimal: HopSequence
    columns: Dict[object, VcArrangement]
    cell: Callable[[VcArrangement, HopSequence, str], object]


_single = VcArrangement.single_class
_pair = VcArrangement.request_reply

TABLES: Dict[str, Table] = {
    # generic diameter-2 network vs number of VCs
    "Table I": Table(
        DIAMETER2_MIN, {vcs: _single(vcs, 0) for vcs in (2, 3, 4, 5)}, classify
    ),
    # the same with request+reply VCs, e.g. (3, 2) for the 3+2=5 configuration
    "Table II": Table(
        DIAMETER2_MIN,
        {(req, rep): _pair((req, 0), (rep, 0))
         for req, rep in ((2, 2), (3, 2), (3, 3), (4, 4), (5, 5))},
        _classify_exchange,
    ),
    # Dragonfly, single-class traffic, (local, global) VC counts
    "Table III": Table(
        DRAGONFLY_MIN,
        {lg: _single(*lg) for lg in ((2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (5, 2))},
        classify,
    ),
    # Dragonfly with request+reply traffic: each cell is the (request, reply)
    # pair, matching the paper's "X / opport." notation
    "Table IV": Table(
        DRAGONFLY_MIN,
        {(req, rep): _pair(req, rep)
         for req, rep in (((2, 1), (2, 1)), ((3, 2), (2, 1)),
                          ((4, 2), (4, 2)), ((5, 2), (5, 2)))},
        classify_request_reply,
    ),
}


def generate_table(name: str) -> Dict[str, Dict]:
    """``{routing: {column: cell}}`` of one :data:`TABLES` entry."""
    table = TABLES[name]
    return {
        routing: {
            key: table.cell(arrangement, table.minimal, routing)
            for key, arrangement in table.columns.items()
        }
        for routing in ROUTINGS
    }


def render_table(table: Dict, title: str) -> str:
    """Plain-text rendering of a generated table."""
    lines = [title]
    for routing, row in table.items():
        cells = []
        for key, value in row.items():
            if isinstance(value, tuple):
                rendered = " / ".join(str(v) for v in value)
            else:
                rendered = str(value)
            cells.append(f"{key}: {rendered}")
        lines.append(f"  {routing:4s} | " + " | ".join(cells))
    return "\n".join(lines)
