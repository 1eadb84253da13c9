"""Core FlexVC machinery: VC arrangements, policies, selection and feasibility.

FlexVC-minCred (Section III-D) is not here: its split credit accounting is
one per-VC count of minimally-routed phits kept beside the credits it splits,
on :class:`repro.router.ports.OutputPort`.
"""

from .arrangement import VcArrangement
from .baseline import DistanceBasedPolicy
from .feasibility import (
    TABLES,
    PathSupport,
    classify,
    classify_request_reply,
    combined_support,
    generate_table,
    walk_reference_path,
)
from .flexvc import FlexVcPolicy, make_policy
from .link_types import (
    DIAMETER2_MIN,
    DRAGONFLY_MIN,
    HopSequence,
    LinkType,
    MessageClass,
    count_hops,
    hop_counts,
    reference_path_for,
    reference_phases,
    sequence_str,
)
from .vc_policy import HopContext, HopKind, VcPolicy, VcRange
from .vc_selection import (
    HighestVc,
    JoinShortestQueue,
    LowestVc,
    RandomVc,
    VcSelection,
    make_selection,
)

__all__ = [
    "VcArrangement",
    "DistanceBasedPolicy",
    "FlexVcPolicy",
    "make_policy",
    "PathSupport",
    "classify",
    "classify_request_reply",
    "combined_support",
    "walk_reference_path",
    "TABLES",
    "generate_table",
    "HopContext",
    "HopKind",
    "VcPolicy",
    "VcRange",
    "LinkType",
    "MessageClass",
    "HopSequence",
    "count_hops",
    "hop_counts",
    "reference_path_for",
    "reference_phases",
    "sequence_str",
    "DRAGONFLY_MIN",
    "DIAMETER2_MIN",
    "VcSelection",
    "JoinShortestQueue",
    "HighestVc",
    "LowestVc",
    "RandomVc",
    "make_selection",
]
