"""Low-diameter topologies behind a pluggable registry.

Importing this package registers the built-in topologies (Dragonfly,
Flattened Butterfly, HyperX, Megafly) with :data:`TOPOLOGIES`; third-party
code adds its own with :func:`register_topology`.
"""

from .base import PortInfo, Topology, Wiring
from .dragonfly import Dragonfly, DragonflyParams
from .flattened_butterfly import FlattenedButterfly2D, FlattenedButterflyParams
from .graph_utils import (
    bfs_distances,
    degree_histogram,
    is_connected,
    measured_diameter,
    verify_bidirectional,
)
from .hyperx import HyperX, HyperXParams
from .megafly import Megafly, MegaflyParams
from .registry import TOPOLOGIES, TopologyRegistry, TopologySpec, register_topology

__all__ = [
    "Topology",
    "PortInfo",
    "Wiring",
    "Dragonfly",
    "DragonflyParams",
    "FlattenedButterfly2D",
    "FlattenedButterflyParams",
    "HyperX",
    "HyperXParams",
    "Megafly",
    "MegaflyParams",
    "TOPOLOGIES",
    "TopologyRegistry",
    "TopologySpec",
    "register_topology",
    "bfs_distances",
    "degree_histogram",
    "is_connected",
    "measured_diameter",
    "verify_bidirectional",
]
