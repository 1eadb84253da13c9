"""Megafly / Dragonfly+ topology (Flajslik et al.; Shpiner et al.).

Groups are two-level fat trees: ``leaves`` leaf routers (each attaching ``p``
compute nodes) are completely bipartitely connected to ``spines`` spine
routers through *local* links; each spine additionally drives ``h`` *global*
links.  Groups are connected pairwise through the spines' global links using
the same consecutive (palmtree) channel arrangement as the Dragonfly: global
channel ``m = spine_position*h + k`` of group ``i`` connects to group
``(i + m + 1) mod g``, giving ``g = spines*h + 1`` groups when fully
populated.

Minimal paths between compute nodes are at most leaf-spine-global-spine-leaf,
i.e. an l-g-l hop-type shape identical to the Dragonfly (intra-group traffic
takes leaf-spine-leaf, two local hops), so the same VC arrangements apply.
Spine routers attach no nodes; they are transit-only, which is why the
worst-case *escape* path (from a spine that does not own the required global
channel) is one local hop longer than the canonical minimal sequence, and why
Valiant intermediates are restricted to leaf routers.

Router ids place each group's leaves first, then its spines:
``group * (leaves + spines) + position``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.link_types import G, HopSequence, L, LinkType
from .base import PortInfo, Topology
from .registry import register_topology


class Megafly(Topology):
    """Two-level fat-tree groups with Dragonfly-style global connectivity.

    Parameters
    ----------
    spines, leaves:
        Routers per group level.  Leaves carry the compute nodes; spines own
        the global links.
    h:
        Global links per spine router.
    p:
        Compute nodes per leaf router.
    num_groups:
        Optional override of the fully-populated default ``spines*h + 1``.
    """

    def __init__(
        self,
        spines: int,
        leaves: int,
        h: int,
        p: int,
        num_groups: Optional[int] = None,
    ) -> None:
        if spines < 1 or leaves < 1:
            raise ValueError("spines and leaves must be >= 1")
        if h < 1:
            raise ValueError("h must be >= 1")
        if p < 1:
            raise ValueError("p must be >= 1")
        self.spines = spines
        self.leaves = leaves
        self.h = h
        self.p = p
        max_groups = spines * h + 1
        self.num_groups = num_groups if num_groups is not None else max_groups
        if not 2 <= self.num_groups <= max_groups:
            raise ValueError(
                f"num_groups must be in [2, {max_groups}] for spines={spines}, "
                f"h={h}; got {self.num_groups}"
            )
        self._group_size = leaves + spines
        self._nodes_per_group = leaves * p
        #: ``_spine_rows[s]``: every group position's next port towards
        #: spine ``s`` of its group (leaves ascend, spines descend to leaf
        #: ``(spine + s) % leaves``); the caller overwrites spine ``s``'s
        #: own entry (its global port, or -1 when it is the destination).
        self._spine_rows = [
            array("i", [s]) * leaves
            + array("i", [(spine + s) % leaves for spine in range(spines)])
            for s in range(spines)
        ]

    # -- size ------------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self.num_groups * self._group_size

    @property
    def nodes_per_router(self) -> int:
        return self.p

    @property
    def num_nodes(self) -> int:
        return self.num_groups * self._nodes_per_group

    @property
    def radix(self) -> int:
        # Leaves use `spines` ports, spines use `leaves + h`; the router
        # model sizes ports per router from ports(), so report the maximum.
        return max(self.spines, self.leaves + self.h)

    @property
    def diameter(self) -> int:
        # Worst *routed* minimal path: spine -> leaf -> gateway spine ->
        # global -> entry spine -> leaf -> destination spine.  Between
        # compute-node routers (leaves) the diameter is 3.
        return 5

    @property
    def canonical_minimal_sequence(self) -> HopSequence:
        # leaf - spine - global - spine - leaf; the intra-group leaf-spine-leaf
        # path is covered by the same (2 local, 1 global) envelope.
        return (L, G, L)

    @property
    def worst_escape_sequence(self) -> HopSequence:
        # From a spine that does not own the required global channel:
        # spine -> leaf -> gateway spine -> global -> entry spine(-> leaf).
        return (L, L, G, L)

    def valiant_routers(self) -> Sequence[int]:
        """Only leaf routers serve as Valiant intermediates (spines carry no
        nodes and would add up to two extra local hops per segment)."""
        cached = self.__dict__.get("_valiant_routers")
        if cached is None:
            cached = [
                group * self._group_size + leaf
                for group in range(self.num_groups)
                for leaf in range(self.leaves)
            ]
            self.__dict__["_valiant_routers"] = cached
        return cached

    # -- coordinates ------------------------------------------------------------
    def group_of(self, router: int) -> int:
        self._check_router(router)
        return router // self._group_size

    def is_spine(self, router: int) -> bool:
        self._check_router(router)
        return router % self._group_size >= self.leaves

    # -- node mapping -------------------------------------------------------------
    @property
    def has_uniform_node_mapping(self) -> bool:
        return False

    def router_of_node(self, node: int) -> int:
        self._check_node(node)
        group, within = divmod(node, self._nodes_per_group)
        return group * self._group_size + within // self.p

    def nodes_of_router(self, router: int) -> Sequence[int]:
        self._check_router(router)
        group = router // self._group_size
        position = router % self._group_size
        if position >= self.leaves:
            return range(0)  # spines attach no nodes
        first = group * self._nodes_per_group + position * self.p
        return range(first, first + self.p)

    # -- ports --------------------------------------------------------------------
    # Leaf ports:  [0, spines)            LOCAL up-links, one per spine.
    # Spine ports: [0, leaves)            LOCAL down-links, one per leaf;
    #              [leaves, leaves + h)   GLOBAL links.
    def gateway_spine(self, src_group: int, dst_group: int) -> Tuple[int, int]:
        """(router, global_port_index) in ``src_group`` owning the link to
        ``dst_group`` (every pair of groups is directly connected)."""
        channel = (dst_group - src_group) % self.num_groups - 1
        return (src_group * self._group_size + self.leaves + channel // self.h,
                channel % self.h)

    def global_peer(self, router: int, global_port: int) -> Optional[int]:
        """Spine at the far end of a global port (None when unpopulated)."""
        group, position = divmod(router, self._group_size)
        channel = (position - self.leaves) * self.h + global_port
        if channel + 1 >= self.num_groups:
            return None  # peer group does not exist (partially populated)
        dst_group = (group + channel + 1) % self.num_groups
        peer_channel = (group - dst_group) % self.num_groups - 1
        return dst_group * self._group_size + self.leaves + peer_channel // self.h

    def ports(self, router: int) -> Sequence[PortInfo]:
        self._check_router(router)
        base = router - router % self._group_size
        if not self.is_spine(router):
            return [
                PortInfo(port=spine, neighbor=base + self.leaves + spine,
                         link_type=LinkType.LOCAL)
                for spine in range(self.spines)
            ]
        infos = [
            PortInfo(port=leaf, neighbor=base + leaf, link_type=LinkType.LOCAL)
            for leaf in range(self.leaves)
        ]
        for k in range(self.h):
            peer = self.global_peer(router, k)
            if peer is not None:
                infos.append(
                    PortInfo(port=self.leaves + k, neighbor=peer,
                             link_type=LinkType.GLOBAL)
                )
        return infos

    # -- minimal routing ------------------------------------------------------------
    def min_next_ports_to(self, dst_router: int) -> Sequence[int]:
        """Minimal routing through the fat-tree groups.

        Towards another group a leaf ascends straight to the gateway spine
        and a non-gateway spine descends to a deterministic leaf; inside the
        destination group adjacent levels hop directly and same-level
        routers transit a deterministic router of the other level.  The
        deterministic choice spreads transit as ``(src + dst) % count`` over
        the two routers' positions within their level.  The gateway spine
        is derived once per *group*, and each group is one slice of the
        precomputed row towards it.
        """
        self._check_router(dst_router)
        gs = self._group_size
        leaves, spines = self.leaves, self.spines
        rows = self._spine_rows
        ports = array("i", [-1]) * self.num_routers
        dst_group, dst_pos = divmod(dst_router, gs)
        for group in range(self.num_groups):
            if group != dst_group:
                base = group * gs
                gateway, gport = self.gateway_spine(group, dst_group)
                ports[base:base + gs] = rows[gateway - base - leaves]
                ports[gateway] = leaves + gport
        base = dst_group * gs
        if dst_pos >= leaves:
            ports[base:base + gs] = rows[dst_pos - leaves]
        else:
            for leaf in range(leaves):
                ports[base + leaf] = (leaf + dst_pos) % spines
            ports[base + leaves:base + gs] = array("i", [dst_pos]) * spines
        ports[dst_router] = -1
        return ports

    # -- misc -------------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"Megafly(spines={self.spines}, leaves={self.leaves}, h={self.h}, "
            f"p={self.p}, groups={self.num_groups}): {self.num_routers} routers, "
            f"{self.num_nodes} nodes"
        )


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MegaflyParams:
    """Megafly / Dragonfly+ parameters."""

    spines: int = 2
    leaves: int = 2
    h: int = 2
    nodes_per_router: int = 2
    num_groups: Optional[int] = None


@register_topology(
    "megafly",
    MegaflyParams,
    description="Megafly / Dragonfly+: two-level fat-tree groups, spine-owned "
                "global links in a palmtree arrangement",
    aliases=("dragonfly+", "dragonflyplus"),
)
def _build_megafly(params: MegaflyParams) -> Megafly:
    return Megafly(
        spines=params.spines,
        leaves=params.leaves,
        h=params.h,
        p=params.nodes_per_router,
        num_groups=params.num_groups,
    )
