"""Canonical balanced Dragonfly topology (Kim et al., ISCA 2008).

The Dragonfly arranges routers into groups.  Inside a group the ``a`` routers
form a complete graph over *local* links; groups are connected pairwise by a
single *global* link (for the canonical maximum-size configuration with
``g = a*h + 1`` groups).  Each router provides ``p`` injection ports,
``a - 1`` local ports and ``h`` global ports.

The paper's evaluation uses the balanced configuration ``a = 2h``, ``p = h``
with ``h = 8`` (2,064 routers / 16,512 nodes).  This implementation supports
any ``h >= 1`` so that experiments can run at laptop scale (see DESIGN.md for
the scaling substitution).

Global link arrangement
-----------------------
We use the *consecutive* (a.k.a. palmtree) arrangement: global channel
``m = r*h + k`` of group ``i`` (router position ``r``, global port ``k``)
connects to group ``(i + m + 1) mod g``.  The inverse channel in the remote
group is ``g - 2 - m``, which makes the assignment a bijection between the
``a*h`` channels of each group and the ``g - 1`` other groups.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.link_types import G, HopSequence, L, LinkType
from .base import PortInfo, Topology
from .registry import register_topology


class Dragonfly(Topology):
    """Balanced, fully-populated Dragonfly.

    Parameters
    ----------
    h:
        Number of global links per router.  The balanced configuration sets
        ``p = h`` terminals per router and ``a = 2h`` routers per group.
    p, a, num_groups:
        Optional overrides of the balanced defaults.  ``num_groups`` may be at
        most ``a*h + 1`` (the canonical maximum); smaller values build a
        partially-populated global topology which is still connected provided
        ``num_groups >= 2``.
    """

    def __init__(
        self,
        h: int,
        p: Optional[int] = None,
        a: Optional[int] = None,
        num_groups: Optional[int] = None,
    ) -> None:
        if h < 1:
            raise ValueError(f"h must be >= 1, got {h}")
        self.h = h
        self.p = p if p is not None else h
        self.a = a if a is not None else 2 * h
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.a < 2:
            raise ValueError("a must be >= 2 (need local links inside a group)")
        max_groups = self.a * self.h + 1
        self.num_groups = num_groups if num_groups is not None else max_groups
        if not 2 <= self.num_groups <= max_groups:
            raise ValueError(
                f"num_groups must be in [2, {max_groups}] for a={self.a}, h={self.h}; "
                f"got {self.num_groups}"
            )
        self._local_ports = self.a - 1
        self._radix = self._local_ports + self.h

    # -- size ------------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self.num_groups * self.a

    @property
    def nodes_per_router(self) -> int:
        return self.p

    @property
    def radix(self) -> int:
        return self._radix

    @property
    def diameter(self) -> int:
        return 3

    @property
    def has_link_type_restrictions(self) -> bool:
        return True

    @property
    def canonical_minimal_sequence(self) -> HopSequence:
        # l-g-l: at most one local hop on each side of the single global hop.
        return (L, G, L)

    @property
    def num_local_ports(self) -> int:
        return self._local_ports

    # -- coordinates ------------------------------------------------------------
    def group_of(self, router: int) -> int:
        self._check_router(router)
        return router // self.a

    def position_in_group(self, router: int) -> int:
        self._check_router(router)
        return router % self.a

    def router_id(self, group: int, position: int) -> int:
        if not 0 <= group < self.num_groups:
            raise ValueError(f"group {group} out of range")
        if not 0 <= position < self.a:
            raise ValueError(f"position {position} out of range")
        return group * self.a + position

    # -- port layout --------------------------------------------------------------
    # ports [0, a-2]          : local ports
    # ports [a-1, a-1+h-1]    : global ports
    def is_global_port(self, port: int) -> bool:
        return port >= self._local_ports

    def link_type(self, router: int, port: int) -> LinkType:
        self._check_port(port)
        return LinkType.GLOBAL if self.is_global_port(port) else LinkType.LOCAL

    def local_port_to(self, router: int, other_position: int) -> int:
        """Local port of ``router`` connected to position ``other_position`` of its group."""
        pos = self.position_in_group(router)
        if other_position == pos:
            raise ValueError("a router has no local port to itself")
        if not 0 <= other_position < self.a:
            raise ValueError(f"position {other_position} out of range")
        return other_position if other_position < pos else other_position - 1

    def _local_port_target(self, router: int, port: int) -> int:
        """Position in the group reached through local ``port`` of ``router``."""
        pos = self.position_in_group(router)
        return port if port < pos else port + 1

    # -- global channel arithmetic ---------------------------------------------------
    def global_channel(self, router: int, global_port: int) -> int:
        """Group-level global channel index of ``global_port`` of ``router``."""
        if not 0 <= global_port < self.h:
            raise ValueError(f"global port {global_port} out of range [0, {self.h})")
        return self.position_in_group(router) * self.h + global_port

    def global_channel_to_group(self, src_group: int, dst_group: int) -> Optional[int]:
        """Global channel of ``src_group`` that reaches ``dst_group`` directly.

        Returns ``None`` when the channel that would connect them is not
        populated (only possible for ``num_groups < a*h + 1``).
        """
        if src_group == dst_group:
            raise ValueError("groups are identical")
        offset = (dst_group - src_group) % self.num_groups
        channel = offset - 1
        if channel >= self.a * self.h:
            return None
        # The channel exists in the builder only when its peer group exists,
        # which is always true because offset < num_groups.
        return channel

    def channel_owner(self, channel: int) -> tuple[int, int]:
        """(position, global_port) owning group-level ``channel``."""
        if not 0 <= channel < self.a * self.h:
            raise ValueError(f"channel {channel} out of range")
        return channel // self.h, channel % self.h

    def global_peer(self, router: int, global_port: int) -> Optional[int]:
        """Router at the far end of a global port (None when unpopulated)."""
        group = self.group_of(router)
        channel = self.global_channel(router, global_port)
        dst_group = (group + channel + 1) % self.num_groups
        if channel + 1 >= self.num_groups:
            # Peer group does not exist in a partially-populated network.
            return None
        peer_channel = self._peer_channel(channel, dst_group, group)
        if peer_channel is None:
            return None
        peer_pos, _ = self.channel_owner(peer_channel)
        return self.router_id(dst_group, peer_pos)

    def _peer_channel(self, channel: int, dst_group: int, src_group: int) -> Optional[int]:
        offset_back = (src_group - dst_group) % self.num_groups
        peer_channel = offset_back - 1
        if peer_channel >= self.a * self.h:
            return None
        return peer_channel

    # -- Topology interface ------------------------------------------------------------
    def ports(self, router: int) -> Sequence[PortInfo]:
        self._check_router(router)
        infos: list[PortInfo] = []
        group = self.group_of(router)
        for port in range(self._local_ports):
            target_pos = self._local_port_target(router, port)
            infos.append(
                PortInfo(port=port, neighbor=self.router_id(group, target_pos),
                         link_type=LinkType.LOCAL)
            )
        for k in range(self.h):
            peer = self.global_peer(router, k)
            if peer is not None:
                infos.append(
                    PortInfo(port=self._local_ports + k, neighbor=peer,
                             link_type=LinkType.GLOBAL)
                )
        return infos

    def neighbor(self, router: int, port: int) -> int:
        self._check_router(router)
        self._check_port(port)
        group = self.group_of(router)
        if port < self._local_ports:
            return self.router_id(group, self._local_port_target(router, port))
        peer = self.global_peer(router, port - self._local_ports)
        if peer is None:
            raise ValueError(f"global port {port} of router {router} is unpopulated")
        return peer

    def port_to(self, router: int, neighbor: int) -> Optional[int]:
        self._check_router(router)
        self._check_router(neighbor)
        if router == neighbor:
            return None
        g_r, g_n = self.group_of(router), self.group_of(neighbor)
        if g_r == g_n:
            return self.local_port_to(router, self.position_in_group(neighbor))
        channel = self.global_channel_to_group(g_r, g_n)
        if channel is None:
            return None
        pos, gport = self.channel_owner(channel)
        if pos != self.position_in_group(router):
            return None
        if self.global_peer(router, gport) != neighbor:
            return None
        return self._local_ports + gport

    # -- minimal routing ------------------------------------------------------------
    def gateway_router(self, src_group: int, dst_group: int) -> tuple[int, int]:
        """(router, global_port) in ``src_group`` owning the link to ``dst_group``."""
        channel = self.global_channel_to_group(src_group, dst_group)
        if channel is None:
            raise ValueError(
                f"groups {src_group} and {dst_group} are not directly connected "
                "(partially-populated Dragonfly)"
            )
        pos, gport = self.channel_owner(channel)
        return self.router_id(src_group, pos), gport

    def entry_router(self, src_group: int, dst_group: int) -> int:
        """Router of ``dst_group`` where minimal traffic from ``src_group`` lands."""
        gw, gport = self.gateway_router(src_group, dst_group)
        peer = self.global_peer(gw, gport)
        assert peer is not None
        return peer

    def min_next_port(self, src_router: int, dst_router: int) -> Optional[int]:
        self._check_router(src_router)
        self._check_router(dst_router)
        if src_router == dst_router:
            return None
        sg, dg = self.group_of(src_router), self.group_of(dst_router)
        if sg == dg:
            return self.local_port_to(src_router, self.position_in_group(dst_router))
        gw, gport = self.gateway_router(sg, dg)
        if gw == src_router:
            return self._local_ports + gport
        return self.local_port_to(src_router, self.position_in_group(gw))

    def min_next_ports_to(self, dst_router: int) -> Sequence[int]:
        """Closed-form batch of :meth:`min_next_port` for one destination.

        Derives the destination's gateway router once per *group* (instead
        of once per source router), then fills each group's sources with
        pure local-port arithmetic — O(n) cheap integer work per column.
        """
        self._check_router(dst_router)
        a = self.a
        ports = array("i", [-1]) * self.num_routers
        dst_group, dst_pos = divmod(dst_router, a)
        local_ports = self._local_ports
        for group in range(self.num_groups):
            base = group * a
            if group == dst_group:
                # local_port_to(src, dst_pos) for every other position.
                for pos in range(a):
                    if pos != dst_pos:
                        ports[base + pos] = (
                            dst_pos if dst_pos < pos else dst_pos - 1
                        )
                continue
            gateway, gport = self.gateway_router(group, dst_group)
            gw_pos = gateway - base
            for pos in range(a):
                ports[base + pos] = (
                    gw_pos if gw_pos < pos else gw_pos - 1
                )
            ports[gateway] = local_ports + gport
        return ports

    def min_hop_sequence(self, src_router: int, dst_router: int) -> HopSequence:
        self._check_router(src_router)
        self._check_router(dst_router)
        if src_router == dst_router:
            return ()
        sg, dg = self.group_of(src_router), self.group_of(dst_router)
        if sg == dg:
            return (LinkType.LOCAL,)
        gw, _ = self.gateway_router(sg, dg)
        entry = self.entry_router(sg, dg)
        seq: list[LinkType] = []
        if gw != src_router:
            seq.append(LinkType.LOCAL)
        seq.append(LinkType.GLOBAL)
        if entry != dst_router:
            seq.append(LinkType.LOCAL)
        return tuple(seq)

    # -- groups / saturation ------------------------------------------------------------
    def _compute_router_groups(self) -> List[List[int]]:
        return [
            list(range(group * self.a, (group + 1) * self.a))
            for group in range(self.num_groups)
        ]

    def num_global_ports(self, router: int) -> int:
        return self.h

    def global_port_index(self, router: int, port: int) -> int:
        if not self.is_global_port(port):
            raise ValueError(f"port {port} of router {router} is not a global port")
        return port - self._local_ports

    # -- misc -------------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable summary of the configuration."""
        return (
            f"Dragonfly(h={self.h}, p={self.p}, a={self.a}, groups={self.num_groups}): "
            f"{self.num_routers} routers, {self.num_nodes} nodes, radix {self.radix}"
        )

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.radix:
            raise ValueError(f"port {port} out of range [0, {self.radix})")


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DragonflyParams:
    """Parameters of the balanced Dragonfly (Table V uses ``h=8``)."""

    h: int = 2
    p: Optional[int] = None
    a: Optional[int] = None
    num_groups: Optional[int] = None

    def validate(self) -> None:
        if self.h < 1:
            raise ValueError("Dragonfly h must be >= 1")
        if self.p is not None and self.p < 1:
            raise ValueError("Dragonfly p must be >= 1")
        if self.a is not None and self.a < 2:
            raise ValueError("Dragonfly a must be >= 2")


@register_topology(
    "dragonfly",
    DragonflyParams,
    description="balanced Dragonfly (Kim et al.): groups of a routers, "
                "all-to-all local and group-level global links",
)
def _build_dragonfly(params: DragonflyParams) -> Dragonfly:
    return Dragonfly(h=params.h, p=params.p, a=params.a, num_groups=params.num_groups)
