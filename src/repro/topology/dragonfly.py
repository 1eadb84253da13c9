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
from typing import Optional, Sequence

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
        #: ``_local_rows[p][pos]``: the local port from position ``pos`` to
        #: position ``p`` of the same group (-1 at ``p`` itself).
        self._local_rows = [
            array("i", [p - 1]) * p + array("i", [-1])
            + array("i", [p]) * (self.a - 1 - p)
            for p in range(self.a)
        ]

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
    def canonical_minimal_sequence(self) -> HopSequence:
        # l-g-l: at most one local hop on each side of the single global hop.
        return (L, G, L)

    def group_of(self, router: int) -> int:
        self._check_router(router)
        return router // self.a

    # -- ports --------------------------------------------------------------------
    # ports [0, a-2]          : local ports, ordered by target position
    # ports [a-1, a-1+h-1]    : global ports
    def global_peer(self, router: int, global_port: int) -> Optional[int]:
        """Router at the far end of a global port (None when unpopulated)."""
        group, position = divmod(router, self.a)
        channel = position * self.h + global_port
        if channel + 1 >= self.num_groups:
            # Peer group does not exist in a partially-populated network.
            return None
        dst_group = (group + channel + 1) % self.num_groups
        peer_channel = (group - dst_group) % self.num_groups - 1
        return dst_group * self.a + peer_channel // self.h

    def ports(self, router: int) -> Sequence[PortInfo]:
        self._check_router(router)
        position = router % self.a
        base = router - position
        infos = [
            PortInfo(port=port, neighbor=base + (port if port < position else port + 1),
                     link_type=LinkType.LOCAL)
            for port in range(self._local_ports)
        ]
        for k in range(self.h):
            peer = self.global_peer(router, k)
            if peer is not None:
                infos.append(
                    PortInfo(port=self._local_ports + k, neighbor=peer,
                             link_type=LinkType.GLOBAL)
                )
        return infos

    # -- minimal routing ------------------------------------------------------------
    def gateway_router(self, src_group: int, dst_group: int) -> tuple[int, int]:
        """(router, global_port) in ``src_group`` owning the link to ``dst_group``.

        Every pair of groups is directly connected: a group has ``a*h``
        channels and at most ``a*h`` other groups.
        """
        channel = (dst_group - src_group) % self.num_groups - 1
        return src_group * self.a + channel // self.h, channel % self.h

    def min_next_ports_to(self, dst_router: int) -> Sequence[int]:
        """l-g-l minimal routing: local hop to the destination group's
        gateway router, its global port, local hop to the destination.

        The gateway is derived once per *group*, and each group's sources
        are one slice of the precomputed local-port row towards it.
        """
        self._check_router(dst_router)
        a = self.a
        rows = self._local_rows
        ports = array("i", [-1]) * self.num_routers
        dst_group, dst_pos = divmod(dst_router, a)
        local_ports = self._local_ports
        for group in range(self.num_groups):
            base = group * a
            if group == dst_group:
                ports[base:base + a] = rows[dst_pos]
                continue
            gateway, gport = self.gateway_router(group, dst_group)
            ports[base:base + a] = rows[gateway - base]
            ports[gateway] = local_ports + gport
        return ports

    # -- misc -------------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable summary of the configuration."""
        return (
            f"Dragonfly(h={self.h}, p={self.p}, a={self.a}, groups={self.num_groups}): "
            f"{self.num_routers} routers, {self.num_nodes} nodes, radix {self.radix}"
        )


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


@register_topology(
    "dragonfly",
    DragonflyParams,
    description="balanced Dragonfly (Kim et al.): groups of a routers, "
                "all-to-all local and group-level global links",
)
def _build_dragonfly(params: DragonflyParams) -> Dragonfly:
    return Dragonfly(h=params.h, p=params.p, a=params.a, num_groups=params.num_groups)
