"""Topology interface shared by all low-diameter networks in this package."""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from ..core.link_types import HopSequence, LinkType, hop_counts

#: :class:`LinkType` members indexed by their stored byte value (the enum
#: constructor is a Python-level ``__new__`` call; a tuple index is not).
LINK_TYPES = (LinkType.LOCAL, LinkType.GLOBAL)


@dataclass(frozen=True)
class PortInfo:
    """Description of a router network port."""

    port: int
    neighbor: int
    link_type: LinkType


@dataclass(frozen=True)
class Wiring:
    """Every link of a topology as flat per-``(router, port)`` arrays.

    Entry ``router * ports_per_router + port`` describes the directed link
    leaving ``router`` through ``port``: the router at its far end (-1 = no
    link), its :class:`LinkType` value, the neighbor's port facing back, and
    its index among the router's GLOBAL ports (-1 = not a GLOBAL port).
    :meth:`Topology.wiring` builds it once per instance from
    :meth:`Topology.ports`.
    """

    num_routers: int
    ports_per_router: int
    neighbor: array
    link_type: bytes
    back_port: array
    global_index: array

    @classmethod
    def of(cls, topology: "Topology") -> "Wiring":
        """Read ``topology.ports()`` once per router; raise ``ValueError``
        unless every link has a return link of the same type."""
        n = topology.num_routers
        rows = [
            [(info.port, info.neighbor, info.link_type) for info in topology.ports(router)]
            for router in range(n)
        ]
        per = max((port + 1 for row in rows for port, _, _ in row), default=0)
        neighbor = array("i", [-1]) * (n * per)
        link_type = bytearray(n * per)
        global_index = array("i", [-1]) * (n * per)
        for router, row in enumerate(rows):
            base = router * per
            count = 0
            for port, other, kind in row:
                neighbor[base + port] = other
                link_type[base + port] = kind
                if kind == LinkType.GLOBAL:
                    global_index[base + port] = count
                    count += 1
        # The ports between an ordered router pair are matched index by
        # index in ascending port order, which pairs parallel links
        # deterministically.
        back_port = array("i", [-1]) * (n * per)
        for router in range(n):
            base = router * per
            matched: Dict[int, int] = {}
            for port in range(per):
                other = neighbor[base + port]
                if other < 0:
                    continue
                other_base = other * per
                try:
                    back = neighbor.index(
                        router, other_base + matched.get(other, -1) + 1,
                        other_base + per,
                    ) - other_base
                except ValueError:
                    raise ValueError(
                        f"asymmetric topology: no return port from {other} "
                        f"to {router}"
                    ) from None
                if link_type[other_base + back] != link_type[base + port]:
                    raise ValueError(
                        f"asymmetric topology: link {router}:{port} and its "
                        f"return link {other}:{back} differ in type"
                    )
                matched[other] = back
                back_port[base + port] = back
        return cls(n, per, neighbor, bytes(link_type), back_port, global_index)

    def bfs(
        self,
        root: int,
        dead_links: AbstractSet[Tuple[int, int]] = frozenset(),
        dead_routers: AbstractSet[int] = frozenset(),
    ) -> Tuple[array, array]:
        """Breadth-first search towards ``root`` over the live links.

        Returns ``(dist, toward)``: every router's hop distance to ``root``
        (-1 = unreachable) and the port it leaves on along a shortest path
        there (-1 at ``root`` and at unreachable routers).  Routers in
        ``dead_routers`` are never entered, nor is a directed ``(router,
        port)`` link in ``dead_links`` taken.  Levels are expanded in order
        and each router's ports in ascending order, so ties always break
        the same way.
        """
        per = self.ports_per_router
        neighbor = self.neighbor
        back_port = self.back_port
        dist = array("i", [-1]) * self.num_routers
        toward = array("i", [-1]) * self.num_routers
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                base = u * per
                for q in range(per):
                    w = neighbor[base + q]
                    if w < 0 or dist[w] >= 0 or w in dead_routers:
                        continue
                    qw = back_port[base + q]
                    # w reaches u over its port qw.
                    if (w, qw) in dead_links:
                        continue
                    dist[w] = dist[u] + 1
                    toward[w] = qw
                    nxt.append(w)
            frontier = nxt
        return dist, toward


class Topology(ABC):
    """Abstract direct-network topology.

    A topology states what only it knows: its sizes, the network ports of
    each router (:meth:`ports`), its one minimal-routing rule
    (:meth:`min_next_ports_to`) and the routing shape below.  Everything
    else — neighbors, link types, back ports, global-port indices, groups —
    is derived from those by the base class (see :class:`Wiring`), and
    per-pair route questions are answered by
    :class:`~repro.routing.route_table.RouteTable`.

    Router network ports are numbered ``0 .. radix-1`` per router; injection
    and ejection are handled by the router model, not by the topology.

    The declared routing shape the rest of the stack consumes generically
    (no implementation may special-case a topology by name or type):

    * :attr:`canonical_minimal_sequence` — the worst-case minimal hop-type
      sequence between node-attached routers, from which reference paths and
      VC requirements for MIN/VAL/PAR are derived;
    * :attr:`worst_escape_sequence` — the worst-case minimal continuation
      from an *arbitrary* router (longer than the canonical sequence only
      when transit-only routers exist, e.g. Megafly spines);
    * :attr:`phase_ref` — the reference-slot window of one minimal segment,
      read by the routing layer and by config validation's reference walk;
    * :meth:`router_groups` — the sets of routers connected through LOCAL
      links, used for adversarial traffic and Piggyback saturation boards;
    * :meth:`valiant_routers` — the routers eligible as Valiant
      intermediates (``None`` = all routers).
    """

    # -- size ----------------------------------------------------------------
    @property
    @abstractmethod
    def num_routers(self) -> int:
        """Number of routers in the network."""

    @property
    @abstractmethod
    def nodes_per_router(self) -> int:
        """Compute nodes attached to each node-bearing router (``p``)."""

    @property
    def num_nodes(self) -> int:
        return self.num_routers * self.nodes_per_router

    @property
    @abstractmethod
    def radix(self) -> int:
        """Number of network (router-to-router) ports per router."""

    @property
    @abstractmethod
    def diameter(self) -> int:
        """Maximum minimal path length, in router-to-router hops."""

    # -- declared routing shape -------------------------------------------------
    @property
    @abstractmethod
    def canonical_minimal_sequence(self) -> HopSequence:
        """Worst-case minimal hop-type sequence between node-attached routers.

        E.g. ``(L, G, L)`` for a Dragonfly, ``(L, G)`` for a 2D Flattened
        Butterfly, ``(L,) * diameter`` for untyped networks.
        """

    @property
    def has_link_type_restrictions(self) -> bool:
        """True when minimal paths cross typed links in a fixed order."""
        return LinkType.GLOBAL in self.canonical_minimal_sequence

    @property
    def worst_escape_sequence(self) -> HopSequence:
        """Worst-case minimal continuation from an arbitrary router."""
        return self.canonical_minimal_sequence

    def max_min_hop_counts(self) -> tuple[int, int]:
        """Worst-case ``(local, global)`` hops of a minimal path."""
        return hop_counts(self.canonical_minimal_sequence)

    @property
    def phase_ref(self) -> tuple[int, int]:
        """``(local, global)`` reference slots one minimal segment occupies.

        The distance-based baseline advances a packet's slot offsets by this
        much between routing phases.  Untyped networks assign local slots by
        position within a phase and reserve at least two per phase, so a
        complete graph (diameter 1) needs 1/3/4 local VCs for MIN/VAL/PAR and
        a diameter-2 network the paper's 2/4/5.
        """
        if self.has_link_type_restrictions:
            return self.max_min_hop_counts()
        return (max(2, self.diameter), 0)

    def valiant_routers(self) -> Optional[Sequence[int]]:
        """Routers eligible as Valiant intermediates (``None`` = all)."""
        return None

    # -- node/router mapping ---------------------------------------------------
    def router_of_node(self, node: int) -> int:
        self._check_node(node)
        return node // self.nodes_per_router

    def nodes_of_router(self, router: int) -> Sequence[int]:
        self._check_router(router)
        p = self.nodes_per_router
        return range(router * p, (router + 1) * p)

    @property
    def has_uniform_node_mapping(self) -> bool:
        """True when every router carries ``nodes_per_router`` contiguous nodes."""
        return True

    # -- what a topology implements ------------------------------------------------
    @abstractmethod
    def ports(self, router: int) -> Sequence[PortInfo]:
        """All network ports of ``router``."""

    @abstractmethod
    def min_next_ports_to(self, dst_router: int) -> Sequence[int]:
        """First minimal-hop port towards ``dst_router`` for *every* source.

        Returns a dense length-``num_routers`` integer sequence with ``-1``
        at ``dst_router`` itself (no hop needed).  This is the topology's one
        minimal-routing rule: route columns are filled by following it, and
        for topologies with link-type restrictions it must respect the
        canonical traversal order (e.g. l-g-l in a Dragonfly).
        """

    # -- links (reads of the one Wiring) ----------------------------------------------
    def wiring(self) -> Wiring:
        """The links of :meth:`ports` as flat arrays (built on first use)."""
        wiring = self.__dict__.get("_wiring")
        if wiring is None:
            wiring = self.__dict__["_wiring"] = Wiring.of(self)
        return wiring

    def _slot(self, router: int, port: int) -> int:
        """Flat :class:`Wiring` index of the link at ``(router, port)``."""
        self._check_router(router)
        wiring = self.wiring()
        slot = router * wiring.ports_per_router + port
        if not 0 <= port < wiring.ports_per_router or wiring.neighbor[slot] < 0:
            raise ValueError(f"port {port} of router {router} has no link")
        return slot

    def neighbor(self, router: int, port: int) -> int:
        """Router at the far end of ``port``."""
        return self.wiring().neighbor[self._slot(router, port)]

    def link_type(self, router: int, port: int) -> LinkType:
        """Link type of network port ``port`` of ``router``."""
        return LINK_TYPES[self.wiring().link_type[self._slot(router, port)]]

    def back_port(self, router: int, port: int) -> int:
        """Port of :meth:`neighbor` whose link leads back to ``router``."""
        return self.wiring().back_port[self._slot(router, port)]

    def num_global_ports(self, router: int) -> int:
        """Number of wired GLOBAL ports of ``router``."""
        self._check_router(router)
        wiring = self.wiring()
        per = wiring.ports_per_router
        return max(wiring.global_index[router * per:(router + 1) * per], default=-1) + 1

    def global_port_index(self, router: int, port: int) -> int:
        """Index of GLOBAL port ``port`` among the router's global ports."""
        index = self.wiring().global_index[self._slot(router, port)]
        if index < 0:
            raise ValueError(f"port {port} of router {router} is not a global port")
        return index

    # -- groups (LOCAL-connected router sets) -------------------------------------
    def router_groups(self) -> List[List[int]]:
        """Routers partitioned into LOCAL-connected components, sorted by id.

        For a Dragonfly these are its groups, for a HyperX/Flattened
        Butterfly the dimension-0 rows, for a Megafly the leaf+spine groups.
        Computed once by traversal and cached.
        """
        cached = self.__dict__.get("_router_groups")
        if cached is not None:
            return cached
        seen = [False] * self.num_routers
        groups: List[List[int]] = []
        for start in range(self.num_routers):
            if seen[start]:
                continue
            component = [start]
            seen[start] = True
            frontier = [start]
            while frontier:
                current = frontier.pop()
                for info in self.ports(current):
                    if info.link_type == LinkType.LOCAL and not seen[info.neighbor]:
                        seen[info.neighbor] = True
                        component.append(info.neighbor)
                        frontier.append(info.neighbor)
            component.sort()
            groups.append(component)
        self.__dict__["_router_groups"] = groups
        return groups

    def group_slot(self, router: int) -> tuple[int, int]:
        """``(group_index, position_within_group)`` of ``router``."""
        slots = self.__dict__.get("_group_slots")
        if slots is None:
            slots = [(-1, -1)] * self.num_routers
            for gid, members in enumerate(self.router_groups()):
                for position, member in enumerate(members):
                    slots[member] = (gid, position)
            self.__dict__["_group_slots"] = slots
        return slots[router]

    # -- misc ----------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable summary of the configuration."""
        return (
            f"{type(self).__name__}: {self.num_routers} routers, "
            f"{self.num_nodes} nodes, radix {self.radix}"
        )

    # -- validation helpers ----------------------------------------------------------
    def _check_router(self, router: int) -> None:
        if not 0 <= router < self.num_routers:
            raise ValueError(f"router {router} out of range [0, {self.num_routers})")

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")
