"""Topology interface shared by all low-diameter networks in this package."""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from ..core.link_types import HopSequence, LinkType, hop_counts


@dataclass(frozen=True)
class PortInfo:
    """Description of a router network port."""

    port: int
    neighbor: int
    link_type: LinkType


class Topology(ABC):
    """Abstract direct-network topology.

    A topology knows its routers, the nodes attached to each router, the
    router-to-router links (with their :class:`LinkType`), and how to compute
    minimal next hops and minimal hop-type sequences — everything routing
    algorithms and VC policies need.

    Router network ports are numbered ``0 .. radix-1`` per router; injection
    and ejection are handled by the router model, not by the topology.

    Beyond connectivity, a topology *declares* the routing-relevant shape the
    rest of the stack consumes generically (no implementation may special-case
    a topology by name or type):

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

    @property
    @abstractmethod
    def has_link_type_restrictions(self) -> bool:
        """True when links are typed and traversed in a fixed order (Dragonfly)."""

    # -- declared routing shape -------------------------------------------------
    @property
    @abstractmethod
    def canonical_minimal_sequence(self) -> HopSequence:
        """Worst-case minimal hop-type sequence between node-attached routers.

        E.g. ``(L, G, L)`` for a Dragonfly, ``(L, G)`` for a 2D Flattened
        Butterfly, ``(L,) * diameter`` for untyped networks.
        """

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

    # -- connectivity -----------------------------------------------------------
    @abstractmethod
    def ports(self, router: int) -> Sequence[PortInfo]:
        """All network ports of ``router``."""

    @abstractmethod
    def port_to(self, router: int, neighbor: int) -> Optional[int]:
        """Port of ``router`` directly connected to ``neighbor`` (None if not adjacent)."""

    @abstractmethod
    def link_type(self, router: int, port: int) -> LinkType:
        """Link type of network port ``port`` of ``router``."""

    @abstractmethod
    def neighbor(self, router: int, port: int) -> int:
        """Router at the far end of ``port``."""

    def neighbors(self, router: int) -> Iterator[int]:
        for info in self.ports(router):
            yield info.neighbor

    # -- groups (LOCAL-connected router sets) -------------------------------------
    def router_groups(self) -> List[List[int]]:
        """Routers partitioned into LOCAL-connected components, sorted by id.

        For a Dragonfly these are its groups, for a HyperX/Flattened
        Butterfly the dimension-0 rows, for a Megafly the leaf+spine groups.
        Subclasses may override with a closed form; the default computes the
        components by traversal (cached).
        """
        cached = self.__dict__.get("_router_groups")
        if cached is None:
            cached = self._compute_router_groups()
            self.__dict__["_router_groups"] = cached
        return cached

    def _compute_router_groups(self) -> List[List[int]]:
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

    # -- global-port indexing (saturation boards) ------------------------------------
    def _global_port_row(self, router: int) -> dict:
        """Cached ``port -> global-port index`` mapping of one router.

        Route-table construction asks :meth:`global_port_index` for every
        GLOBAL hop it propagates, so the per-call O(radix) rescan of
        ``ports(router)`` is paid once per router here and every later call
        is a dict lookup.  Closed-form topologies (Dragonfly, Megafly,
        HyperX) override the public methods and never touch this cache.
        """
        rows = self.__dict__.get("_global_port_rows")
        if rows is None:
            rows = self.__dict__["_global_port_rows"] = {}
        row = rows.get(router)
        if row is None:
            row = {}
            for info in self.ports(router):
                if info.link_type == LinkType.GLOBAL:
                    row[info.port] = len(row)
            rows[router] = row
        return row

    def num_global_ports(self, router: int) -> int:
        """Number of GLOBAL-typed network ports of ``router``."""
        return len(self._global_port_row(router))

    def global_port_index(self, router: int, port: int) -> int:
        """Index of GLOBAL port ``port`` among the router's global ports."""
        index = self._global_port_row(router).get(port)
        if index is None:
            # Out-of-range ports raise the topology's own link_type error,
            # matching the pre-cache behaviour.
            self.link_type(router, port)
            raise ValueError(f"port {port} of router {router} is not a global port")
        return index

    # -- routing helpers ---------------------------------------------------------
    @abstractmethod
    def min_next_port(self, src_router: int, dst_router: int) -> Optional[int]:
        """First port of a minimal path ``src_router -> dst_router``.

        Returns ``None`` when source and destination are the same router.
        For topologies with link-type restrictions the returned hop respects
        the canonical traversal order (e.g. l-g-l in a Dragonfly).
        """

    def min_next_ports_to(self, dst_router: int) -> Sequence[int]:
        """First minimal-hop port towards ``dst_router`` for *every* source.

        Returns a dense length-``num_routers`` integer sequence with ``-1``
        at ``dst_router`` itself (no hop needed).  This is the batch form of
        :meth:`min_next_port` that per-destination route-column construction
        consumes; the generic fallback calls :meth:`min_next_port` once per
        source, and closed-form topologies override it to derive the shared
        ingredients (gateway router, destination coordinates) once per
        column instead of once per pair.  Overrides must agree with
        :meth:`min_next_port` entry for entry (locked by tests).
        """
        self._check_router(dst_router)
        ports = array("i", [-1]) * self.num_routers
        min_next_port = self.min_next_port
        for src in range(self.num_routers):
            if src == dst_router:
                continue
            port = min_next_port(src, dst_router)
            ports[src] = -1 if port is None else port
        return ports

    def min_hop_sequence(self, src_router: int, dst_router: int) -> HopSequence:
        """Hop-type sequence of the minimal path ``src_router -> dst_router``.

        The default walks :meth:`min_next_port`; subclasses may override with
        a closed form.  (The hot path never calls either — it reads the
        precomputed :class:`~repro.routing.route_table.RouteTable`.)
        """
        return self._walk_min_sequence(src_router, dst_router)

    def _walk_min_sequence(self, src_router: int, dst_router: int) -> HopSequence:
        seq: list[LinkType] = []
        current = src_router
        limit = self.num_routers
        while current != dst_router:
            port = self.min_next_port(current, dst_router)
            if port is None or len(seq) > limit:
                raise RuntimeError(
                    f"minimal route {src_router}->{dst_router} does not converge"
                )
            seq.append(self.link_type(current, port))
            current = self.neighbor(current, port)
        return tuple(seq)

    def min_distance(self, src_router: int, dst_router: int) -> int:
        return len(self.min_hop_sequence(src_router, dst_router))

    # -- misc ----------------------------------------------------------------------
    def link_latency(self, link_type: LinkType, local: int, global_: int) -> int:
        """Latency of a link of ``link_type`` given per-type latencies."""
        return local if link_type == LinkType.LOCAL else global_

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
