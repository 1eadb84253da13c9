"""Precomputed minimal-route table: per-destination columns built on demand.

Routing algorithms ask two questions on every forwarding decision: *which
port starts the minimal path to router X*, and *what hop-type sequence
remains from router Y* (whose length is the distance).  Both are pure
functions of ``(src, dst)`` on a static topology.

The construction is naturally *per destination column*: one call of the
topology's :meth:`~repro.topology.base.Topology.min_next_ports_to` gives
every source's next port towards ``dst``.  :class:`RouteTable` builds a
column (:class:`RouteColumn`) the first time its destination is touched —
the ports and an all-unresolved seq-id row, nothing walked — and keeps it in
a plain ``dst``-indexed list, so a hit is one index and a ``None`` test.  A
source's hop sequence is resolved the first time a caller reads it, by a
suffix-merge walk over the :class:`~repro.topology.base.Wiring` that stops
at the first already-resolved router, so a column's hop sequences cost what
the run reads of them, not O(n).  A column stays resident until a fault
drops it (:meth:`RouteTable.set_fault_state`); columns are lean (~2 bytes
per source: one-byte ports plus interned seq ids), so once every
destination is touched the route state is 2n² bytes — 148 MiB at 8,814
routers (see DESIGN.md §9).

Hop sequences are interned: the ``seq_ids`` bytes index into the (small,
≤255-entry) table of distinct hop-type sequences, so lookups return shared
tuples; a sentinel id marks a source nobody has read yet, and ids are
assigned in the order pairs are first read.  Any other question about a
path (which global link it crosses first, say) is a walk of the column's
ports over the :class:`~repro.topology.base.Wiring`.

Under faults (:mod:`repro.faults`) a column is a pure function of
``(topology, dst, current dead set)``: the BFS detour fill iff its pristine
ports cross a currently-dead directed link, the pristine fill otherwise —
never a function of when the column happened to be built, dropped or read.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.link_types import HopSequence
from ..faults import NetworkPartitionedError
from ..topology.base import LINK_TYPES, Topology

#: sentinel sequence id of a pair whose hop sequence nobody has read yet.
_UNRESOLVED = 0xFF

class RouteColumn:
    """One destination's route answers: ``src``-indexed compact arrays.

    The unit of construction and the view handed to routing algorithms:
    every query is a single flat index into an n-sized array.  ``seq_ids``
    starts all unresolved but at ``dst``; :meth:`hop_sequence` and
    :meth:`distance` resolve a source on its first read (and every router
    its path passes), checking that the route converges before any packet
    can take it.  ``sequences`` references the owning table's *live*
    interning list — sequence ids are stable for the table's lifetime, so
    views stay valid as the list grows.

    Storage is deliberately lean — at system scale the full column set is
    resident:

    * ``ports`` is one byte per source (sentinel 255 = no port) whenever the
      topology's radix allows it, falling back to ``array('i')`` (-1) above
      254 ports per router;
    * ``seq_ids`` is one byte per source.
    """

    __slots__ = ("dst", "ports", "seq_ids", "sequences", "_no_port", "_table")

    def __init__(self, dst: int, ports: Sequence[int], seq_ids: bytearray,
                 no_port: int, table: "RouteTable") -> None:
        self.dst = dst
        self.ports = ports
        self.seq_ids = seq_ids
        self._no_port = no_port
        self.sequences = table._sequence_list
        self._table = table

    def next_port(self, src: int) -> Optional[int]:
        port = self.ports[src]
        return None if port == self._no_port else port

    def seq_id(self, src: int) -> int:
        """Interned id of ``src``'s hop sequence, resolved on first read."""
        seq_id = self.seq_ids[src]
        if seq_id == _UNRESOLVED:
            seq_id = self._table._resolve(self, src)
        return seq_id

    def hop_sequence(self, src: int) -> HopSequence:
        return self.sequences[self.seq_id(src)]

    def distance(self, src: int) -> int:
        return len(self.hop_sequence(src))

    def nbytes(self) -> int:
        """Approximate payload bytes of this column's arrays."""
        ports = self.ports
        ports_bytes = (ports.itemsize * len(ports)
                       if isinstance(ports, array) else len(ports))
        return ports_bytes + len(self.seq_ids)


class RouteTable:
    """Minimal next-hop ports and hop-type sequences, one column per ``dst``.

    A missing column is built on first touch from the topology's next
    ports, its hop sequences resolved per source on first read, and kept
    in a ``dst``-indexed list until :meth:`set_fault_state` drops it.
    Rebuilding is deterministic — the sequence-interning state persists
    across drops, so a rebuilt column resolves every source to the id its
    first build did.  Memory is O(n) per touched destination.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        n = topology.num_routers
        self._n = n
        #: interned distinct hop-type sequences; ids are assigned in the
        #: order pairs are first read and never reused, so they survive
        #: dropped columns.
        self._sequence_list: List[HopSequence] = [()]
        self._seq_index: Dict[HopSequence, int] = {(): 0}
        #: prepend memo: ``(link type << 8) | tail sequence id -> sequence
        #: id`` of ``(link_type,) + sequences[tail_id]``.  The pair uniquely
        #: determines the tuple (and vice versa), so consulting the memo
        #: assigns exactly the ids — in exactly the discovery order — that
        #: interning the full tuples would, without building a tuple or
        #: hashing it on the (hot) already-seen path.
        self._seq_step: Dict[int, int] = {}
        self._wiring = topology.wiring()

        # -- resident columns ----------------------------------------------
        #: ``dst``-indexed resident columns (None = not built).  Mutated in
        #: place only, so a reader may keep a reference to the list.
        self.columns: List[Optional[RouteColumn]] = [None] * n
        #: the ``ports`` sentinel of a source with no port (see RouteColumn).
        self.no_port = 0xFF if self._wiring.ports_per_router < 255 else -1
        self.hits = 0
        self.misses = 0
        self.columns_built = 0
        self.pairs_resolved = 0

        # -- fault state (empty on pristine networks; see repro.faults) ----
        #: directed (router, port) links currently dead; columns whose
        #: pristine ports cross one are filled by :meth:`_detour_ports_to`.
        self._dead_links: frozenset = frozenset()
        self._dead_routers: frozenset = frozenset()
        #: resident columns holding a detour fill (dropped whenever the dead
        #: set changes, see :meth:`set_fault_state`).
        self._fault_dirty: set = set()

    # -- column management ---------------------------------------------------
    def column(self, dst: int) -> RouteColumn:
        """The (computed-on-demand) column of destination ``dst``."""
        col = self.columns[dst]
        if col is not None:
            self.hits += 1
            return col
        self.misses += 1
        col = self.columns[dst] = self._build_column(dst)
        return col

    def invalidate(self, dst: int) -> None:
        """Drop destination ``dst``'s column (no-op when not resident); the
        next touch rebuilds it against the current fault state."""
        if self.columns[dst] is not None:
            self.columns[dst] = None
            self._fault_dirty.discard(dst)

    def _resident(self) -> List[RouteColumn]:
        """The built columns, in ``dst`` order."""
        return [col for col in self.columns if col is not None]

    def columns_via(self, router: int, port: int) -> List[int]:
        """Resident destinations whose route from ``router`` leaves via
        ``port`` (the invalidation set of a failed directed link).
        Non-resident columns need none — their next build consults the
        fault state anyway."""
        return [
            col.dst for col in self._resident()
            if col.next_port(router) == port
        ]

    def _build_column(self, dst: int) -> RouteColumn:
        # min_next_ports_to already produces exactly the column's port
        # storage (-1 at the diagonal); hop sequences are resolved per
        # source on first read (see RouteColumn).
        port_batch = self.topology.min_next_ports_to(dst)
        dead_links = self._dead_links
        # Sink-hole rule: a dead destination keeps its pristine fill and
        # packets drop at the dead-link boundary.
        if dead_links and dst not in self._dead_routers and any(
            port_batch[router] == port for router, port in dead_links
        ):
            port_batch = self._detour_ports_to(dst, port_batch)
            self._fault_dirty.add(dst)
        seq_ids = bytearray([_UNRESOLVED]) * self._n
        seq_ids[dst] = 0
        if self._wiring.ports_per_router < 255:
            # Narrow to one byte per source: every port value fits in
            # [0, 254] and the -1 sentinel's low byte is 255.  Slicing the
            # raw buffer picks each item's least-significant byte at C
            # speed.
            if not isinstance(port_batch, array):
                port_batch = array("i", port_batch)
            step = port_batch.itemsize
            low = 0 if sys.byteorder == "little" else step - 1
            ports = port_batch.tobytes()[low::step]
        else:
            ports = port_batch
        self.columns_built += 1
        return RouteColumn(dst, ports, seq_ids, self.no_port, self)

    def _resolve(self, col: RouteColumn, src: int) -> int:
        """Sequence id of ``(src, col.dst)``, resolved on its first read.

        The walk follows ``src``'s next hops in the column's ports until it
        merges into an already-resolved suffix, then unwinds the path
        backwards, interning one hop-type sequence per router on it, so
        every router it passed is resolved too.
        """
        seq_ids = col.seq_ids
        wiring = self._wiring
        port = col.ports[src]
        if port != col._no_port:
            base = src * wiring.ports_per_router + port
            tail_id = seq_ids[wiring.neighbor[base]]
            if tail_id != _UNRESOLVED:
                # Fast path: the next hop is already resolved (the common
                # case once a column's suffix tree fills in), so this source
                # merges without path bookkeeping.
                link_type = wiring.link_type[base]
                seq_id = self._seq_step.get(link_type << 8 | tail_id)
                if seq_id is None:
                    seq_id = self._intern_step(link_type, tail_id)
                seq_ids[src] = seq_id
                self.pairs_resolved += 1
                return seq_id
        elif src in self._dead_routers:
            # Dead source: no packet can be resident there, so the entry is
            # a harmless no-route placeholder.
            seq_ids[src] = 0
            self.pairs_resolved += 1
            return 0
        # Walk towards dst until hitting an already-resolved suffix (a live
        # source without a port fails the walk's first step).
        ports, no_port = col.ports, col._no_port
        neighbor, link_types = wiring.neighbor, wiring.link_type
        per_router = wiring.ports_per_router
        step_get = self._seq_step.get
        path: List[int] = []  # the walked (router, port) slots
        current = src
        while seq_ids[current] == _UNRESOLVED:
            port = ports[current]
            if port == no_port or len(path) > self._n:
                raise RuntimeError(
                    f"minimal route {src}->{col.dst} does not converge"
                )
            base = current * per_router + port
            path.append(base)
            current = neighbor[base]
        tail_id = seq_ids[current]
        for base in reversed(path):
            link_type = link_types[base]
            seq_id = step_get(link_type << 8 | tail_id)
            if seq_id is None:
                seq_id = self._intern_step(link_type, tail_id)
            seq_ids[base // per_router] = tail_id = seq_id
        self.pairs_resolved += len(path)
        return tail_id

    def _intern_step(self, link_type: int, tail_id: int) -> int:
        """Intern ``(link_type,) + sequences[tail_id]`` and memo the step.

        Cold path of the prepend memo in :meth:`_resolve` — runs at
        most once per distinct ``(link type, tail sequence)`` pair per table.
        """
        sequences = self._sequence_list
        tail_seq = (LINK_TYPES[link_type],) + sequences[tail_id]
        seq_id = self._seq_index.get(tail_seq)
        if seq_id is None:
            seq_id = len(sequences)
            if seq_id >= _UNRESOLVED:
                raise RuntimeError(
                    "route table overflow: more than 255 distinct "
                    "hop-type sequences"
                )
            sequences.append(tail_seq)
            self._seq_index[tail_seq] = seq_id
        self._seq_step[link_type << 8 | tail_id] = seq_id
        return seq_id

    # -- fault support (repro.faults) ----------------------------------------
    def set_fault_state(self, dead_links: frozenset,
                        dead_routers: frozenset) -> int:
        """Install the dead-element sets; return how many columns it dropped.

        ``dead_links`` holds *directed* ``(router, port)`` keys (both
        directions of a failed physical link).  Dropped are the resident
        columns the change can alter — those routed through a newly-dead
        link, every detour fill, and the columns of routers whose liveness
        flipped (sink-hole rule) — so each resident column always equals
        what a fresh table would build under the same dead set.
        """
        stale = self._fault_dirty | (self._dead_routers ^ dead_routers)
        for router, port in sorted(dead_links - self._dead_links):
            stale.update(self.columns_via(router, port))
        self._dead_links = dead_links
        self._dead_routers = dead_routers
        columns = self.columns
        dropped = [dst for dst in stale if columns[dst] is not None]
        for dst in dropped:
            self.invalidate(dst)
        return len(dropped)

    def _detour_ports_to(self, dst: int, pristine: Sequence[int]) -> array:
        """Next-port batch for ``dst`` around the dead elements.

        Takes :meth:`Wiring.bfs` towards ``dst`` over the live graph,
        preferring the ``pristine`` minimal port wherever it is still live
        and distance-tied (unaffected pairs keep their canonical routes),
        and raises :class:`~repro.faults.NetworkPartitionedError` when any
        live source has no route left.
        """
        dead_links = self._dead_links
        dead_routers = self._dead_routers
        n = self._n
        wiring = self._wiring
        dist, ports = wiring.bfs(dst, dead_links, dead_routers)
        unreachable = [
            src for src in range(n)
            if dist[src] < 0 and src not in dead_routers
        ]
        if unreachable:
            raise NetworkPartitionedError(
                f"no route to router {dst} from {len(unreachable)} live "
                f"router(s) (first: {unreachable[0]}) around the current "
                f"faults"
            )
        for src in range(n):
            if src == dst or src in dead_routers:
                continue
            port = pristine[src]
            if port < 0 or (src, port) in dead_links:
                continue
            w = wiring.neighbor[src * wiring.ports_per_router + port]
            if w >= 0 and w not in dead_routers and dist[w] == dist[src] - 1:
                ports[src] = port
        return ports

    # -- queries -------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self._n

    @property
    def dead_routers(self) -> frozenset:
        """Routers dead in the installed fault state (empty when pristine)."""
        return self._dead_routers

    @property
    def sequences(self) -> Tuple[HopSequence, ...]:
        """Distinct hop-type sequences discovered so far (grows lazily)."""
        return tuple(self._sequence_list)

    def next_port(self, src: int, dst: int) -> Optional[int]:
        """First port of the minimal path (None when ``src == dst``)."""
        col = self.column(dst)
        port = col.ports[src]
        return None if port == col._no_port else port

    def hop_sequence(self, src: int, dst: int) -> HopSequence:
        """Hop-type sequence of the minimal path (shared tuple instances)."""
        return self.column(dst).hop_sequence(src)

    def distance(self, src: int, dst: int) -> int:
        return self.column(dst).distance(src)

    # -- accounting ----------------------------------------------------------
    def route_state_bytes(self) -> int:
        """Approximate bytes held by resident columns + the neighbor and
        link-type rows of the wiring the walks read."""
        resident = sum(col.nbytes() for col in self._resident())
        neighbor = self._wiring.neighbor
        return (resident + neighbor.itemsize * len(neighbor)
                + len(self._wiring.link_type))

    def table_stats(self) -> Dict[str, int]:
        """Provenance-ready summary of this table's footprint and churn."""
        return {
            "routers": self._n,
            "columns_built": self.columns_built,
            "columns_resident": len(self._resident()),
            "hits": self.hits,
            "misses": self.misses,
            "pairs_resolved": self.pairs_resolved,
            "route_state_bytes": self.route_state_bytes(),
        }


def make_route_table(topology: Topology, mode: str = "auto") -> RouteTable:
    """``RouteTable(topology)``, for the frozen performance ledger only.

    ``benchmarks/ledger/child.py`` passes ``"auto"``/``"lazy"`` positionally
    from when the table had a dense and a lazy front-end; both now name the
    one table.  ``mode`` is validated and otherwise unused; everything else
    constructs :class:`RouteTable` directly.
    """
    if mode not in ("auto", "lazy"):
        raise ValueError(
            f"route table mode must be 'auto' or 'lazy', got {mode!r}"
        )
    return RouteTable(topology)
