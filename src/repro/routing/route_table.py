"""Precomputed minimal-route tables: dense and lazily-sharded front-ends.

Routing algorithms ask three questions on every forwarding decision: *which
port starts the minimal path to router X*, *what hop-type sequence remains
from router Y*, and (for Piggyback) *which global link does the minimal path
cross first*.  All three are pure functions of ``(src, dst)`` on a static
topology.

The construction is naturally *per destination column*: filling every
``(src, dst)`` answer for one fixed ``dst`` is an O(n) suffix-merge walk over
the topology's :meth:`min_next_port` relation.  That walk lives in
:meth:`_RouteTableCore.fill_column` and is shared by two front-ends:

* :class:`RouteTable` — the dense table: every column materialized eagerly
  into flat ``array``/``bytes`` tables indexed ``src * n + dst`` (O(n²)
  memory, O(1) queries, bit-identical to the historical eager builder).
  The right default below :data:`DENSE_ROUTER_THRESHOLD` routers.
* :class:`LazyRouteTable` — column shards computed on first touch and held
  in a bounded LRU keyed by ``dst`` (O(capacity · n) memory).  Identical
  answers — evicted columns recompute deterministically because the
  hop-sequence interning survives eviction — which makes 10^5-endpoint
  networks constructible without the ~GB dense tables.  Resident columns
  are lean (~2 bytes per source: one-byte ports plus interned seq ids,
  with the first-global row deferred to its sole consumer), and the
  default capacity is derived from :data:`DEFAULT_LAZY_STATE_BUDGET` so
  that up to ~60k routers *every* column stays resident — uniform traffic
  touches all destinations, where a smaller LRU would thrash.

Batch port computation goes through
:meth:`~repro.topology.base.Topology.min_next_ports_to`, whose generic
fallback calls ``min_next_port`` per source and which closed-form topologies
(Dragonfly, Megafly, HyperX) override with one gateway/coordinate derivation
per group instead of per pair.

Hop sequences are interned: the ``seq_ids`` bytes index into the (small,
≤255-entry) table of distinct hop-type sequences, so lookups return shared
tuples.  ``first_global`` stores ``(owning router, global-port index)`` pairs
of the first GLOBAL hop of each minimal path (-1 when the path crosses
none), generalizing the Dragonfly "gateway router" that Piggyback's
remote-saturation sensing reads.
"""

from __future__ import annotations

import sys
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cache import BoundedLRU
from ..core.link_types import HopSequence, LinkType
from ..faults import NetworkPartitionedError
from ..topology.base import Topology

#: sentinel sequence id marking a not-yet-computed pair during construction.
_UNKNOWN = 0xFF

#: ``auto`` mode builds the dense table up to this many routers and switches
#: to lazy column shards above it (where the dense O(n²) arrays would cross
#: the ~0.2 GB line and construction time stops being sweep-friendly).
DENSE_ROUTER_THRESHOLD = 4096

#: byte budget that sizes the lazy front-end's default column capacity.
#: A resident lazy column costs ~2n bytes (one next-port byte and one
#: seq-id byte per source; the first-global row is deferred until a
#: consumer actually asks, see :class:`RouteColumn`), so the default
#: capacity is ``budget // (2n + overhead)`` clamped to ``[1, n]``.  Up to
#: n ≈ 60k routers every column fits resident — uniform traffic touches
#: *all* destination columns every few cycles, so an LRU smaller than the
#: working set would thrash with worst-case (cyclic) misses — while the
#: worst-case resident route state stays bounded by the budget at any n.
DEFAULT_LAZY_STATE_BUDGET = 256 * 1024 * 1024

#: per-column constant overhead (column object, LRU entry, buffer headers)
#: used when translating the byte budget into a column count.
_COLUMN_OVERHEAD_BYTES = 512

#: accepted ``route_table_mode`` values across the stack.
ROUTE_TABLE_MODES = ("auto", "dense", "lazy")

#: :class:`LinkType` members indexed by their stored byte value (the enum
#: constructor is a Python-level ``__new__`` call; a tuple index is not).
_LINK_TYPES = (LinkType.LOCAL, LinkType.GLOBAL)


class PhaseVcTable:
    """Precomputed ``(phase_offsets, phase_position, link class) -> VC slot``.

    The distance-based baseline aligns every hop onto a reference-path slot
    through small integer arithmetic over the packet's phase state
    (:meth:`repro.core.baseline.DistanceBasedPolicy.slot_for`).  All inputs
    are tiny bounded integers, so the whole function is enumerated once into
    a dense flat table and each per-hop evaluation becomes a single indexed
    lookup.  Inputs outside the enumerated bounds fall back to the closed
    form (the caller checks :meth:`in_bounds`).

    Index layout (row-major):
    ``(((((g?*L + lo)*G + go)*T + gt)*P + pos)*2 + has_global_remaining)``
    with ``g?`` the output link class.
    """

    #: enumeration bounds: local/global offsets, globals-taken, position.
    MAX_OFFSET = 8
    MAX_TAKEN = 8
    MAX_POSITION = 16

    #: process-wide memo of ``slot_fn -> PhaseVcTable`` (see :meth:`shared`).
    _SHARED: Dict[object, "PhaseVcTable"] = {}

    @classmethod
    def shared(cls, slot_fn: Callable[..., int]) -> "PhaseVcTable":
        """Memoized table for ``slot_fn`` (one enumeration per process).

        The table is a pure function of ``slot_fn``; every
        :class:`~repro.core.baseline.DistanceBasedPolicy` instance uses the
        same static closed form, so enumerating the ~65k-entry table once per
        *simulation* (the pre-cache behaviour) wasted several milliseconds of
        every sweep job.  Keyed by the underlying function (bound methods are
        unwrapped via ``__func__``), so a different closed form — e.g. a
        subclass override, whether static or a plain method — gets exactly
        one table per class, never one per policy instance.

        Contract: the closed form must be *pure in its arguments* — the
        whole premise of enumerating it into a table.  An override that
        reads per-instance state would be shared per class here and must
        build its table with ``PhaseVcTable(fn)`` directly instead.
        """
        key = getattr(slot_fn, "__func__", slot_fn)
        table = cls._SHARED.get(key)
        if table is None:
            table = cls._SHARED[key] = cls(slot_fn)
        return table

    def __init__(self, slot_fn: Callable[..., int]) -> None:
        L = G = self.MAX_OFFSET
        T = self.MAX_TAKEN
        P = self.MAX_POSITION
        table: List[int] = []
        for out_is_global in (0, 1):
            for lo in range(L):
                for go in range(G):
                    for gt in range(T):
                        for pos in range(P):
                            for has_global in (0, 1):
                                table.append(
                                    slot_fn(out_is_global, lo, go, gt, pos,
                                            has_global)
                                )
        self._table = table

    def in_bounds(self, lo: int, go: int, gt: int, pos: int) -> bool:
        return (0 <= lo < self.MAX_OFFSET and 0 <= go < self.MAX_OFFSET
                and 0 <= gt < self.MAX_TAKEN and 0 <= pos < self.MAX_POSITION)

    def lookup(self, out_is_global: int, lo: int, go: int, gt: int,
               pos: int, has_global: int) -> int:
        index = out_is_global
        index = index * self.MAX_OFFSET + lo
        index = index * self.MAX_OFFSET + go
        index = index * self.MAX_TAKEN + gt
        index = index * self.MAX_POSITION + pos
        return self._table[index * 2 + has_global]


class RouteColumn:
    """One destination's route answers: ``src``-indexed compact arrays.

    The unit of lazy construction and the column view handed to routing
    algorithms: every query is a single flat index into an n-sized array.
    ``sequences`` references the owning table's *live* interning list —
    sequence ids are stable for the table's lifetime, so views stay valid as
    the list grows.

    Storage is deliberately lean — at system scale the full column set is
    resident (see :data:`DEFAULT_LAZY_STATE_BUDGET`):

    * ``ports`` is one byte per source (sentinel 255 = no port) whenever the
      topology's radix allows it, falling back to ``array('i')`` (-1) above
      254 ports per router;
    * the first-global row is built on the first :meth:`first_global_link`
      call only — Piggyback's remote-saturation sensing is its sole
      consumer, so min/val/par runs never pay its 8n bytes per column.
    """

    __slots__ = ("dst", "ports", "seq_ids", "sequences", "_no_port",
                 "_first_global", "_core")

    def __init__(self, dst: int, ports: Sequence[int], seq_ids: bytearray,
                 no_port: int, sequences: List[HopSequence],
                 core: "_RouteTableCore") -> None:
        self.dst = dst
        self.ports = ports
        self.seq_ids = seq_ids
        self._no_port = no_port
        self.sequences = sequences
        self._first_global: Optional[array] = None
        self._core = core

    def next_port(self, src: int) -> Optional[int]:
        port = self.ports[src]
        return None if port == self._no_port else port

    def hop_sequence(self, src: int) -> HopSequence:
        return self.sequences[self.seq_ids[src]]

    def distance(self, src: int) -> int:
        return len(self.sequences[self.seq_ids[src]])

    @property
    def first_global(self) -> array:
        """First-global row, ``(router, global-port index)`` pairs at
        ``[2*src, 2*src+1]`` (-1 = path crosses no GLOBAL link).  Built on
        first access by re-walking this column's stored ports."""
        fg = self._first_global
        if fg is None:
            fg = self._first_global = self._core.build_first_global_column(
                self.dst, self.ports, self._no_port
            )
        return fg

    def first_global_link(self, src: int) -> Optional[Tuple[int, int]]:
        fg = self.first_global
        router = fg[2 * src]
        if router < 0:
            return None
        return router, fg[2 * src + 1]

    def nbytes(self) -> int:
        """Approximate payload bytes of this column's arrays."""
        ports = self.ports
        ports_bytes = (ports.itemsize * len(ports)
                       if isinstance(ports, array) else len(ports))
        fg = self._first_global
        fg_bytes = fg.itemsize * len(fg) if fg is not None else 0
        return ports_bytes + len(self.seq_ids) + fg_bytes


class _DenseColumnView:
    """Column view over the dense table's flat arrays (shared storage)."""

    __slots__ = ("_table", "dst")

    def __init__(self, table: "RouteTable", dst: int) -> None:
        self._table = table
        self.dst = dst

    # The two queries of every candidate construction index the table's
    # flat arrays directly (read through ``_table`` at call time, so a fault
    # re-table that swaps the arrays is seen).
    def next_port(self, src: int) -> Optional[int]:
        table = self._table
        port = table._next_port[src * table._n + self.dst]
        return None if port < 0 else port

    def hop_sequence(self, src: int) -> HopSequence:
        table = self._table
        return table._sequences[table._seq_ids[src * table._n + self.dst]]

    def distance(self, src: int) -> int:
        return self._table.distance(src, self.dst)

    def first_global_link(self, src: int) -> Optional[Tuple[int, int]]:
        return self._table.first_global_link(src, self.dst)


class _RouteTableCore:
    """Shared construction machinery of the dense and lazy front-ends.

    Holds the dense adjacency view (O(n · radix), shared by both front-ends
    and by the candidate builders), the persistent hop-sequence interning
    state, and the per-destination suffix-merge column fill.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        n = topology.num_routers
        self._n = n
        #: interned distinct hop-type sequences; ids are assigned in column
        #: discovery order and never reused, so they survive lazy evictions.
        self._sequence_list: List[HopSequence] = [()]
        self._seq_index: Dict[HopSequence, int] = {(): 0}
        #: prepend memo: ``(link type << 8) | tail sequence id -> sequence
        #: id`` of ``(link_type,) + sequences[tail_id]``.  The pair uniquely
        #: determines the tuple (and vice versa), so consulting the memo
        #: assigns exactly the ids — in exactly the discovery order — that
        #: interning the full tuples would, without building a tuple or
        #: hashing it on the (hot) already-seen path.
        self._seq_step: Dict[int, int] = {}

        # Dense adjacency view: neighbor router and link type per
        # (router, port), so column fills and candidate construction never
        # re-derive them from the topology's arithmetic.
        max_port = 0
        port_lists = []
        for router in range(n):
            infos = list(topology.ports(router))
            port_lists.append(infos)
            for info in infos:
                if info.port >= max_port:
                    max_port = info.port + 1
        self._ports_per_router = max_port
        neighbor = array("i", [-1]) * (n * max_port)
        link_types = bytearray(n * max_port)
        for router, infos in enumerate(port_lists):
            base = router * max_port
            for info in infos:
                neighbor[base + info.port] = info.neighbor
                link_types[base + info.port] = info.link_type
        self._neighbor = neighbor
        self._link_types = bytes(link_types)

        # -- fault state (empty on pristine networks; see repro.faults) ----
        #: directed (router, port) links currently dead; column fills route
        #: around them via the BFS detour batch of :meth:`_fault_ports_to`.
        self._dead_links: frozenset = frozenset()
        self._dead_routers: frozenset = frozenset()
        #: columns whose resident fill was computed under a non-empty fault
        #: state (re-invalidated on recovery to restore the pristine fill).
        self._fault_dirty: set = set()
        self._back_port_map: Optional[array] = None

    # -- column construction -------------------------------------------------
    def fill_column(self, dst: int, next_port: Optional[array],
                    seq_ids: bytearray, first_global: Optional[array],
                    stride: int, offset: int,
                    ports: Optional[array] = None) -> None:
        """Fill every ``(src, dst)`` answer for one fixed destination.

        Writes into caller-owned buffers at index ``src * stride + offset``
        (``first_global`` at twice that), so the dense front-end fills its
        row-major O(n²) tables in place (stride ``n``, offset ``dst``) and
        the lazy front-end fills compact n-sized columns (stride 1, offset
        0) — same walk, same interning, bit-identical answers.

        The walk follows each source's minimal next hop (one batch
        :meth:`~repro.topology.base.Topology.min_next_ports_to` call per
        column, or a caller-supplied ``ports`` batch) until it merges into
        an already-known suffix of this column, then unwinds the path
        backwards, interning hop-type sequences and propagating the
        first-GLOBAL-hop link.

        ``next_port`` may be ``None`` when the caller keeps the ``ports``
        batch itself as the column's port storage, and ``first_global`` may
        be ``None`` to defer the first-global row entirely (see
        :meth:`build_first_global_column`); ``seq_ids`` is always filled
        and drives the suffix-merge bookkeeping.
        """
        n = self._n
        topology = self.topology
        if ports is None:
            ports = topology.min_next_ports_to(dst)
        seq_step = self._seq_step
        global_value = int(LinkType.GLOBAL)
        neighbor = self._neighbor
        link_types = self._link_types
        per_router = self._ports_per_router
        diagonal = dst * stride + offset
        if next_port is not None:
            next_port[diagonal] = -1
        seq_ids[diagonal] = 0
        track_fg = first_global is not None
        step_get = seq_step.get
        for src in range(n):
            index = src * stride + offset
            if seq_ids[index] != _UNKNOWN:
                continue
            port = ports[src]
            if port < 0:
                if src in self._dead_routers:
                    # Dead source: no packet can be resident there, so the
                    # entry is a harmless no-route placeholder.
                    seq_ids[index] = 0
                    if next_port is not None:
                        next_port[index] = -1
                    if track_fg:
                        first_global[2 * index] = -1
                        first_global[2 * index + 1] = -1
                    continue
                if self._dead_links or self._dead_routers:
                    raise NetworkPartitionedError(
                        f"no route {src}->{dst} around the current faults"
                    )
                raise RuntimeError(
                    f"minimal route {src}->{dst} does not converge"
                )
            base = src * per_router + port
            nxt = neighbor[base]
            tail_index = nxt * stride + offset
            tail_id = seq_ids[tail_index]
            if tail_id != _UNKNOWN:
                # Fast path: the next hop is already resolved (the common
                # case once the column's suffix tree starts filling in), so
                # this source merges without path bookkeeping.
                link_type = link_types[base]
                seq_id = step_get(link_type << 8 | tail_id)
                if seq_id is None:
                    seq_id = self._intern_step(link_type, tail_id)
                if next_port is not None:
                    next_port[index] = port
                seq_ids[index] = seq_id
                if track_fg:
                    if link_type == global_value:
                        first_global[2 * index] = src
                        first_global[2 * index + 1] = (
                            topology.global_port_index(src, port)
                        )
                    else:
                        first_global[2 * index] = first_global[2 * tail_index]
                        first_global[2 * index + 1] = (
                            first_global[2 * tail_index + 1]
                        )
                continue
            # Walk towards dst until hitting an already-known suffix.
            path: List[Tuple[int, int, int]] = [(src, port, link_types[base])]
            current = nxt
            while seq_ids[current * stride + offset] == _UNKNOWN:
                port = ports[current]
                if port < 0 or len(path) > n:
                    raise RuntimeError(
                        f"minimal route {src}->{dst} does not converge"
                    )
                base = current * per_router + port
                path.append((current, port, link_types[base]))
                current = neighbor[base]
            tail_index = current * stride + offset
            tail_id = seq_ids[tail_index]
            if track_fg:
                tail_fg_router = first_global[2 * tail_index]
                tail_fg_port = first_global[2 * tail_index + 1]
            for router, port, link_type in reversed(path):
                seq_id = step_get(link_type << 8 | tail_id)
                if seq_id is None:
                    seq_id = self._intern_step(link_type, tail_id)
                index = router * stride + offset
                if next_port is not None:
                    next_port[index] = port
                seq_ids[index] = seq_id
                tail_id = seq_id
                if track_fg:
                    if link_type == global_value:
                        tail_fg_router = router
                        tail_fg_port = topology.global_port_index(router, port)
                    first_global[2 * index] = tail_fg_router
                    first_global[2 * index + 1] = tail_fg_port

    def _intern_step(self, link_type: int, tail_id: int) -> int:
        """Intern ``(link_type,) + sequences[tail_id]`` and memo the step.

        Cold path of the prepend memo in :meth:`fill_column` — runs at most
        once per distinct ``(link type, tail sequence)`` pair per table.
        """
        sequences = self._sequence_list
        tail_seq = (_LINK_TYPES[link_type],) + sequences[tail_id]
        seq_id = self._seq_index.get(tail_seq)
        if seq_id is None:
            seq_id = len(sequences)
            if seq_id >= _UNKNOWN:
                raise RuntimeError(
                    "route table overflow: more than 255 distinct "
                    "hop-type sequences"
                )
            sequences.append(tail_seq)
            self._seq_index[tail_seq] = seq_id
        self._seq_step[link_type << 8 | tail_id] = seq_id
        return seq_id

    def build_first_global_column(self, dst: int, ports: Sequence[int],
                                  no_port: int) -> array:
        """First-global row for one destination from its stored ports.

        The same suffix-merge walk as :meth:`fill_column` restricted to the
        first-GLOBAL-hop propagation, re-run on demand from a column's
        compact port storage (``ports[src]`` with ``no_port`` at the
        diagonal).  Sentinel -2 marks not-yet-walked sources; the returned
        row uses -1 for "path crosses no GLOBAL link", matching the dense
        table's encoding.
        """
        n = self._n
        topology = self.topology
        neighbor = self._neighbor
        link_types = self._link_types
        per_router = self._ports_per_router
        global_value = int(LinkType.GLOBAL)
        fg = array("i", [-2]) * (2 * n)
        fg[2 * dst] = -1
        fg[2 * dst + 1] = -1
        for src in range(n):
            if fg[2 * src] != -2:
                continue
            if ports[src] == no_port:
                # No-route placeholder (a source that was dead when this
                # column was filled): report "no GLOBAL link" — the entry
                # is never queried for a resident packet.
                fg[2 * src] = -1
                fg[2 * src + 1] = -1
                continue
            path: List[Tuple[int, int, int]] = []
            current = src
            while fg[2 * current] == -2:
                port = ports[current]
                if port == no_port or len(path) > n:
                    raise RuntimeError(
                        f"minimal route {src}->{dst} does not converge"
                    )
                base = current * per_router + port
                path.append((current, port, link_types[base]))
                current = neighbor[base]
            tail_fg_router = fg[2 * current]
            tail_fg_port = fg[2 * current + 1]
            for router, port, link_type in reversed(path):
                if link_type == global_value:
                    tail_fg_router = router
                    tail_fg_port = topology.global_port_index(router, port)
                fg[2 * router] = tail_fg_router
                fg[2 * router + 1] = tail_fg_port
        return fg

    # -- fault support (repro.faults) ----------------------------------------
    def set_fault_state(self, dead_links: frozenset,
                        dead_routers: frozenset) -> None:
        """Install the dead-element sets consulted by column (re)builds.

        ``dead_links`` holds *directed* ``(router, port)`` keys (both
        directions of a failed physical link); subsequent
        :meth:`invalidate` calls and lazy column builds detour around them.
        """
        self._dead_links = dead_links
        self._dead_routers = dead_routers

    def _back_ports(self) -> array:
        """``(router, port) -> port on the neighbor facing back`` map.

        Built once on first use from the dense adjacency: ports between
        each ordered router pair are matched index-by-index in ascending
        port order, which pairs parallel links deterministically and
        mirrors the symmetric wiring the simulation itself asserts.
        """
        back = self._back_port_map
        if back is not None:
            return back
        n = self._n
        per = self._ports_per_router
        neighbor = self._neighbor
        pairs: Dict[Tuple[int, int], List[int]] = {}
        for router in range(n):
            base = router * per
            for port in range(per):
                other = neighbor[base + port]
                if other >= 0:
                    pairs.setdefault((router, other), []).append(port)
        back = array("i", [-1]) * (n * per)
        for (router, other), ports in pairs.items():
            other_ports = pairs[(other, router)]
            base = router * per
            for i, port in enumerate(ports):
                back[base + port] = other_ports[i]
        self._back_port_map = back
        return back

    def _fault_ports_to(self, dst: int) -> Optional[array]:
        """Detour next-port batch for ``dst`` around the dead elements.

        Returns None when no faults are active — or when ``dst`` itself is
        a dead router (sink-hole rule: the column keeps its pristine fill
        and packets drop at the dead-link boundary).  Otherwise runs a
        deterministic BFS from ``dst`` over the live graph, preferring the
        pristine minimal port wherever it is still live and distance-tied
        (unaffected pairs keep their canonical routes), and raises
        :class:`~repro.faults.NetworkPartitionedError` when any live source
        has no route left.
        """
        dead_links = self._dead_links
        dead_routers = self._dead_routers
        if not dead_links and not dead_routers:
            return None
        if dst in dead_routers:
            return None
        n = self._n
        per = self._ports_per_router
        neighbor = self._neighbor
        back = self._back_ports()
        dist = array("i", [-1]) * n
        ports = array("i", [-1]) * n
        dist[dst] = 0
        frontier = [dst]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                base = u * per
                for q in range(per):
                    w = neighbor[base + q]
                    if w < 0 or dist[w] >= 0 or w in dead_routers:
                        continue
                    qw = back[base + q]
                    # The detour forwards from w over its port qw onto the
                    # (bidirectionally-failed) link w<->u.
                    if (w, qw) in dead_links:
                        continue
                    dist[w] = dist[u] + 1
                    ports[w] = qw
                    nxt.append(w)
            frontier = nxt
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
        pristine = self.topology.min_next_ports_to(dst)
        for src in range(n):
            if src == dst or src in dead_routers:
                continue
            port = pristine[src]
            if port < 0 or (src, port) in dead_links:
                continue
            w = neighbor[src * per + port]
            if w >= 0 and w not in dead_routers and dist[w] == dist[src] - 1:
                ports[src] = port
        return ports

    def _mark_fault_fill(self, dst: int) -> None:
        """Track whether ``dst``'s resident fill was computed under faults."""
        if self._dead_links or self._dead_routers:
            self._fault_dirty.add(dst)
        else:
            self._fault_dirty.discard(dst)

    # -- shared queries ------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self._n

    def neighbor(self, router: int, port: int) -> int:
        """Neighbor router across ``port`` (dense adjacency lookup)."""
        return self._neighbor[router * self._ports_per_router + port]

    def link_type(self, router: int, port: int) -> LinkType:
        """Link type of ``port`` (dense adjacency lookup)."""
        return _LINK_TYPES[self._link_types[router * self._ports_per_router + port]]

    def _adjacency_bytes(self) -> int:
        return (self._neighbor.itemsize * len(self._neighbor)
                + len(self._link_types))


class RouteTable(_RouteTableCore):
    """Dense precomputed minimal next-hop ports and hop-type sequences.

    Every destination column is materialized eagerly into flat tables
    indexed ``src * n + dst`` — O(n²) memory, the fastest queries, and the
    default below :data:`DENSE_ROUTER_THRESHOLD` routers.
    """

    mode = "dense"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        n = self._n
        next_port = array("i", [-1]) * (n * n)
        first_global = array("i", [-1]) * (2 * n * n)
        seq_ids = bytearray([_UNKNOWN]) * (n * n)
        for dst in range(n):
            self.fill_column(dst, next_port, seq_ids, first_global, n, dst)
        self._next_port = next_port
        self._seq_ids = bytes(seq_ids)
        self._sequences: Tuple[HopSequence, ...] = tuple(self._sequence_list)
        self._first_global = first_global
        self._views = [_DenseColumnView(self, dst) for dst in range(n)]

    # -- queries -------------------------------------------------------------
    @property
    def sequences(self) -> Tuple[HopSequence, ...]:
        """The distinct minimal hop-type sequences of the topology."""
        return self._sequences

    def column(self, dst: int) -> _DenseColumnView:
        """Column view for destination ``dst`` (shared dense storage)."""
        return self._views[dst]

    # -- fault re-table-ing --------------------------------------------------
    def invalidate(self, dst: int) -> None:
        """Eagerly rebuild destination ``dst``'s column in place.

        Under an active fault state (:meth:`set_fault_state`) the refill
        routes around the dead elements via the BFS detour batch; with no
        faults it re-runs the pristine fill — the persistent sequence
        interning makes the rebuilt column byte-identical to the original.
        """
        n = self._n
        if isinstance(self._seq_ids, bytes):
            # The pristine build freezes seq ids to bytes; the first
            # invalidation switches back to a mutable view for good.
            self._seq_ids = bytearray(self._seq_ids)
        seq_ids = self._seq_ids
        next_port = self._next_port
        first_global = self._first_global
        for src in range(n):
            index = src * n + dst
            seq_ids[index] = _UNKNOWN
            next_port[index] = -1
            first_global[2 * index] = -1
            first_global[2 * index + 1] = -1
        ports = self._fault_ports_to(dst)
        self.fill_column(dst, next_port, seq_ids, first_global, n, dst,
                         ports=ports)
        self._sequences = tuple(self._sequence_list)
        self._mark_fault_fill(dst)

    def columns_via(self, router: int, port: int) -> List[int]:
        """Destinations whose current route from ``router`` leaves via
        ``port`` (the invalidation set of a failed directed link)."""
        n = self._n
        base = router * n
        next_port = self._next_port
        return [dst for dst in range(n) if next_port[base + dst] == port]

    def next_port(self, src: int, dst: int) -> Optional[int]:
        """First port of the minimal path (None when ``src == dst``)."""
        port = self._next_port[src * self._n + dst]
        return None if port < 0 else port

    def hop_sequence(self, src: int, dst: int) -> HopSequence:
        """Hop-type sequence of the minimal path (shared tuple instances)."""
        return self._sequences[self._seq_ids[src * self._n + dst]]

    def distance(self, src: int, dst: int) -> int:
        return len(self._sequences[self._seq_ids[src * self._n + dst]])

    def first_global_link(self, src: int, dst: int) -> Optional[Tuple[int, int]]:
        """(owning router, global-port index) of the minimal path's first
        GLOBAL hop, or None when the path stays on LOCAL links."""
        index = 2 * (src * self._n + dst)
        router = self._first_global[index]
        if router < 0:
            return None
        return router, self._first_global[index + 1]

    # -- accounting ----------------------------------------------------------
    def route_state_bytes(self) -> int:
        """Approximate bytes held by route state (tables + adjacency)."""
        return (self._next_port.itemsize * len(self._next_port)
                + len(self._seq_ids)
                + self._first_global.itemsize * len(self._first_global)
                + self._adjacency_bytes())

    def table_stats(self) -> Dict[str, object]:
        """Provenance-ready summary of this table's mode and footprint."""
        return {
            "mode": self.mode,
            "routers": self._n,
            "columns_resident": self._n,
            "route_state_bytes": self.route_state_bytes(),
        }


class LazyRouteTable(_RouteTableCore):
    """Per-destination route columns computed on first touch, LRU-bounded.

    Same answers as :class:`RouteTable` for every query (locked by the
    lazy-vs-dense equality tests): a missing column is filled by the shared
    :meth:`~_RouteTableCore.fill_column` walk and cached; beyond
    ``capacity`` resident columns the least recently used one is evicted
    and transparently recomputed on its next touch.  Recomputation is
    deterministic — the sequence-interning state persists across evictions,
    so a rebuilt column is byte-identical to its first build.

    Memory is O(capacity · n) instead of O(n²), which is what makes
    10^5-endpoint networks constructible (see DESIGN.md §9).
    """

    mode = "lazy"

    def __init__(self, topology: Topology,
                 capacity: Optional[int] = None) -> None:
        super().__init__(topology)
        if capacity is None:
            capacity = DEFAULT_LAZY_STATE_BUDGET // (
                2 * self._n + _COLUMN_OVERHEAD_BYTES
            )
        self.capacity = max(1, min(int(capacity), self._n))
        self._columns: BoundedLRU = BoundedLRU(self.capacity)
        self.hits = 0
        self.misses = 0
        self.columns_built = 0

    # -- column management ---------------------------------------------------
    def column(self, dst: int) -> RouteColumn:
        """The (computed-on-demand) column of destination ``dst``."""
        col = self._columns.get(dst)
        if col is not None:
            self.hits += 1
            return col
        self.misses += 1
        col = self._build_column(dst)
        self._columns.put(dst, col)
        return col

    # -- fault re-table-ing --------------------------------------------------
    def invalidate(self, dst: int) -> None:
        """Evict destination ``dst``'s column; the next touch rebuilds it
        against the current fault state (detours via ``fill_column``)."""
        self._columns.pop(dst)
        self._fault_dirty.discard(dst)

    def columns_via(self, router: int, port: int) -> List[int]:
        """Resident destinations whose route from ``router`` leaves via
        ``port``.  Non-resident columns need no invalidation — their next
        build consults the fault state anyway."""
        out: List[int] = []
        for dst, col in self._columns._entries.items():
            stored = col.ports[router]
            if stored != col._no_port and stored == port:
                out.append(dst)
        return sorted(out)

    def _build_column(self, dst: int) -> RouteColumn:
        n = self._n
        # min_next_ports_to already produces exactly the column's port
        # storage (-1 at the diagonal), so the walk reads it in place and
        # only the seq-id row is filled here; the first-global row is
        # deferred until a consumer asks (see RouteColumn).
        port_batch = self._fault_ports_to(dst)
        if port_batch is None:
            port_batch = self.topology.min_next_ports_to(dst)
        self._mark_fault_fill(dst)
        seq_ids = bytearray([_UNKNOWN]) * n
        self.fill_column(dst, None, seq_ids, None, 1, 0, ports=port_batch)
        if self._ports_per_router < 255:
            # Narrow to one byte per source: every port value fits in
            # [0, 254] and the -1 sentinel's low byte is 255.  Slicing the
            # raw buffer picks each item's least-significant byte at C
            # speed.
            if not isinstance(port_batch, array):
                port_batch = array("i", port_batch)
            step = port_batch.itemsize
            low = 0 if sys.byteorder == "little" else step - 1
            ports = port_batch.tobytes()[low::step]
            no_port = 0xFF
        else:
            ports = port_batch
            no_port = -1
        self.columns_built += 1
        return RouteColumn(dst, ports, seq_ids, no_port,
                           self._sequence_list, self)

    @property
    def evictions(self) -> int:
        return self.columns_built - len(self._columns)

    # -- queries (column-indirected, same answers as the dense table) --------
    @property
    def sequences(self) -> Tuple[HopSequence, ...]:
        """Distinct hop-type sequences discovered so far (grows lazily)."""
        return tuple(self._sequence_list)

    def next_port(self, src: int, dst: int) -> Optional[int]:
        """First port of the minimal path (None when ``src == dst``)."""
        return self.column(dst).next_port(src)

    def hop_sequence(self, src: int, dst: int) -> HopSequence:
        """Hop-type sequence of the minimal path (shared tuple instances)."""
        return self._sequence_list[self.column(dst).seq_ids[src]]

    def distance(self, src: int, dst: int) -> int:
        return len(self._sequence_list[self.column(dst).seq_ids[src]])

    def first_global_link(self, src: int, dst: int) -> Optional[Tuple[int, int]]:
        """(owning router, global-port index) of the minimal path's first
        GLOBAL hop, or None when the path stays on LOCAL links."""
        return self.column(dst).first_global_link(src)

    # -- accounting ----------------------------------------------------------
    def route_state_bytes(self) -> int:
        """Approximate bytes held by resident columns + adjacency."""
        resident = sum(
            col.nbytes() for col in self._columns._entries.values()
        )
        return resident + self._adjacency_bytes()

    def table_stats(self) -> Dict[str, object]:
        """Provenance-ready summary of this table's mode and LRU behaviour."""
        return {
            "mode": self.mode,
            "routers": self._n,
            "capacity": self.capacity,
            "columns_built": self.columns_built,
            "columns_resident": len(self._columns),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "route_state_bytes": self.route_state_bytes(),
        }


def resolve_route_table_mode(mode: str, num_routers: int) -> str:
    """Resolve ``auto`` against the dense-size threshold; validate the rest."""
    if mode == "auto":
        return "dense" if num_routers <= DENSE_ROUTER_THRESHOLD else "lazy"
    if mode in ("dense", "lazy"):
        return mode
    raise ValueError(
        f"route table mode must be one of {ROUTE_TABLE_MODES}, got {mode!r}"
    )


def make_route_table(
    topology: Topology,
    mode: str = "auto",
    *,
    capacity: Optional[int] = None,
) -> "RouteTable | LazyRouteTable":
    """Build the route table front-end selected by ``mode``.

    ``auto`` picks dense up to :data:`DENSE_ROUTER_THRESHOLD` routers (the
    historical behaviour, bit-identical) and lazy columns above; ``capacity``
    bounds the lazy front-end's resident columns (ignored for dense).
    """
    resolved = resolve_route_table_mode(mode, topology.num_routers)
    if resolved == "dense":
        return RouteTable(topology)
    return LazyRouteTable(topology, capacity=capacity)
