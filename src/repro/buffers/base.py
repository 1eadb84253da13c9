"""Buffer organization interface.

A *buffer organization* governs how the memory of an input port is shared
among its virtual channels.  The same abstraction is used in two places:

* at the **downstream** input port, to account the phits actually stored; and
* at the **upstream** output port, as the credit mirror that decides whether a
  packet may be forwarded (virtual cut-through requires space for the whole
  packet before the transfer starts).

Keeping both sides on the same class guarantees the credit view can never
diverge structurally from the real buffer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class BufferOrganization(ABC):
    """Space accounting for the VCs of one port.

    Slotted (as are the stock subclasses): two instances exist per port —
    the buffer proper and the upstream credit mirror — so per-instance
    dicts are measurable at 10^5-endpoint scale."""

    __slots__ = ("num_vcs", "_occupancy", "_free_slab", "_free_base")

    def __init__(self, num_vcs: int) -> None:
        if num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        self.num_vcs = num_vcs
        #: phits held by each VC; subclasses derive free space from it.
        self._occupancy = [0] * num_vcs
        #: optional flat hot-state view: when bound, ``slab[base + vc]``
        #: mirrors ``free_for(vc)`` after every mutation, so the allocator
        #: inner loop reads plain ints instead of calling methods.
        self._free_slab: list | None = None
        self._free_base = 0

    # -- hot-state binding -----------------------------------------------------
    def bind_free_slab(self, slab: list, base: int) -> None:
        """Mirror per-VC free space into ``slab[base + vc]`` from now on.

        The slab is a flat, preallocated per-router list indexed by a single
        ``(port, vc)`` integer; the buffer keeps its own accounting as the
        source of truth and pushes the derived free-space values on every
        :meth:`allocate`/:meth:`release`.
        """
        self._free_slab = slab
        self._free_base = base
        self._sync_free_slab()

    def _sync_free_slab(self) -> None:
        """Rewrite every bound slab entry (default: one query per VC)."""
        slab = self._free_slab
        if slab is not None:
            base = self._free_base
            for vc in range(self.num_vcs):
                slab[base + vc] = self.free_for(vc)

    # -- queries -----------------------------------------------------------
    @abstractmethod
    def free_for(self, vc: int) -> int:
        """Phits currently available to ``vc`` (private + any shared pool)."""

    def occupancy(self, vc: int) -> int:
        """Phits currently held by ``vc``."""
        self._check_vc(vc)
        return self._occupancy[vc]

    @abstractmethod
    def capacity_for(self, vc: int) -> int:
        """Maximum phits ``vc`` could hold if it had the port to itself."""

    @property
    @abstractmethod
    def total_capacity(self) -> int:
        """Total phits of memory in the port."""

    def total_occupancy(self) -> int:
        return sum(self._occupancy)

    def can_accept(self, vc: int, phits: int) -> bool:
        """Virtual cut-through admission check for a whole packet."""
        return self.free_for(vc) >= phits

    # -- mutations -----------------------------------------------------------
    @abstractmethod
    def allocate(self, vc: int, phits: int) -> None:
        """Reserve ``phits`` for ``vc``.  Raises if the space is not available."""

    @abstractmethod
    def release(self, vc: int, phits: int) -> None:
        """Return ``phits`` previously allocated to ``vc``."""

    # -- validation ------------------------------------------------------------
    def _check_vc(self, vc: int) -> None:
        if not 0 <= vc < self.num_vcs:
            raise ValueError(f"VC {vc} out of range [0, {self.num_vcs})")

    def _check_phits(self, phits: int) -> None:
        if phits < 0:
            raise ValueError(f"phits must be non-negative, got {phits}")
