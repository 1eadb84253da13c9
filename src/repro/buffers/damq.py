"""Dynamically Allocated Multi-Queue (DAMQ) buffers with per-VC reservation.

DAMQs (Tamir & Frazier) share a memory pool among the VCs of a port.  The
paper's DAMQ comparison point reserves a fraction of the port memory privately
per VC (75% private / 25% shared by default, the best configuration found in
Section VI-C) because a fully shared pool deadlocks under distance-based
deadlock avoidance: one VC can absorb the whole pool and starve the escape
VCs (Figure 10).

Occupancy accounting: a VC first consumes its private slice; anything beyond
spills into the shared pool.  The computation is order-independent (it is a
function of the per-VC occupancy only), so allocation and release can happen
in any order.
"""

from __future__ import annotations

from typing import Sequence

from .base import BufferOrganization


class DamqBuffer(BufferOrganization):
    """Shared-pool buffer with optional per-VC private reservation.

    .. note:: slotted; see :class:`BufferOrganization`.

    Parameters
    ----------
    num_vcs:
        Virtual channels sharing the port memory.
    total_capacity:
        Total port memory in phits.
    private_per_vc:
        Phits privately reserved for each VC (a single value or one per VC).
        ``sum(private) <= total_capacity``; the remainder is the shared pool.
    """

    __slots__ = ("_total_capacity", "_private", "_shared_capacity",
                 "_shared_used")

    def __init__(
        self,
        num_vcs: int,
        total_capacity: int,
        private_per_vc: int | Sequence[int],
    ) -> None:
        super().__init__(num_vcs)
        if total_capacity < 1:
            raise ValueError("total_capacity must be >= 1 phit")
        if isinstance(private_per_vc, int):
            private = [private_per_vc] * num_vcs
        else:
            private = list(private_per_vc)
            if len(private) != num_vcs:
                raise ValueError(f"expected {num_vcs} private reservations, got {len(private)}")
        for value in private:
            if value < 0:
                raise ValueError("private reservation must be non-negative")
        if sum(private) > total_capacity:
            raise ValueError(
                f"private reservations ({sum(private)}) exceed total capacity ({total_capacity})"
            )
        self._total_capacity = total_capacity
        self._private = private
        self._shared_capacity = total_capacity - sum(private)
        #: phits of the shared pool currently in use, maintained incrementally
        #: (a pure function of the per-VC occupancies, so allocation/release
        #: order still does not matter).
        self._shared_used = 0

    @classmethod
    def from_fraction(
        cls, num_vcs: int, total_capacity: int, private_fraction: float
    ) -> "DamqBuffer":
        """Build a DAMQ reserving ``private_fraction`` of the memory per VC.

        The private share is divided evenly among the VCs (rounded down to
        whole phits), mirroring the paper's "75% private" configurations.
        """
        if not 0.0 <= private_fraction <= 1.0:
            raise ValueError("private_fraction must be within [0, 1]")
        private_total = int(total_capacity * private_fraction)
        per_vc = private_total // num_vcs
        return cls(num_vcs, total_capacity, per_vc)

    # -- internals -----------------------------------------------------------
    def shared_free(self) -> int:
        """Phits currently free in the shared pool."""
        return self._shared_capacity - self._shared_used

    def _sync_free_slab(self) -> None:
        # One mutation can move the shared pool and therefore the free space
        # of *every* VC, so the whole port view is rewritten (num_vcs is
        # small, and this only runs on bound — router-owned — buffers).
        slab = self._free_slab
        if slab is not None:
            base = self._free_base
            shared_free = self._shared_capacity - self._shared_used
            occupancy = self._occupancy
            private = self._private
            for vc in range(self.num_vcs):
                private_free = private[vc] - occupancy[vc]
                if private_free < 0:
                    private_free = 0
                slab[base + vc] = private_free + shared_free

    @property
    def shared_capacity(self) -> int:
        return self._shared_capacity

    def private_capacity(self, vc: int) -> int:
        self._check_vc(vc)
        return self._private[vc]

    # -- queries -----------------------------------------------------------
    def free_for(self, vc: int) -> int:
        self._check_vc(vc)
        private_free = max(0, self._private[vc] - self._occupancy[vc])
        return private_free + self.shared_free()

    def capacity_for(self, vc: int) -> int:
        self._check_vc(vc)
        return self._private[vc] + self._shared_capacity

    @property
    def total_capacity(self) -> int:
        return self._total_capacity

    # -- mutations -----------------------------------------------------------
    def allocate(self, vc: int, phits: int) -> None:
        self._check_vc(vc)
        self._check_phits(phits)
        if phits > self.free_for(vc):
            raise ValueError(
                f"VC {vc} overflow: requested {phits}, available {self.free_for(vc)}"
            )
        occ = self._occupancy[vc]
        new = occ + phits
        self._occupancy[vc] = new
        priv = self._private[vc]
        self._shared_used += (new - priv if new > priv else 0) - (
            occ - priv if occ > priv else 0
        )
        if self._free_slab is not None:
            self._sync_free_slab()

    def release(self, vc: int, phits: int) -> None:
        self._check_vc(vc)
        self._check_phits(phits)
        occ = self._occupancy[vc]
        if phits > occ:
            raise ValueError(
                f"VC {vc} underflow: releasing {phits} with occupancy {occ}"
            )
        new = occ - phits
        self._occupancy[vc] = new
        priv = self._private[vc]
        self._shared_used += (new - priv if new > priv else 0) - (
            occ - priv if occ > priv else 0
        )
        if self._free_slab is not None:
            self._sync_free_slab()
