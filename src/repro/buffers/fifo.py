"""Statically partitioned per-VC FIFO buffers (the paper's simple organization)."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .base import BufferOrganization

#: Interned per-VC capacity vectors.  A network instantiates one buffer per
#: port (hundreds of thousands at system scale) but only a handful of distinct
#: capacity shapes exist (local vs global ports, request vs reply).  The
#: vector is never mutated after ``__init__`` — allocate/release only touch
#: ``_occupancy`` — so every buffer with the same shape can share one tuple
#: instead of carrying a private list (~90 B each).
# devtools: unbounded-ok(one entry per distinct capacity shape; configs define a handful)
_CAPACITY_MEMO: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


class StaticallyPartitionedBuffer(BufferOrganization):
    """Each VC owns a fixed, private slice of the port memory.

    Parameters
    ----------
    num_vcs:
        Virtual channels in the port.
    capacity_per_vc:
        Either a single capacity (phits) applied to every VC or one value per
        VC.
    """

    __slots__ = ("_capacity",)

    def __init__(self, num_vcs: int, capacity_per_vc: int | Sequence[int]) -> None:
        super().__init__(num_vcs)
        if isinstance(capacity_per_vc, int):
            capacities = [capacity_per_vc] * num_vcs
        else:
            capacities = list(capacity_per_vc)
            if len(capacities) != num_vcs:
                raise ValueError(
                    f"expected {num_vcs} per-VC capacities, got {len(capacities)}"
                )
        for cap in capacities:
            if cap < 1:
                raise ValueError(f"per-VC capacity must be >= 1 phit, got {cap}")
        key = tuple(capacities)
        shared = _CAPACITY_MEMO.get(key)
        if shared is None:
            shared = _CAPACITY_MEMO[key] = key
        self._capacity = shared

    # -- queries -----------------------------------------------------------
    # The phit-accounting checks below stay, but upper-bound VC validation is
    # not repeated on the allocator's per-cycle paths (an out-of-range index
    # fails loudly as IndexError).  Negative indices would silently alias the
    # last VC, so those are still rejected explicitly — a routing plan's
    # ``input_vc`` is -1 at injection (ReferenceRouter._plan_for).
    def free_for(self, vc: int) -> int:
        if vc < 0:
            raise ValueError(f"VC {vc} out of range")
        return self._capacity[vc] - self._occupancy[vc]

    def capacity_for(self, vc: int) -> int:
        self._check_vc(vc)
        return self._capacity[vc]

    @property
    def total_capacity(self) -> int:
        return sum(self._capacity)

    # -- mutations -----------------------------------------------------------
    def allocate(self, vc: int, phits: int) -> None:
        if vc < 0:
            raise ValueError(f"VC {vc} out of range")
        occupancy = self._occupancy[vc] + phits
        if occupancy > self._capacity[vc]:
            raise ValueError(
                f"VC {vc} overflow: occupancy {self._occupancy[vc]} + {phits} "
                f"> capacity {self._capacity[vc]}"
            )
        self._occupancy[vc] = occupancy
        slab = self._free_slab
        if slab is not None:
            slab[self._free_base + vc] = self._capacity[vc] - occupancy

    def release(self, vc: int, phits: int) -> None:
        if vc < 0:
            raise ValueError(f"VC {vc} out of range")
        occupancy = self._occupancy[vc] - phits
        if occupancy < 0:
            raise ValueError(
                f"VC {vc} underflow: releasing {phits} with occupancy {self._occupancy[vc]}"
            )
        self._occupancy[vc] = occupancy
        slab = self._free_slab
        if slab is not None:
            slab[self._free_base + vc] = self._capacity[vc] - occupancy
