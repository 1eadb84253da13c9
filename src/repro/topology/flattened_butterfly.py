"""2D Flattened Butterfly — a thin alias of :class:`repro.topology.hyperx.HyperX`.

Routers form a ``k1 x k2`` grid; within each row and each column routers are
fully connected.  Under dimension-order routing (DOR) packets first correct
dimension 0 and then dimension 1, which gives the topology a diameter of 2 and
link-type restrictions analogous to the Dragonfly's l-g-l order: dimension-0
links are mapped to :class:`LinkType.LOCAL` and dimension-1 links to
:class:`LinkType.GLOBAL`.

Setting ``k2 = 1`` degenerates into a single fully-connected dimension — a
convenient stand-in for a *generic diameter-1/2 network without link-type
restrictions* (all links LOCAL), which is how the paper's Tables I and II and
Figures 1, 3 and 4 are framed.

All behaviour (port layout, DOR order, link typing) lives in the generalized
:class:`HyperX`; this class only pins ``L = 2`` and keeps the historical
``k1``/``k2``/``p`` parameter names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hyperx import HyperX
from .registry import register_topology


class FlattenedButterfly2D(HyperX):
    """Fully-connected 2D Flattened Butterfly (HyperX with L=2, K=1).

    Parameters
    ----------
    k1, k2:
        Routers per dimension.  ``k2 = 1`` yields a single fully-connected
        dimension (a complete graph of ``k1`` routers, diameter 1).
    p:
        Compute nodes per router.
    """

    def __init__(self, k1: int, k2: int, p: int) -> None:
        if k1 < 2:
            raise ValueError("k1 must be >= 2")
        if k2 < 1:
            raise ValueError("k2 must be >= 1")
        super().__init__(dims=(k1, k2), p=p)

    @property
    def k1(self) -> int:
        return self.dims[0]

    @property
    def k2(self) -> int:
        return self.dims[1]

    def describe(self) -> str:
        return (
            f"FlattenedButterfly2D(k1={self.k1}, k2={self.k2}, p={self.p}): "
            f"{self.num_routers} routers, {self.num_nodes} nodes, radix {self.radix}"
        )


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlattenedButterflyParams:
    """Parameters of the 2D Flattened Butterfly."""

    k1: int = 4
    k2: int = 4
    nodes_per_router: int = 2


@register_topology(
    "flattened_butterfly",
    FlattenedButterflyParams,
    description="2D Flattened Butterfly (HyperX L=2): fully-connected rows "
                "and columns under dimension-order routing",
    aliases=("fb", "flattened-butterfly"),
)
def _build_flattened_butterfly(params: FlattenedButterflyParams) -> FlattenedButterfly2D:
    return FlattenedButterfly2D(k1=params.k1, k2=params.k2, p=params.nodes_per_router)
