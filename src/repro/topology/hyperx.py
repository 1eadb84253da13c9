"""HyperX topology: L fully-connected dimensions (Ahn et al., SC 2008).

A regular HyperX(L, S, K) arranges routers on an L-dimensional lattice with
``S_d`` routers per dimension; within every dimension each router is fully
connected to the ``S_d - 1`` routers sharing its other coordinates.  ``K`` is
the per-link trunking factor; this model implements ``K = 1`` (single links).

Under dimension-order routing (DOR) packets correct dimension 0 first and
then the higher dimensions in ascending order, which gives the topology a
diameter equal to its number of non-degenerate dimensions and link-type
restrictions analogous to the Dragonfly's l-g-l order: dimension-0 links are
mapped to :class:`LinkType.LOCAL` and all higher dimensions to
:class:`LinkType.GLOBAL` (one global *slot* per extra dimension, in traversal
order).  The 2D instance is exactly the paper's Flattened Butterfly
(:class:`repro.topology.flattened_butterfly.FlattenedButterfly2D` is a thin
alias); a single dimension degenerates into a complete graph — the "generic
low-diameter network without link-type restrictions" of Tables I and II.

Coordinates are mixed-radix with dimension 0 fastest:
``router = x0 + x1*S_0 + x2*S_0*S_1 + ...``.  Ports are laid out
dimension-major, within each dimension ordered by target coordinate
(skipping the router's own).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..core.link_types import G, HopSequence, L, LinkType
from .base import PortInfo, Topology
from .registry import register_topology


class HyperX(Topology):
    """Regular HyperX with per-dimension sizes ``dims`` and ``p`` nodes/router.

    Parameters
    ----------
    dims:
        Routers per dimension, ``(S_0, ..., S_{L-1})``.  ``S_0 >= 2``;
        higher dimensions may be 1 (degenerate, no links).
    p:
        Compute nodes per router.
    """

    def __init__(self, dims: Sequence[int], p: int) -> None:
        dims = tuple(int(s) for s in dims)
        if not dims:
            raise ValueError("HyperX needs at least one dimension")
        if dims[0] < 2:
            raise ValueError("HyperX dimension 0 must have at least 2 routers")
        if any(s < 1 for s in dims[1:]):
            raise ValueError("HyperX dimension sizes must be >= 1")
        if p < 1:
            raise ValueError("p must be >= 1")
        self.dims = dims
        self.p = p
        #: first port of each dimension (prefix sums of S_d - 1).
        self._port_base: Tuple[int, ...] = tuple(
            sum(s - 1 for s in dims[:d]) for d in range(len(dims))
        )
        self._radix = sum(s - 1 for s in dims)
        #: mixed-radix strides, dimension 0 fastest.
        strides = [1] * len(dims)
        for d in range(1, len(dims)):
            strides[d] = strides[d - 1] * dims[d - 1]
        self._strides: Tuple[int, ...] = tuple(strides)

    # -- size ------------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        n = 1
        for s in self.dims:
            n *= s
        return n

    @property
    def nodes_per_router(self) -> int:
        return self.p

    @property
    def radix(self) -> int:
        return self._radix

    @property
    def diameter(self) -> int:
        return sum(1 for s in self.dims if s > 1)

    @property
    def canonical_minimal_sequence(self) -> HopSequence:
        return (L,) + (G,) * sum(1 for s in self.dims[1:] if s > 1)

    # -- coordinates ------------------------------------------------------------
    def coords(self, router: int) -> Tuple[int, ...]:
        self._check_router(router)
        return tuple(
            (router // self._strides[d]) % self.dims[d] for d in range(len(self.dims))
        )

    def router_at(self, *coords: int) -> int:
        if len(coords) != len(self.dims):
            raise ValueError(f"expected {len(self.dims)} coordinates, got {len(coords)}")
        router = 0
        for d, (x, s) in enumerate(zip(coords, self.dims)):
            if not 0 <= x < s:
                raise ValueError(f"coordinate {x} out of range for dimension {d}")
            router += x * self._strides[d]
        return router

    # -- ports --------------------------------------------------------------------
    def ports(self, router: int) -> Sequence[PortInfo]:
        coords = self.coords(router)
        infos: List[PortInfo] = []
        for d, s in enumerate(self.dims):
            own = coords[d]
            stride = self._strides[d]
            link_type = LinkType.LOCAL if d == 0 else LinkType.GLOBAL
            for rel in range(s - 1):
                target = rel if rel < own else rel + 1
                infos.append(
                    PortInfo(
                        port=self._port_base[d] + rel,
                        neighbor=router + (target - own) * stride,
                        link_type=link_type,
                    )
                )
        return infos

    # -- minimal (DOR) routing ----------------------------------------------------
    def min_next_ports_to(self, dst_router: int) -> Sequence[int]:
        """Dimension-order routing: correct the first differing dimension.

        Walks the router ids in order while maintaining their mixed-radix
        coordinates incrementally (dimension 0 fastest), so each source costs
        a first-differing-dimension scan instead of a fresh divmod chain.
        """
        self._check_router(dst_router)
        dims = self.dims
        ndim = len(dims)
        dst = self.coords(dst_router)
        port_base = self._port_base
        ports = array("i", [-1]) * self.num_routers
        coords = [0] * ndim
        for src in range(self.num_routers):
            if src != dst_router:
                for d in range(ndim):
                    own = coords[d]
                    target = dst[d]
                    if own != target:
                        ports[src] = port_base[d] + (
                            target if target < own else target - 1
                        )
                        break
            for d in range(ndim):
                coords[d] += 1
                if coords[d] < dims[d]:
                    break
                coords[d] = 0
        return ports

    # -- misc -------------------------------------------------------------------------
    def describe(self) -> str:
        dims = "x".join(str(s) for s in self.dims)
        return (
            f"HyperX(S={dims}, p={self.p}): {self.num_routers} routers, "
            f"{self.num_nodes} nodes, radix {self.radix}"
        )


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperXParams:
    """HyperX(L, S, K) parameters.

    ``s`` is the per-dimension size vector (its length is L); a scalar ``s``
    with ``l`` builds the regular S^L lattice.  Only ``k = 1`` (no link
    trunking) is modeled.
    """

    s: Union[int, Tuple[int, ...]] = (4, 4)
    l: Optional[int] = None
    k: int = 1
    nodes_per_router: int = 2

    def dims(self) -> Tuple[int, ...]:
        if isinstance(self.s, int):
            return (self.s,) * (self.l if self.l is not None else 2)
        return tuple(self.s)

    def validate(self) -> None:
        if self.k != 1:
            raise ValueError("only HyperX K=1 (no link trunking) is modeled")
        if self.l is not None and self.l < 1:
            raise ValueError("HyperX L must be >= 1")
        if not isinstance(self.s, int) and self.l is not None \
                and self.l != len(tuple(self.s)):
            raise ValueError("HyperX L does not match the length of S")


@register_topology(
    "hyperx",
    HyperXParams,
    description="HyperX(L, S, K=1): L fully-connected dimensions under "
                "dimension-order routing",
)
def _build_hyperx(params: HyperXParams) -> HyperX:
    return HyperX(dims=params.dims(), p=params.nodes_per_router)
