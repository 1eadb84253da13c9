"""Pluggable topology registry.

Every topology in the package registers itself here with a *name*, a frozen
*parameter dataclass* (owning defaults and validation) and a *builder*
turning validated parameters into a :class:`~repro.topology.base.Topology`.
The configuration layer (:class:`repro.config.NetworkConfig`) and the
simulation façade resolve topologies exclusively through this registry, so a
new network becomes available everywhere — config validation, simulation,
experiments, CLI — with a single ``@register_topology`` declaration::

    @dataclass(frozen=True)
    class RingParams:
        routers: int = 8
        nodes_per_router: int = 2

        def validate(self) -> None:
            if self.routers < 3:
                raise ValueError("a ring needs at least 3 routers")

    @register_topology("ring", RingParams, description="unidirectional ring")
    def _build_ring(params: RingParams) -> Topology:
        return Ring(params.routers, params.nodes_per_router)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..cache import BoundedLRU
from .base import Topology


@dataclass(frozen=True)
class TopologySpec:
    """One registered topology: parameters, builder and metadata."""

    name: str
    params_cls: type
    builder: Callable[[Any], Topology]
    description: str = ""
    aliases: Tuple[str, ...] = ()

    def make_params(self, params: Optional[Mapping[str, Any]] = None) -> Any:
        """Instantiate and validate the parameter dataclass."""
        values = dict(params or {})
        try:
            instance = self.params_cls(**values)
        except TypeError as exc:
            valid = [f.name for f in dataclasses.fields(self.params_cls)]
            raise ValueError(
                f"invalid parameters {sorted(values)} for topology "
                f"{self.name!r}; expected a subset of {valid}"
            ) from exc
        validate = getattr(instance, "validate", None)
        if validate is not None:
            validate()
        return instance

    def build(self, params: Optional[Mapping[str, Any]] = None) -> Topology:
        return self.builder(self.make_params(params))


class TopologyRegistry:
    """Name -> :class:`TopologySpec` registry with alias resolution.

    Besides plain :meth:`build` (always a fresh instance), the registry keeps
    a small bounded cache of built topologies keyed by ``(canonical name,
    sorted parameter items)`` — see :meth:`build_cached`.  Topologies are
    immutable after construction (their lazy group/slot memos are idempotent),
    so sharing one instance across simulations is safe and saves rebuilding
    the same graph for every point of a sweep.
    """

    #: bounded size of the built-topology cache (LRU eviction).
    BUILD_CACHE_MAX = 16

    def __init__(self) -> None:
        self._specs: Dict[str, TopologySpec] = {}
        self._aliases: Dict[str, str] = {}
        #: (canonical name, params items) -> built topology.
        self._build_cache = BoundedLRU(self.BUILD_CACHE_MAX)
        self.build_cache_hits = 0
        self.build_cache_misses = 0

    # -- registration -------------------------------------------------------
    def register(
        self,
        name: str,
        params_cls: type,
        *,
        description: str = "",
        aliases: Tuple[str, ...] = (),
    ) -> Callable[[Callable[[Any], Topology]], Callable[[Any], Topology]]:
        """Decorator registering ``builder`` under ``name`` (plus aliases)."""

        def decorator(builder: Callable[[Any], Topology]) -> Callable[[Any], Topology]:
            # Check every name before mutating anything, so a collision
            # cannot leave a half-registered topology behind.
            if name in self._specs or name in self._aliases:
                raise ValueError(f"topology {name!r} is already registered")
            for alias in aliases:
                if alias in self._specs or alias in self._aliases:
                    raise ValueError(f"topology alias {alias!r} is already registered")
            spec = TopologySpec(
                name=name,
                params_cls=params_cls,
                builder=builder,
                description=description,
                aliases=tuple(aliases),
            )
            self._specs[name] = spec
            for alias in spec.aliases:
                self._aliases[alias] = name
            return builder

        return decorator

    # -- lookup -------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._specs))

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def get(self, name: str) -> TopologySpec:
        canonical = self._aliases.get(name, name)
        try:
            return self._specs[canonical]
        except KeyError as exc:
            raise ValueError(
                f"unknown topology {name!r}; registered: {', '.join(self.names())}"
            ) from exc

    def build(self, name: str, params: Optional[Mapping[str, Any]] = None) -> Topology:
        """Build the topology registered under ``name``."""
        return self.get(name).build(params)

    def build_cached(
        self, name: str, params: Optional[Mapping[str, Any]] = None
    ) -> Topology:
        """Build-or-reuse the topology registered under ``name``.

        Returns a shared instance for repeated identical requests (sweep
        points differing only in load/seed/routing all describe the same
        graph).  Parameters must already be hashable — tuples, not lists —
        which is how :class:`repro.config.NetworkConfig` stores them; a
        non-hashable request silently falls back to a fresh build.
        """
        spec = self.get(name)
        try:
            key = (spec.name, tuple(sorted((params or {}).items())))
            cached = self._build_cache.get(key)  # raises on unhashable values
        except TypeError:  # unhashable parameter values
            return spec.build(params)
        if cached is not None:
            self.build_cache_hits += 1
            return cached
        self.build_cache_misses += 1
        topology = spec.build(params)
        self._build_cache.put(key, topology)
        return topology


#: The process-wide registry; populated by the topology modules on import.
TOPOLOGIES = TopologyRegistry()

register_topology = TOPOLOGIES.register
