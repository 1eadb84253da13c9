"""Graph-level utilities built on top of :class:`repro.topology.base.Topology`.

These helpers are primarily used by tests and examples to validate topology
constructions (connectivity, diameter, degree regularity) through the
wiring's breadth-first search.
"""

from __future__ import annotations

from typing import Dict, Optional

from .base import Topology


def bfs_distances(topology: Topology, source: int) -> Dict[int, int]:
    """Hop distances from ``source`` to every reachable router (the wiring
    is symmetric, so distances towards ``source`` are distances from it)."""
    dist, _ = topology.wiring().bfs(source)
    return {router: d for router, d in enumerate(dist) if d >= 0}


def is_connected(topology: Topology) -> bool:
    """True when every router is reachable from router 0."""
    return len(bfs_distances(topology, 0)) == topology.num_routers


def measured_diameter(topology: Topology, sample_sources: Optional[int] = None) -> int:
    """Graph diameter measured by BFS.

    ``sample_sources`` limits the number of BFS roots (evenly spaced) for large
    networks; ``None`` measures exactly.
    """
    n = topology.num_routers
    if sample_sources is None or sample_sources >= n:
        sources = range(n)
    else:
        step = max(1, n // sample_sources)
        sources = range(0, n, step)
    best = 0
    for src in sources:
        dist = bfs_distances(topology, src)
        if len(dist) != n:
            raise ValueError("topology is not connected")
        best = max(best, max(dist.values()))
    return best


def degree_histogram(topology: Topology) -> Dict[int, int]:
    """Map of router degree -> count of routers with that degree."""
    histogram: Dict[int, int] = {}
    for router in range(topology.num_routers):
        degree = len(topology.ports(router))
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def verify_bidirectional(topology: Topology) -> bool:
    """Check that every link is matched by a reverse link of the same type
    (building the :class:`~repro.topology.base.Wiring` checks exactly that)."""
    try:
        topology.wiring()
    except ValueError:
        return False
    return True
