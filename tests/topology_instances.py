"""One representative instance per registered topology, and the minimal-route
walk the topology tests check route tables against.

Imported by ``conftest.py`` (the ``topo`` fixture is parametrized over
:data:`REGISTRY_INSTANCES`) and by test modules that need the table at
import time; a module of its own because ``benchmarks/conftest.py`` shares
the ``conftest`` module name in a repository-wide run.
"""

#: built via the registry; kept in sync with it by
#: test_topology.py::test_every_registered_topology_has_an_instance.
REGISTRY_INSTANCES = {
    "dragonfly": {"h": 2},
    "flattened_butterfly": {"k1": 4, "k2": 3, "nodes_per_router": 2},
    "hyperx": {"s": (4, 3, 3), "nodes_per_router": 2},
    "megafly": {"spines": 2, "leaves": 2, "h": 2, "nodes_per_router": 2},
}


def min_walk(topo, ports, src, dst):
    """``(router, port, link type)`` hops of the minimal path ``src -> dst``,
    walking ``ports = topo.min_next_ports_to(dst)`` over the wiring."""
    hops, current = [], src
    while current != dst:
        port = ports[current]
        assert port >= 0 and len(hops) < topo.num_routers, (src, dst)
        hops.append((current, port, topo.link_type(current, port)))
        current = topo.neighbor(current, port)
    return hops
