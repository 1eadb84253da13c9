"""Test configuration: make the src/ layout importable without installation."""

from __future__ import annotations

import sys
from pathlib import Path

try:  # pragma: no cover - exercised only in un-installed checkouts
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import pins  # noqa: E402
from repro.config import SimulationConfig  # noqa: E402
from repro.topology import TOPOLOGIES  # noqa: E402
from topology_instances import REGISTRY_INSTANCES  # noqa: E402


@pytest.fixture
def pin(request) -> pins.Pin:
    """Checks this case's value against its entry in ``tests/data/pins.json``."""
    return pins.Pin(request.node.nodeid, pins.PINS, pins.MOVED)


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(items):
    pins.COLLECTED.update(item.nodeid for item in items)


def pytest_terminal_summary(terminalreporter):
    if pins.MOVED:
        terminalreporter.section("moved pins (pinned -> now)")
        for line in pins.moved_table(pins.MOVED):
            terminalreporter.write_line(line)


@pytest.fixture(params=sorted(REGISTRY_INSTANCES), name="topo")
def topo_fixture(request):
    """Each registered topology's representative instance."""
    return TOPOLOGIES.build(request.param, REGISTRY_INSTANCES[request.param])


@pytest.fixture
def tiny_config() -> SimulationConfig:
    """A very small, fast default simulation configuration."""
    return SimulationConfig(warmup_cycles=200, measure_cycles=400)
