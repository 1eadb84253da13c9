"""The cyclic garbage collector's one policy: paused while the simulator runs.

A run allocates no cyclic garbage.  Packets, event tuples, plans and records
are freed by reference counting; the only reference cycle the program builds
is a whole :class:`~repro.simulation.Simulation` (routers <-> engine <->
links), which dies once per job (``tests/test_collector_policy.py`` pins
both halves).  Every automatic collection during construction or a
:class:`~repro.session.Session` phase therefore walks a large live heap and
finds nothing — a tenth of wall time at 876 routers, more above — so those
blocks run with the collector paused, and the finished simulation is
reclaimed where it dies (``executors._run_job``).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["paused_collector"]


@contextmanager
def paused_collector() -> Iterator[None]:
    """Run the block — or, as ``@paused_collector()``, every call of a
    function — with automatic cyclic collection off.

    Found enabled, the collector is re-enabled on the way out — also when
    the block raises — and one young (generation-0) pass runs *before
    returning*: the allocation counters the block ran up are settled inside
    the block that caused them, not in the caller's next allocation.  Found
    disabled (an enclosing pause, or a caller who turned it off), nothing is
    touched, so pauses nest and a caller's choice is respected.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect(0)
