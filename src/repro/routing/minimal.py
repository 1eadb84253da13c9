"""Minimal (MIN) oblivious routing."""

from __future__ import annotations

from .base import RoutingAlgorithm


class MinimalRouting(RoutingAlgorithm):
    """Shortest-path routing: optimal under uniform traffic, pathological under
    adversarial patterns (the single inter-group link saturates).

    Minimal routing needs no injection-time or in-transit decisions: the
    defaults of :class:`RoutingAlgorithm` route every packet along its
    minimal path."""

    name = "min"
