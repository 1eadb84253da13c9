"""Steady-state statistics: latency, throughput, misrouting, progress tracking.

The paper reports average packet latency and accepted load (phits/node/cycle)
measured in steady state after a warm-up period.  :class:`MetricsCollector`
implements that methodology: packets generated before the measurement window
opens are excluded from latency statistics, and throughput is the number of
phits delivered inside the window divided by ``nodes x window``.

Latencies are accumulated in a :class:`LatencyHistogram` — a bounded bucketed
histogram with an exact fine region — instead of a store-every-latency list,
so PAPER-scale runs (tens of millions of measured packets) take O(1) memory
per packet.  The mean is exact (running integer sum); percentiles are exact
for latencies below :attr:`LatencyHistogram.FINE_LIMIT` cycles and carry a
documented <= 12.5% relative bucket error above it.

Sessions may open several measurement windows per run: ``close_window``
snapshots the window's :class:`SimulationResult` and resets the window-scoped
counters, and an internal epoch counter keeps late deliveries of a previous
window's packets from polluting the next window's statistics.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .packet import Packet


class ResidentLedger:
    """Network-wide count of packets resident in router input buffers.

    One ledger is shared by all routers of a simulation; a link delivery
    (``InputPort.deliver``) increments it and popping a network input port
    decrements it, which makes
    ``Simulation.total_resident_packets`` (and the deadlock heuristic) O(1)
    instead of a sum over every router.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class LatencyHistogram:
    """Bounded-memory latency distribution with an exact fine region.

    Latencies below :attr:`FINE_LIMIT` land in width-1 buckets, so their
    counts, mean and percentiles are *exact* — identical to keeping the full
    sorted list.  Latencies at or above the limit land in logarithmic buckets
    (8 sub-buckets per power of two), whose representative value is the
    bucket's lower edge: the relative error of a percentile that falls in the
    coarse region is bounded by 1/8 (12.5%) of the true value.  The mean is
    always exact — it is computed from a running integer sum, not from bucket
    representatives.

    Memory is O(FINE_LIMIT + 8 * log2(max latency)) regardless of how many
    packets are recorded.
    """

    #: upper bound (exclusive) of the exact width-1 bucket region.
    FINE_LIMIT = 1 << 14  # 16,384 cycles
    #: log2 of the number of sub-buckets per octave in the coarse region.
    COARSE_SUBBITS = 3

    __slots__ = ("fine", "coarse", "count", "total", "max_value")

    def __init__(self) -> None:
        #: width-1 buckets, grown lazily to the largest fine latency seen.
        self.fine: List[int] = []
        #: coarse bucket key -> count (key encodes octave and sub-bucket).
        self.coarse: Dict[int, int] = {}
        self.count = 0
        #: exact running sum of every recorded latency.
        self.total = 0
        self.max_value = -1

    def add(self, value: int) -> None:
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        if 0 <= value < self.FINE_LIMIT:
            fine = self.fine
            if value >= len(fine):
                fine.extend([0] * (value + 1 - len(fine)))
            fine[value] += 1
        else:
            octave = value.bit_length() - 1
            sub = (value >> (octave - self.COARSE_SUBBITS)) & (
                (1 << self.COARSE_SUBBITS) - 1
            )
            key = (octave << self.COARSE_SUBBITS) | sub
            self.coarse[key] = self.coarse.get(key, 0) + 1

    def _coarse_lower(self, key: int) -> int:
        """Smallest latency mapping into coarse bucket ``key`` (its edge)."""
        octave = key >> self.COARSE_SUBBITS
        sub = key & ((1 << self.COARSE_SUBBITS) - 1)
        return (1 << octave) | (sub << (octave - self.COARSE_SUBBITS))

    # -- statistics -----------------------------------------------------------
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Value at rank ``round(fraction * (count - 1))``.

        The rank formula matches indexing into the full sorted latency list,
        so fine-region percentiles are bit-identical to the list-based
        implementation this histogram replaced.
        """
        if not self.count:
            return 0.0
        rank = min(self.count - 1, int(round(fraction * (self.count - 1))))
        cumulative = 0
        for value, bucket in enumerate(self.fine):
            if bucket:
                cumulative += bucket
                if cumulative > rank:
                    return float(value)
        for key in sorted(self.coarse):
            cumulative += self.coarse[key]
            if cumulative > rank:
                return float(self._coarse_lower(key))
        return float(self.max_value)  # pragma: no cover - defensive

    def values(self) -> List[int]:
        """Recorded latencies in ascending order (coarse values approximated).

        Materializes ``count`` elements — meant for tests and small runs, not
        for PAPER-scale results (use the bucket accessors instead).
        """
        out: List[int] = []
        for value, bucket in enumerate(self.fine):
            if bucket:
                out.extend([value] * bucket)
        for key in sorted(self.coarse):
            out.extend([self._coarse_lower(key)] * self.coarse[key])
        return out

    # -- persistence ----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON payload: sparse ``[value, count]`` bucket list."""
        buckets = [[value, bucket] for value, bucket in enumerate(self.fine) if bucket]
        buckets.extend(
            [self._coarse_lower(key), self.coarse[key]] for key in sorted(self.coarse)
        )
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max_value,
            "fine_limit": self.FINE_LIMIT,
            "coarse_relative_error": 1 / (1 << self.COARSE_SUBBITS),
            "buckets": buckets,
        }


@dataclass
class SimulationResult:
    """Summary of one simulation run."""

    offered_load: float
    accepted_load: float
    average_latency: float
    latency_p99: float
    packets_delivered: int
    packets_generated: int
    phits_delivered: int
    measured_cycles: int
    num_nodes: int
    misrouted_fraction: float
    deadlock_suspected: bool
    extra: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        flag = " DEADLOCK-SUSPECTED" if self.deadlock_suspected else ""
        return (
            f"offered={self.offered_load:.3f} accepted={self.accepted_load:.3f} "
            f"latency={self.average_latency:.1f}cy delivered={self.packets_delivered}"
            f"{flag}"
        )

    # -- persistence (orchestrator result store) --------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation used by the experiment result store."""
        return {
            "offered_load": self.offered_load,
            "accepted_load": self.accepted_load,
            "average_latency": self.average_latency,
            "latency_p99": self.latency_p99,
            "packets_delivered": self.packets_delivered,
            "packets_generated": self.packets_generated,
            "phits_delivered": self.phits_delivered,
            "measured_cycles": self.measured_cycles,
            "num_nodes": self.num_nodes,
            "misrouted_fraction": self.misrouted_fraction,
            "deadlock_suspected": self.deadlock_suspected,
            # the only mutable field: callers may edit what they get back
            "extra": copy.deepcopy(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationResult":
        return cls(**data)


class MetricsCollector:
    """Accumulates per-packet statistics and produces a :class:`SimulationResult`."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self.measurement_start: Optional[int] = None
        self.measurement_end: Optional[int] = None
        self.packets_generated = 0
        self.packets_delivered_total = 0
        self.packets_delivered_window = 0
        self.phits_delivered_window = 0
        self.latency_histogram = LatencyHistogram()
        self.misrouted_measured = 0
        self.measured_delivered = 0
        self.last_delivery_cycle = -1
        #: measurement epoch: packets are stamped with the epoch of the window
        #: they were generated in, so a packet from window N delivered after
        #: window N closed never pollutes window N+1's statistics.  Epoch 1
        #: compares equal to the legacy boolean ``measured=True`` stamp.
        self._epoch = 1

    # -- window control ---------------------------------------------------------
    def open_window(self, start_cycle: int, end_cycle: int) -> None:
        """Define the steady-state measurement window ``[start, end)``."""
        if end_cycle <= start_cycle:
            raise ValueError("measurement window must be non-empty")
        self.measurement_start = start_cycle
        self.measurement_end = end_cycle

    def close_window(
        self, offered_load: float, deadlock_suspected: bool = False
    ) -> SimulationResult:
        """Snapshot the open window's result and reset window-scoped state.

        After closing, a new window may be opened on the same collector
        (multi-window sessions); cumulative counters (``packets_generated``,
        ``packets_delivered_total``) keep accumulating across windows.
        """
        result = self.result(offered_load, deadlock_suspected=deadlock_suspected)
        self.measurement_start = None
        self.measurement_end = None
        self._epoch += 1
        self.packets_delivered_window = 0
        self.phits_delivered_window = 0
        self.latency_histogram = LatencyHistogram()
        self.misrouted_measured = 0
        self.measured_delivered = 0
        return result

    def in_window(self, cycle: int) -> bool:
        return (
            self.measurement_start is not None
            and self.measurement_end is not None
            and self.measurement_start <= cycle < self.measurement_end
        )

    # -- recording ----------------------------------------------------------------
    def record_generation(self, packet: Packet, cycle: int) -> None:
        self.packets_generated += 1
        packet.measured = self._epoch if self.in_window(cycle) else 0

    def record_delivery(self, packet: Packet, cycle: int) -> None:
        self.packets_delivered_total += 1
        self.last_delivery_cycle = cycle
        if self.in_window(cycle):
            self.packets_delivered_window += 1
            self.phits_delivered_window += packet.size_phits
        if packet.measured == self._epoch:
            self.measured_delivered += 1
            self.latency_histogram.add(packet.latency)
            if not packet.is_minimal:
                self.misrouted_measured += 1

    # -- results ------------------------------------------------------------------------
    def result(self, offered_load: float, deadlock_suspected: bool = False) -> SimulationResult:
        if self.measurement_start is None or self.measurement_end is None:
            raise ValueError("measurement window was never opened")
        window = self.measurement_end - self.measurement_start
        accepted = self.phits_delivered_window / (self.num_nodes * window)
        histogram = self.latency_histogram
        average_latency = histogram.mean()
        misrouted_fraction = (
            self.misrouted_measured / self.measured_delivered
            if self.measured_delivered else 0.0
        )
        return SimulationResult(
            offered_load=offered_load,
            accepted_load=accepted,
            average_latency=average_latency,
            latency_p99=histogram.percentile(0.99),
            packets_delivered=self.packets_delivered_window,
            packets_generated=self.packets_generated,
            phits_delivered=self.phits_delivered_window,
            measured_cycles=window,
            num_nodes=self.num_nodes,
            misrouted_fraction=misrouted_fraction,
            deadlock_suspected=deadlock_suspected,
        )
