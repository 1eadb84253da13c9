"""Phased execution sessions: warmup / measure / drain with pluggable probes.

:class:`Session` is the public execution API of the simulator: it exposes a
run's lifecycle as explicit, resumable phases::

    session = Session(config, probes=[TimeSeriesProbe(100)])
    session.warmup()                  # config.warmup_cycles, no statistics
    first = session.measure()         # one steady-state window -> SimulationResult
    second = session.measure(2000, label="post-burst")   # another window
    session.drain()                   # stop injection, empty the network
    record = session.record()         # RunRecord: summary+channels+provenance

Phases may be interleaved with raw ``run_until(cycle)`` stepping, and any
number of measurement windows can be opened per run — transient scenarios
(burst absorption, saturation onset, recovery) that one fixed window cannot
express.  :meth:`Session.run` is the paper's protocol in one call: warm up,
measure one steady-state window, return the record.

Probes attach before the first phase; when none are attached the session
wires **nothing** into the simulation, so the no-probe path is bit-identical
to (and as fast as) the un-instrumented engine — see :mod:`repro.probes` for
the zero-cost-when-unsubscribed invariant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .collector import paused_collector
from .config import SimulationConfig
from .keys import config_key
from .metrics import SimulationResult
from .probes import Probe, ProbeHub
from .record import RECORD_SCHEMA_VERSION, RunRecord
from .simulation import Simulation

#: default bound on how long ``drain()`` keeps the clock running.
DEFAULT_DRAIN_LIMIT_CYCLES = 1_000_000

#: two-sided Student-t critical values by confidence level and degrees of
#: freedom (batch-means confidence intervals over few windows need the exact
#: small-sample quantiles; beyond the table the normal quantile is used).
_T_CRITICAL = {
    0.90: (6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812),
    0.95: (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228),
    0.99: (63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169),
}
_NORMAL_QUANTILE = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


@dataclass(frozen=True)
class ConvergenceSettings:
    """Stopping rule of :meth:`Session.measure_converged`.

    The measurement budget (``config.measure_cycles``) is split into
    ``max_windows`` equal batch windows; after each window, batch-means
    confidence intervals on accepted load and average latency are compared
    against ``rel_tol`` (relative half-width).  Measurement stops at the
    first window (>= ``min_windows``) where both are within tolerance, so a
    quickly-converging point spends a fraction of the fixed budget; a noisy
    one is capped at exactly the budget.
    """

    rel_tol: float = 0.05
    confidence: float = 0.95
    min_windows: int = 3
    max_windows: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must be in (0, 1)")
        if self.confidence not in _T_CRITICAL:
            raise ValueError(
                f"confidence must be one of {sorted(_T_CRITICAL)}, "
                f"got {self.confidence}"
            )
        if not 2 <= self.min_windows <= self.max_windows:
            raise ValueError("need 2 <= min_windows <= max_windows")


def _relative_half_width(values: Sequence[float], confidence: float) -> float:
    """CI half-width of the batch means, relative to their mean.

    Returns ``inf`` when no interval exists yet (fewer than two batches) and
    ``0`` for a degenerate exactly-constant sequence (including all-zero).
    """
    n = len(values)
    if n < 2:
        return math.inf
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    if variance == 0.0:
        return 0.0
    if mean == 0.0:
        return math.inf
    table = _T_CRITICAL[confidence]
    t = table[n - 2] if n - 2 < len(table) else _NORMAL_QUANTILE[confidence]
    return t * math.sqrt(variance / n) / abs(mean)


class Session:
    """One simulation run, driven phase by phase.

    Parameters
    ----------
    config:
        Configuration to build a fresh :class:`Simulation` from.  Mutually
        exclusive with ``simulation``.
    probes:
        Probes to attach before the first phase (more via :meth:`attach`).
    simulation:
        Adopt an already-constructed simulation instead of building one:
        the artifact-injection path (``Simulation(config, artifacts=...)``)
        used by the sweep orchestrator's workers and the performance ledger.
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        *,
        probes: Sequence[Probe] = (),
        simulation: Optional[Simulation] = None,
    ) -> None:
        if (config is None) == (simulation is None):
            raise ValueError("pass exactly one of config or simulation")
        self.sim = simulation if simulation is not None else Simulation(config)
        self.config = self.sim.config
        self.engine = self.sim.engine
        self.phase = "idle"
        #: per-window (label, summary) pairs in measurement order.
        self.windows: List[Tuple[str, SimulationResult]] = []
        self._probes: List[Probe] = []
        self._hub: Optional[ProbeHub] = None
        self._wired = False
        self._finished = False
        self._wall_start: Optional[float] = None
        self._wall_elapsed = 0.0
        #: extra provenance entries merged into :meth:`record`'s output
        #: (e.g. the convergence controller's stopping diagnostics).
        self.provenance_extra: Dict[str, Any] = {}
        for probe in probes:
            self.attach(probe)

    # -- introspection --------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation cycle."""
        return self.engine.now

    @property
    def probes(self) -> Tuple[Probe, ...]:
        return tuple(self._probes)

    # -- probe management -----------------------------------------------------
    def attach(self, probe: Probe) -> "Session":
        """Attach a probe (only before the first phase starts)."""
        if self._wired:
            raise RuntimeError(
                "probes must be attached before the first session phase"
            )
        self._probes.append(probe)
        return self

    def _wire(self) -> None:
        if self._wired:
            return
        self._wired = True
        self._wall_start = time.perf_counter()
        if not self._probes:
            return  # zero-cost invariant: nothing is installed anywhere
        self._hub = ProbeHub(self._probes)
        self._hub.wire(self.sim)
        for probe in self._probes:
            probe.on_attach(self)
        # Channel-name collisions are knowable now — fail before any cycle
        # runs rather than in record() after a long run.
        seen: set = set()
        for probe in self._probes:
            for name in probe.channels():
                if name in seen:
                    raise ValueError(
                        f"duplicate telemetry channel {name!r}: two attached "
                        "probes export the same channel name"
                    )
                seen.add(name)
        for probe in self._probes:
            if probe.sample_interval > 0:
                self._arm_sampler(probe)

    def _arm_sampler(self, probe: Probe) -> None:
        """Self-rescheduling engine event driving ``probe.on_sample``.

        Sampling events carry no simulation state and never touch the shared
        RNG, so they cannot perturb results; they do pin the engine's idle
        fast-forward to the sampling grid, which is the price of observing a
        quiet network.
        """
        engine = self.engine

        def fire(cycle: int) -> None:
            probe.on_sample(cycle)
            if not self._finished:
                engine.schedule(cycle + probe.sample_interval, fire)

        engine.schedule(engine.now + probe.sample_interval, fire)

    def _enter_phase(self, phase: str) -> None:
        if self._finished:
            raise RuntimeError("session already finished (record() was called)")
        self._wire()
        self.phase = phase
        if self._hub is not None:
            self._hub.dispatch_phase(phase, self.engine.now)

    # -- phases ---------------------------------------------------------------
    @paused_collector()
    def warmup(self, cycles: Optional[int] = None) -> "Session":
        """Run the warm-up phase (default ``config.warmup_cycles``)."""
        self._enter_phase("warmup")
        cycles = self.config.warmup_cycles if cycles is None else cycles
        self.engine.run_until(self.engine.now + cycles)
        return self

    @paused_collector()
    def measure(
        self, cycles: Optional[int] = None, label: Optional[str] = None
    ) -> SimulationResult:
        """Run one steady-state measurement window and return its summary.

        Each call opens a fresh window ``[now, now + cycles)``; any number of
        windows may be measured per session.  The first window's summary is
        what :meth:`record` reports as the run's headline result.
        """
        self._enter_phase("measure")
        cycles = self.config.measure_cycles if cycles is None else cycles
        metrics = self.sim.metrics
        start = self.engine.now
        metrics.open_window(start, start + cycles)
        self.engine.run_until(start + cycles)
        deadlock = self.sim._deadlock_suspected()
        if label is None:
            label = f"measure{len(self.windows)}"
        if self._hub is not None:
            # Flush interval-sampled probes on the exact window edge before
            # the window's counters are reset.
            self._hub.dispatch_phase("window-close", self.engine.now)
        result = metrics.close_window(
            offered_load=self.config.traffic.load, deadlock_suspected=deadlock
        )
        controller = self.sim.fault_controller
        if controller is not None:
            # Cumulative fault counters per window: differencing consecutive
            # windows localizes a transient to its window.
            result.extra.update(controller.window_extra())
        if deadlock:
            self._record_deadlock(label, result)
        self.windows.append((label, result))
        return result

    def _record_deadlock(self, label: str, result: SimulationResult) -> None:
        """Harden a tripped deadlock window into a typed, provenance-flagged
        outcome (instead of only the boolean result flag)."""
        sim = self.sim
        outcome = {
            "window": label,
            "cycle": self.engine.now,
            "last_delivery_cycle": sim.metrics.last_delivery_cycle,
            "deadlock_window_cycles": self.config.deadlock_window_cycles,
            "resident_packets": sim.total_resident_packets(),
        }
        result.extra["outcome"] = "deadlock"
        result.extra["deadlock"] = outcome
        self.provenance_extra.setdefault("deadlock", []).append(outcome)

    def measure_converged(
        self,
        settings: Optional[ConvergenceSettings] = None,
        label: str = "converged",
    ) -> SimulationResult:
        """Measure in batch windows until confidence intervals converge.

        Opt-in alternative to the fixed-budget :meth:`measure`: the
        measurement budget (``config.measure_cycles``) is split into
        ``settings.max_windows`` equal windows, measured one at a time; after
        each window the batch-means confidence intervals on accepted load and
        average latency are checked against ``settings.rel_tol``.  The first
        window (>= ``min_windows``) where both are inside tolerance stops the
        run, so total measured cycles never exceed the fixed budget and are
        usually well below it.  A suspected deadlock stops immediately
        (unconverged).

        Returns the combined summary over the measured windows (throughput
        from total phits over total cycles, latency weighted by delivered
        packets) and inserts it ahead of its per-window summaries — when
        this is the session's first measurement (as in the orchestrator's
        converge mode), :meth:`record` therefore reports it as the headline
        result, with the stopping diagnostics in the record's provenance;
        after earlier :meth:`measure` calls, the headline stays the first
        window as always and the combined summary rides along.  Results are *not* comparable
        bit-for-bit with fixed-budget runs — the orchestrator keys converged
        runs separately in the result store.
        """
        if settings is None:
            settings = ConvergenceSettings()
        budget = self.config.measure_cycles
        window = max(1, budget // settings.max_windows)
        # Tiny budgets clamp the window to one cycle; cap the window *count*
        # too so total measured cycles never exceed the budget.
        max_windows = min(settings.max_windows, max(1, budget // window))
        headline_index = len(self.windows)
        batch: List[SimulationResult] = []
        converged = False
        rel_accepted = rel_latency = math.inf
        for index in range(max_windows):
            result = self.measure(window, label=f"{label}/batch{index}")
            batch.append(result)
            if result.deadlock_suspected:
                break
            if len(batch) >= settings.min_windows:
                rel_accepted = _relative_half_width(
                    [r.accepted_load for r in batch], settings.confidence
                )
                rel_latency = _relative_half_width(
                    [r.average_latency for r in batch], settings.confidence
                )
                if rel_accepted <= settings.rel_tol and rel_latency <= settings.rel_tol:
                    converged = True
                    break
        combined = self._combine_windows(batch)
        combined.extra["convergence_windows"] = len(batch)
        combined.extra["converged"] = converged
        self.windows.insert(headline_index, (label, combined))
        self.provenance_extra["convergence"] = {
            "converged": converged,
            "windows": len(batch),
            "window_cycles": window,
            "budget_cycles": budget,
            "measured_cycles": len(batch) * window,
            "rel_tol": settings.rel_tol,
            "confidence": settings.confidence,
            "rel_half_width_accepted": None if math.isinf(rel_accepted)
            else round(rel_accepted, 6),
            "rel_half_width_latency": None if math.isinf(rel_latency)
            else round(rel_latency, 6),
        }
        return combined

    @staticmethod
    def _combine_windows(batch: List[SimulationResult]) -> SimulationResult:
        """Aggregate equal batch windows into one summary.

        Throughput is exact (total phits over total cycles); latency means
        and the misrouted fraction are weighted by each window's delivered
        packets; p99 is the same weighted mean (an approximation — per-window
        histograms are already closed when batches combine).
        """
        base = batch[0]
        total_cycles = sum(r.measured_cycles for r in batch)
        phits = sum(r.phits_delivered for r in batch)
        delivered = sum(r.packets_delivered for r in batch)
        weights = [r.packets_delivered for r in batch]
        weight_sum = sum(weights) or 1

        def weighted(attr: str) -> float:
            return sum(
                getattr(r, attr) * w for r, w in zip(batch, weights)
            ) / weight_sum

        return SimulationResult(
            offered_load=base.offered_load,
            accepted_load=phits / (base.num_nodes * total_cycles),
            average_latency=weighted("average_latency"),
            latency_p99=weighted("latency_p99"),
            packets_delivered=delivered,
            packets_generated=batch[-1].packets_generated,
            phits_delivered=phits,
            measured_cycles=total_cycles,
            num_nodes=base.num_nodes,
            misrouted_fraction=weighted("misrouted_fraction"),
            deadlock_suspected=any(r.deadlock_suspected for r in batch),
        )

    @paused_collector()
    def run_until(self, cycle: int) -> "Session":
        """Advance raw simulation time (no measurement bookkeeping).

        Resumable low-level stepping for custom phase structures — e.g.
        advancing to the onset of a scripted traffic burst before opening a
        measurement window.
        """
        self._enter_phase("free-run")
        self.engine.run_until(cycle)
        return self

    @paused_collector()
    def drain(self, max_cycles: int = DEFAULT_DRAIN_LIMIT_CYCLES) -> int:
        """Stop injection and run until the network is empty (or the bound).

        Returns the number of cycles the drain took.  After draining,
        ``total_resident_packets()`` is zero unless the network is genuinely
        wedged (suspected deadlock) or ``max_cycles`` elapsed first.
        """
        self._enter_phase("drain")
        self.sim.traffic.stop()
        engine = self.engine
        start = engine.now
        deadline = start + max_cycles
        while engine.now < deadline and not self._network_empty():
            next_event = engine.next_event_cycle()
            if next_event is None:
                # Routers may be mid-pipeline with no calendar entry yet.
                engine.run_until(min(engine.now + 1, deadline))
            else:
                engine.run_until(min(next_event + 1, deadline))
        if self._hub is not None:
            self._hub.dispatch_phase("drained", engine.now)
        return engine.now - start

    def _network_empty(self) -> bool:
        """No packet anywhere: buffers, injection queues, or in-flight events.

        Probe sampling events are excluded from the in-flight check — they
        re-arm themselves forever and carry no packets.
        """
        sim = self.sim
        if sim._resident_ledger.count:
            return False
        for router in sim.routers:
            if router._injection_resident or router._source_backlog:
                return False
        samplers = sum(1 for probe in self._probes if probe.sample_interval > 0)
        return self.engine.pending_events() <= samplers

    # -- results --------------------------------------------------------------
    def record(self) -> RunRecord:
        """Close the session and assemble its versioned :class:`RunRecord`."""
        if not self.windows:
            raise ValueError("record() requires at least one measure() window")
        if not self._finished:
            self._finished = True
            self.phase = "done"
            if self._hub is not None:
                self._hub.dispatch_phase("done", self.engine.now)
            if self._wall_start is not None:
                self._wall_elapsed = time.perf_counter() - self._wall_start
        channels: Dict[str, Any] = {}
        for probe in self._probes:
            for name, payload in probe.channels().items():
                if name in channels:
                    raise ValueError(f"duplicate telemetry channel {name!r}")
                channels[name] = payload
        engine = self.engine
        sim = self.sim
        provenance = {
            "schema_version": RECORD_SCHEMA_VERSION,
            "config_key": config_key(self.config),
            "engine_cycles": engine.now,
            "events_processed": engine.events_processed,
            "idle_cycles_skipped": engine.idle_cycles_skipped,
            "wall_time_s": round(self._wall_elapsed, 6),
            "probes": [type(probe).__name__ for probe in self._probes],
        }
        if sim.fault_controller is not None:
            provenance["faults"] = sim.fault_controller.provenance()
        # Column builds, hits and evictions: an execution strategy, not part
        # of any cache key, but recorded so system-scale runs can be audited
        # for column churn.
        provenance["route_table"] = sim.route_table.table_stats()
        # Plan-construction work done on memo misses, and what the memos
        # hold: says whether a slow point spent its time rebuilding plans.
        provenance["routing"] = sim.routing.memo_stats()
        provenance.update(self.provenance_extra)
        summary = self.windows[0][1]
        windows = [
            {"label": label, "summary": result.to_dict()}
            for label, result in self.windows
        ]
        return RunRecord(
            summary=summary,
            channels=channels,
            windows=windows if len(windows) > 1 else [],
            provenance=provenance,
        )

    def run(self) -> RunRecord:
        """Convenience: ``warmup(); measure(); record()`` in one call."""
        self.warmup()
        self.measure()
        return self.record()
