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

import time
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
        #: (e.g. the outcome of a window that suspected a deadlock).
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

        Latency is censored at the window's edges: ``average_latency`` (and
        ``latency_p99`` and ``misrouted_fraction``) count only packets both
        generated and delivered inside this window.  A packet generated in
        the window but delivered after it closes is dropped, so a short
        window reads low.  At ``tiny`` scale, uniform MIN traffic at load
        0.2 reads 138.1 cycles over a 250-cycle window, 161.9 over 600 and
        168.4 over 6,000: the scale's 600-cycle budget reads 3.9% low.
        Accepted load counts every phit delivered in the window and is not
        censored.
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
        # Column builds, hits and misses: an execution strategy, not part
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
