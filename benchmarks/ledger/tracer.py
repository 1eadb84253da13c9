"""Outside-in tracing: spans around calls into the repo's public functions.

Every span is recorded from the ledger's own files — the program under
measurement is not edited.  A span carries name, start, end, the span that
caused it and the repeat it belongs to; spans stay in memory until the run
ends.  The three boundaries the engine crosses once or more per simulated
cycle (calendar fire, traffic tick, router pump) would be millions of spans,
so :func:`instrument_engine` wraps them on the *instances* and keeps only
``(calls, total ns)``; :meth:`Tracer.aggregate` files those totals under the
enclosing span so self time still comes out as span minus children.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.probes import Probe


class NullTracer:
    """Tracing off: every wrapper is the identity, nothing is recorded."""

    enabled = False

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn

    def instrument(self, obj: object, method: str, name: str) -> None:
        pass


class Tracer(NullTracer):
    """In-memory span recorder of one repeat (``parent`` indexes its spans)."""

    enabled = True

    def __init__(self, workload: str, repeat: int) -> None:
        self.workload = workload
        self.repeat = repeat
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        span = {
            "name": name,
            "workload": self.workload,
            "repeat": self.repeat,
            "parent": self._stack[-1] if self._stack else None,
            "calls": 1,
            "start_ns": 0,
            "end_ns": 0,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start_ns"] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end_ns"] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    def instrument(self, obj: object, method: str, name: str) -> None:
        """Shadow ``obj.method`` with a span-recording wrapper on the instance."""
        setattr(obj, method, self.wrap(name, getattr(obj, method)))

    def aggregate(self, name: str, parent: int, calls: int, total_ns: int) -> None:
        """File ``calls`` un-spanned calls taking ``total_ns`` under ``parent``."""
        start = self.spans[parent]["start_ns"]
        self.spans.append({
            "name": name,
            "workload": self.workload,
            "repeat": self.repeat,
            "parent": parent,
            "calls": calls,
            "start_ns": start,
            "end_ns": start + total_ns,
        })

    # -- queries -------------------------------------------------------------
    def find(self, name: str) -> int:
        """Index of the first span called ``name``."""
        for index, span in enumerate(self.spans):
            if span["name"] == name:
                return index
        raise KeyError(name)

    def durations_ns(self, name: str) -> List[int]:
        return [
            span["end_ns"] - span["start_ns"]
            for span in self.spans if span["name"] == name
        ]

    def total_s(self, name: str) -> float:
        return sum(self.durations_ns(name)) / 1e9

    def self_ns(self, index: int) -> int:
        """Duration of span ``index`` minus what its child spans cover."""
        span = self.spans[index]
        children = sum(
            child["end_ns"] - child["start_ns"]
            for child in self.spans[index + 1:]
            if child["parent"] == index
        )
        return span["end_ns"] - span["start_ns"] - children


class EngineTotals(NamedTuple):
    """Cumulative per-tick boundary crossings of one engine."""

    event_calls: int
    event_ns: int
    traffic_calls: int
    traffic_ns: int
    pump_calls: int
    pump_ns: int

    def since(self, earlier: "EngineTotals") -> "EngineTotals":
        return EngineTotals(*(a - b for a, b in zip(self, earlier)))


def instrument_engine(engine: Any) -> Callable[[], EngineTotals]:
    """Wrap the engine's per-tick boundaries; return a reader of the totals.

    This is the one place that names engine internals that are private
    today: ``_fire_events`` (the calendar), ``_generators`` (objects whose
    ``tick`` the engine calls each cycle) and ``_pumps`` (one merged
    has-work+step callable per router).  It fails loudly if any is missing,
    so an engine refactor breaks the traced run instead of silently
    un-instrumenting it.
    """
    for name in ("_fire_events", "_generators", "_pumps"):
        if not hasattr(engine, name):
            raise RuntimeError(
                f"ledger tracer: Engine.{name} is gone; update "
                "benchmarks/ledger/tracer.py:instrument_engine"
            )
    if not callable(engine._fire_events) or not all(map(callable, engine._pumps)):
        raise RuntimeError("ledger tracer: engine boundaries are not callable")

    # Closure cells are the cheapest accumulators CPython offers; the pump
    # wrapper runs ~14-600 times per simulated cycle.
    event_calls = event_ns = traffic_calls = traffic_ns = pump_calls = pump_ns = 0
    clock = perf_counter_ns

    fire = engine._fire_events

    def fire_events(cycle: int) -> None:
        nonlocal event_calls, event_ns
        start = clock()
        fire(cycle)
        event_ns += clock() - start
        event_calls += 1

    engine._fire_events = fire_events

    def wrap_tick(tick: Callable[[int], None]) -> Callable[[int], None]:
        def traced_tick(cycle: int) -> None:
            nonlocal traffic_calls, traffic_ns
            start = clock()
            tick(cycle)
            traffic_ns += clock() - start
            traffic_calls += 1

        return traced_tick

    for generator in engine._generators:
        generator.tick = wrap_tick(generator.tick)

    def wrap_pump(pump: Callable[[int], bool]) -> Callable[[int], bool]:
        def traced_pump(cycle: int) -> bool:
            nonlocal pump_calls, pump_ns
            start = clock()
            busy = pump(cycle)
            pump_ns += clock() - start
            pump_calls += 1
            return busy

        return traced_pump

    pumps = engine._pumps
    for index, pump in enumerate(pumps):
        pumps[index] = wrap_pump(pump)

    def read() -> EngineTotals:
        return EngineTotals(
            event_calls, event_ns, traffic_calls, traffic_ns, pump_calls, pump_ns
        )

    return read


class CountingProbe(Probe):
    """Counts at the layer boundaries only a probe can see.

    Injected and delivered packet counts come from the ``SimulationResult``;
    this probe adds what the result does not carry.  ``sample_interval``
    stays 0, so it schedules no engine events and the traced run's
    ``events_processed`` equals the untraced run's.
    """

    def __init__(self) -> None:
        super().__init__()
        self.flits_transmitted = 0
        self.alloc_stalls = 0
        self.injected = 0
        self.misrouted = 0

    def on_packet_injected(self, packet: Any, router_id: int, cycle: int) -> None:
        self.injected += 1

    def on_flit_transmitted(self, link: Any, packet: Any, vc: int, cycle: int) -> None:
        self.flits_transmitted += 1

    def on_alloc_stall(self, router_id: int, cycle: int, retry_cycle: int) -> None:
        self.alloc_stalls += 1

    def on_packet_misrouted(self, packet: Any, router_id: int, cycle: int) -> None:
        self.misrouted += 1

    def snapshot(self) -> Dict[str, int]:
        return {
            "flits_transmitted": self.flits_transmitted,
            "alloc_stalls": self.alloc_stalls,
            "injected": self.injected,
            "misrouted": self.misrouted,
        }


def tail_percentile(values: List[float], beyond: int = 10) -> "tuple[float, Optional[float]]":
    """Highest percentile with at least ``beyond`` samples beyond it.

    Returns ``(percentile, value)``; with fewer than ``2 * beyond`` samples
    there is no such percentile above the median and the value is None.
    """
    ordered = sorted(values)
    if len(ordered) < 2 * beyond:
        return 50.0, None
    index = len(ordered) - beyond - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]
