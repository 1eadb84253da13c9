"""Event-driven simulation engine.

The engine owns simulated time.  Components schedule callbacks on a
two-level calendar (packet arrivals, credit returns, output-buffer
releases, delivery notifications); each cycle the engine first fires the
events due at that cycle, then lets the traffic sources generate new packets
and finally steps the routers that declared themselves *active*.

Calendar layout
---------------
Almost every event a network schedules lands within a few link latencies of
the current cycle, so the calendar is split into a **near-term ring** — a
circular buffer of ``RING_SPAN`` per-cycle buckets appended to and drained
with plain list operations — and a **far wheel** (dict of cycle -> bucket
plus a min-heap of cycles) that only sees the rare events scheduled further
out than the ring span.  This removes the heap churn of wake/transmit
scheduling from the hot path while keeping ``run_until``'s idle fast-forward
O(1) when the ring is empty.

Within one cycle, events fire in scheduling order.  The split preserves
this: an event is "far" only while the cycle is at least ``RING_SPAN`` away,
and simulated time only moves forward, so every far event of a cycle was
scheduled before every near event of that cycle.  Firing the far bucket
first, and routing near appends into an existing far bucket, therefore
reproduces the exact single-calendar insertion order.

Events are stored as ``(fn, args)`` pairs and fired as ``fn(*args)``:
:meth:`schedule_call` lets hot callers (links, credit channels, ejection
completions) pass precomputed argument tuples instead of allocating one
closure per packet.

A router is registered as one ``pump(now) -> bool``: the engine calls it
once per cycle while the router is *active*, and drops the router from the
active set when the pump returns False (nothing to do).  A router re-joins
the set when it gains work (a packet arrives, a source enqueues, a credit
returns) through the ``engine_activate`` handle installed at registration,
or at a timed wake (:meth:`Engine.schedule_wake`).  The active set is
iterated in registration order so the shared RNG stream — and therefore
every simulation result — is bit-identical to stepping all busy routers in
router-id order.

When no router is active and every traffic source reports itself quiescent
(see ``quiescent()`` on :class:`~repro.traffic.base.TrafficGenerator`),
:meth:`run_until` fast-forwards straight to the next scheduled event instead
of ticking through empty cycles.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

Event = Callable[[int], None]

#: number of near-term per-cycle buckets (power of two; must exceed the
#: longest common scheduling distance — link latency + serialization — for
#: the ring to absorb the traffic, though any value is *correct*).
RING_SPAN = 256
_RING_MASK = RING_SPAN - 1


class Engine:
    """Ring + heap event calendar plus the activity-tracked cycle loop."""

    def __init__(self) -> None:
        self.now = 0
        #: near-term calendar: one bucket of (fn, args) pairs per cycle in
        #: [now, now + RING_SPAN), indexed by ``cycle & _RING_MASK``.
        self._ring: List[list] = [[] for _ in range(RING_SPAN)]
        self._ring_events = 0
        #: far calendar: cycle -> bucket, plus a min-heap of those cycles.
        self._wheel: Dict[int, List[Tuple[Callable, tuple]]] = {}
        self._event_cycles: List[int] = []
        #: one ``pump(now) -> bool`` per registered router (see register_router).
        self._pumps: List[Callable[[int], bool]] = []
        self._generators: List[object] = []
        #: indices (into ``_pumps``) of routers that may have work.
        self._active: set[int] = set()
        #: timed router wake-ups (cheaper than events: a set union, no calls).
        #: Near wakes ride a ring of index-sets; far wakes use a dict + heap.
        self._wake_ring: List[Optional[set]] = [None] * RING_SPAN
        self._wake_ring_count = 0
        self._wake_wheel: Dict[int, set] = {}
        self._wake_cycles: List[int] = []
        self.events_processed = 0
        #: cycles skipped by idle fast-forward (diagnostics / benchmarks).
        self.idle_cycles_skipped = 0

    # -- registration -----------------------------------------------------------
    def register_router(self, router: object) -> None:
        """Register an object exposing ``pump(now) -> bool``.

        The pump does the router's work for the cycle and returns True, or
        returns False when there is none.  Routers start active; they are
        dropped from the active set once their pump returns False and must
        re-activate themselves (via :meth:`activate`) when they gain new work.
        """
        index = len(self._pumps)
        self._pumps.append(router.pump)
        self._active.add(index)
        # Routers use these handles to signal activity without indirection.
        router.engine_index = index
        router.engine_activate = self._active.add

    def register_traffic(self, generator: object) -> None:
        """Register an object exposing ``tick(now)`` called once per cycle."""
        self._generators.append(generator)

    def activate(self, router: object) -> None:
        """Mark a registered router as having (potential) work."""
        self._active.add(router.engine_index)

    def active_count(self) -> int:
        return len(self._active)

    # -- event scheduling ----------------------------------------------------------
    def schedule_call(self, cycle: int, fn: Callable, args: tuple) -> None:
        """Run ``fn(*args)`` at ``cycle`` (the closure-free hot-path form)."""
        now = self.now
        if cycle < now:
            raise ValueError(f"cannot schedule event at {cycle}, current cycle is {now}")
        wheel = self._wheel
        if wheel:
            bucket = wheel.get(cycle)
            if bucket is not None:
                # A far bucket exists for this cycle; appending keeps the
                # exact single-calendar insertion order (module docstring).
                bucket.append((fn, args))
                return
        if cycle - now < RING_SPAN:
            self._ring[cycle & _RING_MASK].append((fn, args))
            self._ring_events += 1
        else:
            wheel[cycle] = [(fn, args)]
            heapq.heappush(self._event_cycles, cycle)

    def schedule(self, cycle: int, event: Event) -> None:
        """Run ``event(cycle)`` at the given absolute cycle (must not be in the past)."""
        self.schedule_call(cycle, event, (cycle,))

    def schedule_wake(self, cycle: int, index: int) -> None:
        """Re-activate router ``index`` at ``cycle`` (timed router sleep)."""
        if cycle <= self.now:
            # The current cycle's ring slot is drained at the top of tick(),
            # so a due-now (or overdue) wake must go straight to the active
            # set — a ring insert would silently fire RING_SPAN cycles late.
            self._active.add(index)
            return
        if cycle - self.now < RING_SPAN:
            slot = cycle & _RING_MASK
            bucket = self._wake_ring[slot]
            if bucket is None:
                self._wake_ring[slot] = {index}
                self._wake_ring_count += 1
            else:
                bucket.add(index)
        else:
            bucket = self._wake_wheel.get(cycle)
            if bucket is None:
                self._wake_wheel[cycle] = {index}
                heapq.heappush(self._wake_cycles, cycle)
            else:
                bucket.add(index)

    # -- execution ---------------------------------------------------------------------
    def _fire_events(self, cycle: int) -> None:
        fired = 0
        heap = self._event_cycles
        while heap and heap[0] == cycle:
            heapq.heappop(heap)
            for fn, args in self._wheel.pop(cycle):
                fn(*args)
                fired += 1
        ring = self._ring
        slot = cycle & _RING_MASK
        bucket = ring[slot]
        while bucket:
            # Events fired now may schedule more work for this same cycle;
            # swap in a fresh bucket so they are picked up by the next pass.
            ring[slot] = []
            self._ring_events -= len(bucket)
            for fn, args in bucket:
                fn(*args)
            fired += len(bucket)
            bucket = ring[slot]
        if fired:
            self.events_processed += fired

    def tick(self) -> None:
        """Advance the simulation by one cycle."""
        cycle = self.now
        slot = cycle & _RING_MASK
        wakes = self._wake_ring[slot]
        if wakes is not None:
            self._wake_ring[slot] = None
            self._wake_ring_count -= 1
            self._active |= wakes
        if self._wake_cycles and self._wake_cycles[0] <= cycle:
            while self._wake_cycles and self._wake_cycles[0] <= cycle:
                self._active |= self._wake_wheel.pop(heapq.heappop(self._wake_cycles))
        self._fire_events(cycle)
        for generator in self._generators:
            generator.tick(cycle)
        active = self._active
        if active:
            pumps = self._pumps
            for index in sorted(active):
                if not pumps[index](cycle):
                    active.discard(index)
        self.now = cycle + 1

    def _quiescent(self) -> bool:
        """True when no router is active and no traffic source can emit."""
        if self._active:
            return False
        for generator in self._generators:
            quiescent = getattr(generator, "quiescent", None)
            if quiescent is None or not quiescent():
                return False
        return True

    def next_event_cycle(self) -> Optional[int]:
        """Next cycle with a scheduled event or timed router wake (None if
        empty).

        Sessions use this to fast-forward drain phases event by event instead
        of polling idle cycles.
        """
        best: Optional[int] = None
        if self._ring_events or self._wake_ring_count:
            # Bounded scan of the near-term ring; the first hit is the answer
            # for the ring (buckets are unique per cycle within the span).
            ring = self._ring
            wake_ring = self._wake_ring
            now = self.now
            for cycle in range(now, now + RING_SPAN):
                slot = cycle & _RING_MASK
                if ring[slot] or wake_ring[slot] is not None:
                    best = cycle
                    break
        events = self._event_cycles
        wakes = self._wake_cycles
        if events and (best is None or events[0] < best):
            best = events[0]
        if wakes and (best is None or wakes[0] < best):
            best = wakes[0]
        return best

    def run(self, cycles: int) -> None:
        """Run ``cycles`` additional cycles."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self.run_until(self.now + cycles)

    def run_until(self, cycle: int) -> None:
        """Advance time to ``cycle``, fast-forwarding across idle gaps.

        A gap is skippable only when no router is active and every traffic
        source is quiescent, so skipping never changes simulation results.
        """
        while self.now < cycle:
            if self._quiescent():
                next_event = self.next_event_cycle()
                target = cycle if next_event is None else min(next_event, cycle)
                if target > self.now:
                    self.idle_cycles_skipped += target - self.now
                    self.now = target
                    continue
            self.tick()

    # -- introspection --------------------------------------------------------------------
    def pending_events(self) -> int:
        return self._ring_events + sum(len(events) for events in self._wheel.values())
