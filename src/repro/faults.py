"""Deterministic fault injection: link/router failure and recovery mid-run.

Transient link and router faults reshape congestion and routing in the
paper's dragonfly-class networks; this module is a *seeded, replayable*
fault axis for the simulator:

* :class:`FaultSchedule` — an immutable, sorted list of typed events
  (:class:`LinkDown` / :class:`LinkUp` / :class:`RouterDown` /
  :class:`RouterUp`), constructed explicitly, sampled from a
  ``random.Random(seed)`` MTBF/MTTR model (:meth:`FaultSchedule.sample`),
  or parsed from the CLI ``--faults`` spec (:func:`parse_faults`).  The
  schedule is carried on :class:`~repro.config.SimulationConfig` and hashed
  into ``config_key`` (omitted when empty, so no-fault keys are unchanged).
* :meth:`FaultSchedule.timeline` — the schedule resolved against a
  network's :class:`~repro.topology.base.Wiring` before cycle 0: one
  :class:`FaultInterval` (dead links, dead routers) per distinct event
  cycle.  ``SimulationConfig.validate()`` calls it, so a schedule naming a
  missing element, or one whose live routers split in any interval
  (:class:`NetworkPartitionedError`), never starts.
* :class:`FaultController` — the runtime: installed by ``Simulation`` when
  the schedule is non-empty, it enters each interval through the engine
  calendar at its exact cycle (calendar calls fire in ``_fire_events``
  *before* that cycle's traffic and router pumps, so replay is
  deterministic), applies the in-flight policy, and triggers incremental
  re-table-ing of only the affected route columns.

Semantics (see DESIGN.md §11 for the full model):

* A ``LinkDown(router, port)`` kills *both* directions of the physical
  link.  In-flight flits on a dead link follow the schedule's ``policy``:
  ``"drop"`` (default) drops them with accounting and returns the upstream
  credit at the link's recovery cycle; ``"stall"`` holds them on the wire
  and re-delivers at recovery (falling back to drop when the link never
  recovers).
* A ``RouterDown(router)`` kills every incident link and *loses the
  router's buffered state*: resident packets (network inputs, injection
  buffers, source queues) are dropped with accounting, and traffic from/to
  its nodes is suppressed at the generator boundary (the RNG draw sequence
  is unchanged, so surviving traffic stays bit-identical).
* Packets destined to a dead router keep following the pristine (stale)
  column toward it and are dropped with accounting at the dead-link
  boundary — the sink-hole rule that keeps live columns free of
  unreachable destinations.

Determinism: the fault schedule is data, its intervals are entered at exact
cycles through the single engine calendar, detours come from a deterministic
BFS, and the generator's RNG stream is never consulted by any fault path —
a given ``(seed, schedule)`` pair replays bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import groupby
from operator import attrgetter
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .config import SimulationConfig
    from .link import CreditChannel, Link
    from .packet import Packet
    from .router.router import Router
    from .simulation import Simulation
    from .topology.base import Topology, Wiring

__all__ = [
    "LinkDown", "LinkUp", "RouterDown", "RouterUp", "FaultEvent",
    "FaultInterval", "FaultSchedule", "FaultSpec", "NetworkPartitionedError",
    "FaultController", "parse_faults", "FAULT_POLICIES",
]


class NetworkPartitionedError(RuntimeError):
    """A fault schedule (or a column rebuild under faults) left some live
    source with no route to a live destination.

    Subclasses ``RuntimeError`` so existing does-not-converge handling
    keeps working; :meth:`FaultSchedule.timeline` raises it when the
    configuration is validated, before any cycle runs.
    """


#: accepted in-flight policies of a :class:`FaultSchedule`.
FAULT_POLICIES = ("drop", "stall")


@dataclass(frozen=True)
class LinkDown:
    """Both directions of the link at ``(router, port)`` fail at ``cycle``."""

    cycle: int
    router: int
    port: int
    kind: str = "link-down"


@dataclass(frozen=True)
class LinkUp:
    """The link at ``(router, port)`` is repaired at ``cycle``."""

    cycle: int
    router: int
    port: int
    kind: str = "link-up"


@dataclass(frozen=True)
class RouterDown:
    """``router`` fails at ``cycle``: incident links die, buffers are lost."""

    cycle: int
    router: int
    kind: str = "router-down"


@dataclass(frozen=True)
class RouterUp:
    """``router`` is repaired at ``cycle`` (incident links revive unless
    independently downed)."""

    cycle: int
    router: int
    kind: str = "router-up"


FaultEvent = Union[LinkDown, LinkUp, RouterDown, RouterUp]

#: a directed link: the ``(router, port)`` it leaves through.
_LinkKey = Tuple[int, int]


@dataclass(frozen=True)
class FaultInterval:
    """The network's fault state from ``cycle`` until the next interval.

    ``dead_links`` holds directed links, both directions of every dead
    physical link; ``events`` are the schedule's events at ``cycle``, in
    schedule order.
    """

    cycle: int
    dead_links: FrozenSet[_LinkKey]
    dead_routers: FrozenSet[int]
    events: Tuple[FaultEvent, ...]


_KIND_ORDER = {"link-down": 0, "link-up": 1, "router-down": 2, "router-up": 3}


def _event_sort_key(event: FaultEvent) -> Tuple[int, int, int, int]:
    return (
        event.cycle,
        _KIND_ORDER[event.kind],
        event.router,
        getattr(event, "port", -1),
    )


@dataclass(frozen=True)
class FaultSchedule:
    """Immutable, deterministically-ordered fault event list + policy.

    ``policy`` selects the in-flight flit handling on dead links:
    ``"drop"`` (drop with accounting, credit returned at recovery) or
    ``"stall"`` (hold on the wire until recovery; drops when the link
    never recovers).  The schedule hashes into ``config_key`` whenever it
    is non-empty; an empty schedule is omitted from the key payload so
    every no-fault key (and golden) is unchanged.
    """

    events: Tuple[FaultEvent, ...] = ()
    policy: str = "drop"

    def __post_init__(self) -> None:
        events = tuple(sorted(self.events, key=_event_sort_key))
        object.__setattr__(self, "events", events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        """Structural validation (router and port ids, and connectivity, are
        checked against a network by :meth:`timeline`)."""
        if self.policy not in FAULT_POLICIES:
            raise ValueError(
                f"fault policy must be one of {FAULT_POLICIES}, "
                f"got {self.policy!r}"
            )
        for event in self.events:
            if event.cycle < 1:
                raise ValueError(
                    f"fault event cycle must be >= 1, got {event.cycle}"
                )

    def timeline(self, wiring: "Wiring") -> Tuple[FaultInterval, ...]:
        """The schedule as one :class:`FaultInterval` per distinct event cycle.

        After a cycle's events, a directed link is dead while its physical
        link's last Link event is a :class:`LinkDown` or while either
        endpoint's last Router event is a :class:`RouterDown`.  Raises
        ``ValueError`` for an event naming a router or port ``wiring`` does
        not have, and :class:`NetworkPartitionedError` for an interval whose
        live routers are not mutually reachable (both directions of a dead
        link are dead, so reaching every live router from one of them is
        mutual reachability).
        """
        intervals = self._intervals(wiring)
        for interval in intervals:
            dead_routers = interval.dead_routers
            live = [r for r in range(wiring.num_routers) if r not in dead_routers]
            if not live:
                continue
            dist, _ = wiring.bfs(live[0], interval.dead_links, dead_routers)
            reached = sum(1 for d in dist if d >= 0)
            if reached < len(live):
                raise NetworkPartitionedError(
                    f"the fault events at cycle {interval.cycle} partition the "
                    f"network: {reached} of {len(live)} live routers remain "
                    f"mutually reachable"
                )
        return intervals

    def _intervals(self, wiring: "Wiring") -> Tuple[FaultInterval, ...]:
        """:meth:`timeline` without its connectivity check."""
        n = wiring.num_routers
        per = wiring.ports_per_router
        neighbor = wiring.neighbor
        for event in self.events:
            if not 0 <= event.router < n:
                raise ValueError(
                    f"fault event references router {event.router}, but the "
                    f"network has {n} routers"
                )
            if isinstance(event, (LinkDown, LinkUp)) and not (
                0 <= event.port < per and neighbor[event.router * per + event.port] >= 0
            ):
                raise ValueError(
                    f"fault event references port {event.port} of router "
                    f"{event.router}, which has no link"
                )

        def both_ends(router: int, port: int) -> Tuple[_LinkKey, _LinkKey]:
            slot = router * per + port
            return (router, port), (neighbor[slot], wiring.back_port[slot])

        down_links: Set[_LinkKey] = set()
        down_routers: Set[int] = set()
        intervals = []
        for cycle, group in groupby(self.events, key=attrgetter("cycle")):
            events = tuple(group)
            for event in events:
                if isinstance(event, LinkDown):
                    down_links.update(both_ends(event.router, event.port))
                elif isinstance(event, LinkUp):
                    down_links.difference_update(both_ends(event.router, event.port))
                elif isinstance(event, RouterDown):
                    down_routers.add(event.router)
                else:
                    down_routers.discard(event.router)
            dead_links = set(down_links)
            for router in sorted(down_routers):
                for port in range(per):
                    if neighbor[router * per + port] >= 0:
                        dead_links.update(both_ends(router, port))
            intervals.append(FaultInterval(
                cycle, frozenset(dead_links), frozenset(down_routers), events
            ))
        return tuple(intervals)

    # -- provenance ----------------------------------------------------------
    def digest(self) -> str:
        """Stable short hash of the schedule (RunRecord provenance)."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- construction --------------------------------------------------------
    @classmethod
    def sample(
        cls,
        topology: "Topology",
        *,
        seed: int,
        mtbf_cycles: float,
        mttr_cycles: float,
        horizon_cycles: int,
        element: str = "link",
        policy: str = "drop",
    ) -> "FaultSchedule":
        """Sample a failure/repair schedule from an MTBF/MTTR model.

        Every element (each physical link once, in canonical ``router <
        neighbor`` order, or each router) draws independent exponential
        time-to-failure (mean ``mtbf_cycles``) and time-to-repair (mean
        ``mttr_cycles``) intervals from one ``random.Random(seed)`` stream,
        iterating elements in a fixed deterministic order — the same
        ``(topology, seed)`` pair always yields the same schedule.
        """
        if element not in ("link", "router"):
            raise ValueError(
                f"element must be 'link' or 'router', got {element!r}"
            )
        if mtbf_cycles <= 0 or mttr_cycles <= 0:
            raise ValueError("mtbf_cycles and mttr_cycles must be > 0")
        rng = random.Random(seed)
        events: List[FaultEvent] = []

        def windows() -> List[Tuple[int, int]]:
            out: List[Tuple[int, int]] = []
            t = 1.0 + rng.expovariate(1.0 / mtbf_cycles)
            while t < horizon_cycles:
                down = max(1, int(t))
                up = max(down + 1, int(t + rng.expovariate(1.0 / mttr_cycles)))
                out.append((down, up))
                t = up + rng.expovariate(1.0 / mtbf_cycles)
            return out

        if element == "link":
            for router in range(topology.num_routers):
                for info in topology.ports(router):
                    if info.neighbor < router:
                        continue  # canonical direction: each link once
                    for down, up in windows():
                        events.append(LinkDown(down, router, info.port))
                        if up < horizon_cycles:
                            events.append(LinkUp(up, router, info.port))
        else:
            for router in range(topology.num_routers):
                for down, up in windows():
                    events.append(RouterDown(down, router))
                    if up < horizon_cycles:
                        events.append(RouterUp(up, router))
        return cls(events=tuple(events), policy=policy)


# ---------------------------------------------------------------------------
# CLI spec parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultSpec:
    """Parsed ``--faults`` spec; :meth:`resolve` yields the schedule.

    Explicit clauses resolve without touching the topology; a ``sample:``
    clause builds the configuration's (cached) topology to enumerate its
    elements.
    """

    events: Tuple[FaultEvent, ...] = ()
    policy: str = "drop"
    sample_params: Optional[Tuple[Tuple[str, str], ...]] = None

    def resolve(self, config: "SimulationConfig") -> FaultSchedule:
        events = list(self.events)
        if self.sample_params is not None:
            params = dict(self.sample_params)
            topology = config.network.build_cached()
            sampled = FaultSchedule.sample(
                topology,
                seed=int(params.get("seed", config.seed)),
                mtbf_cycles=float(params["mtbf"]),
                mttr_cycles=float(params["mttr"]),
                horizon_cycles=int(params["until"]),
                element=params.get("element", "link"),
            )
            events.extend(sampled.events)
        return FaultSchedule(events=tuple(events), policy=self.policy)


def _parse_window(text: str, clause: str) -> Tuple[int, Optional[int]]:
    """``"D-U"`` / ``"D-"`` / ``"D"`` -> (down cycle, up cycle or None)."""
    down_text, sep, up_text = text.partition("-")
    try:
        down = int(down_text)
        up = int(up_text) if sep and up_text else None
    except ValueError as exc:
        raise ValueError(f"bad fault window {text!r} in clause {clause!r}") from exc
    if up is not None and up <= down:
        raise ValueError(
            f"fault recovery must come after failure in clause {clause!r}"
        )
    return down, up


def parse_faults(spec: str) -> FaultSpec:
    """Parse a ``--faults`` spec string into a :class:`FaultSpec`.

    Grammar (clauses separated by ``;``):

    * ``link:R:P@D-U`` — link at router R, port P down at cycle D, repaired
      at cycle U (``@D`` or ``@D-`` = never repaired);
    * ``router:R@D-U`` — router R down/up window;
    * ``sample:mtbf=M,mttr=T,until=H[,seed=S][,element=link|router]`` —
      MTBF/MTTR-sampled schedule over cycles ``[1, H)`` (seed defaults to
      the configuration's seed);
    * ``policy=drop|stall`` — in-flight flit policy (default ``drop``).

    Example: ``--faults "link:0:1@400-900;policy=drop"``.
    """
    events: List[FaultEvent] = []
    policy = "drop"
    sample_params: Optional[Tuple[Tuple[str, str], ...]] = None
    for raw in spec.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        if clause.startswith("policy="):
            policy = clause[len("policy="):]
            if policy not in FAULT_POLICIES:
                raise ValueError(
                    f"fault policy must be one of {FAULT_POLICIES}, "
                    f"got {policy!r}"
                )
            continue
        if clause.startswith("sample:"):
            pairs: List[Tuple[str, str]] = []
            for item in clause[len("sample:"):].split(","):
                key, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(f"bad sample parameter {item!r}")
                pairs.append((key.strip(), value.strip()))
            params = dict(pairs)
            for required in ("mtbf", "mttr", "until"):
                if required not in params:
                    raise ValueError(
                        f"sample clause requires {required}= (got {clause!r})"
                    )
            sample_params = tuple(sorted(params.items()))
            continue
        head, sep, window = clause.partition("@")
        if not sep:
            raise ValueError(f"bad fault clause {clause!r} (missing @cycle)")
        parts = head.split(":")
        if parts[0] == "link" and len(parts) == 3:
            router, port = int(parts[1]), int(parts[2])
            down, up = _parse_window(window, clause)
            events.append(LinkDown(down, router, port))
            if up is not None:
                events.append(LinkUp(up, router, port))
        elif parts[0] == "router" and len(parts) == 2:
            router = int(parts[1])
            down, up = _parse_window(window, clause)
            events.append(RouterDown(down, router))
            if up is not None:
                events.append(RouterUp(up, router))
        else:
            raise ValueError(f"bad fault clause {clause!r}")
    return FaultSpec(
        events=tuple(events), policy=policy, sample_params=sample_params
    )


# ---------------------------------------------------------------------------
# Runtime controller
# ---------------------------------------------------------------------------

def _revival(
    timeline: Tuple[FaultInterval, ...],
    now: int,
    is_dead: Callable[[FaultInterval], bool],
) -> Optional[int]:
    """Cycle of the first interval after ``now`` in which ``is_dead`` is
    false: when a dead link or router comes back (None = never)."""
    start = bisect_right(timeline, now, key=attrgetter("cycle"))
    for interval in timeline[start:]:
        if not is_dead(interval):
            return interval.cycle
    return None


class FaultController:
    """Replays a :class:`FaultSchedule` through one simulation.

    Constructed by ``Simulation.__init__`` when ``config.faults`` is
    non-empty; wraps every link's delivery callback (in-flight policy),
    schedules one calendar call per :class:`FaultInterval` of the
    schedule's timeline, and owns the current dead sets plus the
    drop/reroute accounting that lands in per-window
    ``SimulationResult.extra`` and RunRecord provenance.
    """

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.schedule: FaultSchedule = sim.config.faults
        # -- accounting (cumulative; snapshot into window extras) ----------
        self.faults_applied = 0
        self.packets_dropped = 0
        #: drops by where the packet was: on a dead link's wire, in a dead
        #: router's buffers or in its nodes' source queues.
        self._drops = {"wire": 0, "buffer": 0, "source": 0}
        self.packets_suppressed = 0
        self.packets_rerouted = 0
        self.columns_invalidated = 0
        # -- probe hooks (ProbeHub.wire; ``is not None`` guarded fires) ----
        self.on_fault_applied: Optional[Callable[..., None]] = None
        self.on_packet_dropped: Optional[Callable[..., None]] = None
        #: the schedule's fault states.  ``Simulation`` validated its
        #: config first, and that refused a partitioning schedule.
        self.timeline = self.schedule._intervals(sim.topology.wiring())
        #: the current interval's dead sets, updated in place: the link
        #: wrappers and the traffic filter hold these very sets.
        self._dead_links: Set[_LinkKey] = set()
        self._dead_routers: Set[int] = set()
        for interval in self.timeline:
            sim.engine.schedule_call(interval.cycle, self._apply, (interval,))
        for router in sim.routers:
            for port_id, output in router.output_ports.items():
                if output.link is not None:
                    self._wrap_link(router.router_id, port_id, output.link)
        if any(interval.dead_routers for interval in self.timeline):
            sim.traffic.fault_filter = self._admit

    def _wrap_link(self, src: int, port: int, link: "Link") -> None:
        """Interpose the in-flight policy on ``link``'s delivery callback.

        The wrapper replaces ``link._deliver`` *at construction time*, so
        every scheduled delivery — including flits already on the wire when
        a fault fires — passes through it.  The live-link path is one set
        membership test; no-fault simulations never install wrappers.
        """
        key = (src, port)
        inner = link._deliver
        dead = self._dead_links
        timeline = self.timeline
        engine = self.sim.engine
        # link name is (src router, src port, dst router, dst port).
        _, _, dst_router, back_port = link._name
        channel = self.sim.routers[dst_router].input_ports[back_port].credit_channel
        stall = self.schedule.policy == "stall"

        def deliver(packet: "Packet", vc: int, now: int) -> None:
            if key not in dead:
                inner(packet, vc, now)
                return
            up = _revival(timeline, now, lambda interval: key in interval.dead_links)
            if stall and up is not None:
                # Hold the flit on the wire; the interval at ``up`` fires
                # first (calendar insertion order), so this re-delivery
                # lands on a live link.
                engine.schedule_call(up, deliver, (packet, vc, up))
            else:
                self._dropped(packet, src, "wire", now)
                self._return_credit(up, channel, vc, packet)

        link._deliver = deliver

    # -- interval application ------------------------------------------------
    def _apply(self, interval: FaultInterval) -> None:
        """Enter ``interval``, then report each of its events.

        When either dead set changes: drain the routers that died, install
        the sets, hand them to the route table — which drops the resident
        columns they can alter
        (:meth:`~repro.routing.route_table.RouteTable.set_fault_state`) —
        and flush every cached forwarding decision; each cleared head plan
        counts as a rerouted packet.
        """
        sim = self.sim
        now = interval.cycle
        dead_links, dead_routers = self._dead_links, self._dead_routers
        if dead_links != interval.dead_links or dead_routers != interval.dead_routers:
            for router in sorted(interval.dead_routers - dead_routers):
                self._drain_router(sim.routers[router], now)
            dead_links.clear()
            dead_links.update(interval.dead_links)
            dead_routers.clear()
            dead_routers.update(interval.dead_routers)
            self.columns_invalidated += sim.route_table.set_fault_state(
                interval.dead_links, interval.dead_routers
            )
            sim.routing.invalidate_route_caches()
            self.packets_rerouted += sum(router.forget_plans() for router in sim.routers)
        hook = self.on_fault_applied
        for event in interval.events:
            self.faults_applied += 1
            if hook is not None:
                hook(event, now)

    # -- dropped packets and traffic suppression ----------------------------
    def _dropped(self, packet: "Packet", router_id: int, reason: str, now: int) -> None:
        """Count a packet a fault destroyed and report it to the probes
        (``reason`` is ``"wire"``, ``"buffer"`` or ``"source"``)."""
        self.packets_dropped += 1
        self._drops[reason] += 1
        hook = self.on_packet_dropped
        if hook is not None:
            hook(packet, router_id, reason, now)

    def _return_credit(self, up: Optional[int], channel: Optional["CreditChannel"],
                       vc: int, packet: "Packet") -> None:
        """Return the credit a dropped ``packet`` held upstream when its link
        or router revives at ``up`` (never, if it does not: a permanently
        dead port's stale mirror is unreachable anyway)."""
        if up is not None and channel is not None:
            self.sim.engine.schedule_call(
                up, channel._deliver,
                (vc, packet.size_phits, packet.credit_tag_minimal),
            )

    def _drain_router(self, router: "Router", now: int) -> None:
        """A failed router loses its buffered state: every resident packet
        (network inputs, injection buffers, source queues) is dropped, and
        the credits its network inputs owe upstream return at its revival."""
        router_id = router.router_id
        up = _revival(
            self.timeline, now, lambda interval: router_id in interval.dead_routers
        )
        buffered, queued = router.drop_resident()
        for port, vc, packet in buffered:
            self._return_credit(up, port.credit_channel, vc, packet)
            self._dropped(packet, router_id, "buffer", now)
        for packet in queued:
            self._dropped(packet, router_id, "source", now)

    def _admit(self, packet: "Packet") -> bool:
        """Traffic filter: suppress a packet to or from a dead router.

        Suppression happens *after* the RNG draw and *before*
        ``record_generation`` — the random stream is untouched (surviving
        traffic stays bit-identical) and suppressed packets never count as
        generated (conservation is over network-entering packets only).
        """
        dead = self._dead_routers
        router_of = self.sim.topology.router_of_node
        if dead and (router_of(packet.src_node) in dead
                     or router_of(packet.dst_node) in dead):
            self.packets_suppressed += 1
            return False
        return True

    # -- reporting -----------------------------------------------------------
    def window_extra(self) -> Dict[str, Any]:
        """Cumulative fault counters for ``SimulationResult.extra``."""
        return {
            "faults_applied": self.faults_applied,
            "packets_dropped": self.packets_dropped,
            "packets_rerouted": self.packets_rerouted,
            "packets_suppressed": self.packets_suppressed,
        }

    def provenance(self) -> Dict[str, Any]:
        """Fault block for RunRecord provenance."""
        return {
            "schedule_events": len(self.schedule.events),
            "schedule_digest": self.schedule.digest(),
            "policy": self.schedule.policy,
            "applied": self.faults_applied,
            "packets_dropped": self.packets_dropped,
            **{f"packets_dropped_{where}": n for where, n in self._drops.items()},
            "packets_suppressed": self.packets_suppressed,
            "packets_rerouted": self.packets_rerouted,
            "columns_invalidated": self.columns_invalidated,
        }
