"""Deterministic fault injection: link/router failure and recovery mid-run.

ROADMAP item 4(b): the paper's dragonfly-class networks are exactly the
setting where transient link/router faults reshape congestion and routing,
so this module adds a *seeded, replayable* fault axis to the simulator:

* :class:`FaultSchedule` — an immutable, sorted list of typed events
  (:class:`LinkDown` / :class:`LinkUp` / :class:`RouterDown` /
  :class:`RouterUp`), constructed explicitly, sampled from a
  ``random.Random(seed)`` MTBF/MTTR model (:meth:`FaultSchedule.sample`),
  or parsed from the CLI ``--faults`` spec (:func:`parse_faults`).  The
  schedule is carried on :class:`~repro.config.SimulationConfig` and hashed
  into ``config_key`` (omitted when empty, so no-fault keys are unchanged).
* :class:`FaultController` — the runtime: installed by ``Simulation`` when
  the schedule is non-empty, it replays each event through the engine
  calendar at its exact cycle (events fire in ``_fire_events`` *before*
  that cycle's traffic and router pumps, so replay is deterministic), marks
  links/routers dead, applies the in-flight policy, and triggers
  incremental re-table-ing of only the affected route columns.

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
* Every event ends with a live-graph connectivity check; splitting the
  live routers raises :class:`NetworkPartitionedError`.

Determinism: the fault schedule is data, events fire at exact cycles
through the single engine calendar, detours are computed by a deterministic
BFS, and the generator's RNG stream is never consulted by any fault path —
a given ``(seed, schedule)`` pair replays bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple, Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .config import SimulationConfig
    from .link import CreditChannel, Link
    from .packet import Packet
    from .router.router import Router
    from .simulation import Simulation
    from .topology.base import Topology

__all__ = [
    "LinkDown", "LinkUp", "RouterDown", "RouterUp", "FaultEvent",
    "FaultSchedule", "FaultSpec", "NetworkPartitionedError",
    "FaultController", "parse_faults", "FAULT_POLICIES",
]


class NetworkPartitionedError(RuntimeError):
    """A fault event (or a column rebuild under faults) left some live
    source with no route to a live destination.

    Subclasses ``RuntimeError`` so existing does-not-converge handling
    keeps working; raised from the event application path it aborts the
    run at the exact offending cycle.
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

_KIND_ORDER = {"link-down": 0, "link-up": 1, "router-down": 2, "router-up": 3}
_KINDS = tuple(_KIND_ORDER)


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
        """Structural validation (id bounds are checked against the built
        topology by :class:`FaultController`)."""
        if self.policy not in FAULT_POLICIES:
            raise ValueError(
                f"fault policy must be one of {FAULT_POLICIES}, "
                f"got {self.policy!r}"
            )
        for event in self.events:
            if event.kind not in _KINDS:
                raise ValueError(f"unknown fault event kind {event.kind!r}")
            if event.cycle < 1:
                raise ValueError(
                    f"fault event cycle must be >= 1, got {event.cycle}"
                )
            if event.router < 0:
                raise ValueError(
                    f"fault event router must be >= 0, got {event.router}"
                )
            port = getattr(event, "port", 0)
            if port < 0:
                raise ValueError(
                    f"fault event port must be >= 0, got {port}"
                )

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

#: dead-link reason tags: a directed link is dead while it has >= 1 reason.
_Reason = Tuple[str, int]
_LinkKey = Tuple[int, int]


class FaultController:
    """Replays a :class:`FaultSchedule` through one simulation.

    Constructed by ``Simulation.__init__`` when ``config.faults`` is
    non-empty; wraps every link's delivery callback (in-flight policy),
    schedules one calendar event per fault event, and owns the dead-element
    state plus the drop/reroute accounting that lands in per-window
    ``SimulationResult.extra`` and RunRecord provenance.
    """

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.schedule: FaultSchedule = sim.config.faults
        self.policy = self.schedule.policy
        # -- accounting (cumulative; snapshot into window extras) ----------
        self.faults_applied = 0
        self.packets_dropped = 0
        self.packets_dropped_wire = 0
        self.packets_dropped_buffer = 0
        self.packets_dropped_source = 0
        self.packets_suppressed = 0
        self.packets_rerouted = 0
        self.columns_invalidated = 0
        # -- probe hooks (ProbeHub.wire; ``is not None`` guarded fires) ----
        self.on_fault_applied: Optional[Callable[..., None]] = None
        self.on_packet_dropped: Optional[Callable[..., None]] = None
        # -- dead-element state -------------------------------------------
        #: directed link -> set of reasons it is dead (link fault and/or a
        #: dead endpoint router); the link is dead while reasons exist.
        self._dead_reasons: Dict[_LinkKey, Set[_Reason]] = {}
        #: flat membership set the link wrappers test per delivery.
        self._dead_links: Set[_LinkKey] = set()
        self._dead_routers: Set[int] = set()
        #: the topology's links, read by every (router, port) lookup here.
        self._wiring = sim.topology.wiring()
        self._validate_against(sim.topology)
        self._install()

    # -- construction --------------------------------------------------------
    def _validate_against(self, topology: "Topology") -> None:
        wiring = self._wiring
        n = topology.num_routers
        per = wiring.ports_per_router
        for event in self.schedule.events:
            if event.router >= n:
                raise ValueError(
                    f"fault event references router {event.router}, but the "
                    f"network has {n} routers"
                )
            port = getattr(event, "port", None)
            if port is not None:
                if port >= per or wiring.neighbor[event.router * per + port] < 0:
                    raise ValueError(
                        f"fault event references port {port} of router "
                        f"{event.router}, which has no link"
                    )

    def _install(self) -> None:
        engine = self.sim.engine
        for event in self.schedule.events:
            engine.schedule_call(event.cycle, self._apply, (event,))
        for router in self.sim.routers:
            for port_id, output in router.output_ports.items():
                link = output.link
                if link is not None:
                    self._wrap_link(router.router_id, port_id, link)

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
        engine = self.sim.engine
        # link name is (src router, src port, dst router, dst port).
        _, _, dst_router, back_port = link._name
        channel = self.sim.routers[dst_router].input_ports[back_port].credit_channel
        stall = self.policy == "stall"
        controller = self

        def deliver(packet: "Packet", vc: int, now: int) -> None:
            if key not in dead:
                inner(packet, vc, now)
                return
            if stall:
                up = controller._recovery_cycle(key, now)
                if up is not None:
                    # Hold the flit on the wire; the LinkUp event at ``up``
                    # fires first (calendar insertion order), so this
                    # re-delivery lands on a live link.
                    engine.schedule_call(up, deliver, (packet, vc, up))
                    return
            controller._drop_on_wire(packet, key, vc, now, channel)

        link._deliver = deliver

    # -- event application ---------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        now = self.sim.engine.now
        before = frozenset(self._dead_links)
        kind = event.kind
        if kind == "link-down":
            assert isinstance(event, LinkDown)
            for key in self._link_pair(event.router, event.port):
                self._add_reason(key, ("link", self._pair_id(event)))
        elif kind == "link-up":
            assert isinstance(event, LinkUp)
            for key in self._link_pair(event.router, event.port):
                self._drop_reason(key, ("link", self._pair_id(event)))
        elif kind == "router-down":
            router = event.router
            self._dead_routers.add(router)
            for key in self._incident_links(router):
                self._add_reason(key, ("router", router))
            self._drain_router(self.sim.routers[router], now)
            self._update_traffic_filter()
        else:  # router-up
            router = event.router
            self._dead_routers.discard(router)
            for key in self._incident_links(router):
                self._drop_reason(key, ("router", router))
            self._update_traffic_filter()
        self.faults_applied += 1
        if self._dead_links - before:
            self._check_partition(event)
        if self._dead_links != before:
            self._retable()
        hook = self.on_fault_applied
        if hook is not None:
            hook(event, now)

    def _add_reason(self, key: _LinkKey, reason: _Reason) -> None:
        self._dead_reasons.setdefault(key, set()).add(reason)
        self._dead_links.add(key)

    def _drop_reason(self, key: _LinkKey, reason: _Reason) -> None:
        reasons = self._dead_reasons.get(key)
        if reasons is None:
            return
        reasons.discard(reason)
        if not reasons:
            del self._dead_reasons[key]
            self._dead_links.discard(key)

    def _pair_id(self, event: "LinkDown | LinkUp") -> int:
        """Canonical id of the physical link a Link{Down,Up} names."""
        router, port = min(self._link_pair(event.router, event.port))
        return router * self._wiring.ports_per_router + port

    def _link_pair(self, router: int, port: int) -> Tuple[_LinkKey, _LinkKey]:
        """Both directed keys of the physical link at ``(router, port)``."""
        wiring = self._wiring
        slot = router * wiring.ports_per_router + port
        return (router, port), (wiring.neighbor[slot], wiring.back_port[slot])

    def _incident_links(self, router: int) -> List[_LinkKey]:
        wiring = self._wiring
        per = wiring.ports_per_router
        keys: List[_LinkKey] = []
        for port in range(per):
            if wiring.neighbor[router * per + port] >= 0:
                keys.extend(self._link_pair(router, port))
        return keys

    def _recovery_cycle(self, key: _LinkKey, now: int) -> Optional[int]:
        """First future cycle at which directed link ``key`` revives.

        Replays the (tiny) schedule's reason arithmetic from the link's
        current reasons; None when no future event clears them all.
        """
        reasons = set(self._dead_reasons.get(key, ()))
        if not reasons:
            return now
        pair = {k for k in self._link_pair(*key)}
        for event in self.schedule.events:
            if event.cycle <= now:
                continue
            if event.kind == "link-up":
                assert isinstance(event, LinkUp)
                if (event.router, event.port) in pair:
                    reasons.discard(("link", self._pair_id(event)))
            elif event.kind == "link-down":
                assert isinstance(event, LinkDown)
                if (event.router, event.port) in pair:
                    reasons.add(("link", self._pair_id(event)))
            elif event.kind == "router-up":
                reasons.discard(("router", event.router))
            elif event.kind == "router-down":
                if any(k[0] == event.router for k in sorted(pair)):
                    reasons.add(("router", event.router))
            if not reasons:
                return event.cycle
        return None

    # -- partition detection -------------------------------------------------
    def _check_partition(self, event: FaultEvent) -> None:
        """Raise :class:`NetworkPartitionedError` when the live routers are
        no longer mutually connected through live links (both directions
        of a dead link are always dead, so reaching one live router from
        all the others is mutual connectivity)."""
        dead_routers = self._dead_routers
        live = [r for r in range(self.sim.topology.num_routers)
                if r not in dead_routers]
        if not live:
            return
        dist, _ = self._wiring.bfs(live[0], self._dead_links, dead_routers)
        reached = sum(1 for d in dist if d >= 0)
        if reached < len(live):
            raise NetworkPartitionedError(
                f"fault event {event} at cycle {self.sim.engine.now} "
                f"partitions the network: {reached} of {len(live)} live "
                f"routers remain mutually reachable"
            )

    # -- re-table-ing --------------------------------------------------------
    def _retable(self) -> None:
        """Hand the new dead sets to the route table and flush stale plans.

        The table drops exactly the resident columns the transition can
        alter (:meth:`~repro.routing.route_table.RouteTable.set_fault_state`)
        and rebuilds them on their next touch: the detour fill where the
        pristine route crosses a dead link, the pristine, byte-identical
        fill everywhere else — including every column once all faults have
        cleared, and the column *to* a dead router (sink-hole rule: packets
        flow to the dead boundary and drop there with accounting).
        """
        self.columns_invalidated += self.sim.route_table.set_fault_state(
            frozenset(self._dead_links), frozenset(self._dead_routers)
        )
        self._invalidate_plans()

    def _invalidate_plans(self) -> None:
        """Flush every cached forwarding decision after a re-table.

        Clears the routing layer's first-level plan memo, every port's cached
        head plan and blocked-allocation verdict, and wakes every router so
        the next pump re-evaluates against the rebuilt columns.  Cleared
        non-None head plans count as rerouted packets (their forwarding
        decision was recomputed because of a fault).
        """
        sim = self.sim
        sim.routing.invalidate_route_caches()
        rerouted = 0
        for router in sim.routers:
            for port in router._alloc_inputs:
                plans = port.head_plans
                for vc in range(len(plans)):
                    if plans[vc] is not None:
                        plans[vc] = None
                        rerouted += 1
                port._hot[port._hb + 2] = -1
            masks = router._pv_masks
            for i in range(len(masks)):
                masks[i] = 0
            router._pv_any_mask = 0
            router._blocked_credit_mask = 0
            router.wake()
        self.packets_rerouted += rerouted

    # -- in-flight and buffered packet handling ------------------------------
    def _drop_on_wire(
        self,
        packet: "Packet",
        key: _LinkKey,
        vc: int,
        now: int,
        channel: Optional["CreditChannel"],
    ) -> None:
        """Drop a flit in flight on a dead link, with accounting.

        The upstream output port's credit mirror was debited at grant time;
        the credit is returned when the link recovers (never, if it does
        not — a permanently-dead port's stale mirror is unreachable anyway).
        """
        self.packets_dropped += 1
        self.packets_dropped_wire += 1
        hook = self.on_packet_dropped
        if hook is not None:
            hook(packet, key[0], "wire", now)
        if channel is None:
            return
        up = self._recovery_cycle(key, now)
        if up is not None:
            self.sim.engine.schedule_call(
                max(up, now),
                channel._deliver,
                (vc, packet.size_phits, packet.credit_tag_minimal),
            )

    def _drain_router(self, router: "Router", now: int) -> None:
        """A failed router loses its buffered state: drop every resident
        packet (network inputs, injection buffers, source queues) with
        accounting, mirroring ``InputPort.pop``'s bookkeeping minus the
        credit send (owed credits are scheduled at the router's recovery)."""
        engine = self.sim.engine
        router_id = router.router_id
        up = self._router_recovery_cycle(router_id, now)
        hook = self.on_packet_dropped
        for port in router._alloc_inputs:
            hot = port._hot
            base = port._hb
            channel = port.credit_channel
            for vc, queue in enumerate(port.queues):
                if not queue:
                    continue
                for packet, _ready in queue:
                    size = packet.size_phits
                    port.buffer.release(vc, size)
                    self.packets_dropped += 1
                    self.packets_dropped_buffer += 1
                    if port.is_injection:
                        router._injection_resident -= 1
                    else:
                        router.resident_packets -= 1
                        router.resident_ledger.count -= 1
                        if up is not None and channel is not None:
                            engine.schedule_call(
                                max(up, now),
                                channel._deliver,
                                (vc, size, packet.credit_tag_minimal),
                            )
                    if hook is not None:
                        hook(packet, router_id, "buffer", now)
                queue.clear()
                port.head_plans[vc] = None
            hot[base] = 0
            hot[base + 1] = 0
            hot[base + 2] = -1
        for queue in router.source_queues:
            for packet in queue:
                self.packets_dropped += 1
                self.packets_dropped_source += 1
                router._source_backlog -= 1
                if hook is not None:
                    hook(packet, router_id, "source", now)
            queue.clear()

    def _router_recovery_cycle(self, router: int, now: int) -> Optional[int]:
        for event in self.schedule.events:
            if (event.cycle > now and event.kind == "router-up"
                    and event.router == router):
                return event.cycle
        return None

    # -- traffic suppression -------------------------------------------------
    def _update_traffic_filter(self) -> None:
        """(Un)install the generator-boundary filter for dead routers.

        Suppression happens *after* the RNG draw and *before*
        ``record_generation`` — the random stream is untouched (surviving
        traffic stays bit-identical) and suppressed packets never count as
        generated (conservation is over network-entering packets only).
        """
        traffic = self.sim.traffic
        assert traffic is not None
        dead = self._dead_routers
        if not dead:
            traffic.fault_filter = None
            return
        topology = self.sim.topology
        router_of = topology.router_of_node
        controller = self

        def allow(packet: "Packet") -> bool:
            if router_of(packet.src_node) in dead or \
                    router_of(packet.dst_node) in dead:
                controller.packets_suppressed += 1
                return False
            return True

        traffic.fault_filter = allow

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
            "policy": self.policy,
            "applied": self.faults_applied,
            "packets_dropped": self.packets_dropped,
            "packets_dropped_wire": self.packets_dropped_wire,
            "packets_dropped_buffer": self.packets_dropped_buffer,
            "packets_dropped_source": self.packets_dropped_source,
            "packets_suppressed": self.packets_suppressed,
            "packets_rerouted": self.packets_rerouted,
            "columns_invalidated": self.columns_invalidated,
        }
