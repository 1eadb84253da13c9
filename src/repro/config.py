"""Configuration dataclasses for simulations and experiments.

The defaults follow Table V of the paper (router speedup 2x, 5-cycle pipeline,
32/256-phit local/global VC buffers, 8-phit packets, JSQ selection, PB
threshold 3) with one deliberate substitution documented in DESIGN.md: the
default network is a *scaled* balanced Dragonfly (``h=2``: 9 groups, 36
routers, 72 nodes) instead of the paper's ``h=8`` (2,064 routers), so that
pure-Python experiments finish in seconds rather than days.  Every parameter
of the paper's setup remains reachable through these dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Any, Mapping, Optional, Tuple, Union

from .core.arrangement import VcArrangement
from .faults import FaultSchedule
from .topology import TOPOLOGIES
from .topology.base import Topology

VALID_BUFFER_ORGANIZATIONS = ("static", "damq")
VALID_VC_POLICIES = ("baseline", "flexvc")
VALID_ROUTINGS = ("min", "val", "par", "pb")
VALID_VC_SELECTIONS = ("jsq", "highest", "lowest", "random")
VALID_TRAFFIC_PATTERNS = ("uniform", "adversarial", "bursty")
VALID_PB_SENSING = ("port", "vc")


def _freeze_param_value(value: Any) -> Any:
    """Make a parameter value hashable (lists arrive from JSON/callers)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_param_value(item) for item in value)
    return value

ParamsInput = Union[None, Mapping[str, Any], Tuple[Tuple[str, Any], ...]]


@dataclass(frozen=True, init=False)
class NetworkConfig:
    """Topology and link parameters.

    The topology is named by its registry entry
    (:data:`repro.topology.TOPOLOGIES`); its parameters travel as a sorted
    tuple of ``(name, value)`` pairs so configurations stay hashable and
    content-hashable.  Construction accepts a mapping::

        NetworkConfig(topology="hyperx", params={"s": (4, 3, 3)})

    Topology parameters go into ``params=`` only: any other keyword is a
    ``TypeError``.
    """

    topology: str = "dragonfly"
    #: topology parameters as sorted (name, value) pairs; defaults come from
    #: the registered parameter dataclass.
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Link latencies in cycles (Table V: 10 local / 100 global).
    local_latency: int = 10
    global_latency: int = 100

    def __init__(
        self,
        topology: str = "dragonfly",
        params: ParamsInput = None,
        local_latency: int = 10,
        global_latency: int = 100,
    ) -> None:
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "local_latency", local_latency)
        object.__setattr__(self, "global_latency", global_latency)
        merged = {
            name: _freeze_param_value(value)
            for name, value in dict(params or {}).items()
        }
        # Normalize against the parameter dataclass so structurally equal
        # configurations compare (and content-hash) equal regardless of which
        # defaults were spelled out; invalid parameters keep the raw form and
        # surface through validate().
        if topology in TOPOLOGIES:
            spec = TOPOLOGIES.get(topology)
            try:
                instance = spec.params_cls(**merged)
            except TypeError:
                pass
            else:
                merged = {
                    f.name: _freeze_param_value(getattr(instance, f.name))
                    for f in dataclass_fields(spec.params_cls)
                }
        object.__setattr__(self, "params", tuple(sorted(merged.items())))

    # -- resolution -------------------------------------------------------------
    def build(self) -> Topology:
        """Instantiate the described topology through the registry."""
        return TOPOLOGIES.get(self.topology).build(dict(self.params))

    def build_cached(self) -> Topology:
        """Shared topology instance through the registry's build cache.

        Used by the sweep-scale artifact path
        (:func:`repro.simulation.build_artifacts`): jobs of the same sweep
        describe the same immutable graph, so one instance serves all of
        them.  Use :meth:`build` when a private instance is required.
        """
        return TOPOLOGIES.build_cached(self.topology, dict(self.params))

    def validate(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {TOPOLOGIES.names()}, got {self.topology!r}"
            )
        if self.local_latency < 1 or self.global_latency < 1:
            raise ValueError("link latencies must be >= 1 cycle")
        # Construction is O(1) arithmetic (the wiring is built on first
        # use), so the constructor's checks are the parameter checks.
        self.build_cached()


@dataclass(frozen=True)
class RouterConfig:
    """Router microarchitecture and buffer sizing."""

    #: "static" (per-VC FIFOs) or "damq".
    buffer_organization: str = "static"
    #: Fraction of the port memory privately reserved per VC in DAMQ mode
    #: (the paper's best configuration is 75%, Section VI-C).
    damq_private_fraction: float = 0.75
    #: Per-VC buffer capacities in phits (Table V defaults).
    local_vc_phits: int = 32
    global_vc_phits: int = 256
    injection_vc_phits: int = 256
    #: Per-port totals.  When set they override the per-VC sizes and the port
    #: memory is divided among the implemented VCs — the "constant buffer per
    #: port" mode of Figures 6 and 11.
    local_port_phits: Optional[int] = None
    global_port_phits: Optional[int] = None
    num_injection_vcs: int = 3
    output_buffer_phits: int = 32
    #: Crossbar frequency speedup (allocation iterations per cycle).
    speedup: int = 2
    #: Router pipeline latency in cycles.
    pipeline_latency: int = 5

    def validate(self) -> None:
        if self.buffer_organization not in VALID_BUFFER_ORGANIZATIONS:
            raise ValueError(
                f"buffer_organization must be one of {VALID_BUFFER_ORGANIZATIONS}, "
                f"got {self.buffer_organization!r}"
            )
        if not 0.0 <= self.damq_private_fraction <= 1.0:
            raise ValueError("damq_private_fraction must be in [0, 1]")
        for name in ("local_vc_phits", "global_vc_phits", "injection_vc_phits",
                     "output_buffer_phits"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1 phit")
        for name in ("local_port_phits", "global_port_phits"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 phit when set")
        if self.num_injection_vcs < 1:
            raise ValueError("num_injection_vcs must be >= 1")
        if self.speedup < 1:
            raise ValueError("speedup must be >= 1")
        if self.pipeline_latency < 0:
            raise ValueError("pipeline_latency must be >= 0")

    def port_capacity(self, num_vcs: int, is_global: bool) -> int:
        """Total phits of memory for a port with ``num_vcs`` VCs."""
        per_port = self.global_port_phits if is_global else self.local_port_phits
        if per_port is not None:
            return per_port
        per_vc = self.global_vc_phits if is_global else self.local_vc_phits
        return per_vc * num_vcs

    def vc_capacity(self, num_vcs: int, is_global: bool) -> int:
        """Per-VC capacity (statically partitioned view) for a port."""
        return max(1, self.port_capacity(num_vcs, is_global) // num_vcs)


@dataclass(frozen=True)
class RoutingConfig:
    """Routing algorithm, VC policy and adaptive-routing sensing options."""

    algorithm: str = "min"
    vc_policy: str = "baseline"
    vc_selection: str = "jsq"
    #: Piggyback / UGAL threshold T (Table V).
    pb_threshold: int = 3
    #: Saturation sensing granularity: whole port occupancy or a single VC.
    pb_sensing: str = "port"
    #: FlexVC-minCred: consider only minimally-routed credits when sensing.
    pb_min_credits_only: bool = False
    #: A global port is saturated when its occupancy exceeds this factor times
    #: the average occupancy of the router's global ports (paper: 50% above).
    pb_saturation_factor: float = 1.5

    def validate(self) -> None:
        if self.algorithm not in VALID_ROUTINGS:
            raise ValueError(f"algorithm must be one of {VALID_ROUTINGS}, got {self.algorithm!r}")
        if self.vc_policy not in VALID_VC_POLICIES:
            raise ValueError(f"vc_policy must be one of {VALID_VC_POLICIES}")
        if self.vc_selection not in VALID_VC_SELECTIONS:
            raise ValueError(f"vc_selection must be one of {VALID_VC_SELECTIONS}")
        if self.pb_sensing not in VALID_PB_SENSING:
            raise ValueError(f"pb_sensing must be one of {VALID_PB_SENSING}")
        if self.pb_threshold < 0:
            raise ValueError("pb_threshold must be >= 0")
        if self.pb_saturation_factor <= 0:
            raise ValueError("pb_saturation_factor must be > 0")


@dataclass(frozen=True)
class TrafficConfig:
    """Synthetic traffic pattern parameters (Section IV-B)."""

    pattern: str = "uniform"
    #: Offered load in phits/node/cycle.
    load: float = 0.5
    packet_size: int = 8
    #: Generate request-reply (reactive) traffic.
    reactive: bool = False
    #: Average burst length (packets) of the BURSTY-UN ON/OFF Markov model.
    burst_length: float = 5.0
    #: ADV traffic sends to a random node ``adversarial_offset`` groups ahead.
    adversarial_offset: int = 1

    def validate(self) -> None:
        if self.pattern not in VALID_TRAFFIC_PATTERNS:
            raise ValueError(f"pattern must be one of {VALID_TRAFFIC_PATTERNS}")
        if not 0.0 <= self.load <= 1.0:
            raise ValueError("load must be within [0, 1] phits/node/cycle")
        if self.packet_size < 1:
            raise ValueError("packet_size must be >= 1 phit")
        if self.burst_length < 1.0:
            raise ValueError("burst_length must be >= 1 packet")
        if self.adversarial_offset < 1:
            raise ValueError("adversarial_offset must be >= 1")


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one simulation run."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    arrangement: VcArrangement = field(
        default_factory=lambda: VcArrangement.single_class(2, 1)
    )
    warmup_cycles: int = 1500
    measure_cycles: int = 3000
    seed: int = 1
    #: A run is flagged as suspected-deadlocked when no packet is delivered
    #: for this many cycles while traffic is resident in the network.
    deadlock_window_cycles: int = 2500
    #: deterministic fault-injection schedule (empty = pristine network).
    #: Non-empty schedules hash into ``config_key``; the empty default is
    #: omitted from the key payload so every no-fault key is unchanged.
    faults: FaultSchedule = field(default_factory=FaultSchedule)

    def validate(self) -> None:
        self.network.validate()
        self.router.validate()
        self.routing.validate()
        self.traffic.validate()
        self.faults.validate()
        if self.faults:
            # Refuses missing routers/ports and partitions before cycle 0.
            self.faults.timeline(self.network.build_cached().wiring())
        if self.warmup_cycles < 0 or self.measure_cycles < 1:
            raise ValueError("warmup_cycles must be >= 0 and measure_cycles >= 1")
        if self.deadlock_window_cycles < 1:
            raise ValueError("deadlock_window_cycles must be >= 1")
        if self.traffic.reactive and not self.arrangement.is_reactive:
            raise ValueError(
                "reactive traffic requires an arrangement with reply VCs "
                "(use VcArrangement.request_reply)"
            )
        self._validate_arrangement_supports_routing()

    def _validate_arrangement_supports_routing(self) -> None:
        """Reject configurations whose routing cannot be deadlock-free.

        The configured VC policy is walked along the routing's reference
        path, derived entirely from the topology's declared worst-case
        minimal path, escape shape and slot window — no topology is
        special-cased by name.
        """
        from .core.feasibility import walk_reference_path
        from .core.flexvc import make_policy
        from .core.link_types import MessageClass

        # The check only reads the topology's declared routing shape, so the
        # registry's shared instance is sufficient — validating every point
        # of a sweep must not rebuild the graph every time.
        topology = self.network.build_cached()
        routing = {"min": "MIN", "val": "VAL", "par": "PAR", "pb": "VAL"}[
            self.routing.algorithm
        ]
        policy = make_policy(self.routing.vc_policy, self.arrangement)
        classes = [MessageClass.REQUEST]
        if self.traffic.reactive:
            classes.append(MessageClass.REPLY)
        for msg_class in classes:
            walk = walk_reference_path(
                policy, topology.canonical_minimal_sequence, routing, msg_class,
                worst_escape=topology.worst_escape_sequence,
                phase_ref=topology.phase_ref,
            )
            if not walk.feasible:
                raise ValueError(
                    f"arrangement {self.arrangement.label()} cannot carry "
                    f"{msg_class.name.lower()} packets under {routing} routing "
                    f"with the {self.routing.vc_policy} VC policy: hop "
                    f"{walk.failed_hop} of the reference path has no admissible VC"
                )

    # -- convenience -------------------------------------------------------------
    def with_load(self, load: float) -> "SimulationConfig":
        """Copy of this configuration at a different offered load."""
        return replace(self, traffic=replace(self.traffic, load=load))

    def with_seed(self, seed: int) -> "SimulationConfig":
        return replace(self, seed=seed)

    def total_cycles(self) -> int:
        return self.warmup_cycles + self.measure_cycles
