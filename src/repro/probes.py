"""Pluggable probe subsystem: typed observers over a running simulation.

A :class:`Probe` subscribes to simulation events by *overriding* hook
methods; the :class:`ProbeHub` inspects which hooks each attached probe
actually overrides and installs a dispatch callback only where at least one
subscriber exists.  Every instrumented hot-path site guards its dispatch with
a single ``is not None`` attribute check that stays ``None`` when nothing
subscribed — the **zero-cost-when-unsubscribed invariant**: a probe-less run
executes the exact same work (and draws the exact same randomness) as a run
on the un-instrumented code, so results stay bit-identical and the
event-driven engine keeps its PR 1/2 performance.

Hooks (all optional):

======================  =====================================================
``on_packet_injected``  packet entered its injection buffer at a router
``on_packet_delivered`` packet consumed at its destination node
``on_packet_misrouted`` packet took its first non-minimal hop
``on_flit_transmitted`` a packet's phits started serializing onto a link
``on_vc_occupancy``     occupancy of a network input VC changed (+/- phits)
``on_alloc_stall``      a stepped router found no requestable packet
``on_phase``            session phase transition (warmup/measure/drain/...)
``on_sample``           periodic tick for probes with ``sample_interval``
======================  =====================================================

Probes never mutate simulation state; they observe, accumulate, and export
their data as named :class:`~repro.record.RunRecord` telemetry channels via
:meth:`Probe.channels`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .metrics import LatencyHistogram
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .session import Session


class Probe:
    """Base observer: every hook is a no-op; override the ones you need.

    The hub treats a hook as subscribed only if the probe's class overrides
    it, so an un-overridden hook costs nothing at run time.
    """

    #: cycles between ``on_sample`` ticks; 0 disables periodic sampling.
    sample_interval: int = 0

    def __init__(self) -> None:
        self.session: Optional["Session"] = None

    # -- lifecycle ------------------------------------------------------------
    def on_attach(self, session: "Session") -> None:
        """Called once when the owning session wires its probes."""
        self.session = session

    def on_phase(self, phase: str, cycle: int) -> None:
        """Session phase transition (``warmup``/``measure``/``drain``/``done``)."""

    def on_sample(self, cycle: int) -> None:
        """Periodic tick every ``sample_interval`` cycles (if non-zero)."""

    # -- packet events --------------------------------------------------------
    def on_packet_injected(self, packet: Packet, router_id: int, cycle: int) -> None:
        """Packet accepted into an injection buffer at ``router_id``."""

    def on_packet_delivered(self, packet: Packet, cycle: int) -> None:
        """Packet fully consumed at its destination node."""

    def on_packet_misrouted(self, packet: Packet, router_id: int, cycle: int) -> None:
        """Packet took its first non-minimal hop at ``router_id``."""

    # -- component events -----------------------------------------------------
    def on_flit_transmitted(self, link, packet: Packet, vc: int, cycle: int) -> None:
        """``packet.size_phits`` phits started serializing onto ``link``."""

    def on_vc_occupancy(
        self, router_id: int, port_id: int, vc: int, delta: int,
        occupancy: int, cycle: int,
    ) -> None:
        """Occupancy of a network input VC changed by ``delta`` phits."""

    def on_alloc_stall(self, router_id: int, cycle: int, retry_cycle: int) -> None:
        """A stepped router with resident packets granted nothing this cycle."""

    def on_fault_applied(self, event, cycle: int) -> None:
        """A fault-schedule event was applied (see :mod:`repro.faults`)."""

    def on_packet_dropped(
        self, packet: Packet, router_id: int, reason: str, cycle: int
    ) -> None:
        """A packet was dropped by fault injection (``reason`` is ``"wire"``,
        ``"buffer"`` or ``"source"``)."""

    # -- export ---------------------------------------------------------------
    def channels(self) -> Dict[str, dict]:
        """Telemetry channels to merge into the session's RunRecord."""
        return {}


#: hooks the hub dispatches through simulation components (``on_phase`` and
#: ``on_sample`` are driven by the session itself).
_COMPONENT_HOOKS = (
    "on_packet_injected",
    "on_packet_delivered",
    "on_packet_misrouted",
    "on_flit_transmitted",
    "on_vc_occupancy",
    "on_alloc_stall",
    "on_fault_applied",
    "on_packet_dropped",
)


class ProbeHub:
    """Builds per-hook dispatchers and wires them into simulation components.

    Only hooks with at least one subscriber get a dispatcher; everything else
    stays ``None`` at its instrumentation site, preserving the zero-cost
    invariant for the unsubscribed hooks of a probed run too.
    """

    def __init__(self, probes: Sequence[Probe]) -> None:
        self.probes = list(probes)
        self._subs: Dict[str, List] = {
            hook: [
                getattr(probe, hook)
                for probe in self.probes
                if getattr(type(probe), hook, None) is not getattr(Probe, hook)
            ]
            for hook in _COMPONENT_HOOKS + ("on_phase",)
        }

    def dispatcher(self, hook: str):
        """Fan-out callable for ``hook``, or None when nobody subscribed."""
        subs = self._subs[hook]
        if not subs:
            return None
        if len(subs) == 1:
            return subs[0]

        def fan_out(*args):
            for sub in subs:
                sub(*args)

        return fan_out

    def dispatch_phase(self, phase: str, cycle: int) -> None:
        for sub in self._subs["on_phase"]:
            sub(phase, cycle)

    # -- wiring ---------------------------------------------------------------
    def wire(self, sim) -> None:
        """Install dispatchers into a built :class:`~repro.simulation.Simulation`."""
        injected = self.dispatcher("on_packet_injected")
        misrouted = self.dispatcher("on_packet_misrouted")
        stalled = self.dispatcher("on_alloc_stall")
        occupancy = self.dispatcher("on_vc_occupancy")
        transmitted = self.dispatcher("on_flit_transmitted")
        delivered = self.dispatcher("on_packet_delivered")

        if delivered is not None:
            sim.traffic.delivery_hook = delivered
        controller = getattr(sim, "fault_controller", None)
        if controller is not None:
            controller.on_fault_applied = self.dispatcher("on_fault_applied")
            controller.on_packet_dropped = self.dispatcher("on_packet_dropped")
        for router in sim.routers:
            router_id = router.router_id
            if injected is not None:
                router.on_injection = (
                    lambda packet, now, _rid=router_id: injected(packet, _rid, now)
                )
            if misrouted is not None:
                router.on_misroute = (
                    lambda packet, now, _rid=router_id: misrouted(packet, _rid, now)
                )
            if stalled is not None:
                router.on_stall = stalled
            if occupancy is not None:
                for port in router.input_ports.values():
                    port.on_occupancy = (
                        lambda vc, delta, occ, now, _rid=router_id, _pid=port.port_id:
                        occupancy(_rid, _pid, vc, delta, occ, now)
                    )
            if transmitted is not None:
                for output in router.output_ports.values():
                    if output.link is not None:
                        output.link.probe_hook = transmitted


# ---------------------------------------------------------------------------
# Built-in probes
# ---------------------------------------------------------------------------

class TimeSeriesProbe(Probe):
    """Interval-sampled accepted load, delivery latency and resident packets.

    A sample row is flushed every ``interval`` cycles and at every session
    phase transition, so measurement-window boundaries always coincide with a
    flush: summing ``phits`` over the samples that fall inside a window
    reproduces the window's ``phits_delivered`` (and therefore its accepted
    load) exactly.
    """

    def __init__(self, interval: int = 100) -> None:
        super().__init__()
        if interval < 1:
            raise ValueError("sample interval must be >= 1 cycle")
        self.sample_interval = interval
        self.samples: List[dict] = []
        self._phits = 0
        self._delivered = 0
        self._injected = 0
        self._latency_sum = 0
        self._last_flush = 0

    def on_attach(self, session: "Session") -> None:
        super().on_attach(session)
        self._last_flush = session.now

    def on_packet_injected(self, packet: Packet, router_id: int, cycle: int) -> None:
        self._injected += 1

    def on_packet_delivered(self, packet: Packet, cycle: int) -> None:
        self._delivered += 1
        self._phits += packet.size_phits
        self._latency_sum += cycle - packet.created_at

    def on_sample(self, cycle: int) -> None:
        self._flush(cycle)

    def on_phase(self, phase: str, cycle: int) -> None:
        self._flush(cycle)

    def _flush(self, cycle: int) -> None:
        elapsed = cycle - self._last_flush
        if elapsed <= 0:
            return
        session = self.session
        num_nodes = session.sim.topology.num_nodes if session else 1
        self.samples.append({
            "cycle": cycle,
            "elapsed": elapsed,
            "phits": self._phits,
            "delivered": self._delivered,
            "injected": self._injected,
            "accepted_load": self._phits / (num_nodes * elapsed),
            "mean_latency": (
                self._latency_sum / self._delivered if self._delivered else 0.0
            ),
            "resident": (
                session.sim.total_resident_packets() if session else 0
            ),
        })
        self._phits = 0
        self._delivered = 0
        self._injected = 0
        self._latency_sum = 0
        self._last_flush = cycle

    def channels(self) -> Dict[str, dict]:
        return {
            "timeseries": {
                "meta": {
                    "interval": self.sample_interval,
                    "fields": ["cycle", "elapsed", "phits", "delivered",
                               "injected", "accepted_load", "mean_latency",
                               "resident"],
                    "note": ("rows also flush at phase transitions; summing "
                             "'phits' over a measurement window reproduces "
                             "the window's phits_delivered exactly"),
                },
                "data": self.samples,
            }
        }


class LinkUtilizationProbe(Probe):
    """Per-link transmitted phits and utilization over the probed interval."""

    def __init__(self) -> None:
        super().__init__()
        self._phits: Dict[str, int] = {}
        self._packets: Dict[str, int] = {}
        self._types: Dict[str, str] = {}
        self._attach_cycle = 0

    def on_attach(self, session: "Session") -> None:
        super().on_attach(session)
        self._attach_cycle = session.now

    def on_flit_transmitted(self, link, packet: Packet, vc: int, cycle: int) -> None:
        name = link.name
        self._phits[name] = self._phits.get(name, 0) + packet.size_phits
        self._packets[name] = self._packets.get(name, 0) + 1
        if name not in self._types:
            self._types[name] = link.link_type.name.lower()

    def channels(self) -> Dict[str, dict]:
        elapsed = (self.session.now - self._attach_cycle) if self.session else 0
        data = {
            name: {
                "phits": phits,
                "packets": self._packets[name],
                "link_type": self._types[name],
                "utilization": phits / elapsed if elapsed else 0.0,
            }
            for name, phits in sorted(self._phits.items())
        }
        return {
            "link_utilization": {
                "meta": {
                    "elapsed_cycles": elapsed,
                    "links_observed": len(data),
                    "note": "links with zero traffic are omitted",
                },
                "data": data,
            }
        }


class VcOccupancyProbe(Probe):
    """Peak and time-weighted mean occupancy of every network input VC."""

    def __init__(self) -> None:
        super().__init__()
        #: (router, port, vc) -> [occupancy, peak, integral, last_cycle]
        self._state: Dict[tuple, list] = {}
        self._attach_cycle = 0

    def on_attach(self, session: "Session") -> None:
        super().on_attach(session)
        self._attach_cycle = session.now

    def on_vc_occupancy(
        self, router_id: int, port_id: int, vc: int, delta: int,
        occupancy: int, cycle: int,
    ) -> None:
        key = (router_id, port_id, vc)
        state = self._state.get(key)
        if state is None:
            self._state[key] = [occupancy, occupancy, 0, cycle]
            return
        state[2] += state[0] * (cycle - state[3])
        state[0] = occupancy
        state[3] = cycle
        if occupancy > state[1]:
            state[1] = occupancy

    def channels(self) -> Dict[str, dict]:
        now = self.session.now if self.session else 0
        elapsed = now - self._attach_cycle
        data = {}
        for (router_id, port_id, vc), state in sorted(self._state.items()):
            integral = state[2] + state[0] * (now - state[3])
            data[f"{router_id}:{port_id}:{vc}"] = {
                "peak_phits": state[1],
                "mean_phits": integral / elapsed if elapsed else 0.0,
            }
        return {
            "vc_occupancy": {
                "meta": {
                    "elapsed_cycles": elapsed,
                    "key": "router:port:vc",
                    "note": "VCs that never held a packet are omitted",
                },
                "data": data,
            }
        }


class LatencyHistogramProbe(Probe):
    """Full-run latency distribution of every delivery since attachment.

    Unlike the metrics collector's histogram this one is not restricted to
    the measurement window — it sees warm-up and drain-phase deliveries too,
    which is what transient analysis needs.
    """

    def __init__(self) -> None:
        super().__init__()
        self.histogram = LatencyHistogram()

    def on_packet_delivered(self, packet: Packet, cycle: int) -> None:
        self.histogram.add(cycle - packet.created_at)

    def channels(self) -> Dict[str, dict]:
        return {
            "latency_histogram": {
                "meta": {
                    "scope": "all deliveries since probe attachment",
                    "fine_limit": LatencyHistogram.FINE_LIMIT,
                },
                "data": self.histogram.to_dict(),
            }
        }


class AllocStallProbe(Probe):
    """Counts allocation-stall cycles per router (congestion diagnostics)."""

    def __init__(self) -> None:
        super().__init__()
        self._stalls: Dict[int, int] = {}

    def on_alloc_stall(self, router_id: int, cycle: int, retry_cycle: int) -> None:
        self._stalls[router_id] = self._stalls.get(router_id, 0) + 1

    def channels(self) -> Dict[str, dict]:
        return {
            "alloc_stalls": {
                "meta": {"key": "router_id",
                         "note": ("stall = an allocation pass that granted "
                                  "nothing; the router then sleeps on it, "
                                  "so one blocked spell counts once")},
                "data": {str(k): v for k, v in sorted(self._stalls.items())},
            }
        }


#: probe registry used by the CLI's ``--probes`` flag and orchestrator jobs.
PROBES: Dict[str, type] = {
    "timeseries": TimeSeriesProbe,
    "linkutil": LinkUtilizationProbe,
    "vcocc": VcOccupancyProbe,
    "lathist": LatencyHistogramProbe,
    "stalls": AllocStallProbe,
}


def make_probes(names: Sequence[str]) -> List[Probe]:
    """Instantiate probes from registry names (e.g. CLI ``--probes`` values)."""
    probes: List[Probe] = []
    for name in names:
        try:
            factory = PROBES[name]
        except KeyError:
            raise ValueError(
                f"unknown probe {name!r}; expected one of {sorted(PROBES)}"
            ) from None
        probes.append(factory())
    return probes
