"""Network links: fixed latency plus one-phit-per-cycle serialization.

A :class:`Link` is unidirectional: it carries packets from an output port to
the input port it holds, serialized at one phit per cycle and then
``latency`` cycles of flight time.  Credits travel the other way without a
channel object: the downstream :class:`~repro.router.ports.InputPort` holds
its ``upstream`` output port and the credit latency, and its ``pop``
schedules :meth:`OutputPort.credit_return
<repro.router.ports.OutputPort.credit_return>` with that port as the first
argument (credits are latency-only messages, tiny next to packets).

A link owns no function object either: its ``deliver`` slot is the one
shared function :meth:`InputPort.deliver
<repro.router.ports.InputPort.deliver>`, called with the downstream port as
its first argument, which stores the packet and schedules the downstream
router's wake for the cycle the new head clears its pipeline.  Only a fault
schedule replaces the slot, with an in-flight policy wrapper of the same
signature (:mod:`repro.faults`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core.link_types import LinkType
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine
    from .router.ports import InputPort


class Link:
    """Unidirectional channel between an output port and an input port."""

    # At 10^5-endpoint scale a network holds hundreds of thousands of links;
    # slots drop the per-instance dict (~300 bytes each).
    __slots__ = ("engine", "latency", "deliver", "port", "busy_until", "probe_hook")

    def __init__(self, engine: "Engine", latency: int, port: "InputPort") -> None:
        if latency < 1:
            raise ValueError("link latency must be >= 1 cycle")
        self.engine = engine
        self.latency = latency
        #: the downstream input port.
        self.port = port
        #: delivery ``deliver(port, packet, vc, now)``: the port class's own
        #: function, shared by every link, so no link holds a bound method.
        self.deliver = type(port).deliver
        #: cycle at which the tail of the last packet leaves the upstream side.
        self.busy_until = 0
        #: probe dispatch ``hook(link, packet, vc, now)``; None (the default)
        #: keeps the no-probe transmit path free of any dispatch work.
        self.probe_hook = None

    @property
    def link_type(self) -> LinkType:
        return self.port.link_type

    @property
    def name(self) -> str:
        """``"src:port->dst:port"``, read off the two port ends."""
        port = self.port
        upstream = port.upstream
        return "%d:%d->%d:%d" % (upstream.router.router_id, upstream.port_id,
                                 port.router.router_id, port.port_id)

    def transmit(self, packet: Packet, vc: int, now: int) -> int:
        """Start transmitting ``packet`` towards VC ``vc`` of the downstream port.

        Returns the cycle at which the packet has fully left the upstream side
        (i.e. when its output-buffer space can be reclaimed).  The packet is
        delivered downstream once its last phit lands, ``latency`` cycles
        later (virtual cut-through at packet granularity).
        """
        if self.busy_until > now:
            raise RuntimeError(f"link {self.name} busy until {self.busy_until}")
        tail_out = now + packet.size_phits
        self.busy_until = tail_out
        if self.probe_hook is not None:
            self.probe_hook(self, packet, vc, now)
        arrival = tail_out + self.latency
        # The delivery arguments are fully known here, so the event is a
        # closure-free (fn, args) pair on the engine's near-term ring.
        self.engine.schedule_call(arrival, self.deliver, (self.port, packet, vc, arrival))
        return tail_out
