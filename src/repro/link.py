"""Network links: fixed latency plus one-phit-per-cycle serialization.

A :class:`Link` is unidirectional.  The forward direction carries packets
(serialized at one phit per cycle, then ``latency`` cycles of flight time);
the reverse direction of the paired link carries credit returns, modelled as
latency-only messages (credits are tiny compared to packets).

Both directions participate in the engine's activity tracking, and both end
in a *port method* rather than a per-link closure: a packet delivery lands in
:meth:`InputPort.deliver <repro.router.ports.InputPort.deliver>`, which
schedules the downstream router's wake for the cycle the new head clears its
pipeline, and a :class:`CreditChannel` delivers into
:meth:`OutputPort.credit_return <repro.router.ports.OutputPort.credit_return>`,
which credits the upstream mirror and re-activates the upstream router only
if its recorded allocation blockage depends on that credit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .core.link_types import LinkType
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine


class Link:
    """Unidirectional channel between an output port and an input port."""

    # At 10^5-endpoint scale a network holds hundreds of thousands of links;
    # slots drop the per-instance dict (~300 bytes each).
    __slots__ = (
        "engine", "latency", "link_type", "_deliver", "_name", "busy_until",
        "probe_hook",
    )

    def __init__(
        self,
        engine: "Engine",
        latency: int,
        link_type: LinkType,
        deliver: Callable[[Packet, int, int], None],
        name: "str | tuple" = "",
    ) -> None:
        if latency < 1:
            raise ValueError("link latency must be >= 1 cycle")
        self.engine = engine
        self.latency = latency
        self.link_type = link_type
        #: callback ``deliver(packet, vc, now)`` at the downstream input port.
        self._deliver = deliver
        #: either the display string or a deferred (src, out_port, dst,
        #: in_port) tuple formatted on first read — building hundreds of
        #: thousands of f-strings up front is measurable at system scale.
        self._name = name
        #: cycle at which the tail of the last packet leaves the upstream side.
        self.busy_until = 0
        #: probe dispatch ``hook(link, packet, vc, now)``; None (the default)
        #: keeps the no-probe transmit path free of any dispatch work.
        self.probe_hook = None

    @property
    def name(self) -> str:
        raw = self._name
        if type(raw) is tuple:
            raw = self._name = "%d:%d->%d:%d" % raw
        return raw

    def idle_at(self, now: int) -> bool:
        """Can a new packet start serializing onto the link at ``now``?"""
        return self.busy_until <= now

    def transmit(self, packet: Packet, vc: int, now: int) -> int:
        """Start transmitting ``packet`` towards VC ``vc`` of the downstream port.

        Returns the cycle at which the packet has fully left the upstream side
        (i.e. when its output-buffer space can be reclaimed).  The packet is
        delivered downstream once its last phit lands, ``latency`` cycles
        later (virtual cut-through at packet granularity).
        """
        if self.busy_until > now:
            raise RuntimeError(f"link {self.name or id(self)} busy until {self.busy_until}")
        tail_out = now + packet.size_phits
        self.busy_until = tail_out
        if self.probe_hook is not None:
            self.probe_hook(self, packet, vc, now)
        arrival = tail_out + self.latency
        # The delivery arguments are fully known here, so the event is a
        # closure-free (fn, args) pair on the engine's near-term ring.
        self.engine.schedule_call(arrival, self._deliver, (packet, vc, arrival))
        return tail_out


class CreditChannel:
    """Reverse channel carrying credit returns to an upstream output port."""

    __slots__ = ("engine", "latency", "_deliver")

    def __init__(self, engine: "Engine", latency: int) -> None:
        if latency < 1:
            raise ValueError("credit latency must be >= 1 cycle")
        self.engine = engine
        self.latency = latency
        self._deliver: Optional[Callable[[int, int, bool], None]] = None

    def connect(self, sink: Callable[[int, int, bool], None]) -> None:
        """Attach the upstream callback ``sink(vc, phits, minimal)``.

        Waking the upstream router is the sink's own business (it knows
        which credits its blocked verdicts wait for).
        """
        self._deliver = sink

    @property
    def connected(self) -> bool:
        return self._deliver is not None

    def send_credit(self, vc: int, phits: int, minimal: bool, now: int) -> None:
        """Return ``phits`` of credit for ``vc`` after the channel latency."""
        if self._deliver is None:
            raise RuntimeError("credit channel is not connected to an upstream port")
        self.engine.schedule_call(now + self.latency, self._deliver, (vc, phits, minimal))
