"""Group-level saturation board used by Piggyback routing.

Each Dragonfly router measures the occupancy of its global ports and
piggybacks it to the other routers of its group.  A global port is considered
*saturated* when its occupancy exceeds the group-wide average by the
configured factor (50% in the paper).  The board stores the posted occupancy
values; the saturation comparison is evaluated on demand so that the average
always reflects the latest measurements of every router in the group.

For per-VC sensing with request-reply traffic two values are kept per port
(one per sub-path first VC), hence the ``class_index`` dimension.
"""

from __future__ import annotations


class SaturationBoard:
    """Shared occupancy/saturation state of all global ports of one group."""

    def __init__(
        self,
        positions: int,
        global_ports: int,
        classes: int = 2,
        saturation_factor: float = 1.5,
    ) -> None:
        if positions < 1 or global_ports < 1 or classes < 1:
            raise ValueError("positions, global_ports and classes must be >= 1")
        if saturation_factor <= 0:
            raise ValueError("saturation_factor must be > 0")
        self.positions = positions
        self.global_ports = global_ports
        self.classes = classes
        self.saturation_factor = saturation_factor
        self._ports = positions * global_ports
        self._values = [[0] * self._ports for _ in range(classes)]
        self._sums = [0] * classes

    def _index(self, position: int, global_port: int) -> int:
        if not 0 <= position < self.positions:
            raise ValueError(f"position {position} out of range")
        if not 0 <= global_port < self.global_ports:
            raise ValueError(f"global port {global_port} out of range")
        return position * self.global_ports + global_port

    def _check_class(self, class_index: int) -> None:
        if not 0 <= class_index < self.classes:
            raise ValueError(f"class index {class_index} out of range")

    # -- posting measurements ---------------------------------------------------
    def post(self, position: int, global_port: int, class_index: int, occupancy: int) -> None:
        """Publish the occupancy (in phits) of one global port."""
        self._check_class(class_index)
        if occupancy < 0:
            raise ValueError("occupancy must be non-negative")
        index = self._index(position, global_port)
        values = self._values[class_index]
        self._sums[class_index] += occupancy - values[index]
        values[index] = occupancy

    # -- queries ---------------------------------------------------------------------
    def average(self, class_index: int) -> float:
        self._check_class(class_index)
        return self._sums[class_index] / self._ports

    def occupancy(self, position: int, global_port: int, class_index: int) -> int:
        self._check_class(class_index)
        return self._values[class_index][self._index(position, global_port)]

    def is_saturated(self, position: int, global_port: int, class_index: int) -> bool:
        """Does this port exceed the group average by the saturation factor?"""
        value = self.occupancy(position, global_port, class_index)
        if value <= 0:
            return False
        return value > self.saturation_factor * self.average(class_index)

    def saturated_count(self, class_index: int = 0) -> int:
        """Number of currently saturated ports (diagnostics/tests)."""
        return sum(
            1
            for position in range(self.positions)
            for port in range(self.global_ports)
            if self.is_saturated(position, port, class_index)
        )
