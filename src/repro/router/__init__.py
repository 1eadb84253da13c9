"""Router microarchitecture: ports (each output port holds its credit mirror
and the minimal share FlexVC-minCred senses), buffer wiring, allocation and
Piggyback's saturation board."""

from .allocator import Request, SeparableAllocator
from .ports import EjectionPort, InputPort, OutputPort
from .router import Router, make_port_buffer
from .saturation import SaturationBoard

__all__ = [
    "Router",
    "make_port_buffer",
    "InputPort",
    "OutputPort",
    "EjectionPort",
    "SeparableAllocator",
    "Request",
    "SaturationBoard",
]
