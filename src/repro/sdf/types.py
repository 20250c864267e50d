"""Dataclasses describing the SDF constructs GATSPI consumes.

Only the delay-annotation subset that matters for gate-level re-simulation is
modelled: ``IOPATH`` (optionally edge-qualified and ``COND``-qualified) and
``INTERCONNECT`` entries under ``ABSOLUTE`` delays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional


@dataclass(frozen=True)
class SdfIoPath:
    """One ``IOPATH`` delay arc.

    ``input_edge`` is ``None``, ``"posedge"`` or ``"negedge"``.  ``rise`` /
    ``fall`` are the output rise/fall delays; ``None`` encodes SDF's empty
    ``()`` value field (leave that edge unspecified).  ``condition`` maps pin
    names to required values for ``COND``-qualified arcs.
    """

    input_pin: str
    output_pin: str
    rise: Optional[float] = None
    fall: Optional[float] = None
    input_edge: Optional[str] = None
    condition: Mapping[str, int] = field(default_factory=dict)

    @property
    def is_conditional(self) -> bool:
        return bool(self.condition)


@dataclass(frozen=True)
class SdfInterconnect:
    """One ``INTERCONNECT`` wire delay from a driver port to a sink port.

    Ports are hierarchical names like ``u12/Y`` or a top-level port name.
    """

    source: str
    destination: str
    rise: float = 0.0
    fall: float = 0.0


@dataclass
class SdfCell:
    """All delay entries for one cell instance."""

    cell_type: str
    instance: str
    iopaths: List[SdfIoPath] = field(default_factory=list)
    interconnects: List[SdfInterconnect] = field(default_factory=list)


@dataclass
class SdfFile:
    """A parsed SDF delay file."""

    design: str = ""
    timescale: str = "1ps"
    cells: List[SdfCell] = field(default_factory=list)
    interconnects: List[SdfInterconnect] = field(default_factory=list)

    def all_interconnects(self) -> List[SdfInterconnect]:
        wires = list(self.interconnects)
        for cell in self.cells:
            wires.extend(cell.interconnects)
        return wires

    def conditional_iopath_count(self) -> int:
        return sum(
            1 for cell in self.cells for path in cell.iopaths if path.is_conditional
        )
