"""Apply delay information (from SDF or a synthetic model) to a netlist.

The result is a :class:`DelayAnnotation` — per-instance conditional delay
lookup tables plus per-input-pin interconnect delays — which is exactly the
"SDF to LUT array" translation step of the paper's tool flow (Fig. 2/4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.delaytable import DelayArc, GateDelayTable, InterconnectDelay
from ..netlist import Netlist
from .delay_model import DesignDelays, IntrinsicDelayModel
from .types import SdfFile


class AnnotationError(ValueError):
    """Raised when SDF entries cannot be matched to the netlist."""


@dataclass
class DelayAnnotation:
    """Compiled delay data for one netlist.

    ``gate_tables`` maps instance names to their conditional delay tables;
    ``interconnect`` maps ``(instance, pin)`` to the wire delay at that input.
    Instances or pins without entries default to zero delay.
    """

    netlist: Netlist
    gate_tables: Dict[str, GateDelayTable] = field(default_factory=dict)
    interconnect: Dict[Tuple[str, str], InterconnectDelay] = field(
        default_factory=dict
    )

    def table_for(self, instance_name: str) -> GateDelayTable:
        table = self.gate_tables.get(instance_name)
        if table is None:
            inst = self.netlist.instance(instance_name)
            pins = inst.cell.inputs or ("Y",)
            table = GateDelayTable.uniform(pins, 0.0, 0.0)
            self.gate_tables[instance_name] = table
        return table

    def wire_delay(self, instance_name: str, pin: str) -> InterconnectDelay:
        return self.interconnect.get((instance_name, pin), InterconnectDelay(0.0, 0.0))

    # ------------------------------------------------------------------
    # Feature-ablation variants (paper Table 7)
    # ------------------------------------------------------------------
    def without_net_delays(self) -> "DelayAnnotation":
        """Drop interconnect delays (the paper's "No Net Delay" ablation)."""
        return DelayAnnotation(
            netlist=self.netlist,
            gate_tables=dict(self.gate_tables),
            interconnect={},
        )

    def with_averaged_sdf(self) -> "DelayAnnotation":
        """Collapse conditional arcs to per-pin averages ("No Full SDF")."""
        averaged = {
            name: table.averaged() for name, table in self.gate_tables.items()
        }
        return DelayAnnotation(
            netlist=self.netlist,
            gate_tables=averaged,
            interconnect=dict(self.interconnect),
        )

    def max_gate_delay(self) -> float:
        return max(
            (table.max_finite_delay() for table in self.gate_tables.values()),
            default=0.0,
        )


def annotation_from_design_delays(
    netlist: Netlist, delays: DesignDelays
) -> DelayAnnotation:
    """Compile a :class:`DesignDelays` bundle into lookup tables."""
    annotation = DelayAnnotation(netlist=netlist)
    for inst in netlist.combinational_instances():
        pins = inst.cell.inputs
        if not pins:
            continue
        table = GateDelayTable(pins)
        arcs = delays.gate_arcs.get(inst.name, [])
        if not arcs:
            cell = inst.cell
            arcs = [
                DelayArc(pin=pin, rise=cell.intrinsic_rise, fall=cell.intrinsic_fall)
                for pin in pins
            ]
        table.add_arcs(arcs)
        annotation.gate_tables[inst.name] = table
    annotation.interconnect = dict(delays.interconnect)
    return annotation


def default_annotation(netlist: Netlist) -> DelayAnnotation:
    """Annotation using only the library's intrinsic delays (no SDF)."""
    return annotation_from_design_delays(netlist, IntrinsicDelayModel().build(netlist))


def _edge_to_index(edge: Optional[str]) -> Optional[int]:
    if edge is None:
        return None
    return 0 if edge == "posedge" else 1


def annotation_from_sdf(
    netlist: Netlist, sdf: SdfFile, strict: bool = True
) -> DelayAnnotation:
    """Compile a parsed SDF file against a netlist.

    With ``strict`` set, SDF entries referring to unknown instances or pins
    raise :class:`AnnotationError`; otherwise they are skipped (commercial
    tools warn and continue).  Instances without SDF coverage fall back to
    intrinsic delays.
    """
    design_delays = DesignDelays()
    for cell_entry in sdf.cells:
        instance_name = cell_entry.instance
        if instance_name not in netlist.instances:
            if strict and instance_name:
                raise AnnotationError(
                    f"SDF CELL references unknown instance {instance_name!r}"
                )
            continue
        inst = netlist.instances[instance_name]
        arcs = design_delays.gate_arcs.setdefault(instance_name, [])
        pins = set(inst.cell.inputs)
        for path in cell_entry.iopaths:
            if path.input_pin not in pins or not pins.issuperset(path.condition):
                if strict:
                    clause, pin = "IOPATH", path.input_pin
                    if pin in pins:
                        clause, pin = "COND", min(set(path.condition) - pins)
                    raise AnnotationError(
                        f"SDF {clause} references unknown pin {pin!r} "
                        f"on instance {instance_name!r} ({inst.cell_name})"
                    )
                continue
            arcs.append(
                DelayArc(
                    pin=path.input_pin,
                    rise=path.rise,
                    fall=path.fall,
                    input_edge=_edge_to_index(path.input_edge),
                    condition=dict(path.condition),
                )
            )

    for wire in sdf.all_interconnects():
        destination = wire.destination
        if "/" not in destination:
            continue  # delay to a primary output port; no gate consumes it
        instance_name, pin = destination.rsplit("/", 1)
        instance_name = instance_name.lstrip("\\")
        if instance_name not in netlist.instances:
            if strict:
                raise AnnotationError(
                    f"SDF INTERCONNECT references unknown instance "
                    f"{instance_name!r}"
                )
            continue
        inst = netlist.instances[instance_name]
        if pin not in inst.cell.inputs:
            if strict:
                raise AnnotationError(
                    f"SDF INTERCONNECT references unknown pin {pin!r} on "
                    f"instance {instance_name!r}"
                )
            continue
        design_delays.interconnect[(instance_name, pin)] = InterconnectDelay(
            rise=wire.rise, fall=wire.fall
        )

    return annotation_from_design_delays(netlist, design_delays)
