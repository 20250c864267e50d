"""SDF writer for generated benchmark designs.

Emits the same ``IOPATH`` / ``COND`` / ``INTERCONNECT`` subset the parser
consumes, so generated designs can be round-tripped through real SDF text and
exercise the full SDF→LUT translation path of the paper's tool flow.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.delaytable import DelayArc, InterconnectDelay
from ..netlist import Netlist, PORT
from .delay_model import DesignDelays


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "()"
    if float(value).is_integer():
        return f"({int(value)})"
    # Shortest text that reads back as the same float: the round trip is exact.
    return f"({float(value)!r})"


def _format_condition(condition: Dict[str, int]) -> str:
    terms = [f"{pin}===1'b{value}" for pin, value in sorted(condition.items())]
    return "&&".join(terms)


def _format_port(pin: str, input_edge: Optional[int]) -> str:
    if input_edge is None:
        return pin
    edge = "posedge" if input_edge == 0 else "negedge"
    return f"({edge} {pin})"


def _iopath_line(arc: DelayArc, output_pin: str) -> str:
    port = _format_port(arc.pin, arc.input_edge)
    rise = _format_value(arc.rise)
    fall = _format_value(arc.fall)
    iopath = f"(IOPATH {port} {output_pin} {rise} {fall})"
    if arc.condition:
        return f"(COND {_format_condition(dict(arc.condition))} {iopath})"
    return iopath


def _source_port(netlist: Netlist, net_name: str) -> str:
    driver = netlist.nets[net_name].driver
    if driver is None or driver[0] == PORT:
        return net_name
    return f"{driver[0]}/{driver[1]}"


def write_sdf(
    netlist: Netlist,
    delays: DesignDelays,
    timescale: str = "1ps",
) -> str:
    """Render a :class:`DesignDelays` bundle as SDF text."""
    lines: List[str] = []
    lines.append("(DELAYFILE")
    lines.append('  (SDFVERSION "3.0")')
    lines.append(f'  (DESIGN "{netlist.name}")')
    lines.append(f"  (TIMESCALE {timescale})")

    # Interconnect delays live in a top-level CELL for the design itself.
    wires: List[Tuple[Tuple[str, str], InterconnectDelay]] = sorted(
        delays.interconnect.items()
    )
    if wires:
        lines.append("  (CELL")
        lines.append(f'    (CELLTYPE "{netlist.name}")')
        lines.append("    (INSTANCE )")
        lines.append("    (DELAY")
        lines.append("      (ABSOLUTE")
        for (instance_name, pin), wire in wires:
            if wire.is_zero():
                continue
            inst = netlist.instances[instance_name]
            source = _source_port(netlist, inst.connections[pin])
            lines.append(
                f"        (INTERCONNECT {source} {instance_name}/{pin} "
                f"{_format_value(wire.rise)} {_format_value(wire.fall)})"
            )
        lines.append("      )")
        lines.append("    )")
        lines.append("  )")

    for instance_name, arcs in sorted(delays.gate_arcs.items()):
        if not arcs:
            continue
        inst = netlist.instances[instance_name]
        lines.append("  (CELL")
        lines.append(f'    (CELLTYPE "{inst.cell_name}")')
        lines.append(f"    (INSTANCE {instance_name})")
        lines.append("    (DELAY")
        lines.append("      (ABSOLUTE")
        for arc in arcs:
            lines.append(f"        {_iopath_line(arc, inst.cell.output)}")
        lines.append("      )")
        lines.append("    )")
        lines.append("  )")

    lines.append(")")
    return "\n".join(lines) + "\n"


def save_sdf(netlist: Netlist, delays: DesignDelays, path: str) -> None:
    """Write SDF text to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_sdf(netlist, delays))
