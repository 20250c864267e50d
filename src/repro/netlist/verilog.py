"""Structural (gate-level) Verilog reader and writer.

Only the structural subset emitted by synthesis tools is supported:

* one flat module per file (the first module is used),
* ``input`` / ``output`` / ``wire`` declarations, scalar or vectored
  (``input [7:0] a;`` is flattened to scalar nets ``a[7] … a[0]``),
* cell instantiations with named port connections
  (``NAND2 u1 (.A(n1), .B(n2), .Y(n3));``),
* ``1'b0`` / ``1'b1`` constants in connections (tied via TIELO/TIEHI cells).

Everything else (behavioural code, parameters, assigns) is rejected with a
clear error, because a gate-level re-simulator should never see it.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..cells import CellLibrary, DEFAULT_LIBRARY
from .netlist import Netlist, NetlistError


class VerilogError(ValueError):
    """Raised when the input file is not supported structural Verilog."""


_COMMENT_LINE = re.compile(r"//.*?$", re.MULTILINE)
_COMMENT_BLOCK = re.compile(r"/\*.*?\*/", re.DOTALL)
_MODULE = re.compile(r"\bmodule\s+(\w+)\s*\((.*?)\)\s*;", re.DOTALL)
_ENDMODULE = re.compile(r"\bendmodule\b")
_DECL = re.compile(
    r"\b(input|output|wire)\s+(?:\[(\d+)\s*:\s*(\d+)\]\s*)?([^;]+);", re.DOTALL
)
_INSTANCE = re.compile(r"(\w+)\s+(\\?[\w\[\].$]+)\s*\(\s*(\..*?)\)\s*;", re.DOTALL)
_PIN_CONN = re.compile(r"\.(\w+)\s*\(\s*([^)]*?)\s*\)")
_CONSTANT = re.compile(r"1'b([01])")


def _strip_comments(text: str) -> str:
    text = _COMMENT_BLOCK.sub(" ", text)
    text = _COMMENT_LINE.sub(" ", text)
    return text


def _unescape(name: str) -> str:
    """A name without the ``\\`` of an escaped identifier.

    An escaped identifier (``\\a[0] ``, what :func:`write_verilog` emits
    for flattened bus bits) ends at whitespace; neither the backslash nor
    the terminator is part of the name.
    """
    return name.strip().lstrip("\\").strip()


def _expand_names(raw: str, msb: Optional[str], lsb: Optional[str]) -> List[str]:
    """Expand a declaration's name list, flattening any vector range."""
    names = [_unescape(name) for name in raw.split(",") if name.strip()]
    if msb is None:
        return names
    high, low = int(msb), int(lsb)
    if low > high:
        high, low = low, high
    expanded: List[str] = []
    for name in names:
        expanded.extend(f"{name}[{bit}]" for bit in range(high, low - 1, -1))
    return expanded


def parse_verilog(
    text: str, library: Optional[CellLibrary] = None
) -> Netlist:
    """Parse structural Verilog text into a :class:`Netlist`."""
    library = library or DEFAULT_LIBRARY
    text = _strip_comments(text)
    module_match = _MODULE.search(text)
    if not module_match:
        raise VerilogError("no module declaration found")
    module_name = module_match.group(1)
    end_match = _ENDMODULE.search(text, module_match.end())
    if not end_match:
        raise VerilogError(f"module {module_name!r} has no endmodule")
    body = text[module_match.end() : end_match.start()]

    if re.search(r"\b(assign|always|initial)\b", body):
        raise VerilogError(
            "behavioural constructs (assign/always/initial) are not supported; "
            "expected a structural gate-level netlist"
        )

    netlist = Netlist(module_name, library=library)

    declared_wires: List[str] = []
    for kind, msb, lsb, names in _DECL.findall(body):
        expanded = _expand_names(names, msb or None, lsb or None)
        for name in expanded:
            if kind == "input":
                netlist.add_input(name)
            elif kind == "output":
                netlist.add_output(name)
            else:
                declared_wires.append(name)
    for name in declared_wires:
        netlist.add_net(name)

    body_wo_decls = _DECL.sub(" ", body)
    tie_counter = [0]

    def resolve_constant(value: str) -> str:
        """Create a tie cell for a 1'b0 / 1'b1 connection and return its net."""
        bit = _CONSTANT.match(value).group(1)
        cell = "TIEHI" if bit == "1" else "TIELO"
        net_name = f"__tie{bit}_{tie_counter[0]}"
        tie_counter[0] += 1
        netlist.add_instance(cell, f"__tie_inst_{net_name}", {"Y": net_name})
        return net_name

    found_any = False
    for cell_name, inst_name, conn_text in _INSTANCE.findall(body_wo_decls):
        if cell_name in ("module", "endmodule"):
            continue
        found_any = True
        if cell_name not in library:
            raise VerilogError(
                f"instance {inst_name!r} references unknown cell {cell_name!r}"
            )
        inst_name = _unescape(inst_name)
        connections: Dict[str, str] = {}
        for pin, net in _PIN_CONN.findall(conn_text):
            net = _unescape(net)
            if not net:
                raise VerilogError(
                    f"instance {inst_name!r} pin {pin!r} is unconnected"
                )
            if _CONSTANT.match(net):
                net = resolve_constant(net)
            connections[pin] = net
        try:
            netlist.add_instance(cell_name, inst_name, connections)
        except NetlistError as exc:
            raise VerilogError(str(exc)) from exc

    if not found_any and not netlist.nets:
        raise VerilogError(f"module {module_name!r} contains no instances")
    return netlist


def read_verilog(path: str, library: Optional[CellLibrary] = None) -> Netlist:
    """Read and parse a structural Verilog file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_verilog(handle.read(), library=library)


def _needs_escape(name: str) -> bool:
    return bool(re.search(r"[\[\].$]", name))


def _format_name(name: str) -> str:
    """Escape identifiers containing brackets (flattened bus bits)."""
    if _needs_escape(name):
        return f"\\{name} "
    return name


def write_verilog(netlist: Netlist) -> str:
    """Render a netlist back to structural Verilog text."""
    lines: List[str] = []
    ports = list(netlist.inputs) + list(netlist.outputs)
    port_list = ", ".join(_format_name(p) for p in ports)
    lines.append(f"module {netlist.name} ({port_list});")
    for name in netlist.inputs:
        lines.append(f"  input {_format_name(name)};")
    for name in netlist.outputs:
        lines.append(f"  output {_format_name(name)};")
    port_set = set(ports)
    for name in sorted(netlist.nets):
        if name not in port_set:
            lines.append(f"  wire {_format_name(name)};")
    for inst in netlist.instances.values():
        conns = ", ".join(
            f".{pin}({_format_name(net)})" for pin, net in inst.connections.items()
        )
        lines.append(f"  {inst.cell_name} {_format_name(inst.name)}({conns});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def save_verilog(netlist: Netlist, path: str) -> None:
    """Write a netlist to a structural Verilog file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_verilog(netlist))
