"""Gate-level netlist subsystem: data structures, Verilog/Yosys I/O, levelization."""

from .netlist import Instance, Net, Netlist, NetlistBuilder, NetlistError, PORT
from .levelize import (
    Levelization,
    RegisterCrossing,
    levelize,
    register_crossings,
)
from .verilog import (
    VerilogError,
    parse_verilog,
    read_verilog,
    save_verilog,
    write_verilog,
)
from .yosys import (
    UnsupportedCellError,
    YosysFormatError,
    YosysImportError,
    fixture_path,
    import_yosys_json,
    load_fixture,
    read_yosys_json,
)
from .graph import CompiledGate, CompiledGraph, compile_netlist, to_networkx

__all__ = [
    "Instance",
    "Net",
    "Netlist",
    "NetlistBuilder",
    "NetlistError",
    "PORT",
    "Levelization",
    "RegisterCrossing",
    "levelize",
    "register_crossings",
    "VerilogError",
    "parse_verilog",
    "read_verilog",
    "save_verilog",
    "write_verilog",
    "UnsupportedCellError",
    "YosysFormatError",
    "YosysImportError",
    "fixture_path",
    "import_yosys_json",
    "load_fixture",
    "read_yosys_json",
    "CompiledGate",
    "CompiledGraph",
    "compile_netlist",
    "to_networkx",
]
