"""Gate-level netlist data structures.

A :class:`Netlist` is a flat (non-hierarchical) gate-level design: primary
ports, nets, and cell instances from a :class:`~repro.cells.CellLibrary`.
Sequential instances (flip-flops, latches) are kept in the netlist but are
*re-simulation boundaries*: their outputs are treated as pseudo-primary
inputs whose waveforms are supplied by the testbench, and their inputs are
treated as endpoints (paper Fig. 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cells import Cell, CellLibrary, DEFAULT_LIBRARY

#: Pseudo-instance name used for net drivers/loads that are module ports.
PORT = "__port__"


class NetlistError(ValueError):
    """Raised for structural netlist problems."""


@dataclass
class Net:
    """A single-bit wire.

    ``driver`` is ``(instance_name, pin)`` or ``(PORT, port_name)`` and
    ``loads`` is the list of sinks in the same format.
    """

    name: str
    driver: Optional[Tuple[str, str]] = None
    loads: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def fanout(self) -> int:
        return len(self.loads)


@dataclass
class Instance:
    """One placed cell with its pin-to-net connections."""

    name: str
    cell: Cell
    connections: Dict[str, str]

    @property
    def cell_name(self) -> str:
        return self.cell.name

    @property
    def is_sequential(self) -> bool:
        return self.cell.is_sequential

    def input_nets(self) -> Tuple[str, ...]:
        """Nets connected to input pins, in the cell's pin order."""
        # List-comp then tuple() is measurably faster than a genexpr here,
        # and this is the hottest structural accessor (levelization,
        # packing and analysis all iterate it per gate).
        connections = self.connections
        return tuple([connections[pin] for pin in self.cell.inputs])

    def output_net(self) -> str:
        return self.connections[self.cell.output]


class Netlist:
    """A flat gate-level netlist plus convenience queries for re-simulation."""

    def __init__(self, name: str, library: Optional[CellLibrary] = None):
        self.name = name
        self.library = library or DEFAULT_LIBRARY
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.nets: Dict[str, Net] = {}
        self.instances: Dict[str, Instance] = {}
        #: Per-instance power-on state overrides (instance name -> 0/1) for
        #: sequential elements; instances absent here start at their cell's
        #: ``init_value``.  Set by the Yosys importer (``init`` attributes)
        #: and by :meth:`set_initial_value`.
        self.initial_values: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> Net:
        """Declare a primary input port and its net."""
        if name in self.inputs or name in self.outputs:
            raise NetlistError(f"port {name!r} already declared")
        net = self.add_net(name)
        if net.driver is not None:
            raise NetlistError(f"net {name!r} already has a driver")
        net.driver = (PORT, name)
        self.inputs.append(name)
        return net

    def add_output(self, name: str) -> Net:
        """Declare a primary output port and its net."""
        if name in self.inputs or name in self.outputs:
            raise NetlistError(f"port {name!r} already declared")
        net = self.add_net(name)
        net.loads.append((PORT, name))
        self.outputs.append(name)
        return net

    def add_net(self, name: str) -> Net:
        """Declare (or fetch) a net by name."""
        if name not in self.nets:
            self.nets[name] = Net(name=name)
        return self.nets[name]

    def add_instance(
        self, cell_name: str, instance_name: str, connections: Mapping[str, str]
    ) -> Instance:
        """Instantiate a library cell.

        Every cell pin must be connected; referenced nets are created on
        demand.
        """
        if instance_name in self.instances:
            raise NetlistError(f"instance {instance_name!r} already exists")
        cell = self.library.get(cell_name)
        missing = [pin for pin in cell.pins if pin not in connections]
        if missing:
            raise NetlistError(
                f"instance {instance_name!r} of {cell_name!r} is missing "
                f"connections for pins {missing}"
            )
        extra = [pin for pin in connections if pin not in cell.pins]
        if extra:
            raise NetlistError(
                f"instance {instance_name!r} of {cell_name!r} has connections "
                f"for unknown pins {extra}"
            )
        conn = {pin: str(net) for pin, net in connections.items()}
        instance = Instance(name=instance_name, cell=cell, connections=conn)
        for pin in cell.inputs:
            self.add_net(conn[pin]).loads.append((instance_name, pin))
        out_net = self.add_net(conn[cell.output])
        if out_net.driver is not None:
            raise NetlistError(
                f"net {conn[cell.output]!r} already driven by "
                f"{out_net.driver}; cannot also drive from {instance_name!r}"
            )
        out_net.driver = (instance_name, cell.output)
        self.instances[instance_name] = instance
        return instance

    def set_initial_value(self, instance_name: str, value: int) -> None:
        """Record the power-on state of a sequential instance (0 or 1)."""
        inst = self.instance(instance_name)
        if not inst.is_sequential:
            raise NetlistError(
                f"instance {instance_name!r} is combinational; only "
                f"sequential elements carry initial values"
            )
        if value not in (0, 1):
            raise NetlistError(
                f"initial value for {instance_name!r} must be 0 or 1, "
                f"got {value!r}"
            )
        self.initial_values[instance_name] = value

    def initial_value_of(self, instance_name: str) -> int:
        """Power-on state of a sequential instance (override or cell default)."""
        inst = self.instance(instance_name)
        if instance_name in self.initial_values:
            return self.initial_values[instance_name]
        return inst.cell.init_value & 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def gate_count(self) -> int:
        """Number of combinational instances (the paper's gate count)."""
        return sum(1 for inst in self.instances.values() if not inst.is_sequential)

    @property
    def sequential_count(self) -> int:
        return sum(1 for inst in self.instances.values() if inst.is_sequential)

    def combinational_instances(self) -> List[Instance]:
        return [inst for inst in self.instances.values() if not inst.is_sequential]

    def sequential_instances(self) -> List[Instance]:
        return [inst for inst in self.instances.values() if inst.is_sequential]

    def source_nets(self) -> List[str]:
        """Nets whose waveforms are testbench stimuli in re-simulation.

        These are the primary inputs plus the outputs of sequential elements
        (pseudo-primary inputs).
        """
        sources = list(self.inputs)
        for inst in self.sequential_instances():
            sources.append(inst.output_net())
        return sources

    def endpoint_nets(self) -> List[str]:
        """Primary outputs plus sequential element inputs (excluding clocks)."""
        endpoints = list(self.outputs)
        for inst in self.sequential_instances():
            for pin in inst.cell.inputs:
                if pin == inst.cell.clock_pin:
                    continue
                endpoints.append(inst.connections[pin])
        return endpoints

    def fanout_of(self, net_name: str) -> int:
        return self.nets[net_name].fanout

    def instance(self, name: str) -> Instance:
        try:
            return self.instances[name]
        except KeyError:
            raise NetlistError(f"unknown instance {name!r}") from None

    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"unknown net {name!r}") from None

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def cell_histogram(self) -> Dict[str, int]:
        """Instance count per cell type."""
        histogram: Dict[str, int] = {}
        for inst in self.instances.values():
            histogram[inst.cell_name] = histogram.get(inst.cell_name, 0) + 1
        return histogram

    def summary(self) -> Dict[str, int]:
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "nets": len(self.nets),
            "instances": len(self.instances),
            "combinational_gates": self.gate_count,
            "sequential_elements": self.sequential_count,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name!r}, gates={self.gate_count}, "
            f"seq={self.sequential_count}, nets={len(self.nets)})"
        )


class NetlistBuilder:
    """Small helper for programmatic netlist construction.

    Used by the benchmark design generators; keeps a running counter for
    anonymous net and instance names.
    """

    def __init__(self, name: str, library: Optional[CellLibrary] = None):
        self.netlist = Netlist(name, library=library)
        self._net_counter = 0
        self._inst_counter = 0

    def input(self, name: str) -> str:
        self.netlist.add_input(name)
        return name

    def inputs(self, prefix: str, count: int) -> List[str]:
        return [self.input(f"{prefix}[{i}]") for i in range(count)]

    def output(self, name: str) -> str:
        self.netlist.add_output(name)
        return name

    def outputs(self, prefix: str, count: int) -> List[str]:
        return [self.output(f"{prefix}[{i}]") for i in range(count)]

    def new_net(self, hint: str = "n") -> str:
        name = f"{hint}_{self._net_counter}"
        self._net_counter += 1
        self.netlist.add_net(name)
        return name

    def gate(
        self,
        cell_name: str,
        input_nets: Sequence[str],
        output_net: Optional[str] = None,
        name: Optional[str] = None,
    ) -> str:
        """Instantiate a combinational cell; returns the output net name."""
        cell = self.netlist.library.get(cell_name)
        if len(input_nets) != cell.num_inputs:
            raise NetlistError(
                f"{cell_name} expects {cell.num_inputs} inputs, got {len(input_nets)}"
            )
        if output_net is None:
            output_net = self.new_net(cell_name.lower())
        if name is None:
            name = f"u{self._inst_counter}"
            self._inst_counter += 1
        connections = dict(zip(cell.inputs, input_nets))
        connections[cell.output] = output_net
        self.netlist.add_instance(cell_name, name, connections)
        return output_net

    def flop(
        self,
        data_net: str,
        clock_net: str,
        output_net: Optional[str] = None,
        cell_name: str = "DFF",
        name: Optional[str] = None,
        *,
        reset_net: Optional[str] = None,
        enable_net: Optional[str] = None,
        init: Optional[int] = None,
    ) -> str:
        """Instantiate a flip-flop; returns its Q net name.

        ``reset_net``/``enable_net`` connect the cell's reset/enable pins
        (an error when the cell has none); control pins left unconnected
        are tied to their inactive level with TIEHI/TIELO cells so the
        register behaves like a plain DFF when simulated.  ``init`` records
        the power-on state.
        """
        cell = self.netlist.library.get(cell_name)
        if output_net is None:
            output_net = self.new_net("q")
        if name is None:
            name = f"r{self._inst_counter}"
            self._inst_counter += 1
        connections = {cell.data_pin or "D": data_net,
                       cell.clock_pin or "CK": clock_net,
                       cell.output: output_net}
        for net, pin, role in ((reset_net, cell.reset_pin, "reset"),
                               (enable_net, cell.enable_pin, "enable")):
            if net is None:
                continue
            if pin is None:
                raise NetlistError(
                    f"cell {cell_name!r} has no {role} pin for net {net!r}"
                )
            connections[pin] = net
        for pin in cell.inputs:
            if pin in connections:
                continue
            # Tie unconnected control pins to their inactive level: reset
            # inactive is the opposite of its active polarity, enable
            # inactive-high keeps the register capturing every edge.
            if pin == cell.reset_pin:
                tie = "TIEHI" if cell.reset_active_low else "TIELO"
            elif pin == cell.enable_pin:
                tie = "TIEHI"
            else:
                tie = "TIELO"
            tie_net = self.netlist.add_net(f"{name}_{pin}").name
            self.netlist.add_instance(tie, f"{name}_{pin}_tie", {"Y": tie_net})
            connections[pin] = tie_net
        self.netlist.add_instance(cell_name, name, connections)
        if init is not None:
            self.netlist.set_initial_value(name, init)
        return output_net

    def build(self) -> Netlist:
        return self.netlist
