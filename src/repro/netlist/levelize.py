"""Logic levelization of a gate-level netlist.

GATSPI partitions the combinational netlist by logic level: sources (primary
inputs, sequential outputs, tie cells) are level 0; a gate's level is one plus
the maximum level of its input nets.  Simulation advances level by level so
that every gate's input waveforms are final before it is simulated (paper
Section 2/3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .netlist import Netlist, NetlistError, PORT


@dataclass
class Levelization:
    """Result of levelizing a netlist.

    ``net_levels`` maps every net to its logic level; ``levels`` lists the
    combinational instance names grouped by level (level 1 onward; level 0 has
    no gates, only sources).
    """

    net_levels: Dict[str, int] = field(default_factory=dict)
    gate_levels: Dict[str, int] = field(default_factory=dict)
    levels: List[List[str]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        """Number of combinational levels (the paper's logic depth)."""
        return len(self.levels)

    @property
    def widest_level(self) -> int:
        """Gate count of the widest level (drives GPU thread-count estimates)."""
        return max((len(level) for level in self.levels), default=0)

    def level_sizes(self) -> List[int]:
        return [len(level) for level in self.levels]


def levelize(netlist: Netlist) -> Levelization:
    """Compute logic levels for every net and combinational gate.

    Raises :class:`NetlistError` if the combinational logic contains a cycle
    or if a combinational gate input is undriven.
    """
    result = Levelization()
    # Level 0 sources: primary inputs, sequential outputs, and zero-input
    # cells (tie-high/low).
    pending_inputs: Dict[str, int] = {}
    ready: deque = deque()

    for name in netlist.source_nets():
        result.net_levels[name] = 0

    combinational = netlist.combinational_instances()
    consumers: Dict[str, List[str]] = {}
    # Materialize per-gate input/output nets once: the worklist loop below
    # revisits them, and tuple-building per visit dominated levelization
    # time on large designs.
    inputs_of: Dict[str, Tuple[str, ...]] = {}
    output_of: Dict[str, str] = {}
    for inst in combinational:
        inputs_of[inst.name] = inst.input_nets()
        output_of[inst.name] = inst.output_net()
        remaining = 0
        for net_name in inputs_of[inst.name]:
            if net_name in result.net_levels:
                continue
            remaining += 1
            consumers.setdefault(net_name, []).append(inst.name)
        pending_inputs[inst.name] = remaining
        if remaining == 0:
            ready.append(inst.name)

    processed = 0
    net_levels = result.net_levels
    while ready:
        inst_name = ready.popleft()
        input_nets = inputs_of[inst_name]
        level = (max([net_levels[n] for n in input_nets]) + 1) if input_nets else 1
        result.gate_levels[inst_name] = level
        processed += 1
        output_net = output_of[inst_name]
        previous = result.net_levels.get(output_net)
        if previous is not None and previous != level:
            raise NetlistError(
                f"net {output_net!r} assigned conflicting levels "
                f"{previous} and {level}"
            )
        result.net_levels[output_net] = level
        for consumer in consumers.get(output_net, []):
            pending_inputs[consumer] -= 1
            if pending_inputs[consumer] == 0:
                ready.append(consumer)

    if processed != len(combinational):
        unresolved = [
            name for name, remaining in pending_inputs.items() if remaining > 0
        ]
        undriven = _undriven_inputs(netlist)
        if undriven:
            raise NetlistError(
                f"combinational gates have undriven inputs: {sorted(undriven)[:10]}"
            )
        raise NetlistError(
            f"combinational loop detected involving instances "
            f"{sorted(unresolved)[:10]}"
        )

    depth = max(result.gate_levels.values(), default=0)
    result.levels = [[] for _ in range(depth)]
    for inst_name, level in result.gate_levels.items():
        result.levels[level - 1].append(inst_name)
    for level in result.levels:
        level.sort()
    return result


def _undriven_inputs(netlist: Netlist) -> List[str]:
    """Nets used as combinational inputs but never driven by anything."""
    undriven = []
    sources = set(netlist.source_nets())
    for inst in netlist.combinational_instances():
        for net_name in inst.input_nets():
            net = netlist.nets[net_name]
            if net.driver is None and net_name not in sources:
                undriven.append(net_name)
    return undriven


# ----------------------------------------------------------------------
# Register crossings (the D-cone -> Q-source table between frames)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegisterCrossing:
    """One sequential element as a crossing between combinational frames.

    The D cone of frame ``k`` ends at ``d_net`` (an endpoint of the
    levelized frame) and, one capture edge later, re-enters frame ``k+1``
    as the level-0 source ``q_net``.  Control-pin nets and next-state
    semantics are denormalized from the cell so consumers (the register
    file, the clocked driver, analysis rules) need no cell lookups.
    """

    instance: str
    cell_name: str
    q_net: str
    d_net: Optional[str]
    clock_net: Optional[str]
    enable_net: Optional[str]
    reset_net: Optional[str]
    reset_active_low: bool
    reset_async: bool
    reset_value: int
    init_value: int
    is_latch: bool
    clk_to_q_rise: float
    clk_to_q_fall: float


def register_crossings(netlist: Netlist) -> List[RegisterCrossing]:
    """The register crossing table, sorted by instance name.

    One :class:`RegisterCrossing` per sequential instance; ``init_value``
    already folds in any per-instance override from
    :attr:`Netlist.initial_values`.
    """
    crossings: List[RegisterCrossing] = []
    for inst in netlist.sequential_instances():
        cell = inst.cell

        def pin_net(pin: Optional[str]) -> Optional[str]:
            return inst.connections[pin] if pin is not None else None

        crossings.append(
            RegisterCrossing(
                instance=inst.name,
                cell_name=cell.name,
                q_net=inst.output_net(),
                d_net=pin_net(cell.data_pin),
                clock_net=pin_net(cell.clock_pin),
                enable_net=pin_net(cell.enable_pin),
                reset_net=pin_net(cell.reset_pin),
                reset_active_low=cell.reset_active_low,
                reset_async=cell.reset_async,
                reset_value=cell.reset_value & 1,
                init_value=netlist.initial_value_of(inst.name),
                is_latch=cell.is_latch,
                clk_to_q_rise=cell.intrinsic_rise,
                clk_to_q_fall=cell.intrinsic_fall,
            )
        )
    crossings.sort(key=lambda c: c.instance)
    return crossings
