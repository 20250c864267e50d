"""Brute-force zero-delay reference for the ``zero-delay`` backend tests.

It shares nothing with the packed evaluator
(:class:`repro.core.settle.ZeroDelaySettle`): no levelization and no truth
tables.  A gate output's value is its cell's boolean function
(:meth:`repro.cells.library.Cell.evaluate`, the ground truth the truth
tables are generated from) of its input nets' values, found by memoized
recursion back to the sources.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.core.waveform import Waveform
from repro.netlist import Netlist


def zero_delay_reference(
    netlist: Netlist, stimulus: Mapping[str, Waveform], duration: int
) -> Dict[str, Waveform]:
    """Functional waveform of every source and gate-output net.

    The logic is evaluated at time 0 and at every source toggle strictly
    inside ``(0, duration)``; each net's waveform holds its value at each of
    those times (so a toggle count is its :meth:`Waveform.toggle_count`).
    """
    sources = netlist.source_nets()
    drivers = {inst.output_net(): inst for inst in netlist.combinational_instances()}
    times = {0} | {
        time
        for net in sources
        for time, _ in stimulus[net].changes()
        if 0 < time < duration
    }
    changes: Dict[str, List[Tuple[int, int]]] = {net: [] for net in sources}
    changes.update((net, []) for net in drivers)
    for time in sorted(times):
        values = {net: stimulus[net].value_at(time) for net in sources}

        def value(net: str) -> int:
            if net not in values:
                inst = drivers[net]
                values[net] = inst.cell.evaluate([value(n) for n in inst.input_nets()])
            return values[net]

        for net, net_changes in changes.items():
            net_changes.append((time, value(net)))
    return {net: Waveform.from_changes(c) for net, c in changes.items()}
