"""Array-plane zero-delay settle: the value every net settles to.

A clocked frame keeps every event it schedules, so each net ends the frame
at the zero-delay value of the frame's *final* source values.  That is
what lets the clocked driver (:mod:`repro.core.clocked`) derive a whole
block of register captures before simulating any frame of it.

:class:`ZeroDelaySettle` packs a netlist's combinational logic once — the
levelized gates' truth tables (one flat array), pin weights and input /
output net ids — and evaluates it over a net-id value vector, one level at
a time: a gather of the level's input values, a weighted sum into each
truth-table column, and one table lookup per gate.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..netlist import Netlist, levelize
from .truthtable import pack_truth_tables, pin_weights
from .xp import HOST


class ZeroDelaySettle:
    """The settled (zero-delay) value of every net of one netlist."""

    def __init__(self, netlist: Netlist) -> None:
        hnp = HOST
        #: Source nets (primary inputs, then register outputs) in the order
        #: :meth:`settle` takes their values.
        self.source_nets: Tuple[str, ...] = tuple(netlist.source_nets())
        self.net_ids: Dict[str, int] = {
            net: index for index, net in enumerate(self.source_nets)
        }
        gate_levels = [
            [netlist.instances[name] for name in names]
            for names in levelize(netlist).levels
        ]
        for level in gate_levels:
            for inst in level:
                self.net_ids[inst.output_net()] = len(self.net_ids)
        #: Constant-0 slot for the padded pins of narrower gates.
        self.null_id = len(self.net_ids)
        library = netlist.library
        tables, offsets = pack_truth_tables(
            [
                library.truth_table(inst.cell_name).table
                for level in gate_levels
                for inst in level
            ]
        )
        self._table = tables
        self._levels: List[Tuple[object, object, object, object]] = []
        first = 0
        for level in gate_levels:
            width = max(len(inst.input_nets()) for inst in level)
            input_ids = hnp.full((len(level), width), self.null_id, dtype=hnp.int64)
            weights = hnp.zeros((len(level), width), dtype=hnp.int64)
            for row, inst in enumerate(level):
                pins = inst.input_nets()
                input_ids[row, : len(pins)] = [self.net_ids[n] for n in pins]
                weights[row, : len(pins)] = pin_weights(len(pins))
            output_ids = hnp.asarray(
                [self.net_ids[inst.output_net()] for inst in level], dtype=hnp.int64
            )
            self._levels.append(
                (input_ids, weights, offsets[first : first + len(level)], output_ids)
            )
            first += len(level)

    def settle(self, source_values: Sequence[int]) -> object:
        """Settled value of every net, indexed by :attr:`net_ids`.

        ``source_values`` follow :attr:`source_nets`; the returned int8
        vector has one more entry, the constant-0 :attr:`null_id`.
        """
        hnp = HOST
        values = hnp.zeros(self.null_id + 1, dtype=hnp.int8)
        values[: len(self.source_nets)] = source_values
        for input_ids, weights, offsets, output_ids in self._levels:
            columns = hnp.sum(values[input_ids] * weights, axis=1)
            values[output_ids] = self._table[offsets + columns]
        return values
