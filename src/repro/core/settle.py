"""Array-plane zero-delay settle: the value every net settles to.

This is the package's one zero-delay evaluator.  Two users share it:

* the clocked driver (:mod:`repro.core.clocked`): a clocked frame keeps
  every event it schedules, so each net ends the frame at the zero-delay
  value of the frame's *final* source values, which lets the driver derive
  a whole block of register captures before simulating any frame of it;
* the ``zero-delay`` backend (:class:`repro.api.adapters.ZeroDelaySession`):
  one row of source values per source-change time, settled in one batch,
  gives every net's functional (glitch-free) waveform.

:class:`ZeroDelaySettle` packs a netlist's combinational logic once — the
levelized gates' truth tables (one flat array), one pin-weight vector per
level and input / output net ids — and evaluates it over rows of net-id
values, one level at a time: a gather of the level's input values, a
weighted sum into each truth-table column, and one table lookup per gate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..netlist import Netlist, levelize
from .truthtable import pack_truth_tables, pin_weights
from .xp import HOST

#: Rows one pass of the level loop evaluates: bounds the gathered
#: ``[gates, pins, rows]`` temporaries however many rows a batch has.
SETTLE_ROWS = 1024


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
        #: Gates per level, in level order.
        self.level_sizes: Tuple[int, ...] = tuple(len(level) for level in gate_levels)
        self._levels: List[Tuple[object, object, object, object]] = []
        first = 0
        for level in gate_levels:
            # Pins are right-aligned (narrower gates padded on the left with
            # the constant-0 slot), so one weight vector serves the level.
            width = max(len(inst.input_nets()) for inst in level)
            input_ids = hnp.full((len(level), width), self.null_id, dtype=hnp.int64)
            for row, inst in enumerate(level):
                pins = inst.input_nets()
                input_ids[row, width - len(pins) :] = [self.net_ids[n] for n in pins]
            weights = hnp.asarray(pin_weights(width), dtype=hnp.int64)
            output_ids = hnp.asarray(
                [self.net_ids[inst.output_net()] for inst in level], dtype=hnp.int64
            )
            level_offsets = offsets[first : first + len(level), None]
            self._levels.append((input_ids, weights, level_offsets, output_ids))
            first += len(level)

    def settle(self, source_values: Sequence[int]) -> Any:
        """Settled value of every net, indexed by :attr:`net_ids`.

        ``source_values`` follow :attr:`source_nets`; the returned int8
        vector has one more entry, the constant-0 :attr:`null_id`.
        """
        return self.settle_many([source_values])[0]

    def settle_many(self, source_values: Any) -> Any:
        """:meth:`settle` for every row of a ``[rows, sources]`` matrix.

        Returns an int8 ``[rows, null_id + 1]`` matrix: row ``r`` is the
        settled value of every net for source row ``r``.  Rows are
        evaluated :data:`SETTLE_ROWS` at a time.
        """
        hnp = HOST
        source_values = hnp.asarray(source_values, dtype=hnp.int8)
        rows = source_values.shape[0]
        # Net-major, so each level's gather indexes the leading axis.
        values = hnp.zeros((self.null_id + 1, rows), dtype=hnp.int8)
        values[: len(self.source_nets)] = source_values.T
        for start in range(0, rows, SETTLE_ROWS):
            block = values[:, start : start + SETTLE_ROWS]
            for input_ids, weights, offsets, output_ids in self._levels:
                block[output_ids] = self._table[offsets + weights @ block[input_ids]]
        return values.T
