"""Conditional gate-delay tables as array lookups (paper Fig. 4).

SDF ``IOPATH`` statements — including ``COND``-qualified ones — are compiled
into per-input-pin lookup arrays so the simulation kernel can determine the
gate delay for any observed transition with a plain array access, exactly like
logic evaluation.

For a cell with ``n`` input pins, each pin owns a ``(2, 2, 2**n)`` array::

    delay = table[input_edge][output_edge][column_index]

* ``input_edge``  — 0 for a rising input, 1 for a falling input.
* ``output_edge`` — 0 for a rising output, 1 for a falling output.
* ``column_index`` — the same weighted pin-value index used by the truth
  table (the paper's ``colInd``), evaluated *after* the transition.

Unconditional ``IOPATH`` entries fill every column; ``COND`` entries override
only the columns whose side-input values satisfy the condition.  Entries for
arcs that can never fire keep the sentinel :data:`NO_DELAY`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .truthtable import pin_weights

#: Sentinel for a delay arc that is never exercised (the paper's "infinity").
NO_DELAY: float = float("inf")

RISE = 0
FALL = 1


@dataclass(frozen=True)
class DelayArc:
    """One SDF-style delay arc from an input pin to the cell output.

    ``input_edge`` may be ``None`` (applies to both edges).  ``condition``
    maps *other* pin names to required logic values; an empty mapping means
    the arc is unconditional.  ``rise``/``fall`` are the output rise/fall
    delays; ``None`` keeps the existing entry (SDF's empty ``()`` field).
    """

    pin: str
    rise: Optional[float] = None
    fall: Optional[float] = None
    input_edge: Optional[int] = None
    condition: Mapping[str, int] = field(default_factory=dict)


class GateDelayTable:
    """Per-gate conditional delay lookup tables for every input pin."""

    def __init__(self, pins: Sequence[str]):
        if not pins:
            raise ValueError("a gate delay table needs at least one input pin")
        self._pins: Tuple[str, ...] = tuple(pins)
        self._pin_index: Dict[str, int] = {
            name: index for index, name in enumerate(self._pins)
        }
        if len(self._pin_index) != len(self._pins):
            raise ValueError("duplicate pin names in delay table")
        columns = 2 ** len(self._pins)
        self._tables: Dict[str, np.ndarray] = {
            name: np.full((2, 2, columns), NO_DELAY, dtype=np.float64)
            for name in self._pins
        }

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @property
    def pins(self) -> Tuple[str, ...]:
        return self._pins

    @property
    def num_columns(self) -> int:
        return 2 ** len(self._pins)

    def table_for(self, pin: str) -> np.ndarray:
        """Raw ``(2, 2, 2**n)`` array for one pin (read-only view)."""
        view = self._tables[pin].view()
        view.setflags(write=False)
        return view

    def _columns_matching(self, condition: Mapping[str, int]) -> np.ndarray:
        """Column indices whose pin values satisfy ``condition``."""
        weights = pin_weights(len(self._pins))
        columns = np.arange(self.num_columns)
        mask = np.ones(self.num_columns, dtype=bool)
        for name, required in condition.items():
            if name not in self._pin_index:
                raise KeyError(f"unknown pin {name!r} in delay condition")
            weight = weights[self._pin_index[name]]
            mask &= ((columns // weight) % 2) == int(required)
        return columns[mask]

    def add_arc(self, arc: DelayArc) -> None:
        """Install one delay arc, overriding any previously matching entries."""
        if arc.pin not in self._pin_index:
            raise KeyError(f"unknown input pin {arc.pin!r}")
        table = self._tables[arc.pin]
        columns = self._columns_matching(arc.condition)
        if arc.input_edge is None:
            input_edges: Tuple[int, ...] = (RISE, FALL)
        else:
            input_edges = (int(arc.input_edge),)
        for input_edge in input_edges:
            if arc.rise is not None:
                table[input_edge, RISE, columns] = float(arc.rise)
            if arc.fall is not None:
                table[input_edge, FALL, columns] = float(arc.fall)

    def add_arcs(self, arcs: Iterable[DelayArc]) -> None:
        for arc in arcs:
            self.add_arc(arc)

    @classmethod
    def uniform(
        cls, pins: Sequence[str], rise: float, fall: float
    ) -> "GateDelayTable":
        """All arcs from every pin use the same output rise/fall delay."""
        table = cls(pins)
        for pin in pins:
            table.add_arc(DelayArc(pin=pin, rise=rise, fall=fall))
        return table

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(
        self, pin: str, input_edge: int, output_edge: int, column_index: int
    ) -> float:
        """Delay for an observed transition; :data:`NO_DELAY` if undefined."""
        return float(self._tables[pin][input_edge, output_edge, column_index])

    def min_delay(
        self,
        switching_pins: Sequence[int],
        input_edges: Sequence[int],
        output_edge: int,
        column_index: int,
    ) -> float:
        """Resolve a multiple-simultaneous-input (MSI) transition.

        When several inputs switch at the same timestamp, the output change is
        assumed to propagate through the fastest valid arc, so the minimum
        defined delay across the switching pins is used.
        """
        best = NO_DELAY
        for pin_index, input_edge in zip(switching_pins, input_edges):
            value = self._tables[self._pins[pin_index]][
                input_edge, output_edge, column_index
            ]
            if value < best:
                best = float(value)
        return best

    # ------------------------------------------------------------------
    # Derived tables
    # ------------------------------------------------------------------
    def copy(self) -> "GateDelayTable":
        """Deep copy (fresh per-pin arrays; safe to mutate independently)."""
        result = GateDelayTable(self._pins)
        for pin in self._pins:
            result._tables[pin][...] = self._tables[pin]
        return result

    def with_pin_delay(
        self, pin: str, rise: float, fall: float
    ) -> "GateDelayTable":
        """Copy-on-write variant with one pin's arcs replaced.

        Returns a *new* table whose ``pin`` entries are uniformly
        ``rise``/``fall`` (both edges, every column) and whose other pins
        are copied unchanged.  The original table — which may be shared by
        several gates — is never mutated; this is the sanctioned way for
        the edit API (:mod:`repro.core.edits`) to resize a delay arc.
        """
        if pin not in self._pin_index:
            raise KeyError(f"unknown input pin {pin!r}")
        result = self.copy()
        result.add_arc(DelayArc(pin=pin, rise=float(rise), fall=float(fall)))
        return result

    def averaged(self) -> "GateDelayTable":
        """Collapse conditional delays to per-pin averages.

        This reproduces the paper's "partial SDF" ablation (Table 7): the
        average rise/fall delay of each input-pin arc across all conditional
        arcs replaces the full 2-D table.
        """
        result = GateDelayTable(self._pins)
        for pin in self._pins:
            table = self._tables[pin]
            for output_edge in (RISE, FALL):
                values = table[:, output_edge, :]
                finite = values[np.isfinite(values)]
                if finite.size == 0:
                    continue
                average = float(finite.mean())
                result._tables[pin][:, output_edge, :] = average
        return result

    def packed(self) -> Dict[str, np.ndarray]:
        """Per-pin delay arrays in the flat layout of the vector kernel."""
        return {pin: flatten_delay_array(self._tables[pin]) for pin in self._pins}

    def max_finite_delay(self) -> float:
        """Largest defined delay in the table (useful for pulse-width checks)."""
        best = 0.0
        for table in self._tables.values():
            finite = table[np.isfinite(table)]
            if finite.size:
                best = max(best, float(finite.max()))
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GateDelayTable(pins={self._pins!r})"


def flatten_delay_array(table: np.ndarray) -> np.ndarray:
    """Ravel one per-pin ``(2, 2, 2**n)`` delay array for the packed design.

    The flat index convention, shared with the vector kernel, is::

        index = (input_edge * 2 + output_edge) * 2**n + column_index

    which is exactly C-order raveling of the ``(2, 2, 2**n)`` array.
    """
    arr = np.ascontiguousarray(table, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected a (2, 2, 2**n) delay array, got {arr.shape}")
    return arr.reshape(-1)


@dataclass(frozen=True)
class InterconnectDelay:
    """Rise/fall wire delay from a driver output to one gate input pin."""

    rise: float = 0.0
    fall: float = 0.0

    def for_edge(self, new_value: int) -> float:
        """Delay applied to a transition whose *new* value is ``new_value``."""
        return self.rise if new_value == 1 else self.fall

    def is_zero(self) -> bool:
        return self.rise == 0.0 and self.fall == 0.0
