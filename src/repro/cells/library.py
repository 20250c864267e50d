"""Standard cell library used by the netlist, simulators, and power model.

The library is intentionally shaped like a pared-down industrial library: a
range of simple to complex combinational cells (inverters through AOI/OAI,
multiplexers, full-adder cells), sequential cells that act as re-simulation
boundaries, and per-cell electrical data (pin capacitance, internal switching
energy, leakage, intrinsic delays) used by the power model and the SDF
generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from . import functions as fn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.truthtable import TruthTable


@dataclass(frozen=True)
class CellPower:
    """Electrical data for one cell, in arbitrary but consistent units.

    ``input_cap_ff`` is the capacitance of each input pin in femtofarads,
    ``internal_energy_fj`` the internal energy dissipated per output toggle in
    femtojoules, and ``leakage_nw`` the static leakage in nanowatts.
    """

    input_cap_ff: float = 1.0
    internal_energy_fj: float = 1.0
    leakage_nw: float = 1.0
    output_cap_ff: float = 0.5


@dataclass(frozen=True)
class Cell:
    """A single-output standard cell.

    ``inputs`` is the ordered pin list; its order defines the truth-table pin
    weights (first pin gets the highest weight, as in the paper's Fig. 4).
    Sequential cells carry ``clock_pin``/``data_pins`` metadata and are treated
    as re-simulation boundaries rather than simulated gates.
    """

    name: str
    inputs: Tuple[str, ...]
    output: str
    function: Optional[fn.LogicFunction]
    is_sequential: bool = False
    clock_pin: Optional[str] = None
    intrinsic_rise: float = 10.0
    intrinsic_fall: float = 10.0
    power: CellPower = field(default_factory=CellPower)
    area: float = 1.0
    #: Sequential next-state metadata.  ``data_pin`` samples on the active
    #: clock edge; ``enable_pin`` (active high) gates the capture;
    #: ``reset_pin`` forces ``reset_value`` — asynchronously when
    #: ``reset_async``, at the capture edge otherwise — with polarity given
    #: by ``reset_active_low``.  ``init_value`` is the power-on state
    #: (overridable per instance via ``Netlist.set_initial_value``).
    #: ``is_latch`` marks level-sensitive cells (``clock_pin`` is the
    #: transparency gate); latches are analyzed but not clock-steppable.
    data_pin: Optional[str] = None
    enable_pin: Optional[str] = None
    reset_pin: Optional[str] = None
    reset_active_low: bool = False
    reset_async: bool = False
    reset_value: int = 0
    init_value: int = 0
    is_latch: bool = False

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def pins(self) -> Tuple[str, ...]:
        return self.inputs + (self.output,)

    def truth_table(self) -> "TruthTable":
        """Enumerate this cell's logic function into a Fig. 4 lookup array."""
        from ..core.truthtable import TruthTable

        if self.function is None:
            raise ValueError(f"cell {self.name!r} has no combinational function")
        return TruthTable.from_function(self.num_inputs, self.function)

    def evaluate(self, values: Sequence[int]) -> int:
        """Evaluate the cell directly from its boolean function."""
        if self.function is None:
            raise ValueError(f"cell {self.name!r} has no combinational function")
        if len(values) != self.num_inputs:
            raise ValueError(
                f"cell {self.name!r} expects {self.num_inputs} inputs, "
                f"got {len(values)}"
            )
        return self.function(tuple(values)) & 1

    def next_state(self, current: int, pins: Mapping[str, int]) -> int:
        """Next register state given the pin levels sampled at a capture edge.

        ``pins`` maps input pin names to logic levels.  Reset dominates
        enable dominates data; a missing data pin holds the current state.
        This is the scalar reference semantics the vectorized register
        commit (:func:`repro.core.vector_kernel.register_next_state`) must
        match bit for bit.
        """
        if not self.is_sequential:
            raise ValueError(f"cell {self.name!r} is not sequential")
        if self.reset_pin is not None:
            level = pins[self.reset_pin] & 1
            if (level == 0) if self.reset_active_low else (level == 1):
                return self.reset_value & 1
        if self.enable_pin is not None and not (pins[self.enable_pin] & 1):
            return current & 1
        if self.data_pin is None:
            return current & 1
        return pins[self.data_pin] & 1


class CellLibrary:
    """A named collection of :class:`Cell` objects with truth-table caching."""

    def __init__(self, name: str = "repro_stdcells"):
        self.name = name
        self._cells: Dict[str, Cell] = {}
        self._truth_tables: Dict[str, TruthTable] = {}

    def add(self, cell: Cell) -> Cell:
        if cell.name in self._cells:
            raise ValueError(f"cell {cell.name!r} already registered")
        self._cells[cell.name] = cell
        return cell

    def add_all(self, cells: Iterable[Cell]) -> None:
        for cell in cells:
            self.add(cell)

    def get(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"unknown cell {name!r} in library {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self):
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._cells)

    def combinational_cells(self) -> Tuple[Cell, ...]:
        return tuple(c for c in self._cells.values() if not c.is_sequential)

    def truth_table(self, name: str) -> TruthTable:
        """Cached truth table for a combinational cell."""
        if name not in self._truth_tables:
            self._truth_tables[name] = self.get(name).truth_table()
        return self._truth_tables[name]


def _power(cap: float, energy: float, leak: float) -> CellPower:
    return CellPower(
        input_cap_ff=cap, internal_energy_fj=energy, leakage_nw=leak,
        output_cap_ff=cap / 2.0,
    )


def _combinational(
    name: str,
    inputs: Sequence[str],
    function: fn.LogicFunction,
    rise: float,
    fall: float,
    power: CellPower,
    area: float,
) -> Cell:
    return Cell(
        name=name,
        inputs=tuple(inputs),
        output="Y",
        function=function,
        intrinsic_rise=rise,
        intrinsic_fall=fall,
        power=power,
        area=area,
    )


def build_default_library() -> CellLibrary:
    """Construct the default standard cell library.

    Delays are in the same integer-friendly time unit used by the SDF writer
    (picoseconds at a nominal corner); power numbers are representative
    relative values, not any foundry's data.
    """
    lib = CellLibrary()
    lib.add_all(
        [
            _combinational("BUF", ["A"], fn.buf, 12, 12, _power(1.0, 0.8, 0.5), 1.0),
            # Delay cell: minimum-drive buffer used for hold/glitch fixing.
            _combinational("DLY", ["A"], fn.buf, 20, 20, _power(0.6, 0.25, 0.15), 0.6),
            _combinational("INV", ["A"], fn.inv, 6, 5, _power(1.0, 0.5, 0.4), 0.7),
            _combinational("AND2", ["A", "B"], fn.and_gate, 14, 13, _power(1.2, 1.2, 0.8), 1.5),
            _combinational("AND3", ["A", "B", "C"], fn.and_gate, 17, 16, _power(1.3, 1.5, 1.0), 2.0),
            _combinational("AND4", ["A", "B", "C", "D"], fn.and_gate, 20, 19, _power(1.4, 1.8, 1.2), 2.5),
            _combinational("NAND2", ["A", "B"], fn.nand_gate, 9, 8, _power(1.2, 0.9, 0.7), 1.2),
            _combinational("NAND3", ["A", "B", "C"], fn.nand_gate, 12, 11, _power(1.3, 1.1, 0.9), 1.7),
            _combinational("NAND4", ["A", "B", "C", "D"], fn.nand_gate, 15, 14, _power(1.4, 1.3, 1.1), 2.2),
            _combinational("OR2", ["A", "B"], fn.or_gate, 15, 14, _power(1.2, 1.2, 0.8), 1.5),
            _combinational("OR3", ["A", "B", "C"], fn.or_gate, 18, 17, _power(1.3, 1.5, 1.0), 2.0),
            _combinational("OR4", ["A", "B", "C", "D"], fn.or_gate, 21, 20, _power(1.4, 1.8, 1.2), 2.5),
            _combinational("NOR2", ["A", "B"], fn.nor_gate, 11, 9, _power(1.2, 0.9, 0.7), 1.2),
            _combinational("NOR3", ["A", "B", "C"], fn.nor_gate, 14, 12, _power(1.3, 1.1, 0.9), 1.7),
            _combinational("NOR4", ["A", "B", "C", "D"], fn.nor_gate, 17, 15, _power(1.4, 1.3, 1.1), 2.2),
            _combinational("XOR2", ["A", "B"], fn.xor_gate, 18, 18, _power(1.6, 2.0, 1.2), 2.2),
            _combinational("XOR3", ["A", "B", "C"], fn.xor_gate, 24, 24, _power(1.8, 2.6, 1.5), 3.0),
            _combinational("XNOR2", ["A", "B"], fn.xnor_gate, 18, 18, _power(1.6, 2.0, 1.2), 2.2),
            _combinational("XNOR3", ["A", "B", "C"], fn.xnor_gate, 24, 24, _power(1.8, 2.6, 1.5), 3.0),
            _combinational("AOI21", ["A1", "A2", "B"], fn.aoi21, 13, 11, _power(1.4, 1.3, 0.9), 1.8),
            _combinational("AOI22", ["A1", "A2", "B1", "B2"], fn.aoi22, 15, 13, _power(1.5, 1.6, 1.1), 2.3),
            _combinational("OAI21", ["A1", "A2", "B"], fn.oai21, 13, 11, _power(1.4, 1.3, 0.9), 1.8),
            _combinational("OAI22", ["A1", "A2", "B1", "B2"], fn.oai22, 15, 13, _power(1.5, 1.6, 1.1), 2.3),
            _combinational("AO21", ["A1", "A2", "B"], fn.ao21, 17, 16, _power(1.4, 1.5, 1.0), 2.0),
            _combinational("OA21", ["A1", "A2", "B"], fn.oa21, 17, 16, _power(1.4, 1.5, 1.0), 2.0),
            _combinational("MUX2", ["A", "B", "S"], fn.mux2, 16, 16, _power(1.5, 1.8, 1.1), 2.2),
            _combinational("MUX4", ["A", "B", "C", "D", "S0", "S1"], fn.mux4, 24, 24, _power(1.7, 2.8, 1.8), 3.6),
            _combinational("MAJ3", ["A", "B", "C"], fn.maj3, 19, 18, _power(1.5, 1.8, 1.1), 2.4),
            _combinational("FA_SUM", ["A", "B", "CI"], fn.fa_sum, 24, 24, _power(1.8, 2.6, 1.5), 3.0),
            _combinational("FA_CO", ["A", "B", "CI"], fn.fa_carry, 19, 18, _power(1.5, 1.8, 1.1), 2.4),
            _combinational("HA_SUM", ["A", "B"], fn.ha_sum, 18, 18, _power(1.6, 2.0, 1.2), 2.2),
            _combinational("HA_CO", ["A", "B"], fn.ha_carry, 14, 13, _power(1.2, 1.2, 0.8), 1.5),
            _combinational("TIEHI", [], fn.tie_high, 0, 0, _power(0.0, 0.0, 0.1), 0.3),
            _combinational("TIELO", [], fn.tie_low, 0, 0, _power(0.0, 0.0, 0.1), 0.3),
        ]
    )
    lib.add_all(
        [
            Cell(
                name="DFF",
                inputs=("D", "CK"),
                output="Q",
                function=None,
                is_sequential=True,
                clock_pin="CK",
                data_pin="D",
                intrinsic_rise=30,
                intrinsic_fall=30,
                power=_power(1.8, 4.0, 3.0),
                area=4.5,
            ),
            # Async active-low reset (clears Q to 0 the moment RN falls).
            Cell(
                name="DFFR",
                inputs=("D", "CK", "RN"),
                output="Q",
                function=None,
                is_sequential=True,
                clock_pin="CK",
                data_pin="D",
                reset_pin="RN",
                reset_active_low=True,
                reset_async=True,
                reset_value=0,
                intrinsic_rise=32,
                intrinsic_fall=32,
                power=_power(1.9, 4.4, 3.3),
                area=5.0,
            ),
            # Clock-enable flop: EN low holds the current state.
            Cell(
                name="DFFE",
                inputs=("D", "CK", "EN"),
                output="Q",
                function=None,
                is_sequential=True,
                clock_pin="CK",
                data_pin="D",
                enable_pin="EN",
                intrinsic_rise=31,
                intrinsic_fall=31,
                power=_power(1.9, 4.2, 3.2),
                area=4.8,
            ),
            # Sync active-low reset: RN is sampled at the capture edge only.
            Cell(
                name="SDFFR",
                inputs=("D", "CK", "RN"),
                output="Q",
                function=None,
                is_sequential=True,
                clock_pin="CK",
                data_pin="D",
                reset_pin="RN",
                reset_active_low=True,
                reset_async=False,
                reset_value=0,
                intrinsic_rise=33,
                intrinsic_fall=33,
                power=_power(1.9, 4.4, 3.3),
                area=5.2,
            ),
            Cell(
                name="LATCH",
                inputs=("D", "G"),
                output="Q",
                function=None,
                is_sequential=True,
                clock_pin="G",
                data_pin="D",
                is_latch=True,
                intrinsic_rise=22,
                intrinsic_fall=22,
                power=_power(1.6, 3.0, 2.2),
                area=3.2,
            ),
        ]
    )
    return lib


#: Module-level default library shared by generators, parsers, and tests.
DEFAULT_LIBRARY = build_default_library()


def sized_variants(
    library: CellLibrary, base_name: str, sizes: Mapping[str, float]
) -> Dict[str, Cell]:
    """Create drive-strength variants of a cell (e.g. ``INV_X2``).

    Larger drive strengths are faster (delays scale down) but burn more
    internal energy and leakage.  Used by the glitch-fixing gate-resizing
    transform.
    """
    base = library.get(base_name)
    variants: Dict[str, Cell] = {}
    for suffix, strength in sizes.items():
        name = f"{base_name}_{suffix}"
        cell = Cell(
            name=name,
            inputs=base.inputs,
            output=base.output,
            function=base.function,
            is_sequential=base.is_sequential,
            clock_pin=base.clock_pin,
            data_pin=base.data_pin,
            enable_pin=base.enable_pin,
            reset_pin=base.reset_pin,
            reset_active_low=base.reset_active_low,
            reset_async=base.reset_async,
            reset_value=base.reset_value,
            init_value=base.init_value,
            is_latch=base.is_latch,
            intrinsic_rise=base.intrinsic_rise / strength,
            intrinsic_fall=base.intrinsic_fall / strength,
            power=CellPower(
                input_cap_ff=base.power.input_cap_ff * strength,
                internal_energy_fj=base.power.internal_energy_fj * strength,
                leakage_nw=base.power.leakage_nw * strength,
                output_cap_ff=base.power.output_cap_ff * strength,
            ),
            area=base.area * strength,
        )
        if name not in library:
            library.add(cell)
        variants[name] = cell
    return variants
