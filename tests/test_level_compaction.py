"""Property: the level-batched kernel equals the scalar kernel task by task.

``simulate_level`` carries a *compacted active set* through its lock-step
event loop: pointer rows, current outputs and the tiled per-task constants
are re-compacted whenever tasks retire.  These tests drive it directly —
one generated level at a time, on every available array backend — against
:func:`simulate_gate_window` run per ``(gate, window)`` task, on levels
built to stress exactly that bookkeeping: tasks with zero, one and many
input events in one batch (staggered retirement), whole batches retiring
on the first iteration, zero-pin levels, mixed arity with padded pins,
chains of consecutive net-delay drops, and initial-one markers.

A level is described by a plain ``spec`` dict so a shrunk counter-example
can be pasted into :data:`GOLDEN_SPECS` verbatim.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells import DEFAULT_LIBRARY
from repro.core import GateDelayTable, Waveform, WaveformPool
from repro.core.delaytable import RISE, DelayArc
from repro.core.kernel import GateKernelInputs, simulate_gate_window
from repro.core.vector_kernel import pack_design, simulate_level
from repro.core.xp import available_array_backends, get_array_backend

BACKENDS = available_array_backends()

CELLS = (
    "TIEHI", "TIELO", "INV", "BUF", "NAND2", "OR2", "XOR2",
    "MAJ3", "AOI21", "MUX2", "XOR3", "AND4",
)
#: ``uniform``: every arc defined; ``rise_only``: falling-input arcs fall
#: back to the opposite edge; ``none``: every lookup falls back to zero.
DELAY_STYLES = ("uniform", "rise_only", "none")


class _Gate:
    """The three attributes ``pack_design`` reads off a compiled gate."""

    def __init__(self, name, input_nets):
        self.name = name
        self.output_net = name + "_out"
        self.input_nets = tuple(input_nets)


def _kernel_inputs(cell_name, style, rise, fall, wires):
    cell = DEFAULT_LIBRARY.get(cell_name)
    delay_arrays = ()
    if cell.inputs:
        table = GateDelayTable(cell.inputs)
        if style != "none":
            edge = RISE if style == "rise_only" else None
            for pin in cell.inputs:
                table.add_arc(
                    DelayArc(pin=pin, rise=rise, fall=fall, input_edge=edge)
                )
        delay_arrays = tuple(table.table_for(pin) for pin in cell.inputs)
    return GateKernelInputs(
        truth_table=DEFAULT_LIBRARY.truth_table(cell_name).table,
        delay_arrays=delay_arrays,
        wire_rise=tuple(float(w[0]) for w in wires),
        wire_fall=tuple(float(w[1]) for w in wires),
    )


def check_level(spec, xp):
    """Build the level ``spec`` describes, run both kernels, compare."""
    W = spec["windows"]
    pool = WaveformPool(1 << 16)
    for n, per_window in enumerate(spec["nets"]):
        for w, (initial, toggles) in enumerate(per_window):
            pool.store_waveform(
                f"n{n}", w, Waveform.from_initial_and_toggles(initial, toggles)
            )
    null_ptr = pool.store_padding_waveform()

    gates = []
    inputs = {}
    for g, (cell, style, rise, fall, pins) in enumerate(spec["gates"]):
        gate = _Gate(f"g{g}", [f"n{net}" for net, _, _ in pins])
        gates.append(gate)
        inputs[gate.name] = _kernel_inputs(
            cell, style, rise, fall, [(wr, wf) for _, wr, wf in pins]
        )
    packed = pack_design([gates], inputs)
    level = packed.levels[0]

    T, P = len(gates) * W, level.max_pins
    pointers = np.full((T, P), null_ptr, dtype=np.int64)
    caps = np.zeros(T, dtype=np.int64)
    for g, gate in enumerate(gates):
        for w in range(W):
            for p, net in enumerate(gate.input_nets):
                pointers[g * W + w, p] = pool.pointer(net, w)
                caps[g * W + w] += pool.toggle_count(net, w)

    device = packed.to_device(xp)
    batch = simulate_level(
        xp.asarray(pool.data, xp.int64),
        xp.asarray(pointers, xp.int64),
        device,
        device.levels[0],
        W,
        xp.asarray(caps, xp.int64),
        pathpulse_fraction=spec["pathpulse"],
        net_delay_filtering=spec["filtering"],
        xp=xp,
    )
    initial_values = xp.to_host(batch.initial_values)
    for g, gate in enumerate(gates):
        for w in range(W):
            scalar = simulate_gate_window(
                pool.data,
                [pool.pointer(net, w) for net in gate.input_nets],
                inputs[gate.name],
                pathpulse_fraction=spec["pathpulse"],
                net_delay_filtering=spec["filtering"],
            )
            task = g * W + w
            context = f"gate {g} ({spec['gates'][g][0]}) window {w}"
            assert int(initial_values[task]) == scalar.initial_value, context
            assert (
                xp.to_host(batch.toggles_for(task)).tolist()
                == scalar.toggle_times
            ), context


# ----------------------------------------------------------------------
# Generated levels
# ----------------------------------------------------------------------
@st.composite
def toggle_lists(draw):
    """No events, one event, or many — with runs of pulses a few time
    units wide, narrower than the larger wire delays, so the net-delay
    filter drops several in a row."""
    shape = draw(st.sampled_from(("none", "one", "many", "many")))
    if shape == "none":
        return []
    if shape == "one":
        return [draw(st.integers(1, 400))]
    gaps = draw(
        st.lists(
            st.one_of(st.integers(1, 4), st.integers(5, 90)),
            min_size=2,
            max_size=24,
        )
    )
    return np.cumsum(gaps).tolist()


@st.composite
def level_specs(draw):
    W = draw(st.integers(1, 3))
    net_count = draw(st.integers(1, 4))
    nets = [
        [(draw(st.integers(0, 1)), draw(toggle_lists())) for _ in range(W)]
        for _ in range(net_count)
    ]
    wire = st.sampled_from((0, 0, 3, 12, 40))
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        cell = draw(st.sampled_from(CELLS))
        pins = [
            (draw(st.integers(0, net_count - 1)), draw(wire), draw(wire))
            for _ in DEFAULT_LIBRARY.get(cell).inputs
        ]
        gates.append(
            (
                cell,
                draw(st.sampled_from(DELAY_STYLES)),
                draw(st.integers(0, 60)),
                draw(st.integers(0, 60)),
                pins,
            )
        )
    return {
        "windows": W,
        "nets": nets,
        "gates": gates,
        "pathpulse": draw(st.sampled_from((1.0, 0.5, 0.0))),
        "filtering": draw(st.booleans()),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@given(spec=level_specs())
@settings(max_examples=120, deadline=None)
def test_simulate_level_matches_scalar_kernel(backend, spec):
    check_level(spec, get_array_backend(backend))


# ----------------------------------------------------------------------
# Pinned levels: one per compaction hazard (and any shrunk counter-example)
# ----------------------------------------------------------------------
_BURST = [100, 102, 104, 106, 108, 110, 300]  # five 2-wide pulses, then a real edge

GOLDEN_SPECS = {
    # Window 0 has no events, window 1 one, window 2 many: tasks of one
    # gate retire on different iterations, and the carried rows must stay
    # aligned with their global task ids through every compaction.
    "staggered_retirement": {
        "windows": 3,
        "nets": [
            [(0, []), (1, [50]), (0, [10, 20, 35, 60, 61, 90, 140, 200])],
            [(1, []), (0, []), (1, [15, 20, 36, 59, 61, 95, 150])],
        ],
        "gates": [
            ("XOR2", "uniform", 7, 9, [(0, 0, 0), (1, 3, 0)]),
            ("INV", "uniform", 4, 6, [(1, 0, 0)]),
            ("NAND2", "rise_only", 5, 5, [(1, 0, 0), (0, 0, 3)]),
        ],
        "pathpulse": 1.0,
        "filtering": True,
    },
    # No input ever toggles: the whole batch retires before the first MSI.
    "all_retire_on_first_iteration": {
        "windows": 2,
        "nets": [[(1, []), (0, [])], [(0, []), (1, [])]],
        "gates": [
            ("NAND2", "uniform", 5, 5, [(0, 0, 0), (1, 0, 0)]),
            ("BUF", "uniform", 5, 5, [(1, 0, 0)]),
        ],
        "pathpulse": 1.0,
        "filtering": True,
    },
    # P == 0: the event loop must not run at all.
    "zero_pin_level": {
        "windows": 2,
        "nets": [[(0, [5]), (1, [])]],
        "gates": [("TIEHI", "none", 0, 0, []), ("TIELO", "none", 0, 0, [])],
        "pathpulse": 1.0,
        "filtering": True,
    },
    # 0-, 1-, 3- and 4-pin gates share one batch; padded pins point at the
    # null waveform, and the tie cell retires on the first iteration.
    "mixed_arity_padded_pins": {
        "windows": 1,
        "nets": [
            [(0, [100, 250, 400])],
            [(1, [180, 330])],
            [(0, [90, 95, 300])],
        ],
        "gates": [
            ("TIEHI", "none", 0, 0, []),
            ("INV", "uniform", 10, 10, [(0, 0, 0)]),
            ("MAJ3", "uniform", 20, 20, [(0, 0, 0), (1, 0, 0), (2, 0, 0)]),
            ("AND4", "none", 0, 0, [(0, 0, 0), (1, 3, 3), (2, 0, 0), (1, 0, 0)]),
        ],
        "pathpulse": 1.0,
        "filtering": True,
    },
    # Five consecutive pulses narrower than the wire delay: the filter
    # loop drops a chain of them before the first surviving edge, on one
    # pin only, while the other pin of the same task keeps its events.
    "net_delay_drop_chain": {
        "windows": 2,
        "nets": [
            [(0, _BURST), (1, _BURST)],
            [(0, [101, 103, 250]), (0, [])],
        ],
        "gates": [
            ("OR2", "uniform", 6, 8, [(0, 40, 40), (1, 0, 0)]),
            ("BUF", "uniform", 6, 8, [(0, 12, 3)]),
        ],
        "pathpulse": 0.5,
        "filtering": True,
    },
    # Every input starts at 1 (the -1 marker precedes the waveform).
    "initial_one_markers": {
        "windows": 2,
        "nets": [[(1, [40, 80]), (1, [])], [(1, [40]), (1, [10, 20, 30])]],
        "gates": [
            ("NAND2", "uniform", 5, 7, [(0, 0, 0), (1, 0, 0)]),
            ("XOR2", "none", 0, 0, [(1, 0, 0), (0, 3, 3)]),
        ],
        "pathpulse": 1.0,
        "filtering": False,
    },
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_pinned_levels(name, backend):
    check_level(GOLDEN_SPECS[name], get_array_backend(backend))
