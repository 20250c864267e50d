"""The ``zero-delay`` backend against a brute-force functional reference.

The backend settles one row of source values per source-change time on the
packed :class:`~repro.core.settle.ZeroDelaySettle`; the reference
(:mod:`zero_delay_reference`) evaluates each net from its cell's boolean
function instead.  They must agree waveform for waveform and count for
count on generated netlists and the Yosys fixtures, with stimuli that
establish at time 0 or later, toggle together, toggle at or after the
horizon, or never toggle.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings, strategies as st
from zero_delay_reference import zero_delay_reference

from repro import NetlistBuilder
from repro.api import get_backend
from repro.core import SimConfig
from repro.core.settle import SETTLE_ROWS, ZeroDelaySettle
from repro.core.waveform import Waveform
from repro.netlist import NetlistError, load_fixture
from repro.testing import build_random_netlist

_FIXTURES = {name: load_fixture(name) for name in ("counter", "lfsr", "alu")}
_CONFIG = SimConfig(analysis="off")


@st.composite
def _source_wave(draw, duration):
    """One source waveform: a small shared pool of times makes toggles of
    different sources coincide, and it reaches past ``duration``."""
    start = draw(st.sampled_from([0, 0, 0, 2]))
    pool = [t for t in (1, 3, 5, duration - 1, duration, duration + 4) if t > start]
    toggles = sorted(draw(st.sets(st.sampled_from(pool), max_size=len(pool))))
    return Waveform.from_toggle_array(draw(st.integers(0, 1)), toggles, start_time=start)


@settings(max_examples=60, deadline=None)
@given(
    design=st.one_of(
        st.integers(min_value=0, max_value=10_000).map(
            lambda seed: build_random_netlist(num_inputs=5, num_gates=30, seed=seed)
        ),
        st.sampled_from(sorted(_FIXTURES)).map(_FIXTURES.__getitem__),
    ),
    duration=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_zero_delay_backend_equals_brute_force_reference(design, duration, data):
    stimulus = {
        net: data.draw(_source_wave(duration), label=net)
        for net in design.source_nets()
    }
    result = (
        get_backend("zero-delay")
        .prepare(design, config=_CONFIG)
        .run(stimulus, duration=duration)
    )
    reference = zero_delay_reference(design, stimulus, duration)
    assert result.waveforms == reference
    assert result.toggle_counts == {
        net: wave.toggle_count() for net, wave in reference.items()
    }
    sources = set(design.source_nets())
    assert result.stats.output_transitions == sum(
        count for net, count in result.toggle_counts.items() if net not in sources
    )


def test_tie_cells_drive_their_constants():
    """Zero-input cells form a level of their own with no pins to gather."""
    builder = NetlistBuilder("ties")
    a = builder.input("a")
    one = builder.gate("TIEHI", [], name="u_hi")
    zero = builder.gate("TIELO", [], name="u_lo")
    builder.output("y")
    builder.output("z")
    builder.gate("AND2", [a, one], output_net="y", name="u_and")
    builder.gate("OR2", [a, zero], output_net="z", name="u_or")
    netlist = builder.build()
    stimulus = {"a": Waveform.from_toggle_array(0, [3, 7])}
    result = get_backend("zero-delay").prepare(netlist, config=_CONFIG).run(
        stimulus, duration=10
    )
    assert result.waveforms == zero_delay_reference(netlist, stimulus, 10)
    assert result.waveforms["y"] == stimulus["a"] == result.waveforms["z"]


def test_settle_many_rows_equal_settle_across_row_blocks():
    design = build_random_netlist(num_inputs=6, num_gates=40, seed=3)
    settle = ZeroDelaySettle(design)
    width = len(settle.source_nets)
    rows = [[(r >> bit) & 1 for bit in range(width)] for r in range(SETTLE_ROWS + 3)]
    settled = settle.settle_many(rows)
    assert settled.shape == (len(rows), settle.null_id + 1)
    for row, values in zip(settled, rows):
        assert (row == settle.settle(values)).all()


def test_prepare_rejects_an_undriven_gate_input():
    """The settle levelizes the design, which refuses a gate input with no
    driver, so no run ever reads an undriven net."""
    builder = NetlistBuilder("undriven")
    a = builder.input("a")
    builder.output("y")
    builder.gate("AND2", [a, "floating"], output_net="y", name="u_and")
    netlist = builder.build()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NetlistError, match="undriven"):
            get_backend("zero-delay").prepare(netlist)
