"""Clocked sequential simulation: differential, semantic, and error tests.

The clocked update loop (:mod:`repro.core.clocked`) drives *one* shared
frame pipeline regardless of executor, so the contract here is strict:

* every gatspi variant, process workers, and the streaming fold
  must be **bit-identical** (waveforms where available, toggle counts and
  final register state everywhere) to each other and to the ``event``
  oracle;
* the functional behavior (counter counts, LFSR sequences, shift chains
  shift, enables freeze, async resets clear mid-cycle) must match a plain
  Python model of the same registers.

The error-path half pins the plan/stimulus validation taxonomy:
latch-bearing designs, registerless designs, gated or multiple clocks,
clock/Q nets supplied as stimulus, and waveform-less configs must all be
rejected with the documented exception types before any frame runs.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_design
from repro.api import get_backend, resolve_backend
from repro.core import SimConfig
from repro.core.clocked import ClockedSimulationError, plan_clocked_run
from repro.core.contract import StimulusError
from repro.core.register_file import RegisterFileError
from repro.core.waveform import Waveform
from repro.core.xp import available_array_backends
from repro.netlist import NetlistBuilder, load_fixture
from repro.testing import build_counter, build_lfsr, build_shift_register

PERIOD = 1000
DEVICES = available_array_backends()

#: Specs that must be bit-identical on waveforms, toggle counts, and state.
EXACT_SPECS = (
    "gatspi",
    "gatspi-oracle",
    "gatspi:workers=process:2",
)


def _session(spec, netlist, device=None, **config_kw):
    backend, options = resolve_backend(spec)
    config = SimConfig(clock_period=PERIOD, store_waveforms=True, **config_kw)
    if device is not None and spec.startswith("gatspi"):
        config = config.with_updates(device=device)
    return backend.prepare(netlist, config=config, **options)


def _state_of(result):
    return dict(result.register_state)


def _toggles(netlist, result):
    return {net: result.toggle_counts.get(net, 0) for net in sorted(netlist.nets)}


# ---------------------------------------------------------------------------
# Python reference models
# ---------------------------------------------------------------------------


def counter_reference(bits, init, cycles):
    """Final state of an up-counter after ``cycles`` captures."""
    return (init + cycles) % (1 << bits)


def lfsr_reference(bits, taps, init, cycles):
    """Final per-stage state of the XNOR-feedback Fibonacci LFSR."""
    state = [(init >> i) & 1 for i in range(bits)]
    for _ in range(cycles):
        fb = 0
        for tap in taps:
            fb ^= state[tap - 1]
        state = [1 - fb] + state[:-1]
    return state


# ---------------------------------------------------------------------------
# Differential: every executor agrees with the event oracle
# ---------------------------------------------------------------------------


def _design_matrix():
    counter = build_counter(4)
    lfsr = build_lfsr(8)
    shift = build_shift_register(6, enable=True)
    base = {
        "rst_n": Waveform.from_toggle_array(0, [PERIOD // 2]),
        "din": Waveform.from_toggle_array(0, [PERIOD + 7, 3 * PERIOD - 1, 4 * PERIOD]),
        "en": Waveform.from_toggle_array(1, [5 * PERIOD + PERIOD // 2]),
    }
    return [
        ("counter", counter, {"rst_n": base["rst_n"]}),
        ("lfsr", lfsr, {}),
        ("shift_en", shift, {"din": base["din"], "en": base["en"]}),
    ]


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize(
    "label", [row[0] for row in _design_matrix()]
)
def test_run_cycles_differential(label, device):
    name, netlist, stimulus = next(
        row for row in _design_matrix() if row[0] == label
    )
    cycles = 9
    reference = _session("event", netlist).run_cycles(stimulus, cycles)
    ref_state = _state_of(reference)
    ref_toggles = _toggles(netlist, reference)
    for spec in EXACT_SPECS:
        result = _session(spec, netlist, device=device).run_cycles(
            stimulus, cycles
        )
        assert _state_of(result) == ref_state, f"{name}/{spec} register state"
        assert _toggles(netlist, result) == ref_toggles, f"{name}/{spec} toggles"
        for net in netlist.nets:
            assert result.waveforms[net].changes() is not None
    # gatspi variants additionally agree on full waveforms.
    vector = _session("gatspi", netlist, device=device).run_cycles(
        stimulus, cycles
    )
    scalar = _session("gatspi-oracle", netlist).run_cycles(
        stimulus, cycles
    )
    for net in netlist.nets:
        assert list(vector.waveforms[net].changes()) == list(
            scalar.waveforms[net].changes()
        ), f"{name}: waveform mismatch on {net}"


@pytest.mark.parametrize("fixture", ["counter", "lfsr", "alu"])
def test_run_cycles_fixture_differential(fixture):
    netlist = load_fixture(fixture)
    stimulus = {}
    for net in netlist.inputs:
        if net == "clk":
            continue
        if net == "rst_n":
            stimulus[net] = Waveform.from_toggle_array(0, [PERIOD // 2])
        else:
            stimulus[net] = Waveform.from_toggle_array(
                0, [k * PERIOD + PERIOD // 3 for k in range(1, 8, 2)]
            )
    cycles = 8
    reference = _session("event", netlist).run_cycles(stimulus, cycles)
    for spec in EXACT_SPECS:
        result = _session(spec, netlist).run_cycles(stimulus, cycles)
        assert _state_of(result) == _state_of(reference), f"{fixture}/{spec}"
        assert _toggles(netlist, result) == _toggles(netlist, reference)


@pytest.mark.parametrize("device", DEVICES)
def test_run_cycles_stream_matches_whole_run(device):
    netlist = build_lfsr(8)
    cycles = 16
    session = _session("gatspi", netlist, device=device)
    whole = session.run_cycles({}, cycles)
    streamed = _session("gatspi", netlist, device=device).run_cycles_stream(
        {}, cycles
    )
    assert streamed.register_state == whole.register_state
    assert streamed.duration == cycles * PERIOD
    assert streamed.stats.streamed is True
    for net in netlist.nets:
        wave = whole.waveforms[net]
        act = streamed.activities[net]
        assert streamed.toggle_counts[net] == whole.toggle_counts[net], net
        assert act.tc == whole.toggle_counts[net], net
        assert act.t1 == wave.duration_at(1, 0, streamed.duration), net
        assert act.t0 + act.t1 == streamed.duration, net


def test_run_cycles_stream_saif_matches_whole_run_totals():
    netlist = build_counter(3)
    stimulus = {"rst_n": Waveform.constant(1)}
    streamed = _session("gatspi", netlist).run_cycles_stream(stimulus, 10)
    text = streamed.saif(design="counter3")
    assert "counter3" in text
    assert streamed.total_toggles() > 0


# ---------------------------------------------------------------------------
# Functional semantics against the Python reference models
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("init,cycles", [(0, 5), (3, 6), (13, 9)])
def test_counter_counts(init, cycles):
    netlist = build_counter(4, init=init)
    stimulus = {"rst_n": Waveform.constant(1)}
    result = _session("gatspi", netlist).run_cycles(stimulus, cycles)
    value = sum(
        result.register_state[f"count_reg[{i}]"] << i for i in range(4)
    )
    assert value == counter_reference(4, init, cycles)


def test_counter_async_reset_mid_cycle():
    """A reset pulse inside frame 3 clears the state; counting resumes."""
    netlist = build_counter(4)
    pulse_at = 3 * PERIOD + 137
    stimulus = {
        "rst_n": Waveform.from_toggle_array(1, [pulse_at, pulse_at + 50])
    }
    cycles = 7
    results = {
        spec: _session(spec, netlist).run_cycles(stimulus, cycles)
        for spec in ("gatspi", "event")
    }
    for spec, result in results.items():
        value = sum(
            result.register_state[f"count_reg[{i}]"] << i for i in range(4)
        )
        # Captures at P..3P count 1,2,3; the pulse clears mid-frame 3, so
        # captures at 4P..7P count 1,2,3,4 again.
        assert value == 4, spec
    assert _toggles(netlist, results["gatspi"]) == _toggles(
        netlist, results["event"]
    )


def test_counter_held_in_reset_stays_zero():
    netlist = build_counter(4, init=9)
    stimulus = {"rst_n": Waveform.constant(0)}
    result = _session("gatspi", netlist).run_cycles(stimulus, 5)
    assert all(
        result.register_state[f"count_reg[{i}]"] == 0 for i in range(4)
    )


@pytest.mark.parametrize("bits,init,cycles", [(8, 0, 20), (8, 0b1011, 11), (4, 0, 7)])
def test_lfsr_sequences(bits, init, cycles):
    netlist = build_lfsr(bits, init=init)
    result = _session("gatspi", netlist).run_cycles({}, cycles)
    taps = {8: (8, 6, 5, 4), 4: (4, 3)}[bits]
    expected = lfsr_reference(bits, taps, init, cycles)
    got = [result.register_state[f"q_reg[{i}]"] for i in range(bits)]
    assert got == expected


def test_shift_register_enable_freezes_chain():
    """EN low freezes every stage; the chain resumes after EN returns."""
    netlist = build_shift_register(4, enable=True)
    # din high for the whole run; enable only during frames 0-1 and 4+.
    stimulus = {
        "din": Waveform.constant(1),
        "en": Waveform.from_toggle_array(1, [2 * PERIOD - 10, 4 * PERIOD - 10]),
    }
    result = _session("gatspi", netlist).run_cycles(stimulus, 6)
    # Captures at P,2P (enabled) load two 1s; 3P,4P frozen; 5P,6P shift on.
    got = [result.register_state[f"sr_reg[{i}]"] for i in range(4)]
    assert got == [1, 1, 1, 1][:2] + got[2:]  # q0,q1 definitely 1
    reference = _session("event", netlist).run_cycles(stimulus, 6)
    assert _state_of(result) == _state_of(reference)


def test_shift_register_plain_shifts_din():
    netlist = build_shift_register(5)
    stimulus = {
        "din": Waveform.from_toggle_array(
            0, [PERIOD // 2, 2 * PERIOD + PERIOD // 2]
        )
    }
    # din: 0 in frame 0 tail? value at capture P is 1 (toggled at P/2).
    result = _session("gatspi", netlist).run_cycles(stimulus, 5)
    got = [result.register_state[f"sr_reg[{i}]"] for i in range(5)]
    # din final values per frame: f0=1, f1=1, f2=0, f3=0, f4=0.
    assert got == [0, 0, 0, 1, 1]


def test_register_state_on_result_and_event_parity():
    netlist = build_lfsr(8)
    gatspi = _session("gatspi", netlist).run_cycles({}, 20)
    event = _session("event", netlist).run_cycles({}, 20)
    assert gatspi.register_state == event.register_state
    assert "".join(
        str(gatspi.register_state[f"q_reg[{i}]"]) for i in range(8)
    ) == "11101001"


def test_stimulus_toggles_exactly_on_clock_edges():
    """PI events landing exactly at k*P belong to the *next* frame."""
    netlist = build_shift_register(3)
    on_edge = {"din": Waveform.from_toggle_array(0, [PERIOD, 2 * PERIOD])}
    result = _session("gatspi", netlist).run_cycles(on_edge, 4)
    reference = _session("event", netlist).run_cycles(on_edge, 4)
    assert _state_of(result) == _state_of(reference)
    # Each capture at kP samples din's frame-(k-1) final value, boundary
    # toggles excluded: captures see 0 (at P), 1 (2P), 0 (3P), 0 (4P) —
    # so only sr_reg[2] still holds the 1 captured at 2P.
    assert result.register_state["sr_reg[0]"] == 0
    assert result.register_state["sr_reg[1]"] == 0
    assert result.register_state["sr_reg[2]"] == 1


def test_run_cycles_engine_entry_point():
    """The session is the clocked entry point: the engine has none of its
    own, and the session path commits the counter to 4 after 4 edges."""
    from repro.core.engine import GatspiEngine

    assert not hasattr(GatspiEngine, "run_cycles")
    netlist = build_counter(3)
    result = _session("gatspi", netlist).run_cycles(
        {"rst_n": Waveform.constant(1)}, 4
    )
    value = sum(
        result.register_state[f"count_reg[{i}]"] << i for i in range(3)
    )
    assert value == 4


# ---------------------------------------------------------------------------
# Plan/stimulus validation taxonomy
# ---------------------------------------------------------------------------


def _latch_design():
    builder = NetlistBuilder("latchy")
    clk = builder.input("clk")
    d = builder.input("d")
    q = builder.output("q")
    builder.flop(d, clk, output_net=q, cell_name="LATCH", name="lat0")
    return builder.build()


def test_latch_designs_rejected():
    with pytest.raises(RegisterFileError):
        plan_clocked_run(_latch_design(), PERIOD)


def test_no_registers_rejected():
    builder = NetlistBuilder("comb")
    a, b = builder.input("a"), builder.input("b")
    builder.output("y")
    builder.gate("AND2", [a, b], output_net="y")
    with pytest.raises(ClockedSimulationError, match="no sequential"):
        plan_clocked_run(builder.build(), PERIOD)


def test_gated_clock_rejected():
    builder = NetlistBuilder("gated")
    clk = builder.input("clk")
    en = builder.input("en")
    d = builder.input("d")
    gclk = builder.gate("AND2", [clk, en])
    builder.output("q")
    builder.flop(d, gclk, output_net="q", name="r0")
    with pytest.raises(ClockedSimulationError, match="primary input"):
        plan_clocked_run(builder.build(), PERIOD)


def test_multiple_clock_domains_rejected():
    builder = NetlistBuilder("twoclk")
    clk_a = builder.input("clk_a")
    clk_b = builder.input("clk_b")
    d = builder.input("d")
    builder.output("qa")
    builder.output("qb")
    builder.flop(d, clk_a, output_net="qa", name="ra")
    builder.flop(d, clk_b, output_net="qb", name="rb")
    with pytest.raises(ClockedSimulationError, match="clock"):
        plan_clocked_run(builder.build(), PERIOD)


def test_clock_period_too_small_rejected():
    with pytest.raises(ClockedSimulationError, match="period"):
        plan_clocked_run(build_lfsr(4), 1)
    # clk->Q delay must fit inside one period.
    with pytest.raises(ClockedSimulationError, match="period"):
        plan_clocked_run(build_lfsr(4), 20)


def test_clock_net_in_stimulus_rejected():
    netlist = build_lfsr(4)
    with pytest.raises(StimulusError, match="clock"):
        _session("gatspi", netlist).run_cycles(
            {"clk": Waveform.constant(0)}, 3
        )


def test_register_output_in_stimulus_rejected():
    netlist = build_lfsr(4)
    with pytest.raises(StimulusError):
        _session("gatspi", netlist).run_cycles(
            {"q[0]": Waveform.constant(0)}, 3
        )


def test_missing_pi_stimulus_rejected():
    netlist = build_counter(2)  # rst_n must be supplied
    with pytest.raises(StimulusError, match="rst_n"):
        _session("gatspi", netlist).run_cycles({}, 3)


def test_store_waveforms_false_rejected():
    netlist = build_lfsr(4)
    backend, options = resolve_backend("gatspi")
    session = backend.prepare(
        netlist,
        config=SimConfig(clock_period=PERIOD, store_waveforms=False),
    )
    with pytest.raises(ClockedSimulationError, match="store_waveforms"):
        session.run_cycles({}, 3)


# ---------------------------------------------------------------------------
# Sequential-aware analysis regressions
# ---------------------------------------------------------------------------


def test_unreachable_cone_sees_through_registers():
    """A live register keeps its D-cone live; a dead register does not.

    Before sequential cells became first-class, ``unreachable_gates``
    treated every flop as an endpoint, so combinational logic feeding a
    *dangling* register was considered observable and the finding below
    did not fire.
    """
    builder = NetlistBuilder("deadreg")
    clk = builder.input("clk")
    a, b = builder.input("a"), builder.input("b")
    builder.output("y")
    builder.gate("BUF", [a], output_net="y")
    dead_d = builder.gate("AND2", [a, b], name="dead_cone_and")
    builder.flop(dead_d, clk, name="dead_reg")  # Q drives nothing
    netlist = builder.build()
    report = analyze_design(netlist)
    unreachable = [
        f for f in report.findings if f.rule_id == "unreachable-cone"
    ]
    assert unreachable, "dead register's input cone must be flagged"
    flagged = {
        name for finding in unreachable for name in finding.instances
    }
    assert "dead_cone_and" in flagged
    # The register itself is covered by dangling-net (its Q has no loads).
    assert any(
        "q" in f.nets[0] for f in report.findings if f.rule_id == "dangling-net"
    )


def test_live_register_cone_not_flagged():
    netlist = build_counter(4)
    report = analyze_design(netlist)
    assert not [
        f for f in report.findings if f.rule_id == "unreachable-cone"
    ]


def test_sequential_datapath_strict_analysis_and_parity():
    from repro.bench.designs import sequential_datapath

    netlist = sequential_datapath(bits=6, stages=2, seed=3)
    report = analyze_design(netlist)
    assert not report.errors
    stimulus = {
        "rst_n": Waveform.from_toggle_array(0, [PERIOD + PERIOD // 4]),
        "en": Waveform.from_toggle_array(0, [2 * PERIOD + 10]),
    }
    gatspi = _session("gatspi", netlist).run_cycles(stimulus, 8)
    event = _session("event", netlist).run_cycles(stimulus, 8)
    assert gatspi.register_state == event.register_state
    assert _toggles(netlist, gatspi) == _toggles(netlist, event)
