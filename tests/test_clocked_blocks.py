"""Clocked runs as blocks of frame columns: settle, batching and contract.

The clocked driver derives each block's register captures from a
zero-delay settle of the frames' final sources, then simulates the block's
frames as one ``run_many`` batch.  These tests pin the pieces of that:

* the array settle equals the brute-force zero-delay reference's final
  values, on generated and fixture designs;
* ``gatspi`` ``run_cycles``/``run_cycles_stream`` equal the ``event``
  oracle at ``cycle_parallelism=4`` across block counts, including a
  one-frame tail, mid-cycle async resets, enable freezes and late toggles;
* clocked frames are never retained as the rerun base;
* a frame toggling at or past its capture edge is refused by both entry
  points;
* the folded stats count the real launches and segments of the batches.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st
from zero_delay_reference import zero_delay_reference

from repro.api import RunSpec, get_backend, resolve_backend
from repro.core import SimConfig
from repro.core.clocked import (
    ClockedSimulationError,
    plan_clocked_run,
    run_clocked,
)
from repro.core.edits import SetPinDelay
from repro.core.settle import ZeroDelaySettle
from repro.core.waveform import Waveform
from repro.netlist import load_fixture
from repro.sdf.annotate import default_annotation
from repro.testing import (
    build_counter,
    build_lfsr,
    build_random_netlist,
    build_random_stimulus,
    build_shift_register,
)

PERIOD = 1000


def _session(spec, netlist, **config_kw):
    backend, options = resolve_backend(spec)
    config = SimConfig(clock_period=PERIOD, store_waveforms=True, **config_kw)
    return backend.prepare(netlist, config=config, **options)


# ---------------------------------------------------------------------------
# The array settle equals the brute-force zero-delay reference
# ---------------------------------------------------------------------------
_FIXTURES = {name: load_fixture(name) for name in ("counter", "lfsr", "alu")}


@settings(max_examples=40, deadline=None)
@given(
    design=st.one_of(
        st.integers(min_value=0, max_value=10_000).map(
            lambda seed: build_random_netlist(num_inputs=5, num_gates=30, seed=seed)
        ),
        st.sampled_from(sorted(_FIXTURES)).map(_FIXTURES.__getitem__),
    ),
    data=st.data(),
)
def test_settle_equals_reference_zero_delay(design, data):
    settle = ZeroDelaySettle(design)
    values = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=len(settle.source_nets),
            max_size=len(settle.source_nets),
        )
    )
    stimulus = {
        net: Waveform.constant(value)
        for net, value in zip(settle.source_nets, values)
    }
    reference = zero_delay_reference(design, stimulus, duration=10)
    settled = settle.settle(values)
    for net, net_id in settle.net_ids.items():
        assert int(settled[net_id]) == reference[net].final_value, net
    assert int(settled[settle.null_id]) == 0


# ---------------------------------------------------------------------------
# gatspi == event at cycle_parallelism=4, across block counts
# ---------------------------------------------------------------------------
_DESIGNS = {
    "counter": build_counter(4),
    "shift_en": build_shift_register(4, enable=True),
    "lfsr": build_lfsr(8),
    "alu": load_fixture("alu"),
}


@st.composite
def _clocked_cases(draw):
    name = draw(st.sampled_from(sorted(_DESIGNS)))
    netlist = _DESIGNS[name]
    cycles = draw(st.sampled_from([1, 3, 4, 5, 11]))
    horizon = cycles * PERIOD
    stimulus = {}
    for net in netlist.inputs:
        if net == "clk":
            continue
        if net == "rst_n":
            # Held high, with optional mid-cycle async-reset pulses.
            toggles = set()
            for frame in draw(st.sets(st.integers(0, cycles - 1), max_size=2)):
                at = frame * PERIOD + draw(st.integers(100, 700))
                toggles.update((at, at + draw(st.integers(10, 150))))
            stimulus[net] = Waveform.from_toggle_array(1, sorted(toggles))
        elif net == "en":
            # Enable freeze: low over a span of whole frames.
            first = draw(st.integers(0, cycles))
            last = draw(st.integers(first, cycles))
            toggles = [t for t in (first * PERIOD + 300, last * PERIOD + 300) if t < horizon]
            if first == last:
                toggles = []
            stimulus[net] = Waveform.from_toggle_array(1, toggles)
        else:
            # Sparse toggles, some late in their frame.
            times = draw(
                st.sets(
                    st.one_of(
                        st.integers(1, horizon - 1),
                        st.integers(0, cycles - 1).map(
                            lambda frame: frame * PERIOD + PERIOD - 130
                        ),
                    ),
                    max_size=4,
                )
            )
            stimulus[net] = Waveform.from_toggle_array(0, sorted(times))
    return name, netlist, stimulus, cycles


def _run_or_error(method, stimulus, cycles):
    try:
        return method(stimulus, cycles), None
    except ClockedSimulationError as exc:
        return None, exc


@settings(max_examples=30, deadline=None)
@given(case=_clocked_cases())
def test_gatspi_clocked_blocks_equal_event(case):
    name, netlist, stimulus, cycles = case
    event, event_error = _run_or_error(
        _session("event", netlist, cycle_parallelism=4).run_cycles, stimulus, cycles
    )
    gatspi, gatspi_error = _run_or_error(
        _session("gatspi", netlist, cycle_parallelism=4).run_cycles, stimulus, cycles
    )
    streamed, stream_error = _run_or_error(
        _session("gatspi", netlist, cycle_parallelism=4).run_cycles_stream,
        stimulus,
        cycles,
    )
    if event_error is not None:
        # Activity past a capture edge is refused on every path.
        assert "capture edge" in str(event_error)
        assert gatspi_error is not None and stream_error is not None, name
        return
    assert gatspi_error is None and stream_error is None, (gatspi_error, stream_error)
    assert gatspi.register_state == event.register_state, name
    assert streamed.register_state == event.register_state, name
    assert gatspi.toggle_counts == event.toggle_counts, name
    assert streamed.toggle_counts == event.toggle_counts, name
    for net, wave in event.waveforms.items():
        assert gatspi.waveforms[net] == wave, f"{name}: waveform of {net}"
        assert streamed.activities[net].t1 == wave.duration_at(
            1, 0, cycles * PERIOD
        ), f"{name}: T1 of {net}"


def _alu_stimulus():
    netlist = _DESIGNS["alu"]
    stimulus = {
        net: Waveform.from_toggle_array(
            0, [k * PERIOD + 300 for k in range(1, 9, 3)]
        )
        for net in netlist.inputs
        if net not in ("clk", "rst_n")
    }
    stimulus["rst_n"] = Waveform.from_toggle_array(0, [PERIOD // 2])
    return netlist, stimulus


@pytest.mark.parametrize("spec", [
    # One worker: the engine's own step, no pool.
    pytest.param("gatspi:workers=process:1", id="gatspi-sharded:shards=2"),
    pytest.param(
        "gatspi:workers=process:2", id="gatspi-sharded:shards=2,workers=process:2"
    ),
])
def test_sharded_clocked_blocks_equal_gatspi(spec):
    netlist, stimulus = _alu_stimulus()
    cycles = 9
    reference = _session("gatspi", netlist, cycle_parallelism=4).run_cycles(
        stimulus, cycles
    )
    session = _session(spec, netlist, cycle_parallelism=4)
    try:
        result = session.run_cycles(stimulus, cycles)
        streamed = session.run_cycles_stream(stimulus, cycles)
    finally:
        session.close()
    assert result.register_state == reference.register_state
    assert result.toggle_counts == reference.toggle_counts
    assert streamed.register_state == reference.register_state
    assert streamed.toggle_counts == reference.toggle_counts
    for net, wave in reference.waveforms.items():
        assert result.waveforms[net] == wave, net


# ---------------------------------------------------------------------------
# Clocked frames never become the rerun base
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cycles", [1, 5, 9])
def test_run_cycles_keeps_the_rerun_base(cycles):
    """A rerun after run_cycles re-simulates the last run(), not a frame.

    ``cycles=1`` is a one-frame block and ``cycles=9`` at
    ``cycle_parallelism=4`` ends in a one-frame tail.
    """
    netlist = load_fixture("alu")
    reference_netlist = copy.deepcopy(netlist)
    full = {
        net: Waveform.from_toggle_array(0, [k * PERIOD + 333 for k in range(1, 8, 2)])
        for net in netlist.inputs
        if net != "clk"
    }
    full["clk"] = Waveform.from_toggle_array(
        0, [k * PERIOD // 2 for k in range(1, 16)]
    )
    for inst in netlist.sequential_instances():
        full[inst.output_net()] = Waveform.constant(0)
    session = _session("gatspi", netlist, cycle_parallelism=4)
    session.run(full, cycles=8)
    quiet = {
        net: Waveform.constant(1 if net == "rst_n" else 0)
        for net in netlist.inputs
        if net != "clk"
    }
    session.run_cycles(quiet, cycles)
    edit = SetPinDelay("$abc$300$s0", "A", 7.0, 7.0)
    rerun = session.rerun([edit])
    assert rerun.duration == 8 * PERIOD
    annotation = default_annotation(reference_netlist)
    edit.apply(reference_netlist, annotation)
    cold = (
        get_backend("gatspi")
        .prepare(
            reference_netlist,
            annotation=annotation,
            config=SimConfig(
                clock_period=PERIOD, store_waveforms=True, cycle_parallelism=4
            ),
        )
        .run(full, cycles=8)
    )
    assert rerun.toggle_counts == cold.toggle_counts
    for net, wave in cold.waveforms.items():
        assert rerun.waveforms[net] == wave, net


# ---------------------------------------------------------------------------
# Activity past the capture edge is refused
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("method", ["run_cycles", "run_cycles_stream"])
def test_activity_past_the_capture_edge_is_refused(method):
    netlist = load_fixture("alu")
    stimulus = {
        net: Waveform.constant(1 if net in ("rst_n", "scan_en") else 0)
        for net in netlist.inputs
        if net != "clk"
    }
    stimulus["scan_in"] = Waveform.from_toggle_array(0, [2 * PERIOD - 1])
    session = _session("gatspi", netlist)
    with pytest.raises(
        ClockedSimulationError,
        match=r"frame 1: net '_bit28_' toggles at 2015, at or past the capture edge 2000",
    ):
        getattr(session, method)(stimulus, 6)


def test_frame_disagreeing_with_its_settle_is_refused():
    """A frame whose simulated final value is not the settled one breaks
    the capture invariant: the driver raises instead of re-running."""
    netlist = build_counter(4)
    session = _session("gatspi", netlist)
    plan = plan_clocked_run(netlist, PERIOD)
    net = plan.register_file.d_nets[0]
    assert net not in netlist.source_nets()

    def tampered(requests):
        results = session._run_many(requests)
        for result in results:
            result.waveforms[net] = result.waveforms[net].inverted()
        return results

    with pytest.raises(ClockedSimulationError, match="does not settle"):
        run_clocked(plan, {"rst_n": Waveform.constant(1)}, 3, tampered, 4)


# ---------------------------------------------------------------------------
# Stats fold each batch once
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cycles", [4, 11])
def test_clocked_stats_count_real_launches(cycles):
    netlist, stimulus = _alu_stimulus()
    session = _session("gatspi", netlist, cycle_parallelism=4)
    blocks = -(-cycles // 4)
    for result in (
        session.run_cycles(stimulus, cycles),
        session.run_cycles_stream(stimulus, cycles),
    ):
        stats = result.stats
        assert stats.level_batches == stats.levels * blocks
        assert stats.segments == blocks
        assert stats.windows == 4 * cycles
        assert stats.kernel_invocations == stats.gate_count * stats.windows


def test_run_many_shares_sum_to_the_batch():
    netlist = build_random_netlist(seed=3)
    session = _session("gatspi", netlist)
    specs = [
        RunSpec(stimulus=build_random_stimulus(netlist, 3 * PERIOD, seed=seed), cycles=3)
        for seed in range(3)
    ]
    results = session.run_many(specs)
    alone = session.run(specs[0].stimulus, cycles=3)
    assert sum(r.stats.level_batches for r in results) == alone.stats.levels
    assert sum(r.stats.segments for r in results) == 1
    assert sum(r.stats.windows for r in results) == 3 * alone.stats.windows
