"""Tests for the simulation kernel, memory pool, and GATSPI engine."""

import pytest

from repro.api import resolve_backend
from repro.cells import DEFAULT_LIBRARY
from repro.core import (
    GateKernelInputs,
    GatspiEngine,
    SimConfig,
    StimulusError,
    Waveform,
    WaveformPool,
    simulate_gate_window,
)
from repro.core.delaytable import DelayArc, GateDelayTable
from repro.core.kernel import count_input_events, resolve_gate_delay
from repro.core.waveform import EOW
from repro.reference.oracle_engine import OracleEngine
from repro.sdf import UnitDelayModel, annotation_from_design_delays


def make_gate_inputs(cell_name, delay=10, wire=(0.0, 0.0), conditional=None):
    cell = DEFAULT_LIBRARY.get(cell_name)
    table = GateDelayTable.uniform(cell.inputs, rise=delay, fall=delay)
    if conditional:
        table.add_arc(conditional)
    return GateKernelInputs(
        truth_table=DEFAULT_LIBRARY.truth_table(cell_name).table,
        delay_arrays=tuple(table.table_for(pin) for pin in cell.inputs),
        wire_rise=tuple(wire[0] for _ in cell.inputs),
        wire_fall=tuple(wire[1] for _ in cell.inputs),
    )


def run_single_gate(cell_name, input_waves, **kwargs):
    pool = WaveformPool(1 << 16)
    pointers = [
        pool.store_waveform(f"in{i}", 0, wave) for i, wave in enumerate(input_waves)
    ]
    gate = make_gate_inputs(cell_name, **kwargs)
    return simulate_gate_window(pool.data, pointers, gate)


class TestKernel:
    def test_inverter_delays_transition(self):
        result = run_single_gate(
            "INV", [Waveform.from_initial_and_toggles(0, [100, 200])], delay=10
        )
        assert result.initial_value == 1
        assert result.toggle_times == [110, 210]

    def test_and_gate_truth(self):
        a = Waveform.from_initial_and_toggles(0, [100])
        b = Waveform.from_initial_and_toggles(1, [300])
        result = run_single_gate("AND2", [a, b], delay=5)
        assert result.initial_value == 0
        assert result.toggle_times == [105, 305]

    def test_glitch_narrower_than_delay_is_filtered(self):
        # XOR sees a 3-unit input skew, gate delay 10: the output pulse is
        # rejected by inertial filtering (PATHPULSEPERCENT=100).
        a = Waveform.from_initial_and_toggles(0, [100])
        b = Waveform.from_initial_and_toggles(0, [103])
        result = run_single_gate("XOR2", [a, b], delay=10)
        assert result.toggle_times == []

    def test_glitch_wider_than_delay_survives(self):
        a = Waveform.from_initial_and_toggles(0, [100])
        b = Waveform.from_initial_and_toggles(0, [150])
        result = run_single_gate("XOR2", [a, b], delay=10)
        assert result.toggle_times == [110, 160]

    def test_msi_simultaneous_inputs_single_evaluation(self):
        # Both inputs of a NAND fall at the same timestamp: one output rise.
        a = Waveform.from_initial_and_toggles(1, [100])
        b = Waveform.from_initial_and_toggles(1, [100])
        result = run_single_gate("NAND2", [a, b], delay=7)
        assert result.initial_value == 0
        assert result.toggle_times == [107]

    def test_wire_delay_shifts_arrival(self):
        result = run_single_gate(
            "INV", [Waveform.from_initial_and_toggles(0, [100])],
            delay=10, wire=(4.0, 4.0),
        )
        assert result.toggle_times == [114]

    def test_wire_inertial_filter_swallows_narrow_pulse(self):
        # Pulse of width 3 on the input with wire delay 5: never reaches the gate.
        wave = Waveform.from_initial_and_toggles(0, [100, 103, 400])
        result = run_single_gate("BUF", [wave], delay=2, wire=(5.0, 5.0))
        assert result.toggle_times == [407]

    def test_conditional_delay_selected_by_side_input(self):
        conditional = DelayArc(pin="B", rise=3, fall=3, condition={"A1": 1, "A2": 1})
        a1 = Waveform.constant(1)
        a2 = Waveform.constant(1)
        b = Waveform.from_initial_and_toggles(0, [100])
        result = run_single_gate("AOI21", [a1, a2, b], delay=20,
                                 conditional=conditional)
        # AOI21 output is already 0 with A1=A2=1, so B rising does nothing.
        assert result.toggle_times == []
        # Now with A1=0: the unconditional 20 applies.
        a1 = Waveform.constant(0)
        result = run_single_gate("AOI21", [a1, a2, b], delay=20)
        assert result.toggle_times == [120]

    def test_zero_input_cell(self):
        pool = WaveformPool(1 << 10)
        gate = GateKernelInputs(
            truth_table=DEFAULT_LIBRARY.truth_table("TIEHI").table,
            delay_arrays=(), wire_rise=(), wire_fall=(),
        )
        result = simulate_gate_window(pool.data, [], gate)
        assert result.initial_value == 1
        assert result.toggle_times == []

    def test_storage_words_accounts_for_marker(self):
        result = run_single_gate(
            "INV", [Waveform.from_initial_and_toggles(0, [50])], delay=1
        )
        # initial value 1: marker + establishing + 1 toggle + EOW = 4 words
        assert result.initial_value == 1
        assert result.storage_words == 4

    def test_resolve_gate_delay_fallbacks(self):
        table = GateDelayTable(("A",))
        table.add_arc(DelayArc(pin="A", rise=6, fall=None, input_edge=0))
        arrays = (table.table_for("A"),)
        assert resolve_gate_delay(arrays, [(0, 0)], 0, 0) == 6
        # Undefined exact edge falls back to the opposite edge.
        assert resolve_gate_delay(arrays, [(0, 1)], 0, 0) == 6
        # Completely undefined arc falls back to zero.
        assert resolve_gate_delay(arrays, [(0, 0)], 1, 0) == 0.0

    def test_count_input_events(self):
        pool = WaveformPool(1 << 12)
        p0 = pool.store_waveform("a", 0, Waveform.from_initial_and_toggles(0, [1, 2, 3]))
        p1 = pool.store_waveform("b", 0, Waveform.from_initial_and_toggles(1, [5]))
        assert count_input_events(pool.data, [p0, p1]) == 4


class TestWaveformPool:
    def test_allocation_is_even_aligned(self):
        pool = WaveformPool(1 << 12)
        pool.allocate(3)
        second = pool.allocate(2)
        assert second % 2 == 0

    def test_round_trip_store_read(self):
        pool = WaveformPool(1 << 12)
        wave = Waveform.from_initial_and_toggles(1, [10, 20, 35])
        pool.store_waveform("n", 3, wave)
        assert pool.read_waveform("n", 3) == wave

    def test_store_kernel_output(self):
        pool = WaveformPool(1 << 12)
        address = pool.allocate(5)
        pool.store_kernel_output("n", 0, address, 1, [15, 30])
        wave = pool.read_waveform("n", 0)
        assert wave.initial_value == 1
        assert wave.toggle_count() == 2

    def test_capacity_exhaustion(self):
        """Allocating past the initial words grows the pool; earlier
        stores survive the growth."""
        pool = WaveformPool(8)
        wave = Waveform.from_initial_and_toggles(1, [5, 9])
        pool.store_waveform("n", 0, wave)
        address = pool.allocate(40)
        assert address + 40 == pool.used_words > 8
        assert pool.data.size >= pool.used_words
        assert pool.read_waveform("n", 0) == wave

    def test_missing_pointer(self):
        pool = WaveformPool(64)
        with pytest.raises(KeyError):
            pool.pointer("nope", 0)

    def test_reset(self):
        pool = WaveformPool(1 << 10)
        pool.store_waveform("n", 0, Waveform.constant(0))
        pool.reset()
        assert pool.used_words == 0
        assert not pool.has_waveform("n", 0)


class TestEngine:
    def build_stimulus(self, netlist, duration=4000):
        return {
            net: Waveform.from_initial_and_toggles(0, list(range(100, duration, 250)))
            for net in netlist.source_nets()
        }

    def test_requires_cycles_or_duration(self, small_netlist, small_annotation):
        engine = GatspiEngine(small_netlist, annotation=small_annotation)
        with pytest.raises(ValueError):
            engine.simulate(self.build_stimulus(small_netlist))

    def test_missing_stimulus_rejected(self, small_netlist, small_annotation):
        engine = GatspiEngine(small_netlist, annotation=small_annotation)
        with pytest.raises(StimulusError):
            engine.simulate({"a": Waveform.constant(0)}, cycles=4)

    def test_simulation_produces_all_nets(self, small_netlist, small_annotation):
        config = SimConfig(cycle_parallelism=2, clock_period=1000)
        engine = GatspiEngine(small_netlist, annotation=small_annotation, config=config)
        result = engine.simulate(self.build_stimulus(small_netlist), cycles=4)
        assert set(result.toggle_counts) == set(small_netlist.nets)
        assert result.stats.gate_count == small_netlist.gate_count
        assert result.stats.windows == 2
        assert result.kernel_runtime > 0

    @pytest.mark.parametrize("kernel", ["vector", "scalar"])
    def test_one_kernel_execution_per_task(
        self, random_netlist, random_annotation, kernel
    ):
        """Count → allocate → store executes the kernel once: one launch per
        level and one invocation per (gate, window) task (unsegmented run)."""
        stimulus = self.build_stimulus(random_netlist, duration=6000)
        config = SimConfig(cycle_parallelism=4, clock_period=1000)
        engine_class = {"vector": GatspiEngine, "scalar": OracleEngine}[kernel]
        stats = engine_class(
            random_netlist, annotation=random_annotation, config=config
        ).simulate(stimulus, cycles=6).stats
        assert stats.kernel_mode == kernel
        assert stats.segments == 1
        assert stats.level_batches == stats.levels
        assert stats.kernel_invocations == stats.gate_count * stats.windows

    def test_two_pass_knob_is_gone(self):
        with pytest.raises(TypeError):
            SimConfig(two_pass=False)

    def test_executor_knobs_are_gone(self, small_netlist):
        """One executor per engine class: no config field, no prepare option
        (the reference executors are the ``gatspi-oracle`` backend)."""
        with pytest.raises(TypeError):
            SimConfig(kernel="scalar")
        with pytest.raises(TypeError):
            SimConfig(restructure="python")
        assert not hasattr(SimConfig, "effective_device")
        for spec in ("gatspi", "gatspi:workers=process:2"):
            backend, options = resolve_backend(spec)
            for option in ({"kernel": "scalar"}, {"restructure": "python"}):
                with pytest.raises(TypeError):
                    backend.prepare(small_netlist, **options, **option)

    def test_memory_segmentation_preserves_results(
        self, random_netlist, random_annotation, initial_pool_words
    ):
        """A pool too small for all windows grows in the run's one batch
        (no sequential segments) and the results do not change."""
        stimulus = self.build_stimulus(random_netlist, duration=6000)
        config = SimConfig(cycle_parallelism=4, clock_period=1000)
        reference = GatspiEngine(
            random_netlist, annotation=random_annotation, config=config
        ).simulate(stimulus, cycles=6)
        words = initial_pool_words(64)
        grown = GatspiEngine(
            random_netlist, annotation=random_annotation, config=config
        ).simulate(stimulus, cycles=6)
        assert grown.stats.pool_words_used > words
        assert grown.stats.segments == 1
        assert grown.toggle_counts == reference.toggle_counts
        assert grown.waveforms == reference.waveforms

    def test_device_memory_knobs_are_gone(self):
        """One memory bound (streaming): no modelled device pool, no
        capped pool error, no segment queue, no engine clocked entry."""
        import repro.core as core

        for field in ("device_memory_gb", "waveform_pool_fraction"):
            with pytest.raises(TypeError):
                SimConfig(**{field: 1.0})
        assert not hasattr(SimConfig, "waveform_pool_words")
        assert not hasattr(core, "DeviceMemoryError")
        assert not hasattr(core, "PoolStats")
        assert not hasattr(WaveformPool, "stats")
        assert not hasattr(GatspiEngine, "_segment_windows")
        assert not hasattr(GatspiEngine, "run_cycles")

    def test_store_waveforms_can_be_disabled(self, small_netlist, small_annotation):
        config = SimConfig(store_waveforms=False, clock_period=1000)
        engine = GatspiEngine(small_netlist, annotation=small_annotation, config=config)
        result = engine.simulate(self.build_stimulus(small_netlist), cycles=4)
        assert result.waveforms == {}
        assert result.total_toggles() > 0

    def test_recompile_clears_stale_gate_inputs(self, small_netlist, small_annotation):
        """compile() must rebuild the lookup arrays from scratch.

        Regression test: ``_gate_inputs`` used to accumulate across compile()
        calls, so entries from a previous compilation (e.g. before a netlist
        edit) survived and could mask annotation/config changes.
        """
        engine = GatspiEngine(small_netlist, annotation=small_annotation)
        engine.compile()
        expected = set(engine._gate_inputs)
        engine._gate_inputs["stale_gate"] = engine._gate_inputs[next(iter(expected))]
        engine.compile()
        assert "stale_gate" not in engine._gate_inputs
        assert set(engine._gate_inputs) == expected

    def test_timings_are_populated(self, small_netlist, small_annotation):
        engine = GatspiEngine(small_netlist, annotation=small_annotation,
                              config=SimConfig(clock_period=1000))
        result = engine.simulate(self.build_stimulus(small_netlist), cycles=4)
        phases = result.timings.as_dict()
        assert phases["application"] >= phases["kernel"] > 0
