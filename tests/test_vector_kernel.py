"""Scalar-vs-vector kernel equivalence and the SoA pipeline plumbing.

The level-batched vector kernel (``gatspi``, :class:`GatspiEngine`) must be
*bit-identical* to the per-gate scalar reference kernel (``gatspi-oracle``,
:class:`OracleEngine`) — same waveforms, same toggle counts — across gate
arities, MSI collisions, inertial filtering settings, initial-value-1
waveforms, and empty windows.  The pool-layout tests pin down the count-pass
prefix-sum allocation and the zero-copy readback views.
"""

import random

import numpy as np
import pytest

from repro.api import get_backend, parse_backend_spec, resolve_backend
from repro.cells import DEFAULT_LIBRARY
from repro.core import (
    EOW,
    GateKernelInputs,
    GatspiEngine,
    SimConfig,
    StimulusError,
    TimestampOverflowError,
    Waveform,
    WaveformPool,
    pack_design,
    simulate_gate_window,
    simulate_level,
)
from repro.reference.oracle_engine import OracleEngine
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.testing import build_random_netlist, build_random_stimulus

DURATION = 6000

#: The engine class behind each ``stats.kernel_mode`` label.
ENGINES = {"scalar": OracleEngine, "vector": GatspiEngine}


def run_both_kernels(netlist, annotation, stimulus, duration=DURATION, **updates):
    results = []
    for kernel in ("scalar", "vector"):
        config = SimConfig(clock_period=500, **updates)
        engine = ENGINES[kernel](netlist, annotation=annotation, config=config)
        results.append(engine.simulate(stimulus, duration=duration))
    return results


def assert_bit_identical(scalar, vector):
    mismatches = scalar.differing_nets(vector)
    assert not mismatches, f"toggle count mismatches: {list(mismatches.items())[:5]}"
    for net, wave in scalar.waveforms.items():
        assert wave == vector.waveforms[net], f"waveform mismatch on {net}"


class TestScalarVectorEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_netlists(self, seed):
        """Random designs over the full cell mix (1- to 4-pin gates)."""
        netlist = build_random_netlist(num_gates=45, seed=seed)
        annotation = annotation_from_design_delays(
            netlist, SyntheticDelayModel(seed=seed).build(netlist)
        )
        stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 100)
        assert_bit_identical(*run_both_kernels(netlist, annotation, stimulus))

    @pytest.mark.parametrize("parallelism", [1, 3, 16])
    def test_cycle_parallelism(self, parallelism):
        netlist = build_random_netlist(num_gates=40, seed=7)
        annotation = annotation_from_design_delays(
            netlist, SyntheticDelayModel(seed=7).build(netlist)
        )
        stimulus = build_random_stimulus(netlist, DURATION, seed=77)
        assert_bit_identical(
            *run_both_kernels(
                netlist, annotation, stimulus, cycle_parallelism=parallelism
            )
        )

    def test_msi_collisions(self):
        """Zero wire delays + shared toggle instants force MSI resolution."""
        netlist = build_random_netlist(num_gates=40, seed=21)
        model = SyntheticDelayModel(seed=21, wire_delay_range=(0, 0))
        annotation = annotation_from_design_delays(netlist, model.build(netlist))
        rng = random.Random(211)
        instants = list(range(300, DURATION, 300))
        stimulus = {
            net: Waveform.from_initial_and_toggles(
                rng.randint(0, 1), [t for t in instants if rng.random() < 0.7]
            )
            for net in netlist.source_nets()
        }
        assert_bit_identical(*run_both_kernels(netlist, annotation, stimulus))

    @pytest.mark.parametrize(
        "updates",
        [
            {"pathpulse_percent": 50.0},
            {"pathpulse_percent": 0.0},
            {"enable_net_delay_filtering": False},
            {"pathpulse_percent": 0.0, "enable_net_delay_filtering": False},
            {"full_sdf": False},
        ],
    )
    def test_filtering_and_ablation_variants(self, updates):
        """Inertial filtering / PATHPULSEPERCENT variants stay bit-exact."""
        netlist = build_random_netlist(num_gates=35, seed=9)
        annotation = annotation_from_design_delays(
            netlist, SyntheticDelayModel(seed=9).build(netlist)
        )
        stimulus = build_random_stimulus(netlist, DURATION, seed=99, min_gap=15)
        assert_bit_identical(
            *run_both_kernels(netlist, annotation, stimulus, **updates)
        )

    def test_initial_value_one_everywhere(self):
        """All-ones initial values exercise the -1 marker path per pin."""
        netlist = build_random_netlist(num_gates=30, seed=12)
        annotation = annotation_from_design_delays(
            netlist, SyntheticDelayModel(seed=12).build(netlist)
        )
        stimulus = {
            net: Waveform.from_initial_and_toggles(1, [400 + 13 * k])
            for k, net in enumerate(netlist.source_nets())
        }
        assert_bit_identical(*run_both_kernels(netlist, annotation, stimulus))

    def test_empty_windows(self):
        """Sparse stimulus with many windows leaves most windows event-free."""
        netlist = build_random_netlist(num_gates=30, seed=13)
        annotation = annotation_from_design_delays(
            netlist, SyntheticDelayModel(seed=13).build(netlist)
        )
        stimulus = {
            net: Waveform.from_initial_and_toggles(k % 2, [600])
            for k, net in enumerate(netlist.source_nets())
        }
        assert_bit_identical(
            *run_both_kernels(
                netlist, annotation, stimulus, duration=8000, cycle_parallelism=16
            )
        )

    def test_zero_input_tie_cells(self):
        """TIEHI/TIELO gates have no pins: every lane is padding."""
        from repro.netlist import NetlistBuilder

        builder = NetlistBuilder("ties")
        a = builder.input("a")
        hi = builder.gate("TIEHI", [])
        lo = builder.gate("TIELO", [])
        n1 = builder.gate("NAND2", [a, hi])
        n2 = builder.gate("OR2", [n1, lo])
        builder.output("out")
        builder.gate("BUF", [n2], output_net="out")
        netlist = builder.build()
        annotation = annotation_from_design_delays(
            netlist, SyntheticDelayModel(seed=6).build(netlist)
        )
        stimulus = build_random_stimulus(netlist, DURATION, seed=66)
        scalar, vector = run_both_kernels(netlist, annotation, stimulus)
        assert_bit_identical(scalar, vector)
        assert vector.waveforms[hi].initial_value == 1
        assert vector.waveforms[lo].initial_value == 0

    def test_vector_records_batch_stats(self):
        netlist = build_random_netlist(num_gates=30, seed=3)
        annotation = annotation_from_design_delays(
            netlist, SyntheticDelayModel(seed=3).build(netlist)
        )
        stimulus = build_random_stimulus(netlist, DURATION, seed=33)
        scalar, vector = run_both_kernels(netlist, annotation, stimulus)
        assert scalar.stats.kernel_mode == "scalar"
        assert vector.stats.kernel_mode == "vector"
        assert vector.stats.max_batch_tasks > 0
        # Both kernels count one launch per level and one invocation per
        # (gate, window) task: the count pass's outputs are the stored ones.
        for stats in (scalar.stats, vector.stats):
            assert stats.segments == 1
            assert stats.level_batches == stats.levels
            assert stats.kernel_invocations == stats.gate_count * stats.windows
        assert vector.stats.mean_batch_tasks() > 0


class TestSimulateLevelDirect:
    """Drive simulate_level directly against the scalar kernel, one level."""

    def _gate_inputs(self, cell_name, delay):
        cell = DEFAULT_LIBRARY.get(cell_name)
        from repro.core import GateDelayTable

        table = GateDelayTable.uniform(cell.inputs, rise=delay, fall=delay)
        return GateKernelInputs(
            truth_table=DEFAULT_LIBRARY.truth_table(cell_name).table,
            delay_arrays=tuple(table.table_for(pin) for pin in cell.inputs),
            wire_rise=tuple(0.0 for _ in cell.inputs),
            wire_fall=tuple(0.0 for _ in cell.inputs),
        )

    def test_mixed_arity_level(self):
        class FakeGate:
            def __init__(self, name, nets):
                self.name = name
                self.output_net = name + "_out"
                self.input_nets = tuple(nets)

        pool = WaveformPool(1 << 16)
        waves = {
            "a": Waveform.from_initial_and_toggles(0, [100, 250, 400]),
            "b": Waveform.from_initial_and_toggles(1, [180, 330]),
            "c": Waveform.from_initial_and_toggles(0, [90, 95, 300]),
        }
        for net, wave in waves.items():
            pool.store_waveform(net, 0, wave)
        null_ptr = pool.store_padding_waveform()

        gates = [
            FakeGate("g_inv", ["a"]),
            FakeGate("g_nand", ["a", "b"]),
            FakeGate("g_maj", ["a", "b", "c"]),
        ]
        inputs = {
            "g_inv": self._gate_inputs("INV", 10),
            "g_nand": self._gate_inputs("NAND2", 15),
            "g_maj": self._gate_inputs("MAJ3", 20),
        }
        packed = pack_design([gates], inputs)
        level = packed.levels[0]
        pointers = np.full((3, 3), null_ptr, dtype=np.int64)
        caps = np.zeros(3, dtype=np.int64)
        for g, gate in enumerate(gates):
            for p, net in enumerate(gate.input_nets):
                pointers[g, p] = pool.pointer(net, 0)
                caps[g] += pool.toggle_count(net, 0)
        batch = simulate_level(pool.data, pointers, packed, level, 1, caps)

        for g, gate in enumerate(gates):
            scalar = simulate_gate_window(
                pool.data,
                [pool.pointer(net, 0) for net in gate.input_nets],
                inputs[gate.name],
            )
            assert int(batch.initial_values[g]) == scalar.initial_value
            assert batch.toggles_for(g).tolist() == scalar.toggle_times


class TestPoolLayout:
    def test_allocate_batch_matches_sequential_allocate(self):
        sizes = [3, 2, 7, 2, 5, 4, 9]
        sequential = WaveformPool(1 << 12)
        batched = WaveformPool(1 << 12)
        # Start both pools from an odd used_words so the base realignment of
        # the prefix-sum layout is exercised too.
        sequential.allocate(3)
        batched.allocate(3)
        expected = [sequential.allocate(size) for size in sizes]
        addresses = batched.allocate_batch(np.asarray(sizes, dtype=np.int64))
        assert addresses.tolist() == expected
        assert batched.used_words == sequential.used_words

    def test_allocate_batch_even_alignment(self):
        pool = WaveformPool(1 << 12)
        addresses = pool.allocate_batch(np.asarray([3, 3, 2, 5], dtype=np.int64))
        assert all(address % 2 == 0 for address in addresses.tolist())
        # Back-to-back with only parity padding between waveforms.
        assert addresses.tolist() == [0, 4, 8, 10]
        assert pool.used_words == 15

    def test_allocate_batch_overflow_raises(self):
        """A batch past the initial words grows the pool instead of
        raising; earlier stores survive the growth."""
        pool = WaveformPool(16)
        wave = Waveform.from_initial_and_toggles(0, [3, 4, 8])
        pool.store_waveform("n", 0, wave)
        base = pool.used_words + (pool.used_words & 1)
        addresses = pool.allocate_batch(np.asarray([10, 10], dtype=np.int64))
        assert addresses.tolist() == [base, base + 10]
        assert pool.used_words == base + 20 > 16
        assert pool.data.size >= pool.used_words
        assert pool.read_waveform("n", 0) == wave

    def test_allocate_batch_rejects_undersized(self):
        pool = WaveformPool(1 << 12)
        with pytest.raises(ValueError):
            pool.allocate_batch(np.asarray([2, 1], dtype=np.int64))

    def test_store_level_outputs_roundtrip(self):
        pool = WaveformPool(1 << 12)
        initial_values = np.asarray([1, 0, 1], dtype=np.int64)
        toggle_counts = np.asarray([2, 0, 3], dtype=np.int64)
        toggle_starts = np.asarray([0, 2, 2], dtype=np.int64)
        toggle_buffer = np.asarray([10, 20, 7, 8, 9], dtype=np.int64)
        sizes = 2 + toggle_counts + (initial_values != 0)
        addresses = pool.allocate_batch(sizes)
        pool.store_level_outputs(
            ["x", "y", "z"], [0], addresses,
            initial_values, toggle_buffer, toggle_starts, toggle_counts,
        )
        assert pool.read_waveform("x", 0) == Waveform.from_initial_and_toggles(1, [10, 20])
        assert pool.read_waveform("y", 0) == Waveform.constant(0)
        assert pool.read_waveform("z", 0) == Waveform.from_initial_and_toggles(1, [7, 8, 9])
        assert pool.toggle_count("z", 0) == 3

    def test_readback_is_zero_copy_view(self):
        pool = WaveformPool(1 << 12)
        pool.store_waveform("n", 0, Waveform.from_initial_and_toggles(0, [5, 9]))
        wave = pool.read_waveform("n", 0)
        assert np.shares_memory(wave.data, pool.data)
        assert not wave.data.flags.writeable
        assert wave.toggle_count() == 2

    def test_waveform_copies_writeable_arrays(self):
        """Mutating a caller array must not invalidate a validated waveform."""
        raw = np.asarray([0, 10, EOW], dtype=np.int64)
        wave = Waveform.from_array(raw)
        raw[2] = 7  # would destroy the EOW terminator if aliased
        assert int(wave.data[-1]) == EOW
        assert not np.shares_memory(wave.data, raw)


class TestOverflowGuards:
    def test_store_kernel_output_rejects_eow_toggle(self):
        pool = WaveformPool(1 << 12)
        address = pool.allocate(8)
        with pytest.raises(TimestampOverflowError):
            pool.store_kernel_output("n", 0, address, 0, [5, EOW])

    def test_store_level_outputs_rejects_eow_toggle(self):
        pool = WaveformPool(1 << 12)
        addresses = pool.allocate_batch(np.asarray([4], dtype=np.int64))
        with pytest.raises(TimestampOverflowError):
            pool.store_level_outputs(
                ["n"], [0], addresses,
                np.asarray([0], dtype=np.int64),
                np.asarray([EOW], dtype=np.int64),
                np.asarray([0], dtype=np.int64),
                np.asarray([1], dtype=np.int64),
            )

    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_engine_rejects_near_sentinel_stimulus(self, kernel):
        """Regression: timestamps near EOW raise instead of corrupting."""
        netlist = build_random_netlist(num_gates=10, seed=2)
        annotation = annotation_from_design_delays(
            netlist, SyntheticDelayModel(seed=2).build(netlist)
        )
        stimulus = {
            net: Waveform.from_initial_and_toggles(0, [EOW - 3])
            for net in netlist.source_nets()
        }
        config = SimConfig(cycle_parallelism=1)
        engine = ENGINES[kernel](netlist, annotation=annotation, config=config)
        with pytest.raises(StimulusError, match="EOW"):
            engine.simulate(stimulus, duration=EOW - 1)


class TestBackendSpecs:
    def test_parse_backend_spec(self):
        assert parse_backend_spec("gatspi") == ("gatspi", {})
        assert parse_backend_spec("gatspi:device=numpy") == (
            "gatspi",
            {"device": "numpy"},
        )
        name, options = parse_backend_spec("my-backend:num_workers=8,overhead=0.5")
        assert name == "my-backend"
        assert options == {"num_workers": 8, "overhead": 0.5}

    def test_parse_backend_spec_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_backend_spec("gatspi:device")

    def test_resolve_backend_prepares_kernel_variant(self):
        netlist = build_random_netlist(num_gates=12, seed=4)
        backend, options = resolve_backend("gatspi-oracle:device=numpy")
        session = backend.prepare(netlist, **options)
        assert isinstance(session.engine, OracleEngine)
        assert session.engine.kernel_mode == "scalar"
        session = get_backend("gatspi").prepare(netlist)
        assert type(session.engine) is GatspiEngine
        assert session.engine.kernel_mode == "vector"
