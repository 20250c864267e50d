"""Tests for the benchmark design generators, suites, and the harness."""

import pytest

from repro.bench import (
    case_by_name,
    designs,
    format_table2,
    representative_cases,
    run_case,
    table2_cases,
)
from repro.analysis import analyze_design
from repro.api import get_backend
from repro.core import SimConfig
from repro.netlist import levelize
from repro.core import Waveform


#: The structural rules every generated design must pass to be simulatable.
STRUCTURAL_RULES = (
    "undriven-input",
    "multi-driven-net",
    "unconnected-output",
    "combinational-loop",
    "dangling-net",
)


def assert_simulatable(netlist):
    report = analyze_design(netlist, rules=STRUCTURAL_RULES)
    assert not report.has_errors, report.summary()


class TestAdder:
    def test_structure(self):
        netlist = designs.ripple_carry_adder(bits=8)
        assert netlist.gate_count == 8 * 5 + 1
        assert_simulatable(netlist)

    def test_adder_is_functionally_correct(self):
        bits = 6
        netlist = designs.ripple_carry_adder(bits=bits)
        session = get_backend("zero-delay").prepare(netlist)
        for a_value, b_value, cin in [(5, 9, 0), (63, 1, 0), (21, 42, 1), (0, 0, 1)]:
            stimulus = {}
            for bit in range(bits):
                stimulus[f"a[{bit}]"] = Waveform.constant((a_value >> bit) & 1)
                stimulus[f"b[{bit}]"] = Waveform.constant((b_value >> bit) & 1)
            stimulus["cin"] = Waveform.constant(cin)
            result = session.run(stimulus, duration=10)
            total = 0
            for bit in range(bits):
                total |= result.waveforms[f"sum[{bit}]"].value_at(5) << bit
            total |= result.waveforms["cout"].value_at(5) << bits
            assert total == a_value + b_value + cin

    def test_carry_select_adder_builds(self):
        netlist = designs.carry_select_adder(bits=8, block=4)
        assert_simulatable(netlist)
        assert netlist.gate_count > 8 * 5


class TestMultiplierAndNvdla:
    def test_multiplier_structure(self):
        netlist = designs.array_multiplier(bits=4)
        assert_simulatable(netlist)
        levels = levelize(netlist)
        assert levels.depth >= 4  # deep reduction tree => glitch prone

    def test_nvdla_block_has_sequential_boundary(self):
        netlist = designs.nvdla_like_mac_block(macs=2, data_bits=3)
        assert netlist.sequential_count > 0
        assert netlist.gate_count > 50
        assert_simulatable(netlist)
        # Registered inputs become pseudo-primary inputs.
        assert len(netlist.source_nets()) > len(netlist.inputs)

    def test_nvdla_scales_with_macs(self):
        small = designs.nvdla_like_mac_block(macs=2, data_bits=3)
        large = designs.nvdla_like_mac_block(macs=6, data_bits=3)
        assert large.gate_count > 2 * small.gate_count


class TestIndustryLike:
    def test_reproducible_and_valid(self):
        first = designs.industry_like(gate_count=300, num_flops=40, seed=3)
        second = designs.industry_like(gate_count=300, num_flops=40, seed=3)
        assert first.gate_count == second.gate_count
        assert first.cell_histogram() == second.cell_histogram()
        assert_simulatable(first)

    def test_gate_count_close_to_target(self):
        netlist = designs.industry_like(gate_count=500, num_flops=50, seed=1)
        assert 500 <= netlist.gate_count <= 560  # + output buffers

    def test_depth_parameter_controls_levels(self):
        shallow = designs.industry_like(gate_count=300, num_flops=30, depth=6, seed=2)
        deep = designs.industry_like(gate_count=300, num_flops=30, depth=30, seed=2)
        assert levelize(deep).depth > levelize(shallow).depth


class TestSuite:
    def test_table2_has_twelve_cases(self):
        cases = table2_cases()
        assert len(cases) == 12
        names = {case.name for case in cases}
        assert "32b_int_adder" in names
        assert "Industry Design B" in names
        for case in cases:
            assert case.paper is not None
            assert case.paper.kernel_speedup > 1

    def test_representative_cases(self):
        cases = representative_cases()
        assert len(cases) == 3
        assert cases[0].name == "Industry Design A"

    def test_case_lookup(self):
        case = case_by_name("32b_int_adder")
        assert case.stimulus_kind == "random"
        with pytest.raises(KeyError):
            case_by_name("nonexistent")

    def test_paper_speedups_follow_activity_trend(self):
        """In Table 2, the largest kernel speedups come from the long
        high-activity testbenches."""
        cases = {(c.name, c.testbench): c.paper for c in table2_cases()}
        high = cases[("Industry Design B", "high activity long test")]
        low = cases[("NVDLA(large)", "sanity test")]
        assert high.kernel_speedup > low.kernel_speedup


class TestHarness:
    def test_run_case_small_adder(self):
        case = case_by_name("32b_int_adder")
        # Shrink the workload so the harness test stays fast.
        small = type(case)(
            name=case.name,
            testbench=case.testbench,
            design_factory=lambda: designs.ripple_carry_adder(bits=8),
            stimulus_kind="random",
            cycles=30,
            activity_factor=1.0,
            seed=1,
            paper=case.paper,
        )
        artifacts = run_case(small, config=SimConfig(cycle_parallelism=4))
        row = artifacts.row
        assert row.saif_match, artifacts.gatspi_result.differing_nets(
            artifacts.reference_result
        )
        assert row.gate_count == artifacts.netlist.gate_count
        assert row.gatspi_kernel_s > 0
        assert row.modeled_kernel_speedup > 1
        text = format_table2([row])
        assert "32b_int_adder" in text
