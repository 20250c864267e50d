"""Tests for power analysis, glitch analysis, and the optimization flow."""

import pytest

from repro.bench import designs
from repro.core import GatspiEngine, SimConfig
from repro.opt import (
    GlitchOptimizationFlow,
    balance_gate_inputs,
    estimate_arrival_times,
    insert_delay_buffer,
)
from repro.power import (
    PowerModel,
    analyze_glitches,
    events_per_gate,
    static_probabilities,
    summarize_activity,
)
from repro.api import get_backend
from repro.reference import EventDrivenSimulator
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.waveforms import TestbenchSpec, stimulus_for_netlist

CONFIG = SimConfig(clock_period=1000, cycle_parallelism=4)


def functional_run(netlist, stimulus, duration):
    """The zero-delay (glitch-free) run of ``stimulus``."""
    return get_backend("zero-delay").prepare(netlist).run(stimulus, duration=duration)


@pytest.fixture(scope="module")
def adder_setup():
    netlist = designs.ripple_carry_adder(bits=8)
    delays = SyntheticDelayModel(seed=5, wire_delay_range=(0, 2)).build(netlist)
    annotation = annotation_from_design_delays(netlist, delays)
    spec = TestbenchSpec(name="rand", cycles=40, activity_factor=0.8, seed=5)
    stimulus = stimulus_for_netlist(netlist, spec, kind="random")
    result = GatspiEngine(netlist, annotation=annotation, config=CONFIG).simulate(
        stimulus, cycles=spec.cycles
    )
    return netlist, annotation, stimulus, result, spec


class TestPowerModel:
    def test_power_is_positive_and_composed(self, adder_setup):
        netlist, _, _, result, _ = adder_setup
        report = PowerModel(netlist).compute_from_result(result)
        assert report.total_w > 0
        assert report.total_w == pytest.approx(
            report.switching_w + report.internal_w + report.leakage_w
        )
        assert len(report.per_net) > 0

    def test_power_scales_with_toggles(self, adder_setup):
        netlist, _, _, result, _ = adder_setup
        model = PowerModel(netlist)
        base = model.compute(result.toggle_counts, result.duration)
        doubled = model.compute(
            {net: 2 * count for net, count in result.toggle_counts.items()},
            result.duration,
        )
        assert doubled.dynamic_w == pytest.approx(2 * base.dynamic_w, rel=1e-6)
        assert doubled.leakage_w == pytest.approx(base.leakage_w)

    def test_requires_positive_duration(self, adder_setup):
        netlist, _, _, result, _ = adder_setup
        with pytest.raises(ValueError):
            PowerModel(netlist).compute(result.toggle_counts, 0)

    def test_top_nets_sorted(self, adder_setup):
        netlist, _, _, result, _ = adder_setup
        report = PowerModel(netlist).compute_from_result(result)
        top = report.top_nets(5)
        assert len(top) == 5
        assert all(
            top[i].dynamic_w >= top[i + 1].dynamic_w for i in range(len(top) - 1)
        )


class TestActivity:
    def test_summary_matches_result(self, adder_setup):
        netlist, _, _, result, spec = adder_setup
        summary = summarize_activity(netlist, result, spec.cycles)
        assert summary.gate_count == netlist.gate_count
        assert summary.activity_factor == pytest.approx(result.activity_factor())
        assert summary.total_toggles == result.total_toggles()

    def test_static_probabilities_bounded(self, adder_setup):
        _, _, _, result, _ = adder_setup
        probabilities = static_probabilities(result.waveforms, result.duration)
        assert all(0.0 <= p <= 1.0 for p in probabilities.values())

    def test_events_per_gate(self, adder_setup):
        netlist, _, _, result, _ = adder_setup
        events = events_per_gate(netlist, result)
        assert len(events) == netlist.gate_count
        assert sum(events.values()) == result.stats.input_events


class TestGlitchAnalysis:
    def test_adder_has_glitch_activity(self, adder_setup):
        netlist, _, stimulus, result, _ = adder_setup
        functional = functional_run(netlist, stimulus, result.duration).toggle_counts
        report = analyze_glitches(netlist, result, functional)
        assert report.total_glitch_toggles >= 0
        assert 0.0 <= report.glitch_toggle_fraction <= 1.0
        assert report.glitch_power_w <= report.total_power.total_w

    def test_zero_delay_has_no_glitches(self, adder_setup):
        netlist, _, stimulus, result, _ = adder_setup
        functional = functional_run(netlist, stimulus, result.duration)
        report = analyze_glitches(netlist, functional, functional.toggle_counts)
        assert report.total_glitch_toggles == 0

    def test_worst_nets_are_glitchy(self, adder_setup):
        netlist, _, stimulus, result, _ = adder_setup
        functional = functional_run(netlist, stimulus, result.duration).toggle_counts
        report = analyze_glitches(netlist, result, functional)
        for info in report.worst_nets(5):
            assert info.glitch_toggles > 0


class TestGlitchFixes:
    def test_arrival_times_monotonic_with_depth(self, adder_setup):
        netlist, annotation, _, _, _ = adder_setup
        arrivals = estimate_arrival_times(netlist, annotation)
        assert arrivals["a[0]"] == 0.0
        # The adder's carry chain makes later sum bits arrive later.
        assert arrivals[netlist.instance("u0").output_net()] > 0

    def test_insert_delay_buffer_preserves_connectivity(self, adder_setup):
        netlist, annotation, _, _, _ = adder_setup
        import copy

        work_netlist = copy.deepcopy(netlist)
        work_annotation = copy.deepcopy(annotation)
        gate = work_netlist.combinational_instances()[5]
        pin = gate.cell.inputs[0]
        original_net = gate.connections[pin]
        buffer_name = insert_delay_buffer(
            work_netlist, work_annotation, gate.name, pin, delay=12
        )
        assert buffer_name in work_netlist.instances
        new_net = gate.connections[pin]
        assert new_net != original_net
        assert work_netlist.nets[new_net].driver == (buffer_name, "Y")
        assert (gate.name, pin) not in [
            load for load in work_netlist.nets[original_net].loads
        ]
        # The buffered netlist still levelizes and simulates.
        from repro.netlist import levelize

        levelize(work_netlist)

    def test_balance_gate_inputs_reduces_skew(self, adder_setup):
        netlist, annotation, _, _, _ = adder_setup
        import copy

        work_netlist = copy.deepcopy(netlist)
        work_annotation = copy.deepcopy(annotation)
        # The last sum XOR has maximally skewed inputs (carry chain vs input).
        target = [
            inst.name
            for inst in work_netlist.combinational_instances()
            if inst.cell_name == "XOR2"
        ][-1]
        fixes = balance_gate_inputs(
            work_netlist, work_annotation, target, skew_threshold=5.0
        )
        assert fixes, "expected at least one balancing buffer on the last sum bit"
        from repro.opt import input_arrival_skew

        skews = input_arrival_skew(work_netlist, work_annotation, target)
        assert max(skews.values()) - min(skews.values()) <= max(
            60.0, min(skews.values())
        )


class TestFlow:
    def test_glitch_flow_end_to_end(self):
        netlist = designs.array_multiplier(bits=4)
        delays = SyntheticDelayModel(seed=9, wire_delay_range=(0, 1)).build(netlist)
        annotation = annotation_from_design_delays(netlist, delays)
        spec = TestbenchSpec(name="mult", cycles=30, activity_factor=0.6, seed=9)
        stimulus = stimulus_for_netlist(netlist, spec, kind="random")
        flow = GlitchOptimizationFlow(
            netlist, annotation=annotation,
            config=SimConfig(clock_period=1000, cycle_parallelism=2),
        )
        outcome = flow.run(stimulus, cycles=spec.cycles, max_gates_to_fix=10)
        summary = outcome.summary()
        assert outcome.baseline_power.total_w > 0
        assert outcome.optimized_power.total_w > 0
        assert outcome.turnaround_speedup > 0
        assert summary["fixes_applied"] >= 0
        # The original netlist is untouched by the flow.
        assert "glitchfix" not in " ".join(netlist.instances)
