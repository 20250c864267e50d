"""Tests for VCD, SAIF, and stimulus generation."""

import pytest

from repro.core import GatspiEngine, SimConfig, Waveform
from repro.netlist import NetlistBuilder
from repro.sdf import UnitDelayModel, annotation_from_design_delays
from repro.waveforms import (
    NetActivity,
    TestbenchSpec,
    activity_from_result,
    clock_waveform,
    functional_stimulus,
    measured_activity_factor,
    parse_saif,
    parse_vcd,
    random_stimulus,
    saif_files_match,
    saif_from_result,
    scan_stimulus,
    stimulus_for_netlist,
    write_saif,
    write_vcd,
)


class TestVcd:
    def test_round_trip(self):
        waves = {
            "a": Waveform.from_initial_and_toggles(0, [10, 25, 60]),
            "b": Waveform.from_initial_and_toggles(1, [40]),
            "quiet": Waveform.constant(0),
        }
        text = write_vcd(waves, end_time=100)
        parsed = parse_vcd(text)
        assert set(parsed) == set(waves)
        for name, wave in waves.items():
            assert parsed[name].toggle_count() == wave.toggle_count()
            for probe in range(0, 100, 5):
                assert parsed[name].value_at(probe) == wave.value_at(probe)

    def test_x_values_map_to_zero(self):
        text = (
            "$timescale 1ps $end\n$scope module top $end\n"
            "$var wire 1 ! sig $end\n$upscope $end\n$enddefinitions $end\n"
            "$dumpvars\nx!\n$end\n#10\n1!\n"
        )
        parsed = parse_vcd(text)
        assert parsed["sig"].value_at(0) == 0
        assert parsed["sig"].value_at(11) == 1

    def test_indexed_names_round_trip(self):
        """A single-bit select is part of the name (flattened bus bits):
        ``a[0]`` and ``a[1]`` used to collapse into a duplicate ``a``."""
        import io

        from repro.waveforms.vcd import VcdEventStream

        waves = {
            "a[0]": Waveform.from_initial_and_toggles(0, [10, 25]),
            "a[1]": Waveform.from_initial_and_toggles(1, [40]),
            "plain": Waveform.from_initial_and_toggles(0, [5]),
        }
        text = write_vcd(waves, end_time=100)
        for dump in (text, text.replace("a[0] $end", "a [0] $end")):
            assert parse_vcd(dump) == waves
            assert set(VcdEventStream(io.StringIO(dump)).nets) == set(waves)

    def test_vector_signals_rejected(self):
        text = (
            "$var wire 8 ! bus [7:0] $end\n$enddefinitions $end\n#0\n"
        )
        with pytest.raises(Exception):
            parse_vcd(text)

    def test_vector_format_dumps_for_scalar_vars(self):
        """``b<val> <code>`` changes on 1-bit vars must not be dropped.

        Many real tools (Icarus, Verilator, VCS) emit the vector dump form
        even for scalar variables; the parser used to ignore those lines,
        silently leaving the signal a constant 0 (regression).
        """
        text = (
            "$date today $end\n"
            "$timescale 1ps $end\n"
            "$scope module top $end\n"
            "$var wire 1 ! clk $end\n"
            "$var wire 1 \" rst $end\n"
            "$upscope $end\n"
            "$enddefinitions $end\n"
            "$dumpvars\n"
            "b0 !\n"
            "b1 \"\n"
            "$end\n"
            "#5\n"
            "b1 !\n"
            "#10\n"
            "bx \"\n"
            "#15\n"
            "b0 !\n"
        )
        parsed = parse_vcd(text)
        assert parsed["clk"].to_change_list() == [(0, 0), (5, 1), (15, 0)]
        assert parsed["clk"].toggle_count() == 2, "b-format changes were dropped"
        # x maps to 0, mixed with the initial b1.
        assert parsed["rst"].value_at(0) == 1
        assert parsed["rst"].value_at(11) == 0

    def test_mixed_scalar_and_vector_dump_forms(self):
        """Both dump forms for the same var interleave into one waveform."""
        text = (
            "$var wire 1 ! sig $end\n$enddefinitions $end\n"
            "$dumpvars\n0!\n$end\n"
            "#10\nb1 !\n"
            "#20\n0!\n"
            "#30\nb1 !\n"
        )
        parsed = parse_vcd(text)
        assert parsed["sig"].to_change_list() == [(0, 0), (10, 1), (20, 0), (30, 1)]

    def test_duplicate_names_in_different_scopes_stay_separate(self):
        """Two ``$var`` declarations named ``clk`` in different scopes.

        These are distinct signals; merging their changes into one
        interleaved (potentially non-monotonic) list was a regression —
        here the merged list would be [(2,1),(3,1),(12,0),(13,0)], which
        drops the second signal entirely and double-counts edges.
        """
        text = (
            "$timescale 1ps $end\n"
            "$scope module top $end\n"
            "$scope module u0 $end\n"
            "$var wire 1 ! clk $end\n"
            "$upscope $end\n"
            "$scope module u1 $end\n"
            "$var wire 1 \" clk $end\n"
            "$upscope $end\n"
            "$var wire 1 # sel $end\n"
            "$upscope $end\n"
            "$enddefinitions $end\n"
            "$dumpvars\n0!\n0\"\n0#\n$end\n"
            "#2\n1!\n"
            "#3\n1\"\n"
            "#12\n0!\n"
            "#13\n0\"\n"
        )
        parsed = parse_vcd(text)
        assert "top.u0.clk" in parsed and "top.u1.clk" in parsed
        assert "clk" not in parsed
        # Unique names keep their bare form.
        assert "sel" in parsed
        assert parsed["top.u0.clk"].to_change_list() == [(0, 0), (2, 1), (12, 0)]
        assert parsed["top.u1.clk"].to_change_list() == [(0, 0), (3, 1), (13, 0)]

    def test_aliased_code_re_declared_in_another_scope(self):
        """The same identifier code declared twice is one signal (an alias)."""
        text = (
            "$scope module top $end\n"
            "$var wire 1 ! net_a $end\n"
            "$scope module child $end\n"
            "$var wire 1 ! net_a $end\n"
            "$upscope $end\n"
            "$upscope $end\n"
            "$enddefinitions $end\n"
            "#0\n1!\n#7\n0!\n"
        )
        parsed = parse_vcd(text)
        assert set(parsed) == {"net_a"}
        assert parsed["net_a"].to_change_list() == [(0, 1), (7, 0)]


class TestSaif:
    def build_result(self, store_waveforms=True):
        builder = NetlistBuilder("saif_test")
        a = builder.input("a")
        builder.output("y")
        builder.gate("INV", [a], output_net="y", name="u0")
        netlist = builder.build()
        annotation = annotation_from_design_delays(
            netlist, UnitDelayModel(delay=5).build(netlist)
        )
        stimulus = {"a": Waveform.from_initial_and_toggles(0, [100, 300, 500])}
        config = SimConfig(clock_period=100, store_waveforms=store_waveforms)
        engine = GatspiEngine(netlist, annotation=annotation, config=config)
        return engine.simulate(stimulus, cycles=10)

    def test_activity_from_result(self):
        result = self.build_result()
        activities = activity_from_result(result)
        assert activities["a"].tc == 3
        assert activities["y"].tc == 3
        assert activities["a"].t0 + activities["a"].t1 == result.duration

    def test_counts_only_result_has_no_activity(self):
        """Without waveforms T0/T1 are unknown: no invented 50/50 duty
        reaches the SAIF file."""
        result = self.build_result(store_waveforms=False)
        assert result.toggle_counts["y"] == 3 and not result.waveforms
        first = next(iter(result.toggle_counts))
        with pytest.raises(ValueError, match=f"net '{first}' has no stored waveform"):
            activity_from_result(result)
        with pytest.raises(ValueError, match="store_waveforms=True"):
            saif_from_result(result)

    def test_saif_round_trip_and_match(self):
        result = self.build_result()
        text = saif_from_result(result, design="saif_test")
        parsed = parse_saif(text)
        assert parsed.duration == result.duration
        assert parsed.toggle_counts()["y"] == result.toggle_counts["y"]
        assert saif_files_match(parsed, parsed)

    def test_saif_mismatch_detected(self):
        first = parse_saif(write_saif({"n": NetActivity(10, 10, 4)}, duration=20))
        second = parse_saif(write_saif({"n": NetActivity(10, 10, 5)}, duration=20))
        assert not saif_files_match(first, second)

    def test_static_probability(self):
        activity = NetActivity(t0=25, t1=75, tc=10)
        assert activity.static_probability == pytest.approx(0.75)
        assert activity.toggle_rate(100) == pytest.approx(0.1)


class TestStimulus:
    def test_clock_waveform_period(self):
        clock = clock_waveform(cycles=4, period=100)
        assert clock.toggle_count() == 7  # toggles every half period
        assert clock.value_at(60) == 1
        assert clock.value_at(120) == 0

    def test_random_stimulus_activity(self):
        nets = [f"n{i}" for i in range(20)]
        stimulus = random_stimulus(nets, cycles=200, toggle_probability=1.0, seed=3)
        factor = measured_activity_factor(stimulus, 200)
        assert factor == pytest.approx(1.0, abs=0.02)

    def test_scan_stimulus_is_high_activity(self):
        nets = [f"n{i}" for i in range(10)]
        stimulus = scan_stimulus(nets, cycles=100, seed=3)
        assert measured_activity_factor(stimulus, 100) > 0.8

    def test_functional_stimulus_hits_target_activity(self):
        nets = [f"n{i}" for i in range(30)]
        stimulus = functional_stimulus(nets, cycles=400, activity_factor=0.05, seed=9)
        factor = measured_activity_factor(stimulus, 400)
        assert 0.01 < factor < 0.15

    def test_stimulus_for_netlist_covers_sources_and_clocks(self):
        builder = NetlistBuilder("stim")
        d = builder.input("d")
        clk = builder.input("clk")
        q = builder.flop(d, clk)
        builder.output("y")
        builder.gate("INV", [q], output_net="y")
        netlist = builder.build()
        spec = TestbenchSpec(name="t", cycles=50, activity_factor=0.2, seed=4)
        stimulus = stimulus_for_netlist(netlist, spec, kind="functional")
        assert set(stimulus) >= set(netlist.source_nets())
        # The clock runs every cycle.
        assert stimulus["clk"].toggle_count() >= 50

    def test_unknown_kind_rejected(self):
        builder = NetlistBuilder("stim2")
        builder.input("a")
        builder.output("y")
        builder.gate("BUF", ["a"], output_net="y")
        spec = TestbenchSpec(name="t", cycles=10)
        with pytest.raises(ValueError):
            stimulus_for_netlist(builder.build(), spec, kind="bogus")

    def test_toggle_probability_validated(self):
        with pytest.raises(ValueError):
            random_stimulus(["a"], cycles=10, toggle_probability=1.5)
