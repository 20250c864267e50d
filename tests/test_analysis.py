"""Tests for the design-rule analysis engine (``repro.analysis``).

Pathological designs each assert the exact rule id + severity that catches
them; the prepare-path wiring (strict/warn/off), the fingerprint-keyed
report cache, the serving front door's eager rejection, and the
``python -m repro.analysis`` CLI are all exercised here.
"""

from __future__ import annotations

import json
import time
import warnings

import pytest

from repro.analysis import (
    AnalysisReport,
    AnalysisWarning,
    DesignAnalysisError,
    RULES,
    Severity,
    analysis_cache_info,
    analyze_design,
    available_rules,
    clear_analysis_cache,
)
from repro.api import get_backend, resolve_backend
from repro.bench.designs import array_multiplier
from repro.core.config import SimConfig
from repro.core.waveform import EOW
from repro.netlist import Netlist, NetlistBuilder, NetlistError
from repro.sdf.types import SdfCell, SdfFile, SdfIoPath
from repro.serve import DesignRejectedError, ServeRequest, SimulationService
from repro.waveforms import TestbenchSpec, stimulus_for_netlist

CONFIG = SimConfig(device="numpy")


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_analysis_cache()
    yield
    clear_analysis_cache()


# ----------------------------------------------------------------------
# Design fixtures
# ----------------------------------------------------------------------
def clean_design() -> Netlist:
    builder = NetlistBuilder("clean")
    a = builder.input("a")
    b = builder.input("b")
    n1 = builder.gate("NAND2", [a, b], name="u0")
    builder.output("y")
    builder.gate("INV", [n1], output_net="y", name="u1")
    return builder.build()


def multi_level_loop_design() -> Netlist:
    """A 3-gate cycle with a downstream cone that must NOT be named."""
    netlist = Netlist("looped")
    netlist.add_input("a")
    netlist.add_output("y")
    netlist.add_instance("NAND2", "u0", {"A": "a", "B": "n2", "Y": "n0"})
    netlist.add_instance("INV", "u1", {"A": "n0", "Y": "n1"})
    netlist.add_instance("BUF", "u2", {"A": "n1", "Y": "n2"})
    netlist.add_instance("INV", "u3", {"A": "n2", "Y": "y"})  # downstream only
    return netlist


def self_loop_design() -> Netlist:
    netlist = Netlist("selfloop")
    netlist.add_input("a")
    netlist.add_output("y")
    netlist.add_instance("NAND2", "u0", {"A": "a", "B": "n0", "Y": "n0"})
    netlist.add_instance("INV", "u1", {"A": "n0", "Y": "y"})
    return netlist


def constant_cone_design() -> Netlist:
    builder = NetlistBuilder("const")
    a = builder.input("a")
    one = builder.gate("TIEHI", [], name="tie1")
    zero = builder.gate("TIELO", [], name="tie0")
    n = builder.gate("NAND2", [one, zero], name="u_const")
    builder.output("y")
    builder.gate("XOR2", [a, n], output_net="y", name="u_live")
    return builder.build()


# ----------------------------------------------------------------------
# Structural rules on pathological designs: exact rule id + severity
# ----------------------------------------------------------------------
class TestStructuralRules:
    def test_clean_design_is_clean(self):
        report = analyze_design(clean_design())
        assert report.is_clean
        assert not report.has_errors
        assert report.rules_run == available_rules()

    def test_multi_level_loop_names_only_cycle_members(self):
        report = analyze_design(multi_level_loop_design())
        findings = report.findings_for("combinational-loop")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity is Severity.ERROR
        assert set(finding.instances) == {"u0", "u1", "u2"}  # u3 is downstream
        assert finding.data["self_loop"] is False

    def test_self_loop_detected(self):
        report = analyze_design(self_loop_design())
        (finding,) = report.findings_for("combinational-loop")
        assert finding.severity is Severity.ERROR
        assert finding.instances == ("u0",)
        assert finding.data["self_loop"] is True

    def test_undriven_input_is_error(self):
        netlist = Netlist("bad")
        netlist.add_input("a")
        netlist.add_output("y")
        netlist.add_instance("AND2", "u0", {"A": "a", "B": "nowhere", "Y": "y"})
        report = analyze_design(netlist)
        (finding,) = report.findings_for("undriven-input")
        assert finding.severity is Severity.ERROR
        assert "nowhere" in finding.nets
        assert report.has_errors

    def test_unconnected_output_is_error(self):
        netlist = Netlist("floatout")
        netlist.add_input("a")
        netlist.add_output("y")
        netlist.add_output("z")
        netlist.add_instance("INV", "u0", {"A": "a", "Y": "y"})
        report = analyze_design(netlist)
        (finding,) = report.findings_for("unconnected-output")
        assert finding.severity is Severity.ERROR
        assert finding.nets == ("z",)

    def test_multi_driven_net_is_error(self):
        netlist = Netlist("mdrv")
        netlist.add_input("a")
        netlist.add_output("y")
        netlist.add_instance("INV", "u0", {"A": "a", "Y": "n0"})
        netlist.add_instance("BUF", "u1", {"A": "a", "Y": "n1"})
        netlist.add_instance("NAND2", "u2", {"A": "n0", "B": "n1", "Y": "y"})
        # Construction forbids double-driving, so corrupt the netlist the
        # way a buggy transform would: rewire u1's output onto u0's net.
        netlist.instances["u1"].connections["Y"] = "n0"
        report = analyze_design(netlist)
        (finding,) = report.findings_for("multi-driven-net")
        assert finding.severity is Severity.ERROR
        assert finding.nets == ("n0",)
        assert set(finding.instances) == {"u0", "u1"}

    def test_dangling_net_is_warning(self):
        builder = NetlistBuilder("dangle")
        a = builder.input("a")
        builder.gate("INV", [a], name="u_dead")  # output feeds nothing
        builder.output("y")
        builder.gate("BUF", [a], output_net="y", name="u_live")
        report = analyze_design(builder.build())
        (finding,) = report.findings_for("dangling-net")
        assert finding.severity is Severity.WARNING
        assert not report.has_errors  # warnings alone keep the design runnable

    def test_all_constant_input_gate_is_info(self):
        report = analyze_design(constant_cone_design())
        (finding,) = report.findings_for("constant-cone")
        assert finding.severity is Severity.INFO
        assert "u_const" in finding.instances
        assert "u_live" not in finding.instances

    def test_unreachable_cone_is_info(self):
        builder = NetlistBuilder("dead")
        a = builder.input("a")
        n = builder.gate("INV", [a], name="u_dead0")
        builder.gate("INV", [n], name="u_dead1")  # cone reaches no output
        builder.output("y")
        builder.gate("BUF", [a], output_net="y", name="u_live")
        report = analyze_design(builder.build())
        (finding,) = report.findings_for("unreachable-cone")
        assert finding.severity is Severity.INFO
        assert set(finding.instances) == {"u_dead0", "u_dead1"}

    def test_fanout_outlier_is_info(self):
        builder = NetlistBuilder("star")
        a = builder.input("a")
        b = builder.input("b")
        hub = builder.gate("BUF", [a], name="u_hub")
        sinks = [builder.gate("INV", [hub], name=f"u_s{i}") for i in range(24)]
        builder.output("y")
        builder.gate("NAND2", [sinks[0], b], output_net="y", name="u_out")
        report = analyze_design(builder.build())
        findings = report.findings_for("fanout-outlier")
        assert findings and findings[0].severity is Severity.INFO
        assert hub in findings[0].nets


class TestSdfAndDelayRules:
    def _netlist(self):
        return clean_design()

    def test_sdf_nonexistent_instance_is_warning(self):
        sdf = SdfFile(
            design="clean",
            cells=[
                SdfCell("INV", "ghost", iopaths=[SdfIoPath("A", "Y", 5.0, 5.0)]),
            ],
        )
        report = analyze_design(self._netlist(), sdf=sdf)
        (finding,) = report.findings_for("sdf-unknown-instance")
        assert finding.severity is Severity.WARNING
        assert finding.instances == ("ghost",)

    def test_sdf_coverage_gaps_are_warnings(self):
        # u0 covered on only one of two pins; u1 not covered at all.
        sdf = SdfFile(
            design="clean",
            cells=[
                SdfCell("NAND2", "u0", iopaths=[SdfIoPath("A", "Y", 5.0, 5.0)]),
            ],
        )
        report = analyze_design(self._netlist(), sdf=sdf)
        findings = report.findings_for("sdf-coverage")
        assert {f.severity for f in findings} == {Severity.WARNING}
        missing = [f for f in findings if "no SDF IOPATH" in f.message]
        partial = [f for f in findings if "partial" in f.message]
        assert missing and missing[0].instances == ("u1",)
        assert partial and partial[0].data["missing_pins"] == {"u0": ["B"]}

    def test_negative_iopath_is_error(self):
        sdf = SdfFile(
            design="clean",
            cells=[
                SdfCell("NAND2", "u0", iopaths=[SdfIoPath("A", "Y", -2.0, 5.0)]),
            ],
        )
        report = analyze_design(self._netlist(), sdf=sdf)
        (finding,) = report.findings_for("negative-delay")
        assert finding.severity is Severity.ERROR
        assert finding.instances == ("u0",)
        assert report.has_errors

    def test_zero_iopath_is_warning(self):
        sdf = SdfFile(
            design="clean",
            cells=[
                SdfCell("NAND2", "u0", iopaths=[SdfIoPath("A", "Y", 0.0, 5.0)]),
            ],
        )
        report = analyze_design(self._netlist(), sdf=sdf)
        (finding,) = report.findings_for("zero-delay")
        assert finding.severity is Severity.WARNING
        assert finding.instances == ("u0",)
        assert not report.has_errors

    def test_eow_overflow_risk_is_error(self):
        report = analyze_design(self._netlist(), horizon=EOW - 1)
        (finding,) = report.findings_for("eow-overflow-risk")
        assert finding.severity is Severity.ERROR
        assert finding.data["horizon"] == EOW - 1

    def test_safe_horizon_has_no_overflow_finding(self):
        report = analyze_design(self._netlist(), horizon=100_000)
        assert report.findings_for("eow-overflow-risk") == []


# ----------------------------------------------------------------------
# Report mechanics
# ----------------------------------------------------------------------
class TestReport:
    def test_json_round_trip(self):
        report = analyze_design(multi_level_loop_design())
        data = json.loads(report.to_json())
        restored = AnalysisReport.from_dict(data)
        assert restored.design == report.design
        assert restored.rules_run == report.rules_run
        assert [f.rule_id for f in restored.findings] == [
            f.rule_id for f in report.findings
        ]
        assert restored.findings[0].severity is report.findings[0].severity

    def test_severity_counts_and_summary(self):
        report = analyze_design(multi_level_loop_design())
        counts = report.severity_counts()
        assert counts["error"] >= 1
        assert "error" in report.summary()

    def test_rule_subset_runs_only_requested_rules(self):
        report = analyze_design(
            multi_level_loop_design(), rules=["dangling-net"]
        )
        assert report.rules_run == ("dangling-net",)
        assert report.findings_for("combinational-loop") == []

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(KeyError, match="no-such-rule"):
            analyze_design(clean_design(), rules=["no-such-rule"])


class TestReportCache:
    def test_second_analysis_is_a_cache_hit(self):
        design = clean_design()
        first = analyze_design(design)
        second = analyze_design(design)
        assert second is first
        info = analysis_cache_info()
        assert info["runs"] == 1
        assert info["hits"] == 1

    def test_structurally_identical_designs_share_a_report(self):
        analyze_design(clean_design())
        analyze_design(clean_design())  # fresh object, same content
        assert analysis_cache_info()["runs"] == 1

    def test_distinct_inputs_are_distinct_entries(self):
        design = clean_design()
        analyze_design(design)
        analyze_design(design, horizon=10)
        analyze_design(design, rules=["dangling-net"])
        assert analysis_cache_info()["runs"] == 3

    def test_use_cache_false_always_reruns(self):
        design = clean_design()
        analyze_design(design, use_cache=False)
        analyze_design(design, use_cache=False)
        assert analysis_cache_info()["runs"] == 2


# ----------------------------------------------------------------------
# Prepare-path wiring
# ----------------------------------------------------------------------
class TestPrepareWiring:
    def test_warn_mode_attaches_report(self):
        session = get_backend("gatspi").prepare(clean_design(), config=CONFIG)
        report = session.analysis_report
        assert report is not None
        assert report.is_clean

    def test_off_mode_skips_analysis(self):
        session = get_backend("gatspi").prepare(
            clean_design(), config=CONFIG.with_updates(analysis="off")
        )
        assert session.analysis_report is None
        assert analysis_cache_info()["runs"] == 0

    def test_strict_mode_raises_before_compile(self):
        with pytest.raises(DesignAnalysisError) as excinfo:
            get_backend("gatspi").prepare(
                self_loop_design(), config=CONFIG.with_updates(analysis="strict")
            )
        report = excinfo.value.report
        assert report.has_errors
        assert report.findings_for("combinational-loop")

    def test_warn_mode_warns_on_errors(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NetlistError):
                # Analysis warns; the engine's own levelization then fails.
                get_backend("gatspi").prepare(self_loop_design(), config=CONFIG)
        assert any(issubclass(w.category, AnalysisWarning) for w in caught)

    def test_repeated_prepare_does_not_reanalyze(self):
        design = clean_design()
        get_backend("gatspi").prepare(design, config=CONFIG)
        get_backend("event").prepare(design, config=CONFIG)
        get_backend("gatspi").prepare(design, config=CONFIG)
        assert analysis_cache_info()["runs"] == 1

    def test_every_builtin_backend_attaches_report(self):
        design = clean_design()
        for spec in ("gatspi", "gatspi:workers=process:2", "event", "zero-delay"):
            backend, options = resolve_backend(spec)
            session = backend.prepare(design, config=CONFIG, **options)
            assert session.analysis_report is not None, spec

    def test_invalid_analysis_mode_rejected(self):
        with pytest.raises(ValueError, match="analysis"):
            SimConfig(device="numpy", analysis="sometimes")

    def test_analysis_overhead_under_5_percent(self):
        """End-to-end: ``analysis="warn"`` adds <5% to a cold prepare of a
        Table-2 bench design (Industry Design B's generator parameters).

        Analysis shares its levelization and netlist fingerprint with the
        engine's compile (the one-shot handoff + the levelize memo), so
        the marginal cost is only the rule evaluation itself.  Shared CI
        hardware makes single timings noisy, so off/warn prepares are
        interleaved as cold pairs (CPU time, so co-tenant preemption does
        not count against either side) and the best pairwise ratio is
        asserted — drift hits both halves of a pair alike, while a real
        overhead regression shifts every pair up.
        """
        from repro.bench.designs import industry_like
        from repro.core.compile_cache import clear_compile_cache

        design = industry_like(
            gate_count=2000, num_flops=250, depth=22, seed=112, name="design_b"
        )
        backend = get_backend("gatspi")

        def cold_prepare(mode: str) -> float:
            clear_compile_cache()
            clear_analysis_cache()
            config = SimConfig(device="numpy", analysis=mode)
            start = time.process_time()
            backend.prepare(design, config=config)
            return time.process_time() - start

        cold_prepare("off")
        cold_prepare("warn")  # warm up imports and allocators
        ratios = []
        for _ in range(5):
            off = cold_prepare("off")
            warn = cold_prepare("warn")
            ratios.append(warn / off)
        best = min(ratios)
        assert best < 1.05, (
            f"analysis='warn' prepare overhead was "
            f"{(best - 1) * 100:.1f}% in the best of {len(ratios)} "
            f"interleaved cold pairs (all: "
            f"{[f'{(r - 1) * 100:.1f}%' for r in ratios]})"
        )


# ----------------------------------------------------------------------
# Serving front door
# ----------------------------------------------------------------------
def _stimulus_for(netlist):
    spec = TestbenchSpec(
        name="t", cycles=4, clock_period=1000, activity_factor=0.7, seed=7
    )
    return stimulus_for_netlist(netlist, spec)


class TestServeAdmission:
    def test_bad_design_rejected_at_submit(self):
        # Only the strict mode rejects at the front door; the default
        # "warn" attaches the report and proceeds (SimConfig's documented
        # semantics — regression-tested in tests/test_serve.py).
        netlist = self_loop_design()
        service = SimulationService(max_workers=1)
        try:
            with pytest.raises(DesignRejectedError) as excinfo:
                service.submit(
                    ServeRequest(
                        netlist=netlist,
                        stimulus={},
                        config=CONFIG.with_updates(analysis="strict"),
                        cycles=4,
                    )
                )
            assert excinfo.value.report.has_errors
            assert "combinational-loop" in str(excinfo.value)
            assert service.stats()["rejected"] == 1
            assert service.stats()["submitted"] == 0
        finally:
            service.close()

    def test_analysis_off_bypasses_admission(self):
        netlist = self_loop_design()
        service = SimulationService(max_workers=1)
        try:
            future = service.submit(
                ServeRequest(
                    netlist=netlist,
                    stimulus={},
                    config=CONFIG.with_updates(analysis="off"),
                    cycles=4,
                )
            )
            # Admission let it through; the failure surfaces later, on the
            # future, keeping the old (lazy) failure mode available.
            with pytest.raises(Exception):
                future.result(timeout=30)
        finally:
            service.close()

    def test_clean_design_served(self):
        netlist = clean_design()
        service = SimulationService(max_workers=1)
        try:
            response = service.run(
                ServeRequest(
                    netlist=netlist,
                    stimulus=_stimulus_for(netlist),
                    config=CONFIG,
                    cycles=4,
                )
            )
            assert response.result.duration > 0
        finally:
            service.close()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def _main(self, *argv):
        from repro.analysis.__main__ import main

        return main(list(argv))

    def test_demo_is_clean_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert self._main("--demo", "--json", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["design"]
        assert set(data) >= {"design", "findings", "rules_run"}
        capsys.readouterr()

    def test_netlist_file_with_errors_exits_1(self, tmp_path, capsys):
        from repro.netlist import write_verilog

        path = tmp_path / "loop.v"
        path.write_text(write_verilog(multi_level_loop_design()))
        assert self._main(str(path)) == 1
        assert "combinational-loop" in capsys.readouterr().out

    def test_clean_netlist_with_sdf(self, tmp_path, capsys):
        from repro.netlist import write_verilog

        netlist_path = tmp_path / "clean.v"
        netlist_path.write_text(write_verilog(clean_design()))
        sdf_path = tmp_path / "clean.sdf"
        sdf_path.write_text(
            '(DELAYFILE\n'
            '  (SDFVERSION "3.0")\n'
            '  (DESIGN "clean")\n'
            '  (TIMESCALE 1ps)\n'
            '  (CELL (CELLTYPE "NAND2") (INSTANCE u0)\n'
            '    (DELAY (ABSOLUTE (IOPATH A Y (5) (6)) (IOPATH B Y (5) (6)))))\n'
            '  (CELL (CELLTYPE "INV") (INSTANCE u1)\n'
            '    (DELAY (ABSOLUTE (IOPATH A Y (3) (3)))))\n'
            ')\n'
        )
        assert self._main(str(netlist_path), str(sdf_path)) == 0
        capsys.readouterr()

    def test_strict_fails_on_warnings(self, tmp_path, capsys):
        from repro.netlist import write_verilog

        builder = NetlistBuilder("dangle")
        a = builder.input("a")
        builder.gate("INV", [a], name="u_dead")
        builder.output("y")
        builder.gate("BUF", [a], output_net="y", name="u_live")
        path = tmp_path / "dangle.v"
        path.write_text(write_verilog(builder.build()))
        assert self._main(str(path)) == 0
        assert self._main(str(path), "--strict") == 1
        capsys.readouterr()

    def test_list_rules_and_bad_args(self, capsys):
        assert self._main("--list-rules") == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out
        assert self._main("--demo", "--rules", "no-such-rule") == 2
        assert self._main("/no/such/netlist.v") == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "sdf_text, message",
        [
            ("(DELAYFILE (CELL (CELLTYPE (x)) (INSTANCE u1)))", "CELLTYPE"),
            ("(DELAYFILE (CELL (DELAY " + "(" * 3000, "unbalanced parenthesis"),
        ],
    )
    def test_bad_sdf_is_reported_not_raised(self, tmp_path, capsys, sdf_text, message):
        from repro.netlist import write_verilog

        netlist_path = tmp_path / "clean.v"
        netlist_path.write_text(write_verilog(clean_design()))
        sdf_path = tmp_path / "bad.sdf"
        sdf_path.write_text(sdf_text)
        assert self._main(str(netlist_path), str(sdf_path)) == 2
        err = capsys.readouterr().err
        assert "error: cannot read SDF" in err and message in err

    def test_sdf_cond_on_an_unknown_pin_is_skipped(self, tmp_path, capsys):
        from repro.netlist import write_verilog

        netlist_path = tmp_path / "clean.v"
        netlist_path.write_text(write_verilog(clean_design()))
        sdf_path = tmp_path / "cond.sdf"
        sdf_path.write_text(
            '(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u1)'
            " (DELAY (ABSOLUTE (COND Z===1'b1 (IOPATH A Y (1)))))))"
        )
        assert self._main(str(netlist_path), str(sdf_path)) == 0
        captured = capsys.readouterr()
        assert "clean:" in captured.out and "Traceback" not in captured.err

    def test_deeply_nested_sdf_is_read(self, tmp_path, capsys):
        from repro.netlist import write_verilog

        netlist_path = tmp_path / "clean.v"
        netlist_path.write_text(write_verilog(clean_design()))
        sdf_path = tmp_path / "deep.sdf"
        sdf_path.write_text(
            '(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u1) (DELAY '
            + "(" * 3000 + ")" * 3000
            + " (ABSOLUTE (IOPATH A Y (3) (3))))))"
        )
        assert self._main(str(netlist_path), str(sdf_path)) == 0
        assert "clean:" in capsys.readouterr().out
