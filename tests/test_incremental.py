"""Differential tests for incremental re-simulation (``Session.rerun``).

The contract under test: ``rerun(edits)`` on a live session must be
**bit-identical** to a cold ``prepare(edited_design).run(...)`` — same
waveforms, same toggle counts — while re-executing only the edits' cone
of influence.  The matrix covers every edit type (delay, retype, rewire,
buffer insertion/removal), edits that land on deduplicated truth/delay
rows, edits at the first and last logic levels, empty-edit no-op reruns,
undo round trips (journal returns to the base fingerprint), the array
engine and the per-object oracle engine (``gatspi-oracle``, which inherits
the rerun machinery), every available array
backend, strict-mode analysis gating with rollback, the glitch-ECO flow
equivalence, and serve-layer delta requests.
"""

from __future__ import annotations

import copy

import pytest

from repro.analysis import AnalysisWarning, DesignAnalysisError
from repro.api import resolve_backend
from repro.core import SimConfig, clear_compile_cache
from repro.core.compile_cache import fingerprint_annotation, fingerprint_netlist
from repro.core.edits import (
    InsertBuffer,
    RetypeGate,
    RewirePin,
    SetPinDelay,
    SetWireDelay,
)
from repro.core.incremental import derive_compile_key
from repro.core.xp import available_array_backends
from repro.netlist import levelize
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.serve import (
    ServeRequest,
    SimulationService,
    UnknownBaseDesignError,
)
from repro.testing import build_random_netlist, build_random_stimulus

DURATION = 24_000

#: The oracle engine.  Its parametrize id is the one it had while it was a
#: config knob, so test ids stay comparable across the knob's removal.
ORACLE = pytest.param("gatspi-oracle", id="gatspi:kernel=scalar")
#: Plain gatspi under the id of the in-parent sharded backend it replaced
#: (process-worker sessions refuse edits, so they have no rerun to test).
SHARDED = pytest.param("gatspi", id="gatspi-sharded:shards=2,workers=2")
#: Session flavors that must all support bit-identical incremental rerun.
SPECS = (
    "gatspi",
    ORACLE,
    SHARDED,
)
DEVICES = available_array_backends()

EDIT_KINDS = (
    "pin-delay",
    "wire-delay",
    "retype",
    "rewire",
    "insert-buffer",
    "level-boundary",
)

#: Kinds that never force a re-levelize: partial execution is guaranteed.
NON_STRUCTURAL_KINDS = ("pin-delay", "wire-delay", "retype", "level-boundary")

_RETYPE_PAIRS = {
    "AND2": "NAND2", "NAND2": "AND2",
    "OR2": "NOR2", "NOR2": "OR2",
    "XOR2": "XNOR2", "XNOR2": "XOR2",
}


@pytest.fixture(autouse=True)
def fresh_compile_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _prepare_design(seed: int, num_inputs: int = 6, num_gates: int = 36):
    netlist = build_random_netlist(
        num_inputs=num_inputs, num_gates=num_gates, seed=seed
    )
    delays = SyntheticDelayModel(seed=seed).build(netlist)
    annotation = annotation_from_design_delays(netlist, delays)
    return netlist, annotation


def _session(spec, netlist, annotation, device=None, config=None):
    backend, options = resolve_backend(spec)
    if device is not None:
        config = (config or SimConfig()).with_updates(device=device)
    return backend.prepare(
        netlist, annotation=annotation, config=config, **options
    )


def _gate_with_inputs(netlist, min_inputs=2, skip=0):
    """Deterministic pick: the ``skip``-th gate with >= min_inputs pins."""
    found = 0
    for inst in netlist.combinational_instances():
        if inst.cell.num_inputs >= min_inputs:
            if found == skip:
                return inst
            found += 1
    raise AssertionError("fixture netlist has no gate with enough inputs")


def _retype_target(netlist):
    """A gate whose cell has a pin-compatible partner AND is shared with at
    least one other gate, so the edit lands on a deduplicated truth row."""
    by_cell = {}
    for inst in netlist.combinational_instances():
        by_cell.setdefault(inst.cell_name, []).append(inst)
    for cell, insts in by_cell.items():
        if cell in _RETYPE_PAIRS and len(insts) >= 2:
            return insts[0], _RETYPE_PAIRS[cell]
    for cell, insts in by_cell.items():  # fall back to a unique-cell gate
        if cell in _RETYPE_PAIRS:
            return insts[0], _RETYPE_PAIRS[cell]
    raise AssertionError("fixture netlist has no retypeable 2-input gate")


def _build_edits(netlist, kind):
    if kind == "pin-delay":
        gate = _gate_with_inputs(netlist)
        return [SetPinDelay(gate=gate.name, pin=gate.cell.inputs[1],
                            rise=37.0, fall=29.0)]
    if kind == "wire-delay":
        gate = _gate_with_inputs(netlist, skip=1)
        return [SetWireDelay(gate=gate.name, pin=gate.cell.inputs[0],
                             rise=11.0, fall=13.0)]
    if kind == "retype":
        gate, new_cell = _retype_target(netlist)
        return [RetypeGate(gate=gate.name, cell=new_cell)]
    if kind == "rewire":
        # Reconnect a deep gate's pin to a primary-input net: always
        # acyclic, but changes the cone feeding everything downstream.
        lev = levelize(netlist)
        deep = netlist.instances[lev.levels[-1][0]]
        sources = sorted(netlist.source_nets())
        current = deep.connections[deep.cell.inputs[0]]
        target = next(net for net in sources if net != current)
        return [RewirePin(gate=deep.name, pin=deep.cell.inputs[0], net=target)]
    if kind == "insert-buffer":
        gate = _gate_with_inputs(netlist)
        return [InsertBuffer(gate=gate.name, pin=gate.cell.inputs[0],
                             delay=40.0)]
    if kind == "level-boundary":
        # One edit on the very first level, one on the very last, in a
        # single batch: the dirty set must stay correct at both seams.
        lev = levelize(netlist)
        first = netlist.instances[lev.levels[0][0]]
        last = netlist.instances[lev.levels[-1][0]]
        edits = [SetPinDelay(gate=first.name, pin=first.cell.inputs[0],
                             rise=23.0, fall=19.0)]
        if last.name != first.name:
            edits.append(SetPinDelay(gate=last.name, pin=last.cell.inputs[0],
                                     rise=31.0, fall=41.0))
        return edits
    raise AssertionError(kind)


def _cold_run(spec, netlist, annotation, edits, stimulus,
              device=None, duration=DURATION):
    """Cold reference: fresh design copies, plain ``Edit.apply``, cold
    compile, full run — what the rerun result must match byte-for-byte."""
    ref_netlist = copy.deepcopy(netlist)
    ref_annotation = copy.deepcopy(annotation)
    for edit in edits:
        edit.apply(ref_netlist, ref_annotation)
    clear_compile_cache()
    session = _session(spec, ref_netlist, ref_annotation, device=device)
    return session.run(stimulus, duration=duration)


def _assert_bit_identical(reference, candidate, context):
    assert reference.toggle_counts == candidate.toggle_counts, (
        f"{context}: toggle counts diverge on "
        f"{reference.differing_nets(candidate)}"
    )
    assert set(reference.waveforms) == set(candidate.waveforms), context
    for net in reference.waveforms:
        assert reference.waveforms[net] == candidate.waveforms[net], (
            f"{context}: waveform diverges on net {net!r}"
        )


# ======================================================================
# Core differential matrix: rerun vs cold run, per spec / device / edit
# ======================================================================
@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("kind", EDIT_KINDS)
@pytest.mark.parametrize("spec", SPECS)
def test_rerun_matches_cold_run(spec, kind, device):
    netlist, annotation = _prepare_design(seed=3)
    stimulus = build_random_stimulus(netlist, DURATION, seed=17)
    edits = _build_edits(netlist, kind)
    reference = _cold_run(spec, netlist, annotation, edits, stimulus,
                          device=device)

    session = _session(spec, netlist, annotation, device=device)
    session.run(stimulus, duration=DURATION)
    result = session.rerun(edits, stimulus=stimulus, duration=DURATION)

    _assert_bit_identical(reference, result, f"{spec} {kind} {device}")
    if kind in NON_STRUCTURAL_KINDS:
        assert result.stats.incremental, f"{spec} {kind}: expected partial run"
        assert 0 < result.stats.dirty_gates < len(list(
            netlist.combinational_instances()
        ))
        assert 0.0 < result.stats.dirty_fraction < 1.0


@pytest.mark.parametrize("spec", SPECS)
def test_undo_round_trip_restores_baseline(spec):
    """rerun(edits) then rerun(undo) is bit-identical to the baseline and
    returns the journal (and hence the compile key) to the base design."""
    netlist, annotation = _prepare_design(seed=5)
    stimulus = build_random_stimulus(netlist, DURATION, seed=55)
    base_netlist_fp = fingerprint_netlist(netlist)
    base_annotation_fp = fingerprint_annotation(annotation, netlist)

    session = _session(spec, netlist, annotation)
    baseline = session.run(stimulus, duration=DURATION)

    edits = _build_edits(netlist, "insert-buffer") + _build_edits(
        netlist, "pin-delay"
    )
    session.rerun(edits, stimulus=stimulus, duration=DURATION)
    receipt = session.last_edit_receipt
    assert receipt is not None and len(receipt.edits) == len(edits)

    restored = session.rerun(
        receipt.undo_edits, stimulus=stimulus, duration=DURATION
    )
    _assert_bit_identical(baseline, restored, f"{spec} undo round trip")
    # The design objects are byte-identical to the pre-edit state ...
    assert fingerprint_netlist(netlist) == base_netlist_fp
    assert fingerprint_annotation(annotation, netlist) == base_annotation_fp
    # ... and the inserted buffer is gone again.
    assert not any("glitchfix" in name for name in netlist.instances)


@pytest.mark.parametrize("spec", ("gatspi", ORACLE))
def test_empty_edit_rerun_is_noop(spec):
    netlist, annotation = _prepare_design(seed=7)
    stimulus = build_random_stimulus(netlist, DURATION, seed=70)
    session = _session(spec, netlist, annotation)
    baseline = session.run(stimulus, duration=DURATION)
    result = session.rerun([], stimulus=stimulus, duration=DURATION)
    _assert_bit_identical(baseline, result, f"{spec} empty rerun")
    assert result.stats.incremental
    assert result.stats.dirty_gates == 0
    assert result.stats.dirty_fraction == 0.0


def test_journal_chained_compile_key_round_trip():
    """Apply -> undo cancels the journal tail-first, so the compile key
    chains away from the base and comes back to it exactly."""
    netlist, annotation = _prepare_design(seed=9)
    stimulus = build_random_stimulus(netlist, DURATION, seed=90)
    session = _session("gatspi", netlist, annotation)
    session.run(stimulus, duration=DURATION)
    engine = session.engine

    base_key = derive_compile_key("base", engine.journal)
    assert base_key == "base"

    edits = _build_edits(netlist, "pin-delay")
    receipt = session.apply_edits(edits)
    edited_key = derive_compile_key("base", engine.journal)
    assert edited_key != "base" and edited_key.startswith("base~eco:")

    session.apply_edits(receipt.undo_edits)
    assert derive_compile_key("base", engine.journal) == "base"


# ======================================================================
# Analysis gating on rerun
# ======================================================================
class TestAnalysisGating:
    def test_strict_mode_rejects_and_rolls_back(self):
        netlist, annotation = _prepare_design(seed=11)
        stimulus = build_random_stimulus(netlist, DURATION, seed=110)
        base_fp = fingerprint_annotation(annotation, netlist)
        session = _session(
            "gatspi", netlist, annotation,
            config=SimConfig(analysis="strict"),
        )
        baseline = session.run(stimulus, duration=DURATION)

        gate = _gate_with_inputs(netlist)
        bad = SetPinDelay(gate=gate.name, pin=gate.cell.inputs[0],
                          rise=-5.0, fall=-5.0)
        with pytest.raises(DesignAnalysisError):
            session.rerun([bad], stimulus=stimulus, duration=DURATION)

        # Rolled back: annotation unchanged, journal at base, and the
        # session still reruns cleanly from the baseline state.
        assert fingerprint_annotation(annotation, netlist) == base_fp
        assert derive_compile_key("k", session.engine.journal) == "k"
        again = session.rerun([], stimulus=stimulus, duration=DURATION)
        _assert_bit_identical(baseline, again, "post-rollback rerun")

    def test_strict_mode_rejects_on_sharded(self):
        netlist, annotation = _prepare_design(seed=11)
        stimulus = build_random_stimulus(netlist, DURATION, seed=110)
        session = _session(
            "gatspi", netlist, annotation,
            config=SimConfig(analysis="strict"),
        )
        session.run(stimulus, duration=DURATION)
        gate = _gate_with_inputs(netlist)
        bad = SetPinDelay(gate=gate.name, pin=gate.cell.inputs[0],
                          rise=-3.0, fall=-3.0)
        with pytest.raises(DesignAnalysisError):
            session.rerun([bad], stimulus=stimulus, duration=DURATION)
        assert not any(
            "glitchfix" in name for name in netlist.instances
        )

    def test_warn_mode_warns_and_applies(self):
        netlist, annotation = _prepare_design(seed=13)
        stimulus = build_random_stimulus(netlist, DURATION, seed=130)
        session = _session("gatspi", netlist, annotation)  # default: warn
        session.run(stimulus, duration=DURATION)
        gate = _gate_with_inputs(netlist)
        bad = SetPinDelay(gate=gate.name, pin=gate.cell.inputs[0],
                          rise=-2.0, fall=-2.0)
        with pytest.warns(AnalysisWarning):
            session.rerun([bad], stimulus=stimulus, duration=DURATION)
        # Warn mode keeps the edit applied; undo restores it.
        receipt = session.last_edit_receipt
        session.apply_edits(receipt.undo_edits)

    def test_delay_only_edits_skip_structural_rules(self):
        """A delay-only rerun must not re-run structural rules: only the
        negative-delay rule is evaluated (satellite b's gating contract)."""
        netlist, annotation = _prepare_design(seed=13)
        stimulus = build_random_stimulus(netlist, DURATION, seed=130)
        session = _session("gatspi", netlist, annotation)
        session.run(stimulus, duration=DURATION)
        gate = _gate_with_inputs(netlist)
        good = SetPinDelay(gate=gate.name, pin=gate.cell.inputs[0],
                           rise=8.0, fall=8.0)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", AnalysisWarning)
            session.rerun([good], stimulus=stimulus, duration=DURATION)


# ======================================================================
# Glitch-ECO flow equivalence (satellite a)
# ======================================================================
class TestFlowEquivalence:
    def test_flow_leaves_design_untouched_and_matches_cold_replay(self):
        from repro.bench import designs
        from repro.opt import GlitchOptimizationFlow
        from repro.waveforms import TestbenchSpec, stimulus_for_netlist

        netlist = designs.array_multiplier(bits=4)
        delays = SyntheticDelayModel(seed=9, wire_delay_range=(0, 1)).build(
            netlist
        )
        annotation = annotation_from_design_delays(netlist, delays)
        spec = TestbenchSpec(name="mult", cycles=30, activity_factor=0.6,
                             seed=9)
        stimulus = stimulus_for_netlist(netlist, spec, kind="random")
        config = SimConfig(clock_period=1000, cycle_parallelism=2)

        base_netlist_fp = fingerprint_netlist(netlist)
        base_annotation_fp = fingerprint_annotation(annotation, netlist)

        flow = GlitchOptimizationFlow(
            netlist, annotation=annotation, config=config
        )
        outcome = flow.run(stimulus, cycles=spec.cycles, max_gates_to_fix=10)
        assert outcome.fixes, "expected the multiplier to need fixes"

        # The caller's design is restored byte-for-byte.
        assert fingerprint_netlist(netlist) == base_netlist_fp
        assert fingerprint_annotation(annotation, netlist) == base_annotation_fp

        # Replaying the recorded fixes on a cold copy (the old
        # deepcopy-based flow, in effect) reproduces the optimized run.
        work_netlist = copy.deepcopy(netlist)
        work_annotation = copy.deepcopy(annotation)
        for fix in outcome.fixes:
            InsertBuffer(
                gate=fix.gate, pin=fix.pin, delay=fix.added_delay,
                buffer_name=fix.inserted_buffer,
            ).apply(work_netlist, work_annotation)
        clear_compile_cache()
        session = _session("gatspi", work_netlist, work_annotation,
                           config=config)
        replay = session.run(stimulus, cycles=spec.cycles)

        from repro.api import get_backend
        from repro.power import PowerModel, analyze_glitches

        functional = get_backend("zero-delay").prepare(
            work_netlist, annotation=work_annotation, config=config
        ).run(stimulus, duration=spec.cycles * config.clock_period)
        replay_glitch = analyze_glitches(
            work_netlist, replay, functional.toggle_counts,
            PowerModel(work_netlist),
        )
        assert (
            replay_glitch.total_glitch_toggles
            == outcome.optimized_glitch.total_glitch_toggles
        )
        assert replay_glitch.total_power.total_w == pytest.approx(
            outcome.optimized_power.total_w
        )


# ======================================================================
# Serve-layer delta requests (tentpole consumer rewire)
# ======================================================================
class TestServeDeltas:
    CONFIG = SimConfig(clock_period=500, cycle_parallelism=4)

    def _full_request(self, netlist, annotation, stimulus, tag=None):
        return ServeRequest(
            netlist=netlist, stimulus=stimulus, annotation=annotation,
            config=self.CONFIG, duration=DURATION, tag=tag,
        )

    def test_delta_request_matches_cold_edited_run(self):
        netlist, annotation = _prepare_design(seed=21, num_gates=24)
        stimulus = build_random_stimulus(netlist, DURATION, seed=210)
        edits = _build_edits(netlist, "pin-delay")
        reference = _cold_run(
            "gatspi", netlist, annotation, edits, stimulus
        )
        clear_compile_cache()
        with SimulationService(max_workers=1) as service:
            base = service.run(
                self._full_request(netlist, annotation, stimulus)
            )
            delta = service.run(ServeRequest(
                base_key=base.session_key, edits=tuple(edits),
                stimulus=stimulus, duration=DURATION, tag="eco",
            ))
            _assert_bit_identical(reference, delta.result, "serve delta")
            assert delta.tag == "eco"
            assert delta.session_reused
            # The shared session was restored to the base design: a
            # repeat full request reproduces the baseline bit-for-bit.
            repeat = service.run(
                self._full_request(netlist, annotation, stimulus)
            )
            _assert_bit_identical(
                base.result, repeat.result, "base restored after delta"
            )

    def test_unknown_base_key_rejected(self):
        with SimulationService(max_workers=1) as service:
            with pytest.raises(UnknownBaseDesignError):
                service.run(ServeRequest(
                    base_key="no-such-session", edits=(),
                    duration=DURATION,
                ))

    def test_full_and_delta_fields_are_exclusive(self):
        netlist, annotation = _prepare_design(seed=22, num_gates=24)
        stimulus = build_random_stimulus(netlist, DURATION, seed=220)
        with SimulationService(max_workers=1) as service:
            with pytest.raises(ValueError):
                service.submit(ServeRequest(
                    netlist=netlist, stimulus=stimulus,
                    annotation=annotation, base_key="also-a-base",
                    duration=DURATION,
                ))
            with pytest.raises(ValueError):
                service.submit(ServeRequest(stimulus=stimulus,
                                            duration=DURATION))
