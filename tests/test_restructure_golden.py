"""Golden-file regression tests for restructure slicing and stitching.

``tests/data/restructure_golden.json`` freezes the exact Fig. 3 arrays —
including the ``EOW`` sentinel and initial-value-1 markers — that the
restructure step must produce when slicing canonical waveforms into
cycle-parallel windows, that stitching must produce when reassembling
per-window outputs (including ``window_overlap`` seams and propagation
tails), and that the engine must produce end to end on a small hand-built
design.  Both the per-object reference pipeline (``OracleEngine``) and the
vectorized pipeline (``GatspiEngine``) are held to the same golden bytes,
so a regression in either — or a silent divergence between them — fails
loudly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import NetlistBuilder
from repro.core import SimConfig, Waveform, WaveformPool
from repro.core.engine import GatspiEngine, _WindowRange
from repro.core.restructure import (
    lower_stimulus,
    slice_windows,
    stitch_windows,
)
from repro.core.xp import available_array_backends, get_array_backend
from repro.reference.oracle_engine import OracleEngine, _stitch
from repro.sdf import UnitDelayModel, annotation_from_design_delays
from settle_margin import pinned_overlap

GOLDEN_PATH = Path(__file__).parent / "data" / "restructure_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: Array backends the device-threaded paths are held to the same golden
#: bytes on (numpy always; torch/cupy auto-included when importable).
DEVICES = available_array_backends()


def _case_ids(cases):
    return [case["name"] for case in cases]


# ----------------------------------------------------------------------
# Window slicing
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "case", GOLDEN["slice_cases"], ids=_case_ids(GOLDEN["slice_cases"])
)
def test_reference_window_slicing_matches_golden(case):
    """``Waveform.window`` (the reference slicer) reproduces the fixtures."""
    wave = Waveform.from_array(case["source"])
    for (start, end), expected in zip(case["windows"], case["expected"]):
        assert wave.window(start, end, rebase=True).to_list() == expected, (
            f"{case['name']}: window [{start}, {end})"
        )


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize(
    "case", GOLDEN["slice_cases"], ids=_case_ids(GOLDEN["slice_cases"])
)
def test_vectorized_slice_and_load_matches_golden(case, device):
    """The lowered-event slicer + bulk pool load store the same bytes.

    The slices go through ``lower_stimulus`` → ``slice_windows`` →
    ``WaveformPool.load_windows`` and are read back from the pool, so the
    fixture pins the full vectorized restructure/load path — including the
    stored ``EOW`` terminators and markers — on every array backend.
    """
    xp = get_array_backend(device)
    wave = Waveform.from_array(case["source"])
    events = lower_stimulus(("s",), {"s": wave}).to_device(xp)
    starts = xp.asarray([w[0] for w in case["windows"]], dtype=xp.int64)
    ends = xp.asarray([w[1] for w in case["windows"]], dtype=xp.int64)
    slices = slice_windows(events, starts, ends, xp=xp)
    pool = WaveformPool(1 << 16, xp=xp)
    window_indices = list(range(len(case["windows"])))
    pool.load_windows(
        ("s",),
        window_indices,
        slices.initial_values,
        events.times,
        slices.starts,
        slices.counts,
        starts,
    )
    for index, expected in enumerate(case["expected"]):
        assert pool.read_waveform("s", index).to_list() == expected, (
            f"{case['name']}: window {index}"
        )


# ----------------------------------------------------------------------
# Stitching
# ----------------------------------------------------------------------
def _stitch_arrays(case):
    window_starts = np.asarray(case["window_starts"], dtype=np.int64)
    establish = np.asarray(
        [w["establish"] for w in case["windows"]], dtype=np.int64
    )
    counts = np.asarray(
        [len(w["toggles_local"]) for w in case["windows"]], dtype=np.int64
    )
    times = np.asarray(
        [
            t + start
            for w, start in zip(case["windows"], case["window_starts"])
            for t in w["toggles_local"]
        ],
        dtype=np.int64,
    )
    return window_starts, establish, counts, times


@pytest.mark.parametrize(
    "case", GOLDEN["stitch_cases"], ids=_case_ids(GOLDEN["stitch_cases"])
)
def test_vectorized_stitching_matches_golden(case):
    window_starts, establish, counts, times = _stitch_arrays(case)
    stitched = stitch_windows(window_starts, establish, counts, times)
    assert stitched.to_list() == case["expected"], case["name"]


@pytest.mark.parametrize(
    "case", GOLDEN["stitch_cases"], ids=_case_ids(GOLDEN["stitch_cases"])
)
def test_reference_stitching_matches_golden(case):
    """The oracle's sequential ``_stitch`` agrees with the same fixtures."""
    windows = [
        _WindowRange(index=i, start=start, end=start)
        for i, start in enumerate(case["window_starts"])
    ]
    per_window = {
        i: Waveform.from_toggle_array(w["establish"], w["toggles_local"])
        for i, w in enumerate(case["windows"])
    }
    stitched = _stitch(per_window, windows)
    assert stitched.to_list() == case["expected"], case["name"]


# ----------------------------------------------------------------------
# End to end through the engine
# ----------------------------------------------------------------------
def _golden_netlist():
    builder = NetlistBuilder("golden_small")
    a = builder.input("a")
    b = builder.input("b")
    n1 = builder.gate("NAND2", [a, b], name="u_nand")
    n2 = builder.gate("INV", [n1], name="u_inv")
    builder.output("y")
    builder.gate("XOR2", [n1, n2], output_net="y", name="u_xor")
    return builder.build()


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize(
    "case", GOLDEN["engine_cases"], ids=_case_ids(GOLDEN["engine_cases"])
)
@pytest.mark.parametrize("restructure", ["python", "vector"])
def test_engine_waveforms_match_golden(case, restructure, device):
    """Full simulations reproduce the frozen waveforms in both pipelines.

    Covers the settle-margin trim (``default_overlap``), propagation
    tails with the margin disabled (``zero_overlap_keeps_tails``), and a
    deliberately undersized margin (``tiny_overlap``) whose seam
    artifacts the stitch rules must resolve exactly as frozen.  The
    vector pipeline runs on every available array backend (the python
    reference pipeline, ``OracleEngine``, pins numpy at construction).
    A case's ``window_overlap`` pins the margin through an engine
    subclass (:mod:`settle_margin`); without one it is derived.
    """
    netlist = _golden_netlist()
    annotation = annotation_from_design_delays(
        netlist, UnitDelayModel(delay=10).build(netlist)
    )
    stimulus = {
        net: Waveform.from_array(arr) for net, arr in case["stimulus"].items()
    }
    fields = dict(case["config"])
    overlap = fields.pop("window_overlap", None)
    config = SimConfig(device=device, **fields)
    engine_class = pinned_overlap(
        {"python": OracleEngine, "vector": GatspiEngine}[restructure], overlap
    )
    engine = engine_class(netlist, annotation=annotation, config=config)
    result = engine.simulate(stimulus, duration=case["duration"])
    assert result.stats.restructure_mode == restructure
    assert dict(sorted(result.toggle_counts.items())) == (
        case["expected_toggle_counts"]
    ), case["name"]
    assert sorted(result.waveforms) == sorted(case["expected_waveforms"])
    for net, expected in case["expected_waveforms"].items():
        assert result.waveforms[net].to_list() == expected, (
            f"{case['name']}: net {net!r} ({restructure})"
        )


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_backend_matches_engine_golden(shards):
    """``gatspi:workers=process:N`` reproduces the frozen waveforms.

    Covers the ``default_overlap`` fixture only: its settle margin is
    derived from the critical path, which is the invariant that makes
    the merged result partition-independent.  The other engine fixtures
    deliberately pin insufficient margins (``window_overlap`` 0 / 5), so
    their frozen bytes encode *single-partition* seam artifacts and are
    not shard-invariant by construction.
    """
    from repro.api import resolve_backend

    case = next(
        c for c in GOLDEN["engine_cases"] if c["name"] == "default_overlap"
    )
    netlist = _golden_netlist()
    annotation = annotation_from_design_delays(
        netlist, UnitDelayModel(delay=10).build(netlist)
    )
    stimulus = {
        net: Waveform.from_array(arr) for net, arr in case["stimulus"].items()
    }
    backend, options = resolve_backend(f"gatspi:workers=process:{shards}")
    session = backend.prepare(
        netlist, annotation=annotation, config=SimConfig(**case["config"]),
        **options,
    )
    try:
        result = session.run(stimulus, duration=case["duration"])
    finally:
        session.close()
    assert result.stats.shards == min(shards, result.stats.windows)
    assert dict(sorted(result.toggle_counts.items())) == (
        case["expected_toggle_counts"]
    )
    for net, expected in case["expected_waveforms"].items():
        assert result.waveforms[net].to_list() == expected, (
            f"shards={shards}: net {net!r}"
        )
