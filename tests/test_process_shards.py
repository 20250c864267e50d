"""Tests for GIL-free process shards and the shared-memory design export.

``gatspi-sharded`` with ``workers="process"`` runs window-axis shares on
spawned worker processes that attach the packed design tensors from a
``multiprocessing.shared_memory`` segment (:mod:`repro.core.shm`).  The
contract under test:

* process shards are **bit-identical** to in-parent shards (and therefore
  to single-session ``gatspi``) at every shard count;
* the shared segment's lifecycle is leak-free — exported once, attached by
  every worker, unlinked exactly once by ``close()`` and accounted for in
  the module registry;
* the mode's guard rails hold: host-only device, no in-place edits,
  malformed ``workers`` specs rejected at prepare time.
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory

import numpy as np
import pytest

from repro.api import resolve_backend
from repro.core import SimConfig
from repro.core import shm as design_shm
from repro.core.edits import SetPinDelay
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.testing import build_random_netlist, build_random_stimulus

DURATION = 8_000
CONFIG = SimConfig(clock_period=500, cycle_parallelism=8)


@pytest.fixture(scope="module")
def design():
    netlist = build_random_netlist(num_inputs=6, num_gates=24, seed=51)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=51).build(netlist)
    )
    stimulus = build_random_stimulus(netlist, DURATION, seed=510)
    return netlist, annotation, stimulus


def _prepare(design, spec):
    netlist, annotation, _ = design
    backend, options = resolve_backend(spec)
    return backend.prepare(
        netlist, annotation=annotation, config=CONFIG, **options
    )


def _assert_bit_identical(reference, candidate, label):
    assert candidate.toggle_counts == reference.toggle_counts, label
    assert set(candidate.waveforms) == set(reference.waveforms), label
    for net, wave in reference.waveforms.items():
        assert np.array_equal(
            candidate.waveforms[net].data, wave.data
        ), f"{label}: waveform {net!r}"


# ----------------------------------------------------------------------
# Bit-identity: process shards vs in-parent shards
# ----------------------------------------------------------------------
@pytest.mark.concurrency
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_process_shards_bit_identical_to_thread_shards(design, shards):
    """Every shard count merges to the in-parent result bit for bit.

    ``workers="process:2"`` pins the pool width and keeps the full
    partition count, so real multi-process sharding is exercised
    regardless of the host's core count; ``shards=1`` covers the
    in-parent passthrough, which must not spawn a pool at all.
    """
    _, _, stimulus = design
    parent_session = _prepare(design, f"gatspi-sharded:shards={shards}")
    process_session = _prepare(
        design, f"gatspi-sharded:shards={shards},workers=process:2"
    )
    try:
        assert parent_session.worker_count == 0
        assert process_session.worker_count == min(shards, 2)
        assert process_session.shard_count == shards
        reference = parent_session.run(stimulus, duration=DURATION)
        candidate = process_session.run(stimulus, duration=DURATION)
        assert candidate.stats.shards == shards
        if shards == 1:
            assert process_session.engine._process_pool is None
        _assert_bit_identical(reference, candidate, f"shards={shards}")
    finally:
        process_session.close()


@pytest.mark.concurrency
def test_adaptive_process_width_never_exceeds_the_machine(design):
    """``workers="process"`` partitions only as wide as the core count.

    Per-share overheads are only worth paying for shares that actually
    run in parallel.  On a
    single-core host this degrades to the passthrough (no pool, no
    segment) while staying bit-identical to single-session gatspi.
    """
    netlist, annotation, stimulus = design
    session = _prepare(design, "gatspi-sharded:shards=4,workers=process")
    try:
        expected = max(1, min(4, os.cpu_count() or 1))
        assert session.shard_count == expected
        assert session.worker_count == expected
        candidate = session.run(stimulus, duration=DURATION)
        single = resolve_backend("gatspi")[0].prepare(
            netlist,
            annotation=annotation,
            config=CONFIG.with_updates(store_waveforms=True),
        )
        reference = single.run(stimulus, duration=DURATION)
        _assert_bit_identical(reference, candidate, "adaptive process mode")
    finally:
        session.close()


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------
@pytest.mark.concurrency
def test_no_leaked_segments_after_close(design, monkeypatch):
    """close() unlinks the one exported segment and empties the registry.

    The unregister spy pins the cleanup to the resource tracker: the
    owner's unlink must withdraw the segment's registration (one entry,
    withdrawn once — workers share the parent's tracker, so their
    attachments add nothing to clean up).
    """
    _, _, stimulus = design
    unregistered = []
    original = resource_tracker.unregister

    def spy(name, rtype):
        unregistered.append((name, rtype))
        original(name, rtype)

    monkeypatch.setattr(resource_tracker, "unregister", spy)
    session = _prepare(design, "gatspi-sharded:shards=2,workers=process:2")
    before = design_shm.active_segment_names()
    session.run(stimulus, duration=DURATION)
    exported = [
        name for name in design_shm.active_segment_names()
        if name not in before
    ]
    assert len(exported) == 1
    segment = exported[0]
    session.close()
    assert segment not in design_shm.active_segment_names()
    assert any(name.lstrip("/") == segment for name, _ in unregistered)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=segment)
    # A second close is a no-op.
    session.close()


def test_export_attach_round_trip_preserves_every_tensor(design):
    """In-process attach rebuilds byte-equal, read-only design tensors."""
    netlist, annotation, _ = design
    single = resolve_backend("gatspi")[0].prepare(
        netlist, annotation=annotation, config=CONFIG
    )
    packed = single.engine.packed_design
    shared = design_shm.export_packed_design(packed)
    try:
        attachment = design_shm.attach_packed_design(shared.manifest)
        rebuilt = attachment.packed
        assert np.array_equal(rebuilt.tt_flat, packed.tt_flat)
        assert np.array_equal(rebuilt.delay_flat, packed.delay_flat)
        assert rebuilt.net_index == dict(packed.net_index)
        assert len(rebuilt.levels) == len(packed.levels)
        for mine, theirs in zip(rebuilt.levels, packed.levels):
            assert mine.gate_names == theirs.gate_names
            for field_name in design_shm.LEVEL_ARRAY_FIELDS:
                ours = getattr(mine, field_name)
                assert np.array_equal(ours, getattr(theirs, field_name))
                assert not ours.flags.writeable
        attachment.detach()
    finally:
        shared.close()
    assert shared.name not in design_shm.active_segment_names()


def test_export_rejects_device_resident_designs(design):
    """Device tensors have no shared-memory form — export must refuse."""
    from dataclasses import replace

    netlist, annotation, _ = design
    single = resolve_backend("gatspi")[0].prepare(
        netlist, annotation=annotation, config=CONFIG
    )
    on_device = replace(single.engine.packed_design, device="torch")
    with pytest.raises(design_shm.ShmError, match="numpy"):
        design_shm.export_packed_design(on_device)


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------
def test_process_mode_requires_the_numpy_device(design):
    netlist, annotation, _ = design
    backend, _ = resolve_backend("gatspi-sharded")
    with pytest.raises(ValueError, match="numpy"):
        backend.prepare(
            netlist,
            annotation=annotation,
            config=CONFIG.with_updates(device="torch"),
            workers="process",
        )


def test_process_mode_rejects_in_place_edits(design):
    """Worker engines cannot be re-synced, so edits must fail loudly."""
    netlist, _, stimulus = design
    session = _prepare(design, "gatspi-sharded:shards=2,workers=process:2")
    try:
        gate = next(
            instance for instance in netlist.instances.values()
            if instance.cell.inputs
        )
        edit = SetPinDelay(
            gate=gate.name, pin=gate.cell.inputs[0], rise=7.0, fall=9.0
        )
        with pytest.raises(NotImplementedError, match="process-shard"):
            session.apply_edits([edit])
        with pytest.raises(NotImplementedError, match="process-shard"):
            session.rerun([edit], stimulus=stimulus, duration=DURATION)
    finally:
        session.close()


@pytest.mark.parametrize("spec_workers", ["fork", "process:zero", "process:0"])
def test_malformed_worker_specs_rejected(design, spec_workers):
    netlist, annotation, _ = design
    backend, _ = resolve_backend("gatspi-sharded")
    with pytest.raises(ValueError):
        backend.prepare(
            netlist, annotation=annotation, config=CONFIG, workers=spec_workers
        )
