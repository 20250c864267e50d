"""Tests for GIL-free process workers and the shared-memory design export.

``gatspi`` with ``workers="process:N"`` runs its window list as groups on
spawned worker processes that attach the packed design tensors from a
``multiprocessing.shared_memory`` segment (:mod:`repro.core.shm`).  The
contract under test:

* process workers are **bit-identical** to plain ``gatspi`` at every
  worker count;
* the shared segment's lifecycle is leak-free — exported once, attached by
  every worker, unlinked exactly once by ``close()`` and accounted for in
  the module registry — and a dead worker costs one run, not the session;
* the mode's guard rails hold: host-only device, no in-place edits,
  malformed ``workers`` specs rejected at prepare time.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
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


def _prepare(design, spec, config=CONFIG):
    netlist, annotation, _ = design
    backend, options = resolve_backend(spec)
    return backend.prepare(
        netlist, annotation=annotation, config=config, **options
    )


def _assert_bit_identical(reference, candidate, label):
    assert candidate.toggle_counts == reference.toggle_counts, label
    assert set(candidate.waveforms) == set(reference.waveforms), label
    for net, wave in reference.waveforms.items():
        assert np.array_equal(
            candidate.waveforms[net].data, wave.data
        ), f"{label}: waveform {net!r}"


# ----------------------------------------------------------------------
# Bit-identity: process workers vs plain gatspi
# ----------------------------------------------------------------------
@pytest.mark.concurrency
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_process_shards_bit_identical_to_thread_shards(design, workers):
    """Every worker count merges to the plain ``gatspi`` result bit for bit.

    (The name is historical: the reference used to be in-parent groups.)
    One group per worker; ``workers=process:1`` is the engine's own step,
    which must not spawn a pool at all.
    """
    _, _, stimulus = design
    reference = _prepare(design, "gatspi").run(stimulus, duration=DURATION)
    session = _prepare(design, f"gatspi:workers=process:{workers}")
    try:
        assert session.engine.process_workers == workers
        candidate = session.run(stimulus, duration=DURATION)
        assert candidate.stats.shards == workers
        if workers == 1:
            assert session.engine._workers is None
        _assert_bit_identical(reference, candidate, f"workers={workers}")
    finally:
        session.close()


@pytest.mark.concurrency
def test_adaptive_process_width_never_exceeds_the_machine(design, monkeypatch):
    """Bare ``workers="process"`` is one worker per core."""
    netlist, annotation, stimulus = design
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    session = _prepare(design, "gatspi:workers=process")
    try:
        assert session.engine.process_workers == 3
        candidate = session.run(stimulus, duration=DURATION)
        assert candidate.stats.shards == 3
        single = resolve_backend("gatspi")[0].prepare(
            netlist,
            annotation=annotation,
            config=CONFIG.with_updates(store_waveforms=True),
        )
        reference = single.run(stimulus, duration=DURATION)
        _assert_bit_identical(reference, candidate, "adaptive process mode")
    finally:
        session.close()


@pytest.mark.concurrency
def test_stats_shards_counts_the_groups_run(design):
    """``stats.shards`` is the number of window groups a run used."""
    _, _, stimulus = design
    three_windows = CONFIG.with_updates(cycle_parallelism=3)
    session = _prepare(design, "gatspi:workers=process:4", config=three_windows)
    try:
        # A whole run: one group per window when workers outnumber them.
        assert session.run(stimulus, duration=DURATION).stats.shards == 3
        # A stream: chunks are pipelined across every worker.
        streamed = session.run_stream(stimulus, duration=DURATION, chunk_cycles=4)
        assert streamed.stats.shards == 4
    finally:
        session.close()
    for spec in ("gatspi", "gatspi:workers=process:1"):
        plain = _prepare(design, spec)
        assert plain.run(stimulus, duration=DURATION).stats.shards == 1, spec
        assert plain.run_stream(stimulus, duration=DURATION).stats.shards == 1
        assert plain.engine._workers is None


@pytest.mark.concurrency
def test_dead_worker_costs_one_run_not_the_session(design):
    """A killed worker breaks one run; the engine then releases the broken
    pool and its segment, so the next run spawns a fresh pool."""
    _, _, stimulus = design
    reference = _prepare(design, "gatspi").run(stimulus, duration=DURATION)
    before = set(design_shm.active_segment_names())
    session = _prepare(design, "gatspi:workers=process:2")
    try:
        session.run(stimulus, duration=DURATION)
        executor = session.engine._workers.executor
        os.kill(next(iter(executor._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 60
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            session.run(stimulus, duration=DURATION)
        assert session.engine._workers is None
        recovered = session.run(stimulus, duration=DURATION)
        assert recovered.stats.shards == 2
        _assert_bit_identical(reference, recovered, "after a dead worker")
    finally:
        session.close()
    assert set(design_shm.active_segment_names()) <= before


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
    session = _prepare(design, "gatspi:workers=process:2")
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
    backend, _ = resolve_backend("gatspi")
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
    session = _prepare(design, "gatspi:workers=process:2")
    try:
        gate = next(
            instance for instance in netlist.instances.values()
            if instance.cell.inputs
        )
        edit = SetPinDelay(
            gate=gate.name, pin=gate.cell.inputs[0], rise=7.0, fall=9.0
        )
        with pytest.raises(NotImplementedError, match="process-worker"):
            session.apply_edits([edit])
        with pytest.raises(NotImplementedError, match="process-worker"):
            session.rerun([edit], stimulus=stimulus, duration=DURATION)
    finally:
        session.close()


@pytest.mark.parametrize("spec_workers", ["fork", "process:zero", "process:0"])
def test_malformed_worker_specs_rejected(design, spec_workers):
    netlist, annotation, _ = design
    backend, _ = resolve_backend("gatspi")
    with pytest.raises(ValueError):
        backend.prepare(
            netlist, annotation=annotation, config=CONFIG, workers=spec_workers
        )
