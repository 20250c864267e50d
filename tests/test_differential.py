"""Cross-backend differential harness over randomized netlists and stimuli.

Every test drives the same seeded-random workload through several engine
variants and checks they agree:

* ``gatspi`` (the array pipeline: bulk restructure/load/readback around
  the level-batched kernel — the only executor in the production engine),
* ``gatspi-oracle`` (:class:`~repro.reference.oracle_engine.OracleEngine`:
  the same plans run per (net, window) Waveform object and per (gate,
  window) scalar kernel call),
* ``event`` (the event-driven commercial-simulator stand-in).

Among gatspi variants the contract is **bit-identical waveforms**; against
the event-driven baseline it is the paper's SAIF accuracy criterion
(identical per-net toggle counts).  The stimuli target the seams the
vectorized restructure/load/readback pipeline must preserve: mixed gate
arities, events exactly on window boundaries, settle-overlap edge cases,
pool-overflow segment splits, and empty windows.

The suite is additionally parametrized over every available array backend
(:mod:`repro.core.xp`): the array pipeline executes on the parametrized
device while the oracle engine pins numpy at construction, so each
device's data plane is held bit-identical to the host oracle.  With only
numpy installed the device axis has one value; installing torch/cupy
widens it automatically.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import resolve_backend
from repro.core import SimConfig, Waveform, plan_shards
from repro.core.xp import available_array_backends
from repro.sdf import (
    SyntheticDelayModel,
    UnitDelayModel,
    annotation_from_design_delays,
)
from repro.testing import (
    build_boundary_stimulus,
    build_random_netlist,
    build_random_stimulus,
    build_sparse_stimulus,
)

DURATION = 24_000

#: The gatspi engines that must produce bit-identical waveforms: the
#: production array pipeline and the per-object reference oracle.
GATSPI_SPECS = ("gatspi", "gatspi-oracle")

#: Array backends the vector pipeline is exercised on (numpy always;
#: torch/cupy auto-included when importable).
DEVICES = available_array_backends()


def _prepare_design(seed: int, num_inputs: int = 6, num_gates: int = 36):
    netlist = build_random_netlist(
        num_inputs=num_inputs, num_gates=num_gates, seed=seed
    )
    delays = SyntheticDelayModel(seed=seed).build(netlist)
    annotation = annotation_from_design_delays(netlist, delays)
    return netlist, annotation


def _run(
    spec: str,
    netlist,
    annotation,
    stimulus,
    config=None,
    duration=DURATION,
    device=None,
):
    backend, options = resolve_backend(spec)
    if device is not None and spec.startswith("gatspi"):
        config = (config or SimConfig()).with_updates(device=device)
    session = backend.prepare(
        netlist, annotation=annotation, config=config, **options
    )
    return session.run(stimulus, duration=duration)


def _variant_results(netlist, annotation, stimulus, device, config=None):
    """(reference, {spec: result}) for one device value.

    On ``numpy`` this is the oracle comparison: the array pipeline against
    the ``gatspi-oracle`` reference.  On other devices only the array
    pipeline actually varies (the oracle engine pins numpy), so re-running
    the oracle would duplicate the numpy leg's work for byte-identical
    results; instead the device pipeline is held to the numpy array
    pipeline — which the numpy leg has already proven bit-identical to
    the oracle.
    """
    if device == "numpy":
        results = {
            spec: _run(spec, netlist, annotation, stimulus, config=config,
                       device=device)
            for spec in GATSPI_SPECS
        }
        reference = results.pop("gatspi-oracle")
        return reference, results
    reference = _run("gatspi", netlist, annotation, stimulus, config=config,
                     device="numpy")
    candidate = _run("gatspi", netlist, annotation, stimulus, config=config,
                     device=device)
    return reference, {f"gatspi:device={device}": candidate}


def _oracle_pair(
    netlist, annotation, stimulus, device, config=None, duration=DURATION
):
    """(reference, vector-candidate) for pairwise pipeline comparisons.

    numpy compares the array pipeline against the ``gatspi-oracle``
    engine; other devices compare against the numpy array pipeline (see
    :func:`_variant_results` for why).
    """
    candidate = _run(
        "gatspi", netlist, annotation, stimulus, config=config,
        duration=duration, device=device,
    )
    reference_spec = "gatspi-oracle" if device == "numpy" else "gatspi"
    reference = _run(
        reference_spec, netlist, annotation, stimulus, config=config,
        duration=duration, device="numpy",
    )
    return reference, candidate


def _assert_bit_identical(reference, candidate, context: str):
    assert reference.toggle_counts == candidate.toggle_counts, (
        f"{context}: toggle counts diverge on "
        f"{reference.differing_nets(candidate)}"
    )
    assert set(reference.waveforms) == set(candidate.waveforms), context
    for net in reference.waveforms:
        assert reference.waveforms[net] == candidate.waveforms[net], (
            f"{context}: waveform diverges on net {net!r}: "
            f"{reference.waveforms[net].to_list()[:12]} vs "
            f"{candidate.waveforms[net].to_list()[:12]}"
        )


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("seed", range(6))
def test_gatspi_variants_bit_identical_random_designs(seed, device):
    """The array pipeline and the oracle engine agree bit-for-bit.

    Random designs draw from the full arity mix (1- to 4-input cells) and
    random stimuli cover generic event spacing.  The array pipeline runs
    on ``device``; the oracle pins numpy.
    """
    netlist, annotation = _prepare_design(seed)
    stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 50)
    reference, results = _variant_results(netlist, annotation, stimulus, device)
    candidate = results.get("gatspi", next(iter(results.values())))
    assert candidate.stats.device == device
    for spec, result in results.items():
        _assert_bit_identical(reference, result, f"seed={seed} {spec}")


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("seed", range(3))
def test_launch_count_contract(seed, device):
    """Count → allocate → store costs one kernel execution per level.

    The vector kernel on ``device`` and the scalar+python oracle agree
    bit-for-bit, and both report one launch per level and one invocation
    per (gate, window) task of the unsegmented run — no second (store) pass.
    """
    netlist, annotation = _prepare_design(seed, num_gates=30)
    stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 31)
    vector = _run("gatspi", netlist, annotation, stimulus, device=device)
    scalar = _run("gatspi-oracle", netlist, annotation, stimulus)
    _assert_bit_identical(scalar, vector, f"launch contract seed={seed}")
    for stats in (vector.stats, scalar.stats):
        assert stats.segments == 1
        assert stats.level_batches == stats.levels
        assert stats.kernel_invocations == stats.gate_count * stats.windows


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("seed", range(4))
def test_gatspi_matches_event_baseline_toggle_counts(seed, device):
    """The SAIF criterion against the independent event-driven oracle."""
    netlist, annotation = _prepare_design(seed, num_gates=28)
    stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 9)
    gatspi = _run("gatspi", netlist, annotation, stimulus, device=device)
    event = _run("event", netlist, annotation, stimulus)
    assert gatspi.matches_toggle_counts(event), gatspi.differing_nets(event)


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("seed", range(4))
def test_window_boundary_events(seed, device):
    """Toggles exactly on/±1 around every window boundary.

    cycle_parallelism=8 over DURATION gives a 3000-unit window; the
    boundary stimulus places events at ``k*3000 - 1``, ``k*3000``, and
    ``k*3000 + 1``, the strict/inclusive edges of slicing and trimming.
    """
    netlist, annotation = _prepare_design(seed, num_gates=30)
    config = SimConfig(cycle_parallelism=8)
    window_length = -(-DURATION // config.cycle_parallelism)
    stimulus = build_boundary_stimulus(
        netlist, DURATION, window_length, seed=seed
    )
    reference, results = _variant_results(
        netlist, annotation, stimulus, device, config=config
    )
    for spec, result in results.items():
        _assert_bit_identical(reference, result, f"boundary seed={seed} {spec}")
    # The event-driven baseline is deliberately not consulted here: with
    # many nets toggling at the same timestamp (the point of this
    # stimulus), the two-pass kernel and the event queue resolve
    # simultaneous arrivals differently — a pre-existing engine-vs-event
    # difference independent of windowing (it reproduces at
    # cycle_parallelism=1) and of the restructure pipeline under test.


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("overlap", [None, 0, 1, 7, 5000])
def test_settle_overlap_edge_cases(overlap, device):
    """Window overlap from disabled (0) through tiny to larger-than-window.

    ``overlap=0`` keeps every propagation tail (the stitch seam rules do
    the dedup); a tiny overlap exercises partial settle margins; a margin
    larger than the window length clamps at the run start.  The two
    restructure pipelines must agree bit-for-bit in every regime.
    """
    netlist, annotation = _prepare_design(3)
    stimulus = build_random_stimulus(netlist, DURATION, seed=17)
    config = SimConfig(cycle_parallelism=8, window_overlap=overlap)
    reference, vector = _oracle_pair(netlist, annotation, stimulus, device, config=config)
    _assert_bit_identical(reference, vector, f"overlap={overlap}")


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("seed", range(3))
def test_pool_overflow_segment_splits(seed, device):
    """A pool too small for the full run forces sequential segments.

    The segment queue re-batches windows; both pipelines must keep the
    same segment count and stay bit-identical across the splits.
    """
    netlist, annotation = _prepare_design(seed, num_gates=24)
    stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 5)
    config = SimConfig(cycle_parallelism=16, device_memory_gb=2e-5)
    reference, vector = _oracle_pair(netlist, annotation, stimulus, device, config=config)
    assert vector.stats.segments > 1, "workload must actually split"
    assert vector.stats.segments == reference.stats.segments
    _assert_bit_identical(reference, vector, f"segments seed={seed}")


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("seed", range(3))
def test_empty_windows_and_constant_nets(seed, device):
    """Most windows carry no events; a third of the nets never toggle."""
    netlist, annotation = _prepare_design(seed, num_gates=30)
    stimulus = build_sparse_stimulus(netlist, DURATION, seed=seed)
    reference, results = _variant_results(netlist, annotation, stimulus, device)
    for spec, result in results.items():
        _assert_bit_identical(reference, result, f"sparse seed={seed} {spec}")
    event = _run("event", netlist, annotation, stimulus)
    assert reference.matches_toggle_counts(event)


@pytest.mark.parametrize("bounds", [(0, 6_000), (5_999, 6_001), (3_000, DURATION)])
def test_slice_stimulus_matches_reference_windowing(bounds):
    """The multi-device share slicer equals per-net ``Waveform.window``."""
    from repro.core import slice_stimulus

    netlist, _ = _prepare_design(5)
    window_length = -(-DURATION // 8)
    start, end = bounds
    for stimulus in (
        build_random_stimulus(netlist, DURATION, seed=23),
        build_boundary_stimulus(netlist, DURATION, window_length, seed=24),
    ):
        sliced = slice_stimulus(stimulus, start, end)
        for net, wave in stimulus.items():
            assert sliced[net] == wave.window(start, end, rebase=True), net


@pytest.mark.parametrize("device", DEVICES)
def test_duration_beyond_eow_sentinel(device):
    """Runs longer than the EOW sentinel value stay bit-identical.

    Absolute window starts/ends then exceed ``EOW`` even though every
    event time stays below it (the engine only bounds *window-local*
    times).  The segmented-searchsorted shift stride must cover those
    absolute bounds — with a fixed ``EOW`` stride, queries escaped their
    segment's band and sliced one net's events into another (regression).
    """
    from repro.core import EOW

    netlist, annotation = _prepare_design(2, num_gates=20)
    stimulus = build_random_stimulus(netlist, 20_000, seed=8)
    duration = 3 * EOW
    config = SimConfig(cycle_parallelism=8)
    reference, vector = _oracle_pair(
        netlist, annotation, stimulus, device, config=config, duration=duration
    )
    _assert_bit_identical(reference, vector, "duration beyond EOW")


@pytest.mark.parametrize("device", DEVICES)
def test_differential_without_stored_waveforms(device):
    """Toggle-count-only mode counts seam toggles once, like the oracle.

    Regression: counts-only runs summed the trimmed per-window counts and
    dropped a toggle landing exactly on a window seam (6,405 toggles
    against 6,406 here), in the engine and the per-object oracle alike,
    so only the ``event`` comparison catches it.
    """
    netlist, annotation = _prepare_design(11)
    stimulus = build_random_stimulus(netlist, DURATION, seed=42)
    config = SimConfig(store_waveforms=False, cycle_parallelism=8)
    reference, vector = _oracle_pair(netlist, annotation, stimulus, device, config=config)
    assert not vector.waveforms and not reference.waveforms
    assert vector.toggle_counts == reference.toggle_counts
    event = _run("event", netlist, annotation, stimulus, config=config)
    assert vector.matches_toggle_counts(event), vector.differing_nets(event)


# ----------------------------------------------------------------------
# The window-axis sharded backend vs the single-session pipeline
# ----------------------------------------------------------------------
#: Shard counts the sharded backend is held bit-identical at.
SHARD_COUNTS = (1, 2, 4)


def _sharded_pair(netlist, annotation, stimulus, shards, config=None,
                  duration=DURATION):
    # ``shards=S`` is exactly S partitions, run one after another in the
    # parent: the deterministic executor on any machine.
    reference = _run(
        "gatspi", netlist, annotation, stimulus, config=config,
        duration=duration,
    )
    candidate = _run(
        f"gatspi-sharded:shards={shards}",
        netlist, annotation, stimulus, config=config, duration=duration,
    )
    return reference, candidate


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", range(3))
def test_sharded_backend_bit_identical_random_designs(seed, shards):
    """``gatspi-sharded`` merges shares back to the single-session result.

    Shares are margin-extended, trimmed, and stitched through the
    engine's own seam rules, so toggle counts *and* waveforms must be
    bit-identical at every shard count on the random-stimulus zoo.
    """
    netlist, annotation = _prepare_design(seed)
    stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 70)
    reference, candidate = _sharded_pair(netlist, annotation, stimulus, shards)
    assert candidate.stats.shards == shards
    _assert_bit_identical(
        reference, candidate, f"sharded seed={seed} shards={shards}"
    )


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_backend_boundary_events(shards):
    """Events on/±1 around shard *and* window boundaries stay exact."""
    netlist, annotation = _prepare_design(4, num_gates=30)
    config = SimConfig(cycle_parallelism=8)
    window_length = -(-DURATION // config.cycle_parallelism)
    stimulus = build_boundary_stimulus(netlist, DURATION, window_length, seed=3)
    reference, candidate = _sharded_pair(
        netlist, annotation, stimulus, shards, config=config
    )
    _assert_bit_identical(reference, candidate, f"sharded boundary shards={shards}")


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_backend_sparse_and_constant_nets(shards):
    """Empty shards and constant nets merge exactly."""
    netlist, annotation = _prepare_design(6, num_gates=30)
    stimulus = build_sparse_stimulus(netlist, DURATION, seed=6)
    reference, candidate = _sharded_pair(netlist, annotation, stimulus, shards)
    _assert_bit_identical(reference, candidate, f"sharded sparse shards={shards}")


@pytest.mark.parametrize("shards", (2, 4))
def test_sharded_backend_segment_splits(shards):
    """Pool overflow inside a share splits segments without divergence."""
    netlist, annotation = _prepare_design(1, num_gates=24)
    stimulus = build_random_stimulus(netlist, DURATION, seed=6)
    config = SimConfig(cycle_parallelism=16, device_memory_gb=2e-5)
    reference, candidate = _sharded_pair(
        netlist, annotation, stimulus, shards, config=config
    )
    assert candidate.stats.segments >= shards
    _assert_bit_identical(reference, candidate, f"sharded segments shards={shards}")


def test_sharded_backend_without_stored_waveforms():
    """Counts-only mode merges through exact share stitching.

    The sharded backend always stitches internally (exact merging needs
    the share waveforms), so its counts-only results equal the
    waveform-mode counts, seam toggles counted exactly once.
    """
    netlist, annotation = _prepare_design(11)
    stimulus = build_random_stimulus(netlist, DURATION, seed=42)
    config = SimConfig(store_waveforms=False, cycle_parallelism=8)
    exact = _run(
        "gatspi", netlist, annotation, stimulus,
        config=config.with_updates(store_waveforms=True),
    )
    candidate = _run(
        "gatspi-sharded:shards=4", netlist, annotation, stimulus,
        config=config,
    )
    assert not candidate.waveforms
    assert candidate.toggle_counts == exact.toggle_counts


@given(
    duration=st.integers(1, 100_000),
    shards=st.integers(1, 12),
    overlap=st.integers(0, 20_000),
)
def test_plan_shards_tiles_the_horizon_exactly(duration, shards, overlap):
    """Shares cover ``[0, duration)`` once, margins clamped at the run start."""
    plan = plan_shards(duration, shards, overlap=overlap)
    assert 1 <= len(plan) <= shards
    assert plan[0].start == 0 and plan[-1].end == duration
    assert all(left.end == right.start for left, right in zip(plan, plan[1:]))
    for index, shard in enumerate(plan):
        assert shard.index == index
        assert shard.length >= 1
        assert shard.margin == min(overlap, shard.start)
        assert shard.ext_start >= 0
        assert shard.run_duration == shard.length + shard.margin


def _settled_before_edges(stimulus, period, overlap):
    """Drop source toggles in ``[kT - 2*overlap, kT - overlap)`` for every k.

    A window starting at ``kT`` is simulated from ``kT - overlap`` out of a
    *settled* initial state; that is exact when nothing is still in flight
    there, i.e. no source toggled within one critical path before it.
    Outside that contract the partition is visible even to plain
    ``gatspi`` — inertial filtering decisions depend on the in-flight
    history (found by this property: bursts with 3–40 unit gaps make
    ``gatspi`` at 32 windows disagree with ``event`` and with itself at 8).
    """
    settled = {}
    for net, wave in stimulus.items():
        times = wave.timestamps[1:]
        phase = times % period
        in_flight = (phase >= period - 2 * overlap) & (phase < period - overlap)
        settled[net] = Waveform.from_toggle_array(
            wave.initial_value, times[~in_flight]
        )
    return settled


def _assert_sharded_equals_gatspi(
    spec, seed, shards, kind, unit_delays, windows_per_share=2, **config_kw
):
    """One generated design × stimulus through ``spec`` vs plain gatspi.

    The horizon is ``shards * windows_per_share`` windows of one clock
    period ``T`` each, so every window and share of both sessions starts
    on a multiple of ``T`` and :func:`_settled_before_edges` puts the
    stimulus inside the exactness contract.  ``boundary`` toggles sources
    on/±1 around every multiple of ``T``; with unit delays the first
    logic level then toggles exactly *on* the seams.  ``sparse`` leaves
    most windows empty and a third of the nets constant.
    """
    netlist = build_random_netlist(num_inputs=4, num_gates=14, seed=seed)
    model = UnitDelayModel(delay=1) if unit_delays else SyntheticDelayModel(seed=seed)
    annotation = annotation_from_design_delays(netlist, model.build(netlist))
    config = SimConfig(
        cycle_parallelism=shards * windows_per_share, **config_kw
    )
    reference_session = resolve_backend("gatspi")[0].prepare(
        netlist, annotation=annotation, config=config
    )
    overlap = reference_session.engine.window_overlap
    period = 3 * overlap + 4
    duration = config.cycle_parallelism * period
    if kind == "boundary":
        stimulus = build_boundary_stimulus(netlist, duration, period, seed=seed)
    else:
        stimulus = build_sparse_stimulus(netlist, duration, seed=seed)
    stimulus = _settled_before_edges(stimulus, period, overlap)
    reference = reference_session.run(stimulus, duration=duration)
    backend, options = resolve_backend(spec)
    session = backend.prepare(
        netlist, annotation=annotation, config=config, **options
    )
    try:
        candidate = session.run(stimulus, duration=duration)
    finally:
        session.close()
    assert candidate.stats.shards == shards
    _assert_bit_identical(
        reference, candidate, f"{spec} seed={seed} stimulus={kind}"
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shards=st.integers(1, 5),
    kind=st.sampled_from(("boundary", "sparse")),
    unit_delays=st.booleans(),
    windows_per_share=st.integers(1, 3),
)
def test_sharded_backend_equals_gatspi_on_generated_designs(
    seed, shards, kind, unit_delays, windows_per_share
):
    """The one remaining seam, generated: any design, 1–5 in-parent shares."""
    _assert_sharded_equals_gatspi(
        f"gatspi-sharded:shards={shards}",
        seed, shards, kind, unit_delays, windows_per_share,
    )


@pytest.mark.concurrency
def test_sharded_backend_equals_gatspi_on_process_workers():
    """The same check with the shares on two spawned workers (host-only)."""
    _assert_sharded_equals_gatspi(
        "gatspi-sharded:shards=3,workers=process:2", 5, 3, "boundary", True,
        device="numpy",
    )


# ----------------------------------------------------------------------
# Batched runs (run_many) vs standalone runs: requests are columns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec, batched", [
    pytest.param("gatspi", True, id="gatspi"),
    # One level loop over every request's windows, as on plain gatspi.
    pytest.param("gatspi-sharded:shards=1", True, id="gatspi-sharded:shards=1"),
    # More shards: one partitioned run per request.
    pytest.param(
        "gatspi-sharded:shards=2", False, id="gatspi-sharded:shards=2,workers=2"
    ),
])
def test_run_many_fusion_bit_identical_to_standalone(spec, batched):
    """A batch returns the standalone per-request results.

    Requests of different durations and initial values each run their
    own windows on their own time base; every toggle count and waveform —
    including each request's propagation tail — must equal the
    single-request runs bit for bit.
    """
    from repro.api import RunSpec

    netlist, annotation = _prepare_design(7)
    batch = [
        (build_random_stimulus(netlist, DURATION, seed=31), DURATION),
        (build_sparse_stimulus(netlist, 16_000, seed=32), 16_000),
        (build_random_stimulus(netlist, 20_000, seed=33), 20_000),
    ]
    backend, options = resolve_backend(spec)
    session = backend.prepare(netlist, annotation=annotation, **options)
    results = session.run_many(
        [RunSpec(stimulus=s, duration=d) for s, d in batch]
    )
    assert [r.stats.fused_requests for r in results] == [3 if batched else 1] * 3
    single = resolve_backend("gatspi")[0].prepare(netlist, annotation=annotation)
    for index, (stimulus, duration) in enumerate(batch):
        reference = single.run(stimulus, duration=duration)
        _assert_bit_identical(
            reference, results[index], f"{spec} batched request {index}"
        )
    assert session.runs_completed == len(batch)


def test_run_many_fusion_clips_stimuli_longer_than_their_horizon():
    """A reused long stimulus batches exactly under shorter horizons.

    Standalone runs never load toggles at or past the duration; a
    request's windows end at its own horizon, so the batch clips the same
    way (regression from time-axis fusion, whose unclipped tail toggles
    spilled into the next request).
    """
    from repro.api import RunSpec

    netlist, annotation = _prepare_design(9, num_gates=24)
    long_stimulus = build_random_stimulus(netlist, DURATION, seed=44)
    short = 2_000  # far below the last stimulus toggle
    session = resolve_backend("gatspi")[0].prepare(netlist, annotation=annotation)
    results = session.run_many(
        [RunSpec(stimulus=long_stimulus, duration=short) for _ in range(3)]
    )
    assert [r.stats.fused_requests for r in results] == [3, 3, 3]
    reference = _run(
        "gatspi", netlist, annotation, long_stimulus, duration=short
    )
    for index, result in enumerate(results):
        _assert_bit_identical(reference, result, f"clipped batch {index}")


@pytest.mark.parametrize("overlap", [0, 7])
def test_sharded_backend_degrades_to_passthrough_with_pinned_overlap(overlap):
    """A user-pinned settle margin disables partitioning entirely.

    A margin below the critical path makes window results
    partition-dependent, so sharding under it would silently diverge
    from single-session gatspi with the identical config (regression) —
    the session must fall back to the single-shard passthrough and stay
    bit-identical.
    """
    netlist, annotation = _prepare_design(8, num_gates=24)
    stimulus = build_random_stimulus(netlist, 12_000, seed=9)
    config = SimConfig(window_overlap=overlap, cycle_parallelism=8)
    backend, options = resolve_backend("gatspi-sharded:shards=4")
    session = backend.prepare(netlist, annotation=annotation, config=config, **options)
    assert session.shard_count == 1
    candidate = session.run(stimulus, duration=12_000)
    assert candidate.stats.shards == 1
    reference = _run(
        "gatspi", netlist, annotation, stimulus, config=config, duration=12_000
    )
    _assert_bit_identical(reference, candidate, f"pinned overlap={overlap}")


def test_run_many_batches_with_pinned_overlap():
    """A user-pinned settle margin batches like any other config.

    Each request keeps its standalone windows, so the margin's size does
    not matter to exactness (time-axis fusion used to fall back to serial
    runs here).
    """
    from repro.api import RunSpec

    netlist, annotation = _prepare_design(7)
    stimuli = [
        build_random_stimulus(netlist, 12_000, seed=seed) for seed in (5, 6)
    ]
    config = SimConfig(window_overlap=64, cycle_parallelism=4)
    session = resolve_backend("gatspi")[0].prepare(
        netlist, annotation=annotation, config=config
    )
    results = session.run_many(
        [RunSpec(stimulus=stimulus, duration=12_000) for stimulus in stimuli]
    )
    assert [r.stats.fused_requests for r in results] == [2, 2]
    for stimulus, result in zip(stimuli, results):
        reference = _run(
            "gatspi", netlist, annotation, stimulus, config=config,
            duration=12_000,
        )
        _assert_bit_identical(reference, result, "pinned overlap batch")


@st.composite
def _run_many_batches(draw):
    """A design seed, a config and 1–5 requests of unequal horizons."""
    period = 1000
    requests = []
    for _ in range(draw(st.integers(1, 5))):
        cycles = draw(st.integers(1, 12))
        kind = draw(st.sampled_from(("random", "sparse", "boundary", "overrun")))
        requests.append((kind, cycles * period, draw(st.integers(0, 10_000))))
    return dict(
        seed=draw(st.integers(0, 10_000)),
        store_waveforms=draw(st.booleans()),
        window_overlap=draw(st.sampled_from((None, None, 0, 40))),
        cycle_parallelism=draw(st.sampled_from((1, 3, 8))),
        requests=requests,
    )


def _batch_stimulus(netlist, kind, duration, seed, window_length):
    if kind == "sparse":
        return build_sparse_stimulus(netlist, duration, seed=seed)
    if kind == "boundary":
        return build_boundary_stimulus(
            netlist, duration, max(4, window_length), seed=seed
        )
    # ``overrun`` keeps toggling past the request's horizon (clip case).
    horizon = 2 * duration if kind == "overrun" else duration
    return build_random_stimulus(netlist, horizon, seed=seed, min_gap=20)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(
        ("gatspi", "gatspi-sharded:shards=1", "gatspi-sharded:shards=2", "event")
    ),
    case=_run_many_batches(),
)
def test_run_many_equals_serial_runs(spec, case):
    """``session.run_many(specs)`` equals one ``session.run`` per spec.

    Waveform for waveform and count for count, over batch sizes 1–5,
    unequal durations, random / sparse / boundary stimuli and stimuli that
    run past their horizon, with and without stored waveforms and with a
    pinned settle margin.
    """
    from repro.api import RunSpec

    seed = case["seed"]
    netlist = build_random_netlist(num_inputs=4, num_gates=14, seed=seed)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=seed).build(netlist)
    )
    config = SimConfig(
        cycle_parallelism=case["cycle_parallelism"],
        store_waveforms=case["store_waveforms"],
        window_overlap=case["window_overlap"],
    )
    batch = [
        (
            _batch_stimulus(
                netlist, kind, duration, stimulus_seed,
                duration // config.cycle_parallelism,
            ),
            duration,
        )
        for kind, duration, stimulus_seed in case["requests"]
    ]
    backend, options = resolve_backend(spec)
    session = backend.prepare(
        netlist, annotation=annotation, config=config, **options
    )
    results = session.run_many(
        [RunSpec(stimulus=stimulus, duration=duration) for stimulus, duration in batch]
    )
    batched = spec == "gatspi" or getattr(session, "shard_count", 0) == 1
    assert [r.stats.fused_requests for r in results] == (
        [len(batch) if batched else 1] * len(batch)
    )
    for index, (stimulus, duration) in enumerate(batch):
        reference = session.run(stimulus, duration=duration)
        _assert_bit_identical(reference, results[index], f"{spec} request {index}")


def test_sharded_backend_saif_criterion_against_event():
    """The paper's accuracy criterion holds through the sharded path."""
    netlist, annotation = _prepare_design(3, num_gates=28)
    stimulus = build_random_stimulus(netlist, DURATION, seed=21)
    sharded = _run(
        "gatspi-sharded:shards=4", netlist, annotation, stimulus
    )
    event = _run("event", netlist, annotation, stimulus)
    assert sharded.matches_toggle_counts(event), sharded.differing_nets(event)
