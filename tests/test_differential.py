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
from repro.core import SimConfig
from repro.core.workers import append_groups, run_window_group, window_groups
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
def test_pool_overflow_segment_splits(seed, device, initial_pool_words):
    """A pool too small for the full run grows inside its one batch.

    There is no segment split: both pipelines run the whole window list
    as one level-loop batch on a pool that outgrows its initial words,
    and stay bit-identical.
    """
    words = initial_pool_words(256)
    netlist, annotation = _prepare_design(seed, num_gates=24)
    stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 5)
    config = SimConfig(cycle_parallelism=16)
    reference, vector = _oracle_pair(netlist, annotation, stimulus, device, config=config)
    assert vector.stats.pool_words_used > words, "workload must outgrow the pool"
    assert vector.stats.segments == reference.stats.segments == 1
    _assert_bit_identical(reference, vector, f"pool growth seed={seed}")


@pytest.mark.parametrize("words, segments", [(2_014, 11), (671, 32), (575, None)])
def test_segment_bisection_runs_any_budget_one_window_fits(
    words, segments, initial_pool_words
):
    """Any initial pool size runs the whole run as one batch.

    ``segments`` is what a ``words``-word cap once bisected this run into
    (``None``: not even one window fit).  The cap is gone: a pool starting
    at ``words`` grows to the full run's 16,116 words in one batch, with
    results identical to a pool that never grows.
    """
    netlist, annotation = _prepare_design(3, num_inputs=8, num_gates=40)
    stimulus = build_random_stimulus(netlist, 32_000, seed=5)
    config = SimConfig(cycle_parallelism=32)
    reference = _run("gatspi", netlist, annotation, stimulus, duration=32_000,
                     config=config)
    initial_pool_words(words)
    grown = _run("gatspi", netlist, annotation, stimulus, config=config,
                 duration=32_000)
    assert grown.stats.segments == reference.stats.segments == 1
    assert grown.stats.pool_words_used == reference.stats.pool_words_used > words
    _assert_bit_identical(reference, grown, f"{words}-word initial pool")


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
# Window groups: S groups appended in order equal the one-group run
# ----------------------------------------------------------------------
#: Group counts the pinned cases run at (the generated property draws 1–5).
SHARD_COUNTS = (1, 2, 4)


def _grouped_session(netlist, annotation, groups, config=None):
    """A ``gatspi`` session whose runs split their window list into
    ``groups`` contiguous groups, each run by :func:`run_window_group` and
    appended in order by :func:`append_groups`.

    That is the step process workers run (``gatspi:workers=process:N``)
    and the paper-table benches time, executed here in this process so
    the append contract is checked deterministically on any machine.
    """
    session, worker = (
        resolve_backend("gatspi")[0].prepare(
            netlist, annotation=annotation, config=config
        )
        for _ in range(2)
    )

    def run_groups(plan, events, windows, durations, timings, stats,
                   readbacks, pool=None):
        assert pool is None, "grouped sessions do not stream"
        append_groups(
            (
                run_window_group(worker.engine, plan, events, group, durations)
                for group in window_groups(windows, groups)
            ),
            timings, stats, readbacks,
        )

    # Like a process worker, a second plain engine runs each group.
    session.engine._run_groups = run_groups
    return session


def _grouped_pair(netlist, annotation, stimulus, groups, config=None,
                  duration=DURATION):
    """(one-group ``gatspi`` run, the same run in ``groups`` groups)."""
    reference = _run(
        "gatspi", netlist, annotation, stimulus, config=config,
        duration=duration,
    )
    candidate = _grouped_session(netlist, annotation, groups, config).run(
        stimulus, duration=duration
    )
    return reference, candidate


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", range(3))
def test_sharded_backend_bit_identical_random_designs(seed, shards):
    """Window groups append exactly on the random-stimulus zoo.

    Group outputs are accumulated and stitched by the engine exactly like
    segment batches, so toggle counts *and* waveforms must be
    bit-identical at every group count.
    """
    netlist, annotation = _prepare_design(seed)
    stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 70)
    reference, candidate = _grouped_pair(netlist, annotation, stimulus, shards)
    assert candidate.stats.shards == shards
    _assert_bit_identical(
        reference, candidate, f"groups seed={seed} groups={shards}"
    )


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_backend_boundary_events(shards):
    """Events on/±1 around group *and* window boundaries stay exact."""
    netlist, annotation = _prepare_design(4, num_gates=30)
    config = SimConfig(cycle_parallelism=8)
    window_length = -(-DURATION // config.cycle_parallelism)
    stimulus = build_boundary_stimulus(netlist, DURATION, window_length, seed=3)
    reference, candidate = _grouped_pair(
        netlist, annotation, stimulus, shards, config=config
    )
    _assert_bit_identical(reference, candidate, f"groups boundary {shards}")


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_backend_sparse_and_constant_nets(shards):
    """Empty groups and constant nets merge exactly."""
    netlist, annotation = _prepare_design(6, num_gates=30)
    stimulus = build_sparse_stimulus(netlist, DURATION, seed=6)
    reference, candidate = _grouped_pair(netlist, annotation, stimulus, shards)
    _assert_bit_identical(reference, candidate, f"groups sparse {shards}")


@pytest.mark.parametrize("shards", (2, 4))
def test_sharded_backend_segment_splits(shards, initial_pool_words):
    """Each group grows its own pool in one batch without divergence."""
    words = initial_pool_words(256)
    netlist, annotation = _prepare_design(1, num_gates=24)
    stimulus = build_random_stimulus(netlist, DURATION, seed=6)
    config = SimConfig(cycle_parallelism=16)
    reference, candidate = _grouped_pair(
        netlist, annotation, stimulus, shards, config=config
    )
    assert candidate.stats.segments == shards
    assert candidate.stats.pool_words_used > words
    _assert_bit_identical(reference, candidate, f"groups pool growth {shards}")


def test_sharded_backend_without_stored_waveforms():
    """Counts-only mode counts seam toggles once across groups.

    Groups feed the engine's own counts-only assembly, so the results
    equal the waveform-mode counts, seam toggles counted exactly once.
    """
    netlist, annotation = _prepare_design(11)
    stimulus = build_random_stimulus(netlist, DURATION, seed=42)
    config = SimConfig(store_waveforms=False, cycle_parallelism=8)
    exact = _run(
        "gatspi", netlist, annotation, stimulus,
        config=config.with_updates(store_waveforms=True),
    )
    candidate = _grouped_session(netlist, annotation, 4, config).run(
        stimulus, duration=DURATION
    )
    assert not candidate.waveforms
    assert candidate.toggle_counts == exact.toggle_counts


@given(windows=st.integers(1, 200), shards=st.integers(1, 12))
def test_window_groups_tile_the_window_list_in_order(windows, shards):
    """Groups cover the window list once, in order, sizes within one."""
    from repro.core.engine import _WindowRange

    window_list = [_WindowRange(k, 10 * k, 10 * k + 10) for k in range(windows)]
    groups = window_groups(window_list, shards)
    assert len(groups) == min(shards, windows)
    assert [w for group in groups for w in group] == window_list
    sizes = {len(group) for group in groups}
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def _generated_case(seed, kind, unit_delays, duration, **config_kw):
    """One generated design × stimulus: (netlist, annotation, config,
    stimulus, plain ``gatspi`` result).

    ``boundary`` toggles sources on/±1 around every window edge; with unit
    delays the first logic level then toggles exactly *on* the seams.
    ``sparse`` leaves most windows empty and a third of the nets constant.
    """
    netlist = build_random_netlist(num_inputs=4, num_gates=14, seed=seed)
    model = UnitDelayModel(delay=1) if unit_delays else SyntheticDelayModel(seed=seed)
    annotation = annotation_from_design_delays(netlist, model.build(netlist))
    config = SimConfig(**config_kw)
    if kind == "boundary":
        window_length = max(4, -(-duration // config.cycle_parallelism))
        stimulus = build_boundary_stimulus(
            netlist, duration, window_length, seed=seed
        )
    else:
        stimulus = build_sparse_stimulus(netlist, duration, seed=seed)
    reference = resolve_backend("gatspi")[0].prepare(
        netlist, annotation=annotation, config=config
    ).run(stimulus, duration=duration)
    return netlist, annotation, config, stimulus, reference


def _assert_groups_equal_gatspi(seed, shards, kind, unit_delays, duration,
                                **config_kw):
    """Groups are gatspi's own windows, so the grouped run must equal
    gatspi whatever the windowing itself gets wrong: any duration, any
    stimulus, any settle margin."""
    netlist, annotation, config, stimulus, reference = _generated_case(
        seed, kind, unit_delays, duration, **config_kw
    )
    candidate = _grouped_session(netlist, annotation, shards, config).run(
        stimulus, duration=duration
    )
    assert candidate.stats.shards == min(shards, candidate.stats.windows)
    assert candidate.stats.windows == reference.stats.windows
    _assert_bit_identical(
        reference, candidate, f"groups={shards} seed={seed} stimulus={kind}"
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shards=st.integers(1, 5),
    kind=st.sampled_from(("boundary", "sparse")),
    unit_delays=st.booleans(),
    duration=st.integers(1, 30_000),
    cycle_parallelism=st.sampled_from((1, 3, 8, 32)),
    window_overlap=st.sampled_from((None, 0, 40)),
    store_waveforms=st.booleans(),
)
def test_sharded_backend_equals_gatspi_on_generated_designs(
    seed, shards, kind, unit_delays, duration, cycle_parallelism,
    window_overlap, store_waveforms,
):
    """Generated: any design, duration and margin, 1–5 window groups."""
    _assert_groups_equal_gatspi(
        seed, shards, kind, unit_delays, duration,
        cycle_parallelism=cycle_parallelism,
        window_overlap=window_overlap,
        store_waveforms=store_waveforms,
    )


@pytest.mark.concurrency
def test_sharded_backend_equals_gatspi_on_process_workers():
    """The same check with the groups on two spawned workers (host-only)."""
    netlist, annotation, config, stimulus, reference = _generated_case(
        5, "boundary", True, 6_000, cycle_parallelism=6, device="numpy"
    )
    backend, options = resolve_backend("gatspi:workers=process:2")
    session = backend.prepare(
        netlist, annotation=annotation, config=config, **options
    )
    try:
        candidate = session.run(stimulus, duration=6_000)
    finally:
        session.close()
    assert candidate.stats.shards == 2
    _assert_bit_identical(reference, candidate, "process workers")


@pytest.mark.parametrize("shards", (2, 4))
def test_sharded_backend_equals_gatspi_where_windowing_is_inexact(shards):
    """Regression: shards used to re-cut the horizon and diverge.

    On this case plain gatspi at 32 windows already differs from
    ``event`` (a source burst straddles a window's settle start), and the
    old horizon shares, re-windowed at ``ceil(32 / S)`` with their own
    margins, differed from gatspi as well.  Groups of gatspi's own
    windows reproduce gatspi's answer exactly.
    """
    _assert_groups_equal_gatspi(
        1327, shards, "sparse", False, 8_000, cycle_parallelism=32,
    )


# ----------------------------------------------------------------------
# Batched runs (run_many) vs standalone runs: requests are columns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec, batched", [
    pytest.param("gatspi", True, id="gatspi"),
    # One worker: the engine's own step, no pool.
    pytest.param("gatspi:workers=process:1", True, id="gatspi-sharded:shards=1"),
    # Two workers: the batch's window list is split into groups.
    pytest.param(
        "gatspi:workers=process:2", True, id="gatspi-sharded:shards=2,workers=2"
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
    try:
        results = session.run_many(
            [RunSpec(stimulus=s, duration=d) for s, d in batch]
        )
    finally:
        session.close()
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
    """A user-pinned settle margin groups like any other config.

    (The name is historical: horizon shares re-cut the run, so a margin
    below the critical path made them diverge and the session fell back
    to one shard.)  Groups of gatspi's own windows make the margin's size
    irrelevant to the grouped-vs-gatspi contract.
    """
    netlist, annotation = _prepare_design(8, num_gates=24)
    stimulus = build_random_stimulus(netlist, 12_000, seed=9)
    config = SimConfig(window_overlap=overlap, cycle_parallelism=8)
    reference, candidate = _grouped_pair(
        netlist, annotation, stimulus, 4, config=config, duration=12_000
    )
    assert candidate.stats.shards == 4
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
    spec=st.sampled_from(("gatspi", "gatspi, 2 window groups", "event")),
    case=_run_many_batches(),
)
def test_run_many_equals_serial_runs(spec, case):
    """``session.run_many(specs)`` equals one ``session.run`` per spec.

    Waveform for waveform and count for count, over batch sizes 1–5,
    unequal durations, random / sparse / boundary stimuli and stimuli that
    run past their horizon, with and without stored waveforms and with a
    pinned settle margin.  The grouped ``gatspi`` session runs every window
    list (the batch's and each serial run's) as two window groups.
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
    if spec == "gatspi, 2 window groups":
        session = _grouped_session(netlist, annotation, 2, config)
    else:
        session = resolve_backend(spec)[0].prepare(
            netlist, annotation=annotation, config=config
        )
    results = session.run_many(
        [RunSpec(stimulus=stimulus, duration=duration) for stimulus, duration in batch]
    )
    batched = spec != "event"
    assert [r.stats.fused_requests for r in results] == (
        [len(batch) if batched else 1] * len(batch)
    )
    for index, (stimulus, duration) in enumerate(batch):
        reference = session.run(stimulus, duration=duration)
        _assert_bit_identical(reference, results[index], f"{spec} request {index}")


def test_sharded_backend_saif_criterion_against_event():
    """The paper's accuracy criterion holds through window groups."""
    netlist, annotation = _prepare_design(3, num_gates=28)
    stimulus = build_random_stimulus(netlist, DURATION, seed=21)
    grouped = _grouped_session(netlist, annotation, 4).run(
        stimulus, duration=DURATION
    )
    event = _run("event", netlist, annotation, stimulus)
    assert grouped.matches_toggle_counts(event), grouped.differing_nets(event)
