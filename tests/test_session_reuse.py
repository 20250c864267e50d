"""Session reuse across large and small runs and varying run horizons.

A :class:`~repro.api.session.Session` owns one compiled design and must
serve any number of ``run()`` calls — including runs that grow the
waveform pool past its initial words, and runs whose durations differ
call to call.  This is exactly the state the bulk restructure/load
pipeline must not leak between runs (the stimulus event tensors are
lowered per run; the packed design tensors are per session).  Every run
is one level-loop batch (``stats.segments == 1``): there is no segment
split to re-enter.
"""

from __future__ import annotations

import pytest

from repro.api import get_backend
from repro.core import SimConfig
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.testing import build_random_netlist, build_random_stimulus


@pytest.fixture(scope="module")
def design():
    netlist = build_random_netlist(num_inputs=5, num_gates=28, seed=21)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=21).build(netlist)
    )
    return netlist, annotation


#: The backend behind each ``stats.restructure_mode`` label.
BACKENDS = {"python": "gatspi-oracle", "vector": "gatspi"}


def _prepare(design, restructure, **config_kwargs):
    netlist, annotation = design
    config = SimConfig(**config_kwargs)
    return get_backend(BACKENDS[restructure]).prepare(
        netlist, annotation=annotation, config=config
    )


def _fresh_result(design, restructure, stimulus, duration, **config_kwargs):
    """The same run on a fresh session (the no-reuse reference)."""
    session = _prepare(design, restructure, **config_kwargs)
    return session.run(stimulus, duration=duration)


@pytest.mark.parametrize("restructure", ["python", "vector"])
def test_repeated_runs_with_different_durations(design, restructure):
    """One session, many horizons: results match fresh-session runs."""
    netlist, _ = design
    session = _prepare(design, restructure, cycle_parallelism=8)
    durations = [4_000, 20_000, 1_000, 12_000]
    stimulus = build_random_stimulus(netlist, max(durations), seed=33)
    for expected_runs, duration in enumerate(durations, start=1):
        result = session.run(stimulus, duration=duration)
        assert session.runs_completed == expected_runs
        fresh = _fresh_result(
            design, restructure, stimulus, duration, cycle_parallelism=8
        )
        assert result.toggle_counts == fresh.toggle_counts, duration
        for net in fresh.waveforms:
            assert result.waveforms[net] == fresh.waveforms[net], (duration, net)


@pytest.mark.parametrize("restructure", ["python", "vector"])
def test_session_survives_segment_splits(design, restructure):
    """A large run inside ``run()`` must not poison later runs.

    A large run, a small one and the large one again on one session
    each match a fresh session bit-for-bit, every one in one batch.
    """
    netlist, _ = design
    session = _prepare(design, restructure, cycle_parallelism=16)
    stimulus = build_random_stimulus(netlist, 24_000, seed=34)

    split_result = session.run(stimulus, duration=24_000)
    assert split_result.stats.segments == 1
    small_result = session.run(stimulus, duration=2_000)
    split_again = session.run(stimulus, duration=24_000)
    assert session.runs_completed == 3

    fresh_split = _fresh_result(
        design, restructure, stimulus, 24_000, cycle_parallelism=16
    )
    fresh_small = _fresh_result(
        design, restructure, stimulus, 2_000, cycle_parallelism=16
    )
    for result, fresh in (
        (split_result, fresh_split),
        (small_result, fresh_small),
        (split_again, fresh_split),
    ):
        assert result.stats.segments == fresh.stats.segments
        assert result.toggle_counts == fresh.toggle_counts
        for net in fresh.waveforms:
            assert result.waveforms[net] == fresh.waveforms[net], net


def test_segment_split_runs_identical_across_pipelines(design):
    """Both restructure pipelines agree on the whole reuse sequence."""
    netlist, _ = design
    stimulus = build_random_stimulus(netlist, 24_000, seed=35)
    results = {}
    for restructure in ("python", "vector"):
        session = _prepare(design, restructure, cycle_parallelism=16)
        results[restructure] = [
            session.run(stimulus, duration=24_000),
            session.run(stimulus, duration=6_000),
        ]
    for ref, vec in zip(results["python"], results["vector"]):
        assert ref.toggle_counts == vec.toggle_counts
        assert ref.stats.segments == vec.stats.segments
        for net in ref.waveforms:
            assert ref.waveforms[net] == vec.waveforms[net], net


@pytest.mark.parametrize("restructure", ["python", "vector"])
def test_waveforms_survive_pool_reset_between_segments(design, restructure):
    """Returned waveforms stay valid after later runs reuse the session.

    Readback hands out (or gathers from) pool views; a later run must not
    mutate waveforms already returned to the caller.
    """
    netlist, _ = design
    session = _prepare(design, restructure, cycle_parallelism=16)
    stimulus = build_random_stimulus(netlist, 24_000, seed=36)
    first = session.run(stimulus, duration=24_000)
    snapshots = {net: wave.to_list() for net, wave in first.waveforms.items()}
    session.run(stimulus, duration=24_000)
    for net, snapshot in snapshots.items():
        assert first.waveforms[net].to_list() == snapshot, net
