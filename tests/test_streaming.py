"""Out-of-core streaming replay: chunk pipeline vs whole-run oracle.

The streaming contract is **bit-identity with less memory**: a
``Session.run_stream`` over any chunking must produce exactly the per-net
toggle counts and SAIF activity of one whole-run ``run`` followed by
``activity_from_result`` — the only thing a streamed run gives up is the
full waveforms.  The tests here hold that contract across backends
(``gatspi``, also with ``workers=process:N``), devices,
stimulus shapes (generic, window-boundary, sparse), and stimulus sources
(in-memory mappings and incremental VCD streams), then unit-test the two
load-bearing internals on their own:

* :class:`~repro.power.activity.StreamingActivityAccumulator` against a
  ``stitch_windows`` + ``Waveform.duration_at`` oracle, including the
  stitcher's quirky seam rules (dropped establishments, the
  ``continue``-skips-state subtlety, freeze past the horizon) and a
  randomized fuzz over adversarial window decompositions;
* :meth:`~repro.core.memory.WaveformPool.release_windows`, the pool
  recycling that lets one allocation serve every chunk of a run.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.api import get_backend
from repro.core import SimConfig, Waveform, WaveformPool
from repro.core.restructure import stitch_windows
from repro.core.results import SimulationStats, StreamBatch
from repro.core.xp import HOST, available_array_backends
from repro.power.activity import StreamingActivityAccumulator
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.testing import (
    build_boundary_stimulus,
    build_random_netlist,
    build_random_stimulus,
    build_sparse_stimulus,
)
from repro.waveforms.saif import NetActivity, activity_from_result, saif_from_result
from repro.waveforms.vcd import VcdError, VcdEventStream, parse_vcd, read_vcd, write_vcd

DEVICES = available_array_backends()
DURATION = 12_000
#: Small enough that every test run splits into several chunks.
CHUNK_CYCLES = 3


def _design(seed: int, num_inputs: int = 6, num_gates: int = 30):
    netlist = build_random_netlist(
        num_inputs=num_inputs, num_gates=num_gates, seed=seed
    )
    delays = SyntheticDelayModel(seed=seed).build(netlist)
    return netlist, annotation_from_design_delays(netlist, delays)


def _whole_run(netlist, annotation, stimulus, config, duration=DURATION):
    session = get_backend("gatspi").prepare(
        netlist, annotation=annotation, config=config
    )
    return session.run(stimulus, duration=duration)


def _assert_stream_matches(stream_result, reference):
    assert stream_result.toggle_counts == dict(reference.toggle_counts)
    assert stream_result.activities == activity_from_result(reference)
    assert stream_result.saif() == saif_from_result(reference)
    assert stream_result.stats.streamed
    assert stream_result.stats.chunks > 1, "run must actually chunk"
    assert stream_result.stats.input_events == reference.stats.input_events
    assert (
        stream_result.stats.output_transitions
        == reference.stats.output_transitions
    )


# ----------------------------------------------------------------------
# Streamed vs whole-run bit-identity
# ----------------------------------------------------------------------
class TestStreamedVsWhole:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("seed", range(3))
    def test_gatspi_stream_bit_identical(self, seed, device):
        netlist, annotation = _design(seed)
        stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 40)
        config = SimConfig(cycle_parallelism=4, device=device)
        reference = _whole_run(netlist, annotation, stimulus, config)
        session = get_backend("gatspi").prepare(
            netlist, annotation=annotation, config=config
        )
        streamed = session.run_stream(
            stimulus, duration=DURATION, chunk_cycles=CHUNK_CYCLES
        )
        _assert_stream_matches(streamed, reference)

    @pytest.mark.parametrize("seed", range(2))
    def test_sharded_thread_stream_bit_identical(self, seed):
        netlist, annotation = _design(seed)
        stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 41)
        config = SimConfig(cycle_parallelism=4)
        reference = _whole_run(netlist, annotation, stimulus, config)
        session = get_backend("gatspi").prepare(
            netlist, annotation=annotation, config=config, workers="process:1"
        )
        streamed = session.run_stream(
            stimulus, duration=DURATION, chunk_cycles=CHUNK_CYCLES
        )
        _assert_stream_matches(streamed, reference)
        # One worker has nothing to overlap: the engine's own stream, and
        # no pool is spawned.
        assert streamed.stats.shards == 1
        assert session.engine._workers is None

    def test_sharded_process_stream_bit_identical(self):
        netlist, annotation = _design(7, num_gates=20)
        stimulus = build_random_stimulus(netlist, DURATION, seed=48)
        config = SimConfig(cycle_parallelism=4)
        reference = _whole_run(netlist, annotation, stimulus, config)
        session = get_backend("gatspi").prepare(
            netlist, annotation=annotation, config=config, workers="process:2"
        )
        try:
            streamed = session.run_stream(
                stimulus, duration=DURATION, chunk_cycles=CHUNK_CYCLES
            )
        finally:
            session.close()
        _assert_stream_matches(streamed, reference)
        assert streamed.stats.shards == 2

    @pytest.mark.parametrize("seed", range(2))
    def test_window_boundary_events_streamed(self, seed):
        """Events on/±1 around every window edge survive chunking."""
        netlist, annotation = _design(seed)
        config = SimConfig(cycle_parallelism=4)
        window_length = CHUNK_CYCLES * config.clock_period // config.cycle_parallelism
        stimulus = build_boundary_stimulus(
            netlist, DURATION, window_length, seed=seed
        )
        reference = _whole_run(netlist, annotation, stimulus, config)
        session = get_backend("gatspi").prepare(
            netlist, annotation=annotation, config=config
        )
        streamed = session.run_stream(
            stimulus, duration=DURATION, chunk_cycles=CHUNK_CYCLES
        )
        _assert_stream_matches(streamed, reference)

    def test_sparse_stimulus_streamed(self):
        """Chunks with no events at all keep seam state parked correctly."""
        netlist, annotation = _design(4)
        stimulus = build_sparse_stimulus(netlist, DURATION, seed=4)
        config = SimConfig(cycle_parallelism=4)
        reference = _whole_run(netlist, annotation, stimulus, config)
        session = get_backend("gatspi").prepare(
            netlist, annotation=annotation, config=config
        )
        streamed = session.run_stream(
            stimulus, duration=DURATION, chunk_cycles=CHUNK_CYCLES
        )
        _assert_stream_matches(streamed, reference)

    def test_chunking_invariance(self):
        """Every chunk size gives byte-identical results."""
        netlist, annotation = _design(2)
        stimulus = build_random_stimulus(netlist, DURATION, seed=11)
        config = SimConfig(cycle_parallelism=4)
        session = get_backend("gatspi").prepare(
            netlist, annotation=annotation, config=config
        )
        results = [
            session.run_stream(stimulus, duration=DURATION, chunk_cycles=c)
            for c in (1, 3, 5, 12)
        ]
        for other in results[1:]:
            assert other.toggle_counts == results[0].toggle_counts
            assert other.saif() == results[0].saif()

    def test_iter_windows_yields_ordered_chunks(self):
        netlist, annotation = _design(1)
        stimulus = build_random_stimulus(netlist, DURATION, seed=5)
        session = get_backend("gatspi").prepare(
            netlist, annotation=annotation, config=SimConfig(cycle_parallelism=4)
        )
        batches = list(
            session.iter_windows(stimulus, duration=DURATION, chunk_cycles=CHUNK_CYCLES)
        )
        assert [b.chunk_index for b in batches] == list(range(len(batches)))
        assert batches[0].chunk_start == 0
        assert batches[-1].chunk_end == DURATION
        for first, second in zip(batches, batches[1:]):
            assert second.chunk_start == first.chunk_end

    def test_stream_pool_is_recycled_across_chunks_and_runs(self):
        """One persistent pool serves every chunk (and every later run)."""
        netlist, annotation = _design(3)
        stimulus = build_random_stimulus(netlist, DURATION, seed=8)
        session = get_backend("gatspi").prepare(
            netlist, annotation=annotation, config=SimConfig(cycle_parallelism=4)
        )
        session.run_stream(stimulus, duration=DURATION, chunk_cycles=CHUNK_CYCLES)
        pool = session.engine._stream_pool
        assert pool is not None
        session.run_stream(stimulus, duration=DURATION, chunk_cycles=CHUNK_CYCLES)
        assert session.engine._stream_pool is pool

    def test_refusals(self):
        netlist, annotation = _design(0)
        stimulus = build_random_stimulus(netlist, DURATION, seed=1)
        event = get_backend("event").prepare(netlist, annotation=annotation)
        with pytest.raises(NotImplementedError):
            event.run_stream(stimulus, duration=DURATION)

    def test_oracle_engine_refuses_streaming(self):
        """``gatspi-oracle`` materializes per-window Waveform objects — the
        thing streaming exists to avoid — and says so instead of running."""
        netlist, annotation = _design(0)
        stimulus = build_random_stimulus(netlist, DURATION, seed=1)
        oracle = get_backend("gatspi-oracle").prepare(netlist, annotation=annotation)
        with pytest.raises(ValueError, match="requires the array pipeline"):
            oracle.run_stream(stimulus, duration=DURATION)
        with pytest.raises(ValueError, match="requires the array pipeline"):
            next(oracle.iter_windows(stimulus, duration=DURATION))


# ----------------------------------------------------------------------
# VCD as a streaming stimulus source
# ----------------------------------------------------------------------
class TestVcdStreaming:
    def _stimulus_vcd(self, netlist, seed=21):
        stimulus = build_random_stimulus(netlist, DURATION, seed=seed)
        return stimulus, write_vcd(stimulus, end_time=DURATION)

    def test_vcd_stream_matches_in_memory_run(self, tmp_path):
        netlist, annotation = _design(5)
        stimulus, text = self._stimulus_vcd(netlist)
        path = tmp_path / "stim.vcd"
        path.write_text(text)
        session = get_backend("gatspi").prepare(
            netlist, annotation=annotation, config=SimConfig(cycle_parallelism=4)
        )
        expected = session.run_stream(
            stimulus, duration=DURATION, chunk_cycles=CHUNK_CYCLES
        )
        with VcdEventStream(str(path)) as stream:
            streamed = session.run_stream(
                stream, duration=DURATION, chunk_cycles=CHUNK_CYCLES
            )
        assert streamed.toggle_counts == expected.toggle_counts
        assert streamed.saif() == expected.saif()

    def test_read_vcd_matches_parse_vcd(self, tmp_path):
        netlist, _ = _design(6)
        _, text = self._stimulus_vcd(netlist, seed=22)
        path = tmp_path / "whole.vcd"
        path.write_text(text)
        assert read_vcd(str(path)) == parse_vcd(text)

    def test_truncated_dump_streams_like_parse(self):
        """A dump cut mid-run serves exactly the prefix both ways."""
        netlist, _ = _design(6)
        _, text = self._stimulus_vcd(netlist, seed=23)
        lines = text.splitlines(keepends=True)
        truncated = "".join(lines[: int(len(lines) * 0.6)])
        reference = parse_vcd(truncated)
        stream = VcdEventStream(io.StringIO(truncated))
        span = stream.span_events(0, DURATION)
        for i, net in enumerate(span.nets):
            lo, hi = int(span.offsets[i]), int(span.offsets[i + 1])
            toggles = [int(t) for t in span.times[lo:hi] if t < DURATION]
            expected = reference[net]
            assert int(span.initial_values[i]) == expected.value_at(0), net
            # Changes at t <= 0 are establishment, folded into the span's
            # initial value rather than served as toggles.
            assert toggles == [
                t for t in expected.to_list()[1:] if 0 < t < DURATION
            ], net

    def test_garbage_tail_lines_are_ignored(self):
        netlist, _ = _design(6)
        _, text = self._stimulus_vcd(netlist, seed=24)
        polluted = text + "\n\x00\xff not-a-vcd-change\n$comment mid dump $end\n"
        assert parse_vcd(polluted) == parse_vcd(text)

    def test_unbounded_garbage_line_rejected(self):
        blob = "$enddefinitions $end\n" + "\x00" * (1 << 21)
        with pytest.raises(VcdError):
            parse_vcd(blob)

    def test_change_behind_served_frontier_rejected(self):
        # The #150 change is monotonic for net `a` itself but arrives
        # after the [0, 300) span was served as final.
        text = (
            "$scope module top $end\n"
            "$var wire 1 ! a $end\n"
            "$upscope $end\n"
            "$enddefinitions $end\n"
            "#0\n0!\n#300\n#150\n1!\n"
        )
        stream = VcdEventStream(io.StringIO(text))
        stream.span_events(0, 300, retire_before=0)
        with pytest.raises(VcdError):
            stream.span_events(300, 2000)

    def test_non_monotonic_dump_rejected(self):
        from repro.core.waveform import WaveformError

        text = (
            "$scope module top $end\n"
            "$var wire 1 ! a $end\n"
            "$upscope $end\n"
            "$enddefinitions $end\n"
            "#0\n0!\n#500\n1!\n#100\n0!\n"
        )
        stream = VcdEventStream(io.StringIO(text))
        with pytest.raises(WaveformError):
            stream.span_events(0, 2000)

    def test_spans_must_advance_past_retired_frontier(self):
        text = (
            "$scope module top $end\n"
            "$var wire 1 ! a $end\n"
            "$upscope $end\n"
            "$enddefinitions $end\n"
            "#0\n0!\n#50\n1!\n"
        )
        stream = VcdEventStream(io.StringIO(text))
        stream.span_events(0, 100, retire_before=100)
        with pytest.raises(ValueError):
            stream.span_events(0, 100)


# ----------------------------------------------------------------------
# The online accumulator vs the stitcher oracle
# ----------------------------------------------------------------------
def _batch(nets, window_starts, establish, counts, times, *, index=0):
    hnp = HOST
    window_starts = hnp.asarray(window_starts, dtype=hnp.int64)
    return StreamBatch(
        chunk_index=index,
        chunk_start=int(window_starts[0]),
        chunk_end=int(window_starts[-1]) + 1,
        nets=tuple(nets),
        window_starts=window_starts,
        establish_values=hnp.asarray(establish, dtype=hnp.int64),
        toggle_counts=hnp.asarray(counts, dtype=hnp.int64),
        times=hnp.asarray(times, dtype=hnp.int64),
        source_nets=(),
        source_establish=hnp.zeros(0, dtype=hnp.int64),
        source_counts=hnp.zeros(0, dtype=hnp.int64),
        source_times=hnp.zeros(0, dtype=hnp.int64),
    )


def _oracle(duration, window_starts, establish, counts, times):
    """Whole-run activity via stitch_windows + Waveform, one net."""
    hnp = HOST
    wave = stitch_windows(
        hnp.asarray(window_starts, dtype=hnp.int64),
        hnp.asarray(establish, dtype=hnp.int64),
        hnp.asarray(counts, dtype=hnp.int64),
        hnp.asarray(times, dtype=hnp.int64),
    )
    t1 = wave.duration_at(1, 0, duration)
    # Like whole-run `toggle_counts`, tc counts every kept transition —
    # only the T0/T1 interval accounting is capped at the horizon.
    tc = wave.toggle_count()
    return NetActivity(t0=duration - t1, t1=t1, tc=tc), tc


class TestStreamingActivityAccumulator:
    def _fold(self, duration, window_starts, establish, counts, times, splits=None):
        """Feed one net's windows through the accumulator, batch by batch."""
        acc = StreamingActivityAccumulator(("n",), duration)
        bounds = [0, len(window_starts)] if splits is None else [0, *splits, len(window_starts)]
        offset = 0
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if hi <= lo:
                continue
            n_times = int(sum(counts[lo:hi]))
            acc.add_batch(
                _batch(
                    ("n",),
                    window_starts[lo:hi],
                    [establish[lo:hi]],
                    [counts[lo:hi]],
                    times[offset : offset + n_times],
                    index=k,
                )
            )
            offset += n_times
        activities = acc.finalize()
        return activities["n"], acc.toggle_counts()["n"]

    def _check(self, duration, window_starts, establish, counts, times, splits=None):
        expected, expected_tc = _oracle(
            duration, window_starts, establish, counts, times
        )
        activity, tc = self._fold(
            duration, window_starts, establish, counts, times, splits
        )
        assert activity == expected
        assert tc == expected_tc

    def test_clean_seams_fast_path(self):
        self._check(400, [0, 100, 200], [0, 1, 0], [1, 1, 1], [10, 150, 250])

    def test_inconsistent_establishment_kept_as_change(self):
        # Window 1 re-establishes 0 against a carried 1: the stitcher keeps
        # the establishment itself as a change at the window start.
        self._check(200, [0, 100], [0, 0], [1, 1], [10, 150])

    def test_duplicate_establishment_dropped(self):
        # Window 1 establishes the carried value: dropped, toggles kept.
        self._check(200, [0, 100], [0, 1], [1, 1], [10, 150])

    def test_stale_toggles_dropped_with_parked_state(self):
        # Window 1's toggles replay the seam (10 <= carried 10); the
        # stitcher drops the whole window *without* advancing seam state
        # (the `continue` subtlety), which also drops the later toggle.
        self._check(300, [0, 100], [0, 1], [1, 2], [10, 10, 150])

    def test_empty_windows_park_seam_state(self):
        self._check(500, [0, 100, 200, 300], [0, 1, 1, 1], [1, 0, 0, 2], [10, 310, 350])

    def test_freeze_past_horizon(self):
        # Toggles beyond the horizon are ignored; T1 closes at `duration`.
        self._check(200, [0, 100], [0, 1], [1, 3], [10, 120, 250, 300])

    def test_batch_split_at_every_seam(self):
        ws = [0, 100, 200, 300]
        est = [0, 1, 0, 1]
        cnt = [1, 1, 1, 1]
        ts = [10, 150, 250, 350]
        for split in ([1], [2], [3], [1, 2], [1, 3], [1, 2, 3]):
            self._check(400, ws, est, cnt, ts, splits=split)

    def test_never_toggling_net_reports_constant_zero(self):
        acc = StreamingActivityAccumulator(("a", "b"), 100)
        acc.add_batch(_batch(("a",), [0], [[0]], [[1]], [10]))
        activities = acc.finalize()
        assert activities["b"] == NetActivity(t0=100, t1=0, tc=0)
        assert acc.toggle_counts() == {"a": 1, "b": 0}

    def test_duplicate_nets_rejected(self):
        with pytest.raises(ValueError):
            StreamingActivityAccumulator(("a", "a"), 100)

    def test_unknown_batch_net_rejected(self):
        acc = StreamingActivityAccumulator(("a",), 100)
        with pytest.raises(ValueError):
            acc.add_batch(_batch(("zzz",), [0], [[0]], [[0]], []))

    def test_finalize_is_idempotent_and_required(self):
        acc = StreamingActivityAccumulator(("a",), 100)
        with pytest.raises(ValueError):
            acc.activities()
        first = acc.finalize()
        assert acc.finalize() == first

    def test_fuzz_against_stitcher(self):
        """Randomized windows with adversarial seams, splits, and freezes.

        The generator respects the engine's trim invariant (toggles
        strictly increasing within a window and past its start) but is
        otherwise adversarial: establishment values flip randomly across
        seams, toggles overshoot into later windows, horizons cut runs
        short, and batches split at random seams.
        """
        rng = random.Random(1234)
        for trial in range(300):
            W = rng.randint(1, 6)
            starts, t = [], 0
            for _ in range(W):
                starts.append(t)
                t += rng.randint(20, 120)
            span_end = t + rng.randint(20, 120)
            establish, counts, times = [], [], []
            for w, ws in enumerate(starts):
                establish.append(rng.randint(0, 1))
                k = rng.randint(0, 4)
                limit = span_end if rng.random() < 0.3 else starts[w + 1] if w + 1 < W else span_end
                pool = sorted(rng.sample(range(ws + 1, max(ws + 2, limit + 60)), k)) if k else []
                counts.append(len(pool))
                times.extend(pool)
            duration = rng.randint(starts[-1] + 1, span_end + 60)
            n_splits = rng.randint(0, min(3, W - 1))
            splits = sorted(rng.sample(range(1, W), n_splits)) if n_splits else None
            self._check(duration, starts, establish, counts, times, splits)


# ----------------------------------------------------------------------
# Pool recycling (release_windows)
# ----------------------------------------------------------------------
class TestReleaseWindows:
    def _wave(self, initial, toggles):
        return Waveform.from_initial_and_toggles(initial, toggles)

    def test_release_all_rewinds_allocator_and_reuses_columns(self):
        pool = WaveformPool(1 << 12)
        null_address = pool.store_padding_waveform()
        first = pool.store_waveform("a", 0, self._wave(0, [5, 9]))
        pool.store_waveform("a", 1, self._wave(1, [7]))
        pool.release_windows()
        assert not pool.has_waveform("a", 0)
        assert not pool.has_waveform("a", 1)
        # The bump allocator rewound: the next chunk's stores land on the
        # exact words the previous chunk used.
        again = pool.store_waveform("a", 2, self._wave(0, [3]))
        assert again == first
        # The canonical null waveform survives both release and rewind.
        assert pool.store_padding_waveform() == null_address

    def test_partial_release_recycles_freed_column_only(self):
        pool = WaveformPool(1 << 12)
        for w in (0, 1, 2):
            pool.store_waveform("a", w, self._wave(0, [10 + w]))
        pool.release_windows([1])
        assert pool.has_waveform("a", 0)
        assert not pool.has_waveform("a", 1)
        assert pool.has_waveform("a", 2)
        pool.store_waveform("a", 3, self._wave(1, [40]))
        assert pool.read_waveform("a", 0) == self._wave(0, [10])
        assert pool.read_waveform("a", 2) == self._wave(0, [12])
        assert pool.read_waveform("a", 3) == self._wave(1, [40])

    def test_release_unknown_windows_is_a_noop(self):
        pool = WaveformPool(1 << 12)
        pool.store_waveform("a", 0, self._wave(0, [4]))
        pool.release_windows([17])
        assert pool.has_waveform("a", 0)
        assert pool.read_waveform("a", 0) == self._wave(0, [4])
