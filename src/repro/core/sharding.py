"""Window-axis shard planning and result merging.

The paper's scaling story (Section 5) fans the cycle-parallel window axis
out across devices: with ``n`` GPUs the testbench is carved into ``n``
contiguous shares and each device simulates its share independently.  The
``gatspi-sharded`` backend (:mod:`repro.api.sharded`) is the one consumer:
it runs the shares in the parent or on process workers and merges them
into a result **bit-identical** to a single-session run; the paper-table
benches measure per-share kernel seconds over the same plan
(:func:`repro.bench.runner.share_kernel_seconds`).  This module holds the
slice bounds, settle margins and seam rules:

* :func:`plan_shards` — contiguous cover of ``[0, duration)`` with
  per-shard settle margins (the same margin the engine prepends to its
  cycle-parallel windows, clamped at the run start);
* :func:`trim_shard_waveform` — drop a share's settle margin and
  propagation tail exactly as the engine's readback trims its windows
  (the final shard keeps its tail, since nothing follows it);
* :func:`merge_shard_waveforms` — stitch trimmed per-shard waveforms into
  one full-run waveform through the engine's own seam rules
  (:func:`~repro.core.restructure.stitch_windows`).

Bit-identity of the sharded merge rests on the engine's windowing
invariant: with a settle margin covering the critical path (the default),
each window's — and therefore each margin-extended shard's — output over
its ``[start, end)`` range equals the true simulation waveform, so any
partition of the run reconstructs the same stitched result.

Batching *requests* needs none of this: requests are columns, each on its
own time base (:meth:`~repro.core.engine.GatspiEngine.simulate_many`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .restructure import stitch_windows
from .waveform import EOW, Waveform
from .xp import HOST


@dataclass(frozen=True)
class Shard:
    """One contiguous share of the simulated horizon.

    ``[start, end)`` is the range this shard owns in the merged result;
    ``margin`` is the settle overlap *included before* ``start`` when the
    shard is simulated (clamped to 0 at the run start), so the shard's
    run covers ``[ext_start, end)`` and its outputs are exact over the
    owned range.
    """

    index: int
    start: int
    end: int
    margin: int = 0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("shard end must be after shard start")
        if self.margin < 0 or self.margin > self.start:
            raise ValueError("shard margin must be within [0, start]")

    @property
    def ext_start(self) -> int:
        """Absolute start of the simulated (margin-extended) range."""
        return self.start - self.margin

    @property
    def length(self) -> int:
        """Length of the owned ``[start, end)`` range."""
        return self.end - self.start

    @property
    def run_duration(self) -> int:
        """Duration of the shard's simulation run (margin included)."""
        return self.end - self.ext_start


def plan_shards(
    duration: int,
    max_shards: int,
    *,
    overlap: int = 0,
) -> List[Shard]:
    """Carve ``[0, duration)`` into at most ``max_shards`` contiguous shards.

    Shard length is the ceiling split — short horizons therefore yield
    *fewer* than ``max_shards`` shards rather than empty ones.  ``overlap``
    is the settle margin each shard's simulation is extended backwards by,
    clamped at the run start exactly like the engine's window margins.
    """
    if max_shards < 1:
        raise ValueError("max_shards must be at least 1")
    if duration < 1:
        raise ValueError("duration must be positive")
    if overlap < 0:
        raise ValueError("overlap must be non-negative")
    length = -(-duration // max_shards)
    shards: List[Shard] = []
    start = 0
    index = 0
    while start < duration and index < max_shards:
        end = min(start + length, duration)
        shards.append(
            Shard(index=index, start=start, end=end, margin=min(overlap, start))
        )
        start = end
        index += 1
    return shards


def trim_shard_waveform(
    wave: Waveform, shard: Shard, duration: int, overlap: int
) -> Waveform:
    """Trim one shard's output waveform to its owned ``[start, end)`` range.

    Mirrors the engine's per-window readback trim bit-exactly: the settle
    margin on the left is dropped, and so is the propagation tail past the
    right edge — unless overlap is disabled or this is the final shard
    (nothing follows it to reproduce the tail).  ``wave`` is in shard-run
    local time (0 = ``shard.ext_start``); the result is rebased so 0 =
    ``shard.start``.

    The trim is two ``searchsorted`` calls over the toggle array — the
    vectorized equivalent of ``wave.window(margin, right_edge)``, same as
    :func:`~repro.core.restructure.slice_stimulus` — because the merge
    runs once per (net, shard) and a per-event Python slice would
    dominate the whole sharded run on large designs.
    """
    hnp = HOST
    if overlap > 0 and shard.end < duration:
        right_edge = shard.end - shard.ext_start
    else:
        right_edge = EOW - 1
    if shard.margin == 0 and right_edge == EOW - 1:
        return wave
    toggles = wave.timestamps[1:]
    # Keep toggles strictly inside (margin, right_edge); the establishing
    # value absorbs the parity of the dropped left-margin toggles —
    # bit-identical to Waveform.window(margin, right_edge, rebase=True).
    lo = int(hnp.searchsorted(toggles, shard.margin, side="right"))
    hi = int(hnp.searchsorted(toggles, right_edge, side="left"))
    initial = wave.initial_value ^ (lo & 1)
    return Waveform.from_toggle_array(initial, toggles[lo:hi] - shard.margin)


def merge_shard_waveforms(
    shards: Sequence[Shard], waves: Sequence[Waveform]
) -> Waveform:
    """Stitch trimmed per-shard waveforms into one full-run waveform.

    ``waves[k]`` must be :func:`trim_shard_waveform` output for
    ``shards[k]`` (local time 0 = ``shards[k].start``).  Seams are
    resolved by :func:`~repro.core.restructure.stitch_windows` — the very
    rules the engine applies between its own cycle-parallel windows, so a
    toggle landing exactly on a shard boundary is counted once.
    """
    if len(shards) != len(waves):
        raise ValueError("one waveform per shard is required")
    hnp = HOST
    window_starts = hnp.asarray([s.start for s in shards], dtype=hnp.int64)
    establish = hnp.asarray([w.initial_value for w in waves], dtype=hnp.int64)
    counts = hnp.asarray([w.toggle_count() for w in waves], dtype=hnp.int64)
    times = (
        hnp.concatenate(
            [w.timestamps[1:] + s.start for s, w in zip(shards, waves)]
        )
        if waves
        else hnp.zeros(0, dtype=hnp.int64)
    )
    return stitch_windows(window_starts, establish, counts, times)
