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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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


# ----------------------------------------------------------------------
# Time-axis request fusion (micro-batching onto one run)
# ----------------------------------------------------------------------
#
# Sharding splits one run into shares; *fusion* is the same carve-and-merge
# invariant pointed the other way: several independent requests for the same
# compiled design are laid out back to back on the time axis — separated by
# settle pads sized like the window margin — executed as ONE engine run, and
# sliced apart again bit-exactly.  It is what makes micro-batched serving
# pay: the engine's per-level-batch and per-net fixed costs are paid once
# per *batch* instead of once per *request*.
#
# The pad between request ``i`` and ``i+1`` is ``2 * overlap`` long: the
# first half holds every source at request ``i``'s final value, so request
# ``i``'s propagation tail (bounded by the critical-path margin) evolves
# exactly as in a standalone run; the second half holds request ``i+1``'s
# initial values, so the network settles to request ``i+1``'s initial gate
# state before its range begins — the same settle argument the engine's
# window margins rest on.


@dataclass(frozen=True)
class FusedLayout:
    """Time-axis placement of a batch of fused requests.

    Request ``i`` owns ``[offsets[i], offsets[i] + durations[i])`` of the
    fused run; ``overlap`` is the settle-pad half-width (the engine's
    window margin).
    """

    offsets: Tuple[int, ...]
    durations: Tuple[int, ...]
    overlap: int

    @property
    def batch_size(self) -> int:
        return len(self.offsets)

    @property
    def fused_duration(self) -> int:
        return self.offsets[-1] + self.durations[-1]


def plan_fusion(durations: Sequence[int], overlap: int) -> FusedLayout:
    """Lay requests out on the fused time axis with settle pads between."""
    if not durations:
        raise ValueError("at least one request is required")
    if overlap <= 0:
        raise ValueError("fusion requires a positive settle overlap")
    offsets: List[int] = [0]
    for duration in durations[:-1]:
        if duration < 1:
            raise ValueError("request durations must be positive")
        offsets.append(offsets[-1] + duration + 2 * overlap)
    if durations[-1] < 1:
        raise ValueError("request durations must be positive")
    return FusedLayout(
        offsets=tuple(offsets), durations=tuple(durations), overlap=overlap
    )


def fuse_stimuli(
    nets: Sequence[str],
    stimuli: Sequence[Dict[str, Waveform]],
    layout: FusedLayout,
) -> Dict[str, Waveform]:
    """Concatenate per-request stimuli into one fused stimulus.

    Per net: request ``i``'s toggles — clipped to its horizon, exactly as
    a standalone run's window slicing never loads events at or past the
    duration — shift by ``offsets[i]``; where consecutive requests
    disagree across a pad, a boundary toggle at the pad midpoint
    (``offset[i] + duration[i] + overlap``) switches the source from
    request ``i``'s final value to request ``i+1``'s initial value — late
    enough that request ``i``'s kept tail region still sees its own final
    values, early enough that the network settles before request ``i+1``
    begins.
    """
    hnp = HOST
    fused: Dict[str, Waveform] = {}
    for net in nets:
        pieces: List = []
        value = stimuli[0][net].initial_value
        initial = value
        for index, stimulus in enumerate(stimuli):
            wave = stimulus[net]
            offset = layout.offsets[index]
            if wave.initial_value != value:
                # Pad midpoint switch into this request's initial value.
                pieces.append(
                    hnp.asarray([offset - layout.overlap], dtype=hnp.int64)
                )
                value = wave.initial_value
            toggles = wave.timestamps[1:]
            # Clip to the request's horizon: a standalone run ignores
            # toggles at or past ``duration`` (its windows end there), and
            # unclipped they would spill into the settle pad — or past the
            # next request's offset entirely.
            clip = int(
                hnp.searchsorted(toggles, layout.durations[index], side="left")
            )
            toggles = toggles[:clip]
            if toggles.size:
                pieces.append(toggles + offset)
                value ^= int(toggles.size & 1)
        times = (
            hnp.concatenate(pieces) if pieces
            else hnp.zeros(0, dtype=hnp.int64)
        )
        fused[net] = Waveform.from_toggle_array(initial, times)
    return fused


def split_fused_waveform(
    wave: Waveform, layout: FusedLayout, index: int
) -> Waveform:
    """Slice request ``index``'s waveform back out of a fused result.

    Keeps the establishing value at the request's offset and every toggle
    strictly inside ``(offset, offset + duration + overlap)`` — the
    request's own range plus its propagation tail, exactly the range a
    standalone run's final window keeps.  The pad's switch toggle sits at
    the slice boundary and is excluded on both sides.
    """
    hnp = HOST
    offset = layout.offsets[index]
    end = offset + layout.durations[index] + layout.overlap
    toggles = wave.timestamps[1:]
    lo = int(hnp.searchsorted(toggles, offset, side="right"))
    hi = int(hnp.searchsorted(toggles, end, side="left"))
    initial = wave.initial_value ^ (lo & 1)
    return Waveform.from_toggle_array(initial, toggles[lo:hi] - offset)
