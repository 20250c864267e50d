"""Vectorized testbench restructure / load / readback pipeline (Fig. 5).

The GATSPI application phases around the kernel — slicing every source
waveform into cycle-parallel windows, loading the slices into the device
memory pool, and stitching per-window outputs back into full-run waveforms —
used to be per-``(net, window)`` Python loops over :class:`Waveform`
objects.  After the level-batched vector kernel (PR 2) they became the
dominant non-kernel cost.  This module keeps every one of those phases in
bulk array form:

* :func:`lower_stimulus` flattens the stimulus once per run into one
  concatenated event tensor (toggle times, per-net offsets, initial values)
  on the host; :meth:`SourceEvents.to_device` then moves it to the
  configured array backend — the *single* host→device transfer of the
  stimulus path.
* :func:`slice_windows` computes every ``(net, window)`` slice bound with
  two ``searchsorted`` calls over the whole tensor — no per-window copies.
  The slices feed :meth:`~repro.core.memory.WaveformPool.load_windows`,
  which writes all windows of a batch with a handful of scatters.
* :func:`trim_readback` trims every stored output window to its
  ``[start, end)`` range (dropping the settle margin and the propagation
  tail) in one segmented ``searchsorted`` pass; its result is moved back to
  the host in one step (:meth:`TrimmedReadback.to_host`) — the single
  device→host transfer of the readback path.
* :func:`stitch_windows` reassembles the full-run waveform of a net from
  its trimmed windows, reproducing the engine's sequential seam rules
  bit-exactly (an array fast path covers the common seam-consistent case).
  Stitching consumes host arrays, so it always runs on the numpy backend.

Every device-side function takes the array backend as an ``xp`` parameter
(:mod:`repro.core.xp`), defaulting to the host numpy backend — whose
operations *are* the numpy functions, so the default path is bit-identical
to the pre-xp pipeline.  The per-object reference pipeline lives in
:mod:`repro.reference.oracle_engine` (backend ``"gatspi-oracle"``), next to
the scalar kernel it runs; the differential suites hold this module to it.

Segmented ``searchsorted``
--------------------------

Several phases need, for *each* of ``T`` independently-sorted segments
packed in one flat buffer, the number of elements below a per-segment
threshold.  Every timestamp is in ``[0, EOW)``, so shifting segment ``k``
(values and threshold alike) by ``k * S`` — with a stride ``S`` exceeding
both ``EOW`` and every threshold, since thresholds may be *absolute* times
past ``EOW`` on runs longer than the sentinel — makes the flat buffer
globally sorted and keeps every query inside its own segment's band; a
single ``searchsorted`` then answers all ``T`` queries at once.  ``int64``
gives this trick headroom for billions of segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from .waveform import EOW, INITIAL_ONE_MARKER, POOL_DTYPE, Waveform
from .xp import HOST, ArrayBackend, is_host


# ----------------------------------------------------------------------
# Lowered stimulus event tensors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SourceEvents:
    """The whole stimulus lowered to one flat event tensor.

    ``times`` concatenates every source net's *real* toggle times (the
    establishing entry of each waveform is not a transition); net ``i``
    owns ``times[offsets[i]:offsets[i+1]]``, sorted ascending.  Built once
    per run and reused by every pool-overflow segment batch.  ``device``
    names the array backend the tensors live on.
    """

    nets: Tuple[str, ...]
    times: "object"  # flat int64 toggle times, per-net sorted
    offsets: "object"  # (N+1,) int64 prefix offsets into times
    initial_values: "object"  # (N,) int64 in {0, 1}
    device: str = "numpy"

    @property
    def net_count(self) -> int:
        return len(self.nets)

    def to_device(self, xp: ArrayBackend) -> "SourceEvents":
        """Move the event tensors to ``xp`` (identity for numpy).

        This is the stimulus path's one host→device transfer point: every
        segment batch afterwards slices the same device tensors.
        """
        if is_host(xp):
            return self
        return SourceEvents(
            nets=self.nets,
            times=xp.asarray(self.times, xp.int64),
            offsets=xp.asarray(self.offsets, xp.int64),
            initial_values=xp.asarray(self.initial_values, xp.int64),
            device=xp.name,
        )


class StreamingSourceEvents:
    """Produces the stimulus one window-span at a time.

    The out-of-core replay pipeline never lowers the whole run; instead it
    asks a stream for the events of each chunk's extended time span and
    feeds the resulting :class:`SourceEvents` straight into
    :func:`slice_windows`.  Implementations must honour the span contract:

    * ``span_events(start, end)`` returns the toggles with
      ``start < t < end`` in *absolute* time, per net, with
      ``initial_values`` holding each net's logic value at ``start`` —
      exactly :meth:`Waveform.window`'s establishment rule, so
      :func:`slice_windows` over the span (with window bounds inside
      ``[start, end]``) is bit-identical to slicing the whole-run tensor.
    * Spans advance monotonically: ``start`` never precedes an earlier
      call's ``retire_before``.  Passing ``retire_before`` tells the
      stream no later span will start before that time, allowing it to
      fold older toggles into its base values and free them — this is
      what bounds memory to O(span + lookback).

    Concrete producers: :class:`WaveformEventStream` (in-memory stimulus)
    and :class:`repro.waveforms.vcd.VcdEventStream` (incremental VCD).
    """

    @property
    def nets(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def span_events(
        self, start: int, end: int, retire_before: int = 0
    ) -> SourceEvents:
        raise NotImplementedError


class WaveformEventStream(StreamingSourceEvents):
    """Window-span producer over an in-memory stimulus mapping.

    Lowers the stimulus once (it is already resident) and answers spans
    with two segmented ``searchsorted`` calls — the streaming counterpart
    of handing :func:`lower_stimulus`'s tensor to :func:`slice_windows`
    directly.  Useful for driving the streaming execution path from
    ordinary stimulus dicts (tests, benches, differential harnesses).
    """

    def __init__(
        self, nets: Sequence[str], stimulus: Mapping[str, Waveform]
    ) -> None:
        self._events = lower_stimulus(nets, stimulus)

    @property
    def nets(self) -> Tuple[str, ...]:
        return self._events.nets

    def span_events(
        self, start: int, end: int, retire_before: int = 0
    ) -> SourceEvents:
        if end <= start:
            raise ValueError("span end must be after span start")
        hnp = HOST
        events = self._events
        N = events.net_count
        thresholds_lo = hnp.full(N, start, dtype=hnp.int64)
        thresholds_hi = hnp.full(N, end - 1, dtype=hnp.int64)
        lo = segmented_counts(
            events.times, events.offsets, thresholds_lo, side="right"
        )
        hi = segmented_counts(
            events.times, events.offsets, thresholds_hi, side="right"
        )
        counts = hi - lo
        initial = events.initial_values ^ (lo & 1)
        times = gather_segments(events.times, events.offsets[:-1] + lo, counts)
        offsets = hnp.zeros(N + 1, dtype=hnp.int64)
        offsets[1:] = hnp.cumsum(counts)
        return SourceEvents(
            nets=events.nets,
            times=times,
            offsets=offsets,
            initial_values=initial,
        )


def lower_stimulus(
    nets: Sequence[str], stimulus: Mapping[str, Waveform]
) -> SourceEvents:
    """Flatten ``stimulus`` into one host-side :class:`SourceEvents` tensor."""
    hnp = HOST
    nets = tuple(nets)
    chunks: List = []
    offsets = hnp.zeros(len(nets) + 1, dtype=hnp.int64)
    initial_values = hnp.zeros(len(nets), dtype=hnp.int64)
    for i, net in enumerate(nets):
        wave = stimulus[net]
        toggles = wave.timestamps[1:]  # skip the establishing entry
        chunks.append(toggles)
        offsets[i + 1] = offsets[i] + toggles.size
        initial_values[i] = wave.initial_value
    times = (
        hnp.concatenate(chunks) if chunks else hnp.zeros(0, dtype=POOL_DTYPE)
    )
    return SourceEvents(
        nets=nets, times=times, offsets=offsets, initial_values=initial_values
    )


@dataclass(frozen=True)
class WindowSlices:
    """Per-``(net, window)`` slice bounds into a :class:`SourceEvents` tensor.

    All arrays are ``(N, W)``: ``starts`` indexes ``SourceEvents.times``,
    ``counts`` is the number of toggles strictly inside the extended
    window, and ``initial_values`` is the logic value each sliced waveform
    establishes at its (extended) window start.
    """

    starts: "object"
    counts: "object"
    initial_values: "object"


def slice_windows(
    events: SourceEvents,
    window_starts,
    window_ends,
    xp: ArrayBackend = HOST,
) -> WindowSlices:
    """Slice every source net into every window, without copying events.

    ``window_starts`` are the margin-extended starts; a slice establishes
    ``value_at(start)`` and contains the toggles with ``start < t < end``
    — exactly :meth:`Waveform.window`'s contract, computed for all
    ``N * W`` pairs with two ``searchsorted`` calls on ``xp``.
    """
    N = events.net_count
    starts = xp.ascontiguousarray(window_starts, xp.int64)
    ends = xp.ascontiguousarray(window_ends, xp.int64)
    seg_base = events.offsets[:-1][:, None]
    counts_per_net = xp.diff(events.offsets)
    # Window bounds are absolute times and may exceed EOW on runs longer
    # than the sentinel (event *times* never do); the stride must cover
    # the largest query so no query escapes its segment's band.
    stride = _segment_stride(ends, xp)
    if N * stride < _SHIFT_OVERFLOW_GUARD:
        rows = xp.repeat(xp.arange(N, dtype=xp.int64), counts_per_net)
        shifted = events.times + rows * stride
        shift = xp.arange(N, dtype=xp.int64)[:, None] * stride
        lo = (
            xp.searchsorted(shifted, starts[None, :] + shift, side="right")
            - seg_base
        )
        hi = (
            xp.searchsorted(shifted, ends[None, :] + shift, side="left")
            - seg_base
        )
    else:
        # Degenerate horizon (duration ~2**62 time units): shift arithmetic
        # would overflow int64, so fall back to one searchsorted per net.
        W = xp.size(starts)
        lo = xp.empty((N, W), dtype=xp.int64)
        hi = xp.empty((N, W), dtype=xp.int64)
        for i in range(N):
            net_times = events.times[
                int(events.offsets[i]) : int(events.offsets[i + 1])
            ]
            lo[i] = xp.searchsorted(net_times, starts, side="right")
            hi[i] = xp.searchsorted(net_times, ends, side="left")
    initial = events.initial_values[:, None] ^ (lo & 1)
    return WindowSlices(
        starts=seg_base + lo, counts=hi - lo, initial_values=initial
    )


# ----------------------------------------------------------------------
# Segmented gather / trim helpers (readback path)
# ----------------------------------------------------------------------
#: Ceiling for ``segments * stride`` so the shifted buffers stay in int64.
_SHIFT_OVERFLOW_GUARD = 1 << 62


def _segment_stride(thresholds, xp: ArrayBackend = HOST) -> int:
    """Per-segment shift stride covering every value (< ``EOW``) and query."""
    if xp.size(thresholds) == 0:
        return EOW
    return max(EOW, int(xp.max(thresholds)) + 1)


def gather_segments(buffer, starts, counts, xp: ArrayBackend = HOST):
    """Concatenate ``buffer[starts[k] : starts[k] + counts[k]]`` for all k."""
    counts = xp.ascontiguousarray(counts, xp.int64)
    total = int(xp.sum(counts))
    if total == 0:
        return buffer[:0]
    ramp = xp.arange(total, dtype=xp.int64)
    seg_base = xp.cumsum(counts) - counts
    ramp -= xp.repeat(seg_base, counts)
    return buffer[xp.repeat(xp.ascontiguousarray(starts, xp.int64), counts) + ramp]


def segmented_counts(
    values,
    seg_offsets,
    thresholds,
    side: str,
    xp: ArrayBackend = HOST,
):
    """Per-segment ``searchsorted`` over one flat buffer.

    ``values`` holds ``T`` independently sorted segments (segment ``k`` is
    ``values[seg_offsets[k]:seg_offsets[k+1]]``), every element in
    ``[0, EOW)``.  Returns, for each segment, the number of its elements
    ``<= thresholds[k]`` (``side="right"``) or ``< thresholds[k]``
    (``side="left"``), using the per-segment shift trick from the module
    docstring.
    """
    T = xp.size(thresholds)
    counts = xp.diff(seg_offsets)
    stride = _segment_stride(thresholds, xp)
    if T * stride >= _SHIFT_OVERFLOW_GUARD:
        # Degenerate horizon: shift arithmetic would overflow int64.
        return xp.asarray(
            [
                int(
                    xp.searchsorted(
                        values[int(seg_offsets[k]) : int(seg_offsets[k + 1])],
                        int(thresholds[k]),
                        side=side,
                    )
                )
                for k in range(T)
            ],
            dtype=xp.int64,
        )
    rows = xp.repeat(xp.arange(T, dtype=xp.int64), counts)
    shifted = values + rows * stride
    queries = thresholds + xp.arange(T, dtype=xp.int64) * stride
    return xp.searchsorted(shifted, queries, side=side) - seg_offsets[:-1]


@dataclass(frozen=True)
class TrimmedReadback:
    """Output windows of one batch, trimmed and lifted to absolute time.

    Tasks are net-major (``task = net * B + window``, ``B`` windows in the
    batch).  ``times`` is flat in task order; window ``b`` of net ``n``
    owns ``counts[n, b]`` entries.  ``establish_values`` is the logic value
    each trimmed window establishes at its window start.
    """

    establish_values: "object"  # (N, B)
    counts: "object"  # (N, B)
    times: "object"  # flat int64, absolute time

    def to_host(self, xp: ArrayBackend) -> "TrimmedReadback":
        """Move the trimmed batch to host numpy arrays.

        This is the readback path's one device→host transfer point; result
        accumulation and stitching run on the host afterwards.
        """
        if is_host(xp):
            return self
        return TrimmedReadback(
            establish_values=xp.to_host(self.establish_values),
            counts=xp.to_host(self.counts),
            times=xp.to_host(self.times),
        )


def trim_readback(
    local_times,
    task_offsets,
    initial_values,
    margins,
    right_edges,
    apply_trim,
    absolute_offsets,
    net_count: int,
    window_count: int,
    xp: ArrayBackend = HOST,
) -> TrimmedReadback:
    """Trim every stored output window to its ``[start, end)`` range.

    ``local_times`` concatenates the stored (window-local) toggle times of
    all ``T = net_count * window_count`` tasks (net-major); per task,
    trimming keeps the toggles strictly inside ``(margin, right_edge)`` —
    dropping the settle margin on the left and the propagation tail on the
    right — unless ``apply_trim`` is false (final window / no overlap), in
    which case the window is kept whole, exactly as the reference readback
    does.  ``margins``/``right_edges``/``apply_trim`` are per task;
    ``absolute_offsets`` (the extended window starts, one per window)
    lifts kept times to absolute time.
    """
    toggle_counts = xp.diff(task_offsets)
    if net_count == 0 or window_count == 0:
        return TrimmedReadback(
            establish_values=xp.zeros((net_count, window_count), dtype=xp.int64),
            counts=xp.zeros((net_count, window_count), dtype=xp.int64),
            times=xp.zeros(0, dtype=xp.int64),
        )
    lcnt = segmented_counts(local_times, task_offsets, margins, side="right", xp=xp)
    rcnt = segmented_counts(local_times, task_offsets, right_edges, side="left", xp=xp)
    lcnt = xp.where(apply_trim, lcnt, 0)
    rcnt = xp.where(apply_trim, rcnt, toggle_counts)
    kept = rcnt - lcnt
    establish = (initial_values ^ (lcnt & 1)).reshape(net_count, window_count)
    times = gather_segments(local_times, task_offsets[:-1] + lcnt, kept, xp=xp)
    per_task_offset = xp.broadcast_to(
        absolute_offsets, (net_count, window_count)
    ).ravel()
    times = times + xp.repeat(per_task_offset, kept)
    return TrimmedReadback(
        establish_values=establish,
        counts=kept.reshape(net_count, window_count),
        times=times,
    )


# ----------------------------------------------------------------------
# Stitching (vectorized inverse of the restructure step)
# ----------------------------------------------------------------------
def _waveform_from_times(first_value: int, times) -> Waveform:
    """Build a waveform whose change times are ``times`` (first establishes)."""
    hnp = HOST
    data = hnp.empty(times.size + 1 + (1 if first_value else 0), dtype=POOL_DTYPE)
    cursor = 0
    if first_value:
        data[0] = INITIAL_ONE_MARKER
        cursor = 1
    data[cursor : cursor + times.size] = times
    data[-1] = EOW
    data.setflags(write=False)
    return Waveform(data)


def stitch_windows(
    window_starts,
    establish_values,
    toggle_counts,
    times,
) -> Waveform:
    """Stitch trimmed per-window outputs back into one full-run waveform.

    Reproduces the engine's sequential seam rules bit-exactly: a change is
    dropped when it repeats the last kept value, or when its time does not
    advance past the last kept change (a window-boundary artefact).  The
    common case — every window establishes exactly the value its
    predecessor ended on and times strictly advance across seams — is
    recognised with three array comparisons and handled without any
    per-window work; otherwise only each window's seam is resolved
    sequentially (never individual events).

    ``window_starts`` are the absolute establishing times (one per
    window), ``times`` the flat absolute toggle times, window-major.
    Inputs are host arrays (readback has already crossed the device→host
    transfer point), so stitching always runs on the numpy backend.
    """
    if window_starts.size == 0:
        return _waveform_from_times(0, HOST.zeros(1, dtype=HOST.int64))
    return _waveform_from_times(
        int(establish_values[0]),
        stitched_times(window_starts, establish_values, toggle_counts, times),
    )


def stitched_times(window_starts, establish_values, toggle_counts, times):
    """The change times :func:`stitch_windows` keeps, window 0's
    establishing entry first — so ``size - 1`` is the stitched toggle
    count, which counts-only readback takes without building a waveform.
    Needs at least one window."""
    hnp = HOST
    W = window_starts.size
    finals = establish_values ^ (toggle_counts & 1)
    seam_consistent = bool(
        hnp.array_equal(establish_values[1:], finals[:-1])
        and (
            times.size == 0
            or (
                times[0] > window_starts[0]
                and bool(hnp.all(hnp.diff(times) > 0))
            )
        )
    )
    if seam_consistent:
        # Every non-first establishing entry repeats its predecessor's
        # final value (dropped by the value rule); all toggles advance.
        all_times = hnp.empty(times.size + 1, dtype=hnp.int64)
        all_times[0] = window_starts[0]
        all_times[1:] = times
        return all_times

    pieces: List = []
    last_time = 0
    last_value = -1  # no change kept yet
    offset = 0
    for w in range(W):
        count = int(toggle_counts[w])
        seg = times[offset : offset + count]
        offset += count
        t0 = int(window_starts[w])
        v0 = int(establish_values[w])
        if last_value < 0 or (v0 != last_value and t0 > last_time):
            # The establishing entry is kept; the window's own toggles
            # alternate from it with increasing times, so all follow.
            pieces.append(hnp.asarray([t0], dtype=hnp.int64))
            pieces.append(seg)
        else:
            # The establishing entry is dropped (same value, or a seam
            # artefact at or before the last kept change).  The first
            # surviving toggle is the first one past the last kept time
            # whose value differs from the last kept value; values
            # alternate, so it is that index or the one after.
            i = int(hnp.searchsorted(seg, last_time, side="right"))
            if i < count and (v0 ^ ((i + 1) & 1)) == last_value:
                i += 1
            if i >= count:
                continue
            pieces.append(seg[i:])
        last_time = int(seg[-1]) if count else t0
        last_value = v0 ^ (count & 1)
    # Window 0 always keeps its establishing entry, so pieces is non-empty
    # and the stitched waveform establishes window 0's value.
    return hnp.concatenate(pieces)
