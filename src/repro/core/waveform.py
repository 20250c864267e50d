"""Array waveform format used throughout GATSPI (paper Fig. 3).

A waveform is a flat integer array of toggle timestamps:

* Each entry is a timestamp at which the signal changes value.
* The logic value is encoded in the *index* of the entry: the signal value
  after the toggle stored at an even index is 0, after an odd index it is 1.
* An optional leading ``-1`` placeholder shifts the first real timestamp to an
  odd index, which is how an initial value of 1 is encoded.
* The array is terminated by the end-of-waveform sentinel ``EOW``
  (``INT32_MAX``).

Example from the paper::

    A = [-1, 0, 34, 59, 123, ..., 74832, EOW]   # initial value 1
    B = [0, 4, 78, ..., 367, EOW]               # initial value 0

The first entry (timestamp 0, possibly preceded by ``-1``) *establishes* the
initial value and is not counted as a toggle; every subsequent entry is a real
transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: End-of-waveform sentinel, INT32_MAX as in the paper.
EOW: int = 2**31 - 1

#: Placeholder used at index 0 to encode an initial value of 1.
INITIAL_ONE_MARKER: int = -1

#: The one dtype used for waveform arrays and the device memory pool.
#: Timestamps are stored as 64-bit integers while ``EOW`` stays at the
#: paper's INT32_MAX, so overflow guarding happens against the sentinel
#: value (see :mod:`repro.core.memory`), never against the dtype limit.
POOL_DTYPE = np.int64


class WaveformError(ValueError):
    """Raised when a waveform array violates the Fig. 3 format."""


def _as_int_array(values: Iterable[int]) -> np.ndarray:
    if isinstance(values, np.ndarray):
        if values.dtype == POOL_DTYPE and not values.flags.writeable:
            # Zero-copy path: pool readback hands in *read-only* views of the
            # waveform pool; keep them as views.  Writeable arrays are copied
            # so a caller mutating its array cannot invalidate a validated
            # waveform after the fact.
            arr = values
        else:
            arr = values.astype(POOL_DTYPE)  # astype always copies here
    else:
        arr = np.asarray(list(values), dtype=POOL_DTYPE)
    if arr.ndim != 1:
        raise WaveformError("waveform data must be one-dimensional")
    return arr


@dataclass(frozen=True)
class Waveform:
    """A single signal waveform in the GATSPI array format.

    ``data`` always includes the trailing ``EOW`` sentinel and, when the
    initial value is 1, the leading ``-1`` marker.  Instances are immutable;
    all constructors validate the format.
    """

    data: np.ndarray

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        arr = _as_int_array(self.data)
        object.__setattr__(self, "data", arr)
        self._validate()

    @classmethod
    def from_array(cls, data: Sequence[int]) -> "Waveform":
        """Build a waveform directly from a raw Fig. 3 array (with EOW)."""
        return cls(_as_int_array(data))

    @classmethod
    def constant(cls, value: int, start_time: int = 0) -> "Waveform":
        """A waveform that holds ``value`` from ``start_time`` onward."""
        if value not in (0, 1):
            raise WaveformError(f"logic value must be 0 or 1, got {value!r}")
        if value == 0:
            return cls.from_array([start_time, EOW])
        return cls.from_array([INITIAL_ONE_MARKER, start_time, EOW])

    @classmethod
    def from_changes(cls, changes: Sequence[Tuple[int, int]]) -> "Waveform":
        """Build a waveform from ``(time, value)`` pairs.

        The first pair establishes the initial value.  Pairs must be sorted by
        strictly increasing time; consecutive pairs with equal values are
        collapsed (they are not toggles).
        """
        if not changes:
            raise WaveformError("at least one (time, value) change is required")
        filtered: List[Tuple[int, int]] = []
        for time, value in changes:
            if value not in (0, 1):
                raise WaveformError(f"logic value must be 0 or 1, got {value!r}")
            if filtered and filtered[-1][1] == value:
                continue
            if filtered and time <= filtered[-1][0]:
                raise WaveformError(
                    f"change times must be strictly increasing, got {time} after "
                    f"{filtered[-1][0]}"
                )
            filtered.append((int(time), int(value)))
        first_time, first_value = filtered[0]
        data: List[int] = []
        if first_value == 1:
            data.append(INITIAL_ONE_MARKER)
        data.extend(time for time, _ in filtered)
        data.append(EOW)
        return cls.from_array(data)

    @classmethod
    def from_toggle_array(
        cls, initial_value: int, toggle_times: Sequence[int], start_time: int = 0
    ) -> "Waveform":
        """Build a waveform from an initial value and an *array* of toggles.

        The vectorized counterpart of :meth:`from_initial_and_toggles`: the
        Fig. 3 array is assembled directly from ``toggle_times`` (which must
        already be sorted, strictly increasing, and greater than
        ``start_time`` — validation rejects anything else) instead of
        looping over per-change Python tuples.  This is the constructor the
        bulk restructure/slicing paths use.
        """
        if initial_value not in (0, 1):
            raise WaveformError(
                f"logic value must be 0 or 1, got {initial_value!r}"
            )
        times = np.asarray(toggle_times, dtype=POOL_DTYPE)
        if times.ndim != 1:
            raise WaveformError("toggle times must be one-dimensional")
        marker = 1 if initial_value else 0
        data = np.empty(times.size + marker + 2, dtype=POOL_DTYPE)
        if marker:
            data[0] = INITIAL_ONE_MARKER
        data[marker] = start_time
        data[marker + 1 : marker + 1 + times.size] = times
        data[-1] = EOW
        data.setflags(write=False)
        return cls(data)

    @classmethod
    def from_initial_and_toggles(
        cls, initial_value: int, toggle_times: Sequence[int], start_time: int = 0
    ) -> "Waveform":
        """Build a waveform from an initial value and a list of toggle times.

        The initial value is established at ``start_time``; each toggle flips
        the value.  Toggle times must be strictly increasing and greater than
        ``start_time``.
        """
        changes: List[Tuple[int, int]] = [(start_time, initial_value)]
        value = initial_value
        for time in toggle_times:
            value ^= 1
            changes.append((int(time), value))
        return cls.from_changes(changes)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        arr = self.data
        if arr.size < 2:
            raise WaveformError("waveform must contain at least one timestamp and EOW")
        if arr[-1] != EOW:
            raise WaveformError("waveform must be terminated by EOW")
        body = arr[:-1]
        if body.size == 0:
            raise WaveformError("waveform must contain at least one timestamp")
        start = 0
        if body[0] == INITIAL_ONE_MARKER:
            start = 1
            if body.size < 2:
                raise WaveformError("waveform with -1 marker needs a timestamp")
        timestamps = body[start:]
        if timestamps.size and np.any(timestamps < 0):
            raise WaveformError("timestamps must be non-negative")
        if timestamps.size > 1 and np.any(np.diff(timestamps) <= 0):
            raise WaveformError("timestamps must be strictly increasing")
        if timestamps.size and np.any(timestamps >= EOW):
            raise WaveformError("timestamps must be smaller than EOW")

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def has_initial_one_marker(self) -> bool:
        return bool(self.data[0] == INITIAL_ONE_MARKER)

    @property
    def start_index(self) -> int:
        """Index of the first real timestamp (0 or 1 depending on marker)."""
        return 1 if self.has_initial_one_marker else 0

    @property
    def timestamps(self) -> np.ndarray:
        """All toggle timestamps (including the establishing entry), no EOW."""
        return self.data[self.start_index : -1]

    @property
    def initial_value(self) -> int:
        """Logic value established by the first entry."""
        return self.start_index & 1

    @property
    def start_time(self) -> int:
        """Time at which the initial value is established."""
        return int(self.data[self.start_index])

    @property
    def final_value(self) -> int:
        """Logic value after the last transition."""
        last_index = self.data.size - 2  # index of last timestamp
        return last_index & 1

    def toggle_count(self) -> int:
        """Number of real transitions (excludes the establishing entry).

        This is the TC value recorded by the first GATSPI kernel pass and the
        value written to SAIF.
        """
        return int(self.timestamps.size - 1)

    def __len__(self) -> int:
        return int(self.data.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Waveform):
            return NotImplemented
        return bool(
            self.data.size == other.data.size and np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> int:
        return hash(self.data.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(str(int(v)) for v in self.data[:-1])
        return f"Waveform([{body}, EOW])"

    # ------------------------------------------------------------------
    # Value queries
    # ------------------------------------------------------------------
    def changes(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(time, value)`` pairs, including the establishing entry."""
        data = self.data
        for index in range(self.start_index, data.size - 1):
            yield int(data[index]), index & 1

    def value_at(self, time: int) -> int:
        """Logic value at ``time`` (after any toggle occurring exactly then).

        Before the establishing entry the signal is assumed to already hold
        its initial value.
        """
        timestamps = self.timestamps
        # Index of the last timestamp <= time.
        position = int(np.searchsorted(timestamps, time, side="right")) - 1
        if position < 0:
            return self.initial_value
        return (self.start_index + position) & 1

    def toggles_in(self, t_start: int, t_end: int) -> int:
        """Count transitions with ``t_start < t <= t_end`` (establishing entry
        excluded)."""
        times = self.timestamps[1:]
        if times.size == 0:
            return 0
        lo = int(np.searchsorted(times, t_start, side="right"))
        hi = int(np.searchsorted(times, t_end, side="right"))
        return hi - lo

    def duration_at(self, value: int, t_start: int, t_end: int) -> int:
        """Total time spent at ``value`` within ``[t_start, t_end]``.

        Used for SAIF T0/T1 accounting.
        """
        if value not in (0, 1):
            raise WaveformError(f"logic value must be 0 or 1, got {value!r}")
        if t_end < t_start:
            raise WaveformError("t_end must not precede t_start")
        total = 0
        current_time = t_start
        current_value = self.value_at(t_start)
        for time, new_value in self.changes():
            if time <= t_start:
                continue
            if time > t_end:
                break
            if current_value == value:
                total += time - current_time
            current_time = time
            current_value = new_value
        if current_value == value:
            total += t_end - current_time
        return total

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def shifted(self, offset: int) -> "Waveform":
        """Return a copy with every timestamp shifted by ``offset``."""
        changes = [(time + offset, value) for time, value in self.changes()]
        if changes and changes[0][0] < 0:
            raise WaveformError("shift would produce negative timestamps")
        return Waveform.from_changes(changes)

    def window(self, t_start: int, t_end: int, rebase: bool = True) -> "Waveform":
        """Slice the waveform to the half-open window ``[t_start, t_end)``.

        The returned waveform establishes the value held at ``t_start`` and
        contains every transition strictly inside the window.  When ``rebase``
        is true the timestamps are shifted so the window starts at 0 — this is
        the cycle-parallelism restructuring step of the paper (Fig. 5).
        """
        if t_end <= t_start:
            raise WaveformError("window end must be after window start")
        changes: List[Tuple[int, int]] = [(t_start, self.value_at(t_start))]
        for time, value in self.changes():
            if time <= t_start:
                continue
            if time >= t_end:
                break
            changes.append((time, value))
        if rebase:
            changes = [(time - t_start, value) for time, value in changes]
        return Waveform.from_changes(changes)

    def inverted(self) -> "Waveform":
        """Return the logical complement of this waveform."""
        changes = [(time, value ^ 1) for time, value in self.changes()]
        return Waveform.from_changes(changes)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_list(self) -> List[int]:
        """Return the raw Fig. 3 array (including markers and EOW)."""
        return [int(v) for v in self.data]

    def to_change_list(self) -> List[Tuple[int, int]]:
        """Return ``(time, value)`` pairs including the establishing entry."""
        return list(self.changes())


def concatenate_windows(windows: Sequence[Waveform], window_length: int) -> Waveform:
    """Stitch per-window waveforms back into one waveform.

    Window ``k`` is assumed to cover ``[k * window_length, (k+1) *
    window_length)`` in rebased (window-local) time.  This is the inverse of
    :meth:`Waveform.window` and is used when combining cycle-parallel results.
    """
    if not windows:
        raise WaveformError("at least one window is required")
    changes: List[Tuple[int, int]] = []
    for index, wave in enumerate(windows):
        offset = index * window_length
        for time, value in wave.changes():
            absolute = time + offset
            if changes and changes[-1][1] == value:
                continue
            if changes and absolute <= changes[-1][0]:
                raise WaveformError(
                    "window waveforms overlap; check window_length"
                )
            changes.append((absolute, value))
    return Waveform.from_changes(changes)
