"""Shared-memory views over the packed design tensors.

``gatspi:workers=process:N`` (:mod:`repro.core.workers`) runs each
window group in a separate OS process so groups execute truly in
parallel (no GIL).  The compiled design's heavy payload — the flat
truth-table/delay tensors and the per-level gate/pin matrices of
:class:`~repro.core.vector_kernel.PackedDesign` — would otherwise be
pickled to every worker; this module instead places them in one
``multiprocessing.shared_memory`` segment which every worker attaches
read-only, build-once/attach-many:

* :func:`export_packed_design` lays the arrays out in a single segment
  (16-byte aligned, one ``memcpy`` per array) and returns an owning
  :class:`SharedDesign` handle whose picklable :class:`DesignManifest`
  records the segment name plus each array's offset/shape/dtype and the
  small non-array metadata (gate name tuples, the net index).
* :func:`attach_packed_design` (called in the worker) maps the segment
  and rebuilds a ``PackedDesign`` of zero-copy read-only numpy views.

Lifecycle and unlink accounting
-------------------------------

The exporting process owns the segment: :meth:`SharedDesign.close`
unlinks it exactly once and removes it from the module's live-segment
registry (:func:`active_segment_names` — tests assert the registry is
empty after session teardown).  Attaching processes never unlink.  On
CPython < 3.13 merely attaching registers the segment with the attacher's
``resource_tracker``; our attachers are always ``multiprocessing`` spawn
children, which *share the parent's tracker process*, so that registration
is a set-level no-op and the owner's unlink (which unregisters) remains
the one and only cleanup.  Do not attach from an unrelated process on
< 3.13: its private tracker would unlink the segment when it exits.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from .vector_kernel import LevelTensors, PackedDesign

#: Array fields of :class:`LevelTensors`, in manifest layout order.
LEVEL_ARRAY_FIELDS: Tuple[str, ...] = (
    "num_pins",
    "weights",
    "wire_rise",
    "wire_fall",
    "tt_offsets",
    "delay_offsets",
    "num_columns",
    "input_net_ids",
    "output_net_ids",
)

_ALIGNMENT = 16

# Live-segment registry (unlink accounting).  A leaf lock: nothing else
# is ever acquired while it is held.
_registry_lock = threading.Lock()
_live_segments: Dict[str, "SharedDesign"] = {}
_segment_counter = itertools.count()


class ShmError(RuntimeError):
    """Raised on invalid shared-memory export/attach operations."""


@dataclass(frozen=True)
class ArraySpec:
    """Location of one tensor inside the shared segment."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class LevelManifest:
    """One level's metadata: name tuples inline, arrays by reference."""

    gate_names: Tuple[str, ...]
    output_nets: Tuple[str, ...]
    input_nets: Tuple[Tuple[str, ...], ...]
    arrays: Dict[str, ArraySpec] = field(default_factory=dict)


@dataclass(frozen=True)
class DesignManifest:
    """Everything a worker needs to rebuild the packed design.

    Fully picklable and small: array payloads stay in the shared segment;
    only names, offsets, and the net index travel by pickle.
    """

    segment_name: str
    total_bytes: int
    tt_flat: ArraySpec
    delay_flat: ArraySpec
    levels: Tuple[LevelManifest, ...]
    net_index: Dict[str, int]


def active_segment_names() -> Tuple[str, ...]:
    """Names of shared segments exported and not yet closed (accounting)."""
    with _registry_lock:
        return tuple(_live_segments)


class SharedDesign:
    """Owner-side handle of one exported packed design.

    ``close()`` (idempotent) unlinks the segment; until then workers may
    attach via the :attr:`manifest`.  The handle also closes cleanly from
    a ``weakref.finalize`` when the owning session is garbage collected.
    """

    def __init__(
        self, manifest: DesignManifest, shm: shared_memory.SharedMemory
    ):
        self.manifest = manifest
        self._shm: shared_memory.SharedMemory = shm
        self._closed = False
        with _registry_lock:
            _live_segments[manifest.segment_name] = self

    @property
    def name(self) -> str:
        return self.manifest.segment_name

    def close(self) -> None:
        """Unlink and unmap the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with _registry_lock:
            _live_segments.pop(self.manifest.segment_name, None)
        try:
            self._shm.close()
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class AttachedDesign:
    """Worker-side attachment: the rebuilt design plus the mapping.

    The :attr:`packed` tensors are zero-copy views into the mapping, so
    the attachment must stay alive as long as the tensors are used —
    workers keep it for their process lifetime.  ``detach()`` drops the
    mapping without unlinking (the exporting owner unlinks).
    """

    def __init__(
        self, packed: PackedDesign, shm: shared_memory.SharedMemory
    ):
        self.packed = packed
        self._shm = shm
        self._detached = False

    def detach(self) -> None:
        """Release the mapping (the views become invalid); never unlinks."""
        if self._detached:
            return
        self._detached = True
        # Dropping the packed reference first lets the export buffers die
        # before the mmap closes (a live view would raise BufferError).
        self.packed = None  # type: ignore[assignment]
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller still holds views
            pass


def _require_host_array(name: str, value: object) -> np.ndarray:
    array = np.asarray(value)
    if not isinstance(value, np.ndarray):
        raise ShmError(
            f"packed tensor {name!r} is not a host numpy array; "
            f"process workers require the numpy device"
        )
    return np.ascontiguousarray(array)


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def export_packed_design(packed: PackedDesign) -> SharedDesign:
    """Copy a packed design's tensors into one shared-memory segment.

    The design must be host-resident (``device="numpy"``): device tensors
    have no shared-memory representation.  Returns the owning
    :class:`SharedDesign`; pass its ``manifest`` to worker processes and
    rebuild with :func:`attach_packed_design`.
    """
    if packed.device != "numpy":
        raise ShmError(
            f"cannot export a packed design materialized on "
            f"{packed.device!r}; process workers require the numpy device"
        )

    plan: List[Tuple[str, np.ndarray]] = [
        ("tt_flat", _require_host_array("tt_flat", packed.tt_flat)),
        ("delay_flat", _require_host_array("delay_flat", packed.delay_flat)),
    ]
    for index, level in enumerate(packed.levels):
        for field_name in LEVEL_ARRAY_FIELDS:
            plan.append(
                (
                    f"L{index}.{field_name}",
                    _require_host_array(
                        f"levels[{index}].{field_name}",
                        getattr(level, field_name),
                    ),
                )
            )

    specs: Dict[str, ArraySpec] = {}
    cursor = 0
    for name, array in plan:
        cursor = _aligned(cursor)
        specs[name] = ArraySpec(
            offset=cursor, shape=tuple(array.shape), dtype=array.dtype.str
        )
        cursor += array.nbytes
    total_bytes = max(cursor, 1)

    segment_name = f"repro-shm-{os.getpid()}-{next(_segment_counter)}"
    shm = shared_memory.SharedMemory(
        create=True, size=total_bytes, name=segment_name
    )
    try:
        for name, array in plan:
            spec = specs[name]
            target: np.ndarray = np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
            )
            target[...] = array
        levels = tuple(
            LevelManifest(
                gate_names=level.gate_names,
                output_nets=level.output_nets,
                input_nets=level.input_nets,
                arrays={
                    field_name: specs[f"L{index}.{field_name}"]
                    for field_name in LEVEL_ARRAY_FIELDS
                },
            )
            for index, level in enumerate(packed.levels)
        )
        manifest = DesignManifest(
            segment_name=segment_name,
            total_bytes=total_bytes,
            tt_flat=specs["tt_flat"],
            delay_flat=specs["delay_flat"],
            levels=levels,
            net_index=dict(packed.net_index),
        )
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return SharedDesign(manifest, shm)


def _view(
    shm: shared_memory.SharedMemory, spec: ArraySpec
) -> np.ndarray:
    array: np.ndarray = np.ndarray(
        spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
    )
    array.setflags(write=False)
    return array


def attach_packed_design(manifest: DesignManifest) -> AttachedDesign:
    """Map an exported design and rebuild zero-copy read-only tensors.

    Callers must be ``multiprocessing`` children of the exporting process
    (they share its resource tracker — see the module docstring); the
    exporting owner is the only process that ever unlinks the segment.
    """
    shm = shared_memory.SharedMemory(name=manifest.segment_name)
    levels = tuple(
        LevelTensors(
            gate_names=level.gate_names,
            output_nets=level.output_nets,
            input_nets=level.input_nets,
            **{
                field_name: _view(shm, level.arrays[field_name])
                for field_name in LEVEL_ARRAY_FIELDS
            },
        )
        for level in manifest.levels
    )
    packed = PackedDesign(
        tt_flat=_view(shm, manifest.tt_flat),
        delay_flat=_view(shm, manifest.delay_flat),
        levels=levels,
        net_index=manifest.net_index,
        device="numpy",
    )
    return AttachedDesign(packed, shm)
