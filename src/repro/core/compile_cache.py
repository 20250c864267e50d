"""Process-wide compiled-design cache.

``GatspiEngine.compile()`` lowers a (netlist, SDF annotation, config)
triple into immutable artifacts: the levelized :class:`CompiledGraph`, the
per-gate truth/delay lookup arrays, and the packed struct-of-arrays design
tensors materialized on the configured array backend.  Compilation is pure
— the artifacts are fully determined by the inputs — so repeated sessions
over the same design (benchmark reruns, multi-run services, the
session-per-request serving shape the ROADMAP scale item describes) can
reuse them instead of re-levelizing and re-packing.

This module provides that memoization: a small LRU keyed by content
*fingerprints* rather than object identity, so two structurally identical
netlist/annotation objects (e.g. a ``deepcopy``) share one compile.  The
fingerprints hash exactly the inputs compilation consumes:

* netlist — name, port lists, every instance (in insertion order, which
  fixes levelization tie-breaking) with its cell and pin connections, and
  the library content of every referenced cell (truth-table bytes,
  intrinsic delays, pin order);
* annotation — every per-pin conditional delay array and wire delay the
  compiled gates read, plus the full interconnect map (it feeds the settle
  margin estimate);
* config — the ``full_sdf`` ablation flag and the ``device`` the packed
  tensors are materialized on.

Mutating a netlist or annotation *in place* after a compile changes its
fingerprint at the next ``compile()`` call, which naturally misses the
cache; the cached artifacts themselves are treated as immutable by every
consumer (the engine copies the one mapping it mutates).

The cache is shared process-wide and may be hit from many threads at once
(concurrent ``prepare()`` calls are exactly the serving shape
:mod:`repro.serve` runs), so every operation that touches the store — the
LRU ``move_to_end`` refresh, insertion, eviction, capacity changes, clears,
and the counters — runs under one module lock.  Fingerprinting stays
outside the lock: it is pure and by far the most expensive part of a
lookup, so concurrent compiles only serialize on the dict operations
themselves.  Two threads missing on the same key concurrently may both
build artifacts; the second ``store`` simply replaces the first with an
equivalent value (compilation is deterministic), which is safe because
consumers never mutate cached artifacts.

The cache is always consulted; :func:`set_compile_cache_capacity` with
0 disables it, and :func:`cache_info` / :func:`clear_compile_cache`
inspect and clear it for tests.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Default maximum number of cached designs (LRU eviction beyond this).
#: Note the footprint is count-bounded, not byte-bounded: each entry pins
#: one design's packed tensors *on its device* — for torch-cuda/cupy keys
#: that is GPU memory.  Long-lived processes juggling many large designs
#: on an accelerator should lower the capacity (0 disables caching) with
#: :func:`set_compile_cache_capacity`.
COMPILE_CACHE_CAPACITY = 16

_capacity = COMPILE_CACHE_CAPACITY

#: Guards every access to ``_CACHE``, ``_capacity``, and the hit/miss
#: counters.  Reentrant so a locked operation may call another helper.
_LOCK = threading.RLock()


def set_compile_cache_capacity(capacity: int) -> None:
    """Set the maximum number of cached designs (0 disables caching).

    Shrinking evicts least-recently-used entries immediately.
    """
    global _capacity
    if capacity < 0:
        raise ValueError("compile cache capacity must be non-negative")
    with _LOCK:
        _capacity = int(capacity)
        while len(_CACHE) > _capacity:
            _CACHE.popitem(last=False)


@dataclass(frozen=True)
class CompiledArtifacts:
    """Everything ``compile()`` produces for one (design, config) key.

    All members are treated as immutable by consumers; ``packed`` and
    ``readback_net_ids`` (the net-id tensor of every gate output, in
    readback order) are already materialized on the key's array backend.
    """

    compiled: "object"  # CompiledGraph
    gate_inputs: "object"  # Dict[str, GateKernelInputs]
    packed: "object"  # PackedDesign (device-materialized)
    readback_net_ids: "object"  # (gate_count,) int64 on the key's device
    source_net_ids: "object"  # (source_count,) int64 on the key's device
    estimated_path_delay: int


_CACHE: "OrderedDict[str, CompiledArtifacts]" = OrderedDict()
_HITS = 0
_MISSES = 0


def _hash_floats(h, *values: float) -> None:
    h.update(struct.pack(f"<{len(values)}d", *values))


def fingerprint_netlist(netlist) -> str:
    """Content hash of everything compilation reads from a netlist."""
    h = hashlib.sha256()
    cells_seen: Dict[str, bool] = {}
    # Instance iteration order matters: levelization emits gates in a
    # deterministic order derived from it, which fixes the packed tensor
    # layout — so the fingerprint preserves insertion order.  Chunks are
    # joined and hashed in one update: per-call hashing overhead dominated
    # fingerprint time on large designs.  Connections are hashed in the
    # cell's canonical pin order (every pin is connected by construction),
    # which is caller-order independent and avoids sorting each dict.
    parts = [
        netlist.name.encode(),
        repr(netlist.inputs).encode(),
        repr(netlist.outputs).encode(),
    ]
    append = parts.append
    for name, inst in netlist.instances.items():
        cell = inst.cell
        append(b"\x00I")
        append(name.encode())
        append(cell.name.encode())
        connections = inst.connections
        for pin in cell.pins:
            append(connections[pin].encode())
        cells_seen.setdefault(cell.name, not cell.is_sequential)
    # Register power-on state (read by the clocked-update driver).
    initial_values = getattr(netlist, "initial_values", None)
    if initial_values:
        append(b"\x00V")
        append(repr(sorted(initial_values.items())).encode())
    h.update(b"\x00".join(parts))
    for cell_name in sorted(cells_seen):
        cell = netlist.library.get(cell_name)
        h.update(b"\x00C")
        h.update(cell_name.encode())
        h.update(repr(cell.inputs).encode())
        h.update(
            repr(
                (
                    cell.is_sequential,
                    cell.clock_pin,
                    cell.data_pin,
                    cell.enable_pin,
                    cell.reset_pin,
                    cell.reset_active_low,
                    cell.reset_async,
                    cell.reset_value,
                    cell.init_value,
                    cell.is_latch,
                )
            ).encode()
        )
        _hash_floats(h, float(cell.intrinsic_rise), float(cell.intrinsic_fall))
        if cells_seen[cell_name]:
            h.update(netlist.library.truth_table(cell_name).table.tobytes())
    return h.hexdigest()


def fingerprint_annotation(annotation, netlist) -> str:
    """Content hash of everything compilation reads from an annotation.

    Covers the per-pin conditional delay arrays and wire delays of every
    combinational instance (exactly what ``compile()`` consumes; looking a
    table up inserts the same zero-delay default ``table_for`` would, so
    the hash is stable across that lazy materialization), plus every
    interconnect entry and any extra gate tables — both feed the
    critical-path estimate that sizes the settle margin.
    """
    h = hashlib.sha256()
    covered = set()
    for inst in netlist.combinational_instances():
        if inst.cell.num_inputs == 0:
            continue
        covered.add(inst.name)
        h.update(b"\x00G")
        h.update(inst.name.encode())
        table = annotation.table_for(inst.name)
        for pin in inst.cell.inputs:
            h.update(table.table_for(pin).tobytes())
            wire = annotation.wire_delay(inst.name, pin)
            _hash_floats(h, float(wire.rise), float(wire.fall))
    for name in sorted(set(annotation.gate_tables) - covered):
        table = annotation.gate_tables[name]
        h.update(b"\x00X")
        h.update(name.encode())
        for pin in table.pins:
            h.update(table.table_for(pin).tobytes())
    for key in sorted(annotation.interconnect):
        wire = annotation.interconnect[key]
        h.update(repr(key).encode())
        _hash_floats(h, float(wire.rise), float(wire.fall))
    return h.hexdigest()


def compile_key(
    netlist, annotation, config, *, netlist_fingerprint: Optional[str] = None
) -> str:
    """Cache key of one ``compile()`` invocation.

    ``netlist_fingerprint`` lets a caller that already hashed the netlist
    (e.g. to consult :func:`levelize_cached`) skip the second hash.
    """
    return "|".join(
        (
            netlist_fingerprint or fingerprint_netlist(netlist),
            fingerprint_annotation(annotation, netlist),
            f"full_sdf={config.full_sdf}",
            f"device={config.device}",
        )
    )


# ----------------------------------------------------------------------
# One-shot netlist-fingerprint handoff (prepare-scoped)
# ----------------------------------------------------------------------
# ``SimBackend.prepare`` analyzes a design before compiling it; both steps
# hash the same netlist.  The template method seeds the fingerprint the
# analysis pass computed here, the engine's ``compile()`` consumes it, and
# the template discards any leftover when ``_prepare`` returns — so an
# entry can never outlive the prepare call that created it (the netlist is
# not mutated inside prepare, which keeps the content-keyed contract).
_FP_HANDOFF: Dict[int, "Tuple[object, str]"] = {}


def seed_netlist_fingerprint(netlist, fingerprint: str) -> None:
    """Stash a just-computed fingerprint for the next compile of ``netlist``.

    Only call with a fingerprint of the object's *current* content, and
    pair with :func:`discard_netlist_fingerprint` so the entry is scoped
    to the calling operation.
    """
    with _LOCK:
        _FP_HANDOFF[id(netlist)] = (weakref.ref(netlist), fingerprint)


def consume_netlist_fingerprint(netlist) -> Optional[str]:
    """Pop the seeded fingerprint for ``netlist`` (``None`` when absent)."""
    with _LOCK:
        entry = _FP_HANDOFF.pop(id(netlist), None)
    if entry is None:
        return None
    ref, fingerprint = entry
    return fingerprint if ref() is netlist else None


def discard_netlist_fingerprint(netlist) -> None:
    """Drop any unconsumed handoff entry for ``netlist``."""
    with _LOCK:
        _FP_HANDOFF.pop(id(netlist), None)


# ----------------------------------------------------------------------
# Shared levelization memo
# ----------------------------------------------------------------------
# Both the analysis engine and ``GatspiEngine._build_artifacts`` levelize
# the same netlist during one ``prepare()`` (analysis first, compile right
# after).  Levelization is pure, so a small fingerprint-keyed memo lets the
# second consumer reuse the first one's result instead of re-walking the
# design.  Entries are keyed by the same netlist fingerprint the compile
# and analysis caches already compute, so callers pass it in rather than
# paying for a second hash.
_LEVELIZE_CAPACITY = 32
_LEVELIZE_CACHE: "OrderedDict[str, object]" = OrderedDict()


def levelize_cached(netlist, fingerprint: Optional[str] = None):
    """Levelize ``netlist``, memoized process-wide by content fingerprint.

    ``fingerprint`` should be a precomputed :func:`fingerprint_netlist`
    value when the caller already has one; when ``None`` it is computed
    here.  Failures (cyclic or undriven designs) are not cached — the
    exception propagates to the caller.
    """
    from ..netlist import levelize

    if fingerprint is None:
        fingerprint = fingerprint_netlist(netlist)
    with _LOCK:
        cached = _LEVELIZE_CACHE.get(fingerprint)
        if cached is not None:
            _LEVELIZE_CACHE.move_to_end(fingerprint)
            return cached
    result = levelize(netlist)
    with _LOCK:
        _LEVELIZE_CACHE[fingerprint] = result
        _LEVELIZE_CACHE.move_to_end(fingerprint)
        while len(_LEVELIZE_CACHE) > _LEVELIZE_CAPACITY:
            _LEVELIZE_CACHE.popitem(last=False)
    return result


def lookup(key: str) -> Optional[CompiledArtifacts]:
    """Fetch cached artifacts (refreshing LRU recency) or ``None``."""
    global _HITS, _MISSES
    with _LOCK:
        artifacts = _CACHE.get(key)
        if artifacts is None:
            _MISSES += 1
            return None
        _CACHE.move_to_end(key)
        _HITS += 1
        return artifacts


def store(key: str, artifacts: CompiledArtifacts) -> None:
    """Insert artifacts, evicting the least recently used beyond capacity."""
    with _LOCK:
        if _capacity == 0:
            return
        _CACHE[key] = artifacts
        _CACHE.move_to_end(key)
        while len(_CACHE) > _capacity:
            _CACHE.popitem(last=False)


def clear_compile_cache() -> None:
    """Drop every cached design and reset the hit/miss counters."""
    global _HITS, _MISSES
    with _LOCK:
        _CACHE.clear()
        _LEVELIZE_CACHE.clear()
        _HITS = 0
        _MISSES = 0


def cache_info() -> Dict[str, int]:
    """Current cache occupancy and hit/miss counters."""
    with _LOCK:
        return {
            "size": len(_CACHE),
            "capacity": _capacity,
            "hits": _HITS,
            "misses": _MISSES,
        }
