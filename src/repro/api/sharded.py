"""The ``gatspi-sharded`` backend: the engine's window list in shares.

The paper's multi-GPU strategy (Section 5) partitions the cycle-parallel
window axis across devices: ``32 * n`` windows on ``n`` GPUs, kernel time
``t = t1 / n + ovr``.  A device's share is a set of the run's windows, not
a new run, and that is exactly what this backend runs.  Its engine
(:class:`ShardedEngine`) cuts the windows ``gatspi`` cuts, splits the list
into ``min(shards, windows)`` contiguous groups (:func:`window_groups`)
and runs each group through the engine's own segment step
(:func:`run_window_group`), in the parent or on a process worker.  Group
outputs append to the run's readback accumulators in window order, the
way segment batches do; plans, headroom checks, stitching, result
assembly, retention, ``rerun`` and ``run_many`` columns all stay the
engine's.  So every shard count is **bit-identical** to ``gatspi`` by
construction: same windows, hence the same answer even where windowing
itself is inexact.

Groups run on one of two executors, picked by the ``workers`` option:

* **In the parent** (default): one after another.  Deterministic, no
  extra processes; it is not a speed-up, since every group pays its own
  level loop.  ``shards=1``, the default, is plain ``gatspi``.
* **On process workers** (``workers="process"`` / ``"process:N"``, spec
  ``"gatspi-sharded:shards=4,workers=process"``): each group runs in a
  spawned OS process, GIL-free.  The packed design tensors are exported
  once into a ``multiprocessing.shared_memory`` segment
  (:mod:`repro.core.shm`) and every worker attaches them read-only, so the
  per-worker cost is one levelize plus zero-copy views.  A worker gets the
  run's lowered :class:`~repro.core.restructure.SourceEvents` plus its
  windows and returns their host readback, stats and timings.  Bare
  ``"process"`` splits only as wide as the machine
  (``min(shards, os.cpu_count())``); ``"process:N"`` pins the pool width
  and keeps the full group count.  On 2 cores, counts-only,
  ``shards=2,workers=process:2`` measured 1.41x of ``gatspi`` on a
  warm-pool 4,000-cycle whole run of a 400-gate random netlist (medians of
  9 fresh-interpreter runs) and about 1.8x on a 20k-cycle streamed replay
  of it (3 runs each).  Process sessions are
  host-only (``device="numpy"``) and refuse in-place edits;
  :meth:`ShardedGatspiSession.close` (or dropping the session) shuts the
  pool down and unlinks the segment.

Streaming replay is pipelined, not split: process workers run whole
chunks (:meth:`~repro.core.engine.GatspiEngine.run_stream_chunk`), and an
in-parent stream is the engine's own.
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core import shm as design_shm
from ..core.config import SimConfig
from ..core.edits import Edit, EditReceipt
from ..core.engine import GatspiEngine, _ReadbackAccumulator, _WindowRange
from ..core.incremental import ExecutionPlan
from ..core.memory import WaveformPool
from ..core.restructure import SourceEvents, StreamingSourceEvents, TrimmedReadback
from ..core.results import PhaseTimings, SimulationStats, StreamBatch
from ..netlist import Netlist
from ..sdf.annotate import DelayAnnotation
from .adapters import GatspiSession, _reject_unknown_options
from .backend import BackendCapabilities, SimBackend
from .registry import register_backend

#: What one window group hands back: per request, its trimmed host
#: readback batches in window order; plus the group's stats and timings.
GroupOutput = Tuple[List[List[TrimmedReadback]], SimulationStats, PhaseTimings]


def window_groups(
    windows: Sequence[_WindowRange], shards: int
) -> List[Sequence[_WindowRange]]:
    """Split ``windows`` into ``min(shards, len(windows))`` contiguous groups.

    Groups keep window order and differ in size by at most one window.
    """
    count = min(shards, len(windows))
    bounds = [len(windows) * k // count for k in range(count + 1)]
    return [windows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def run_window_group(
    engine: GatspiEngine,
    plan: ExecutionPlan,
    events: Sequence[SourceEvents],
    windows: Sequence[_WindowRange],
    durations: Sequence[int],
) -> GroupOutput:
    """Run one window group through ``engine``'s segment step.

    The group lands in fresh accumulators, whose batches come back with
    the group's own stats and timings.  Both executors run this, and the
    paper-table benches time it
    (:func:`~repro.bench.runner.share_kernel_seconds`).
    """
    timings = PhaseTimings()
    stats = SimulationStats(segments=0)
    readbacks = [_ReadbackAccumulator(plan.readback_nets) for _ in events]
    GatspiEngine._run_groups(
        engine, plan, events, windows, durations, timings, stats, readbacks
    )
    return [readback.batches for readback in readbacks], stats, timings


# ----------------------------------------------------------------------
# Process worker plumbing
# ----------------------------------------------------------------------
#: Per-worker-process state: the attached shared-memory design and the
#: ``gatspi`` engine compiled around it.  Populated once by the pool
#: initializer; worker processes are single-threaded, so no lock.
_WORKER_STATE: Dict[str, Any] = {}


def _process_worker_init(
    netlist: Netlist,
    annotation: DelayAnnotation,
    config: SimConfig,
    manifest: "design_shm.DesignManifest",
) -> None:
    """Initializer of one spawned worker.

    Attaches the parent's shared design tensors and compiles a normal
    ``gatspi`` engine around them (``compile(packed=...)`` skips only the
    pack/upload step), so a worker runs the exact code path the parent
    runs.
    """
    attachment = design_shm.attach_packed_design(manifest)
    engine = GatspiEngine(netlist, annotation=annotation, config=config)
    engine.compile(packed=attachment.packed)
    # The attachment must outlive the engine: the packed tensors are
    # zero-copy views into its mapping.
    _WORKER_STATE["attachment"] = attachment
    _WORKER_STATE["engine"] = engine


def _process_run_group(
    events: Sequence[SourceEvents],
    windows: Sequence[_WindowRange],
    durations: Sequence[int],
) -> GroupOutput:
    """Run one window group on this worker's engine (full plan: process
    sessions refuse edits, so the parent's plan is always the full one)."""
    engine = _WORKER_STATE["engine"]
    return run_window_group(engine, engine._full_plan(), events, windows, durations)


def _process_run_stream_chunk(
    span: SourceEvents,
    chunk_index: int,
    chunk_start: int,
    chunk_end: int,
    duration: int,
) -> Tuple[StreamBatch, SimulationStats, PhaseTimings]:
    """Execute one streaming chunk on this worker's engine.

    The worker keeps one private stream pool recycled across chunks
    (engine state), so its RSS stays flat over arbitrarily long runs; the
    per-chunk stats/timings ride back with the batch so the parent can
    merge serial-equivalent costs.
    """
    timings = PhaseTimings()
    stats = SimulationStats(segments=0)
    batch = _WORKER_STATE["engine"].run_stream_chunk(
        span,
        chunk_index,
        chunk_start,
        chunk_end,
        duration,
        timings=timings,
        stats=stats,
    )
    return batch, stats, timings


def _release_process_resources(
    pool: Optional[ProcessPoolExecutor],
    shared: Optional["design_shm.SharedDesign"],
) -> None:
    """Shut the worker pool down, then unlink the shared segment.

    Module-level so ``weakref.finalize`` can hold it without keeping the
    engine alive; ordering matters — unlinking while a spawning worker
    has yet to attach would break its initializer.
    """
    if pool is not None:
        pool.shutdown(wait=True)
    if shared is not None:
        shared.close()


def _fold_workload(
    stats: SimulationStats,
    timings: PhaseTimings,
    part_stats: SimulationStats,
    part_timings: PhaseTimings,
) -> None:
    """Fold one group's or chunk's workload into the run totals.

    Additive counters and phase timings sum, high-water marks take the max:
    the serial-equivalent cost (wall-clock parallelism is measured by
    callers, e.g. the serving benchmark).
    """
    stats.windows += part_stats.windows
    stats.segments += part_stats.segments
    stats.chunks += part_stats.chunks
    stats.kernel_invocations += part_stats.kernel_invocations
    stats.level_batches += part_stats.level_batches
    stats.pool_words_used = max(stats.pool_words_used, part_stats.pool_words_used)
    stats.max_batch_tasks = max(stats.max_batch_tasks, part_stats.max_batch_tasks)
    timings.add(part_timings)


class ShardedEngine(GatspiEngine):
    """:class:`GatspiEngine` whose window list runs as ``shards`` groups.

    Overrides only :meth:`~repro.core.engine.GatspiEngine._run_groups`,
    the way the reference oracle overrides ``_execute``.  With
    ``process_workers`` it also owns the worker pool and the shared-memory
    export of its packed design, both created by the first split run.
    """

    def __init__(
        self,
        netlist: Netlist,
        annotation: Optional[DelayAnnotation],
        config: Optional[SimConfig],
        shards: int = 1,
        process_workers: Optional[int] = None,
    ):
        super().__init__(netlist, annotation=annotation, config=config)
        self.shards = shards
        self.process_workers = process_workers
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._shared_design: Optional[design_shm.SharedDesign] = None
        self._process_finalizer: Optional[weakref.finalize] = None

    def process_pool(self) -> ProcessPoolExecutor:
        """Export the packed design and spawn the worker pool (once).

        Spawn (not fork) context: the serving front end runs sessions on
        live threads holding locks, which a forked child would inherit
        mid-flight.  Workers attach the shared segment in their
        initializer, so the export must stay linked until :meth:`close`.
        """
        if self._process_pool is None:
            self._shared_design = design_shm.export_packed_design(
                self.packed_design
            )
            self._process_pool = ProcessPoolExecutor(
                max_workers=self.process_workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_process_worker_init,
                initargs=(
                    self.netlist,
                    self.annotation,
                    self.config,
                    self._shared_design.manifest,
                ),
            )
            self._process_finalizer = weakref.finalize(
                self,
                _release_process_resources,
                self._process_pool,
                self._shared_design,
            )
        return self._process_pool

    def close(self) -> None:
        """Shut the worker pool down and unlink the segment (idempotent)."""
        finalizer = self._process_finalizer
        self._process_pool = None
        self._shared_design = None
        self._process_finalizer = None
        if finalizer is not None:
            finalizer()

    def apply_edits(self, edits: Sequence[Edit]) -> EditReceipt:
        if self.process_workers is not None:
            # Worker engines live in other processes; there is no channel
            # to re-sync their compiled state after an in-place edit, and
            # silently editing only the parent would break bit-identity.
            raise NotImplementedError(
                "process-shard sessions do not support in-place edits; "
                "prepare a new session for the edited design "
                "(or drop workers=process)"
            )
        return super().apply_edits(edits)

    def _run_groups(
        self,
        plan: ExecutionPlan,
        events: Sequence[SourceEvents],
        windows: Sequence[_WindowRange],
        durations: Sequence[int],
        timings: PhaseTimings,
        stats: SimulationStats,
        readbacks: Sequence[_ReadbackAccumulator],
        pool: Optional[WaveformPool] = None,
    ) -> None:
        groups = window_groups(windows, self.shards)
        if pool is not None or len(groups) == 1:
            # A stream chunk (recycled pool) or a single group: the
            # engine's own step.
            super()._run_groups(
                plan, events, windows, durations, timings, stats, readbacks, pool
            )
            return
        stats.shards = len(groups)
        outputs: Iterator[GroupOutput]
        if self.process_workers is None:
            outputs = (
                run_window_group(self, plan, events, group, durations)
                for group in groups
            )
        else:
            # The executor queues excess groups behind the worker count.
            futures = [
                self.process_pool().submit(
                    _process_run_group, events, group, durations
                )
                for group in groups
            ]
            outputs = (future.result() for future in futures)
        for batches, group_stats, group_timings in outputs:
            for readback, request_batches in zip(readbacks, batches):
                for batch in request_batches:
                    readback.append(batch)
            _fold_workload(stats, timings, group_stats, group_timings)


class ShardedGatspiSession(GatspiSession):
    """A :class:`~repro.api.adapters.GatspiSession` over a
    :class:`ShardedEngine`; adds the introspection, ``close()`` and the
    chunk pipeline of streamed runs on process workers."""

    engine: ShardedEngine

    @property
    def shard_count(self) -> int:
        """Groups every run's window list is split into (1 = gatspi)."""
        return self.engine.shards

    @property
    def worker_count(self) -> int:
        """Process workers groups run on (0: they run in the parent)."""
        return self.engine.process_workers or 0

    def close(self) -> None:
        """Release process-worker resources: pool shutdown + segment unlink.

        Idempotent; a no-op for sessions that never spawned workers.
        After ``close()`` the next split run spawns a fresh pool.
        """
        self.engine.close()

    def _stream_batches(
        self,
        source: StreamingSourceEvents,
        duration: int,
        chunk_cycles: Optional[int],
        timings: PhaseTimings,
        stats: SimulationStats,
    ) -> Iterator[StreamBatch]:
        """Stream chunks, pipelined across process workers when there are any.

        The parent owns the stimulus stream (spans must be pulled
        sequentially), so it pulls each chunk's span, ships it to a worker
        and keeps up to ``workers`` chunks in flight.  Batches are yielded
        strictly in chunk order, which the online accumulator requires.
        With fewer than two workers there is nothing to overlap and this
        is the engine's own stream.
        """
        width = self.worker_count
        if width < 2:
            yield from super()._stream_batches(
                source, duration, chunk_cycles, timings, stats
            )
            return
        pool = self.engine.process_pool()
        stats.streamed = True
        stats.segments = 0
        stats.shards = width
        pending: "deque" = deque()
        for job in self.engine.pull_spans(source, duration, chunk_cycles, timings):
            pending.append(pool.submit(_process_run_stream_chunk, *job, duration))
            if len(pending) >= width:
                yield self._fold_chunk(stats, timings, pending.popleft().result())
        while pending:
            yield self._fold_chunk(stats, timings, pending.popleft().result())

    @staticmethod
    def _fold_chunk(
        stats: SimulationStats,
        timings: PhaseTimings,
        output: Tuple[StreamBatch, SimulationStats, PhaseTimings],
    ) -> StreamBatch:
        """Fold one worker chunk's workload into the run totals."""
        batch, chunk_stats, chunk_timings = output
        _fold_workload(stats, timings, chunk_stats, chunk_timings)
        return batch


@register_backend("gatspi-sharded")
class GatspiShardedBackend(SimBackend):
    """gatspi with its window list split across the parent or process workers."""

    name = "gatspi-sharded"
    capabilities = BackendCapabilities(
        delay_aware=True,
        glitch_accurate=True,
        waveforms=True,
        phase_timings=True,
        description=(
            "gatspi with its window list split into groups run in the parent "
            "or on process workers; bit-identical to gatspi"
        ),
    )

    def _prepare(
        self,
        netlist: Netlist,
        annotation: Optional[DelayAnnotation] = None,
        config: Optional[SimConfig] = None,
        *,
        shards: int = 1,
        workers: Optional[str] = None,
        device: Optional[str] = None,
        **options: Any,
    ) -> ShardedGatspiSession:
        """Compile once, ready to run every window list as ``shards`` groups.

        ``shards`` is the group count (spec syntax
        ``"gatspi-sharded:shards=4"``; the default 1 is plain ``gatspi``).
        Groups run one after another in the parent unless
        ``workers="process"`` puts them on spawned worker processes
        (GIL-free, design tensors shared read-only via
        :mod:`repro.core.shm`): bare ``"process"`` splits only as wide as
        ``min(shards, os.cpu_count())``, ``"process:N"`` pins an
        ``N``-wide pool and keeps the full group count.  ``device``
        selects the array backend exactly as for ``gatspi``.
        """
        _reject_unknown_options(self.name, options)
        if shards < 1:
            raise ValueError("shards must be at least 1")
        config = config or SimConfig()
        if device is not None:
            config = config.with_updates(device=device)
        process_workers: Optional[int] = None
        if workers is not None:
            base, sep, width_text = str(workers).partition(":")
            if not isinstance(workers, str) or base != "process":
                raise ValueError(
                    f"workers must be 'process' or 'process:N', got "
                    f"{workers!r}: shares run in the parent, or on N "
                    f"process workers with workers=process:N"
                )
            if sep:
                try:
                    process_workers = int(width_text)
                except ValueError:
                    raise ValueError(
                        f"invalid process worker width {width_text!r} in "
                        f"workers={workers!r}"
                    ) from None
                if process_workers < 1:
                    raise ValueError("workers must be at least 1")
            else:
                # Per-group costs without parallel payoff would regress
                # throughput: never split wider than the machine.
                shards = process_workers = max(
                    1, min(shards, os.cpu_count() or 1)
                )
            if config.device != "numpy":
                raise ValueError(
                    "workers='process' requires the numpy device: the design "
                    "tensors are shared between processes via host shared "
                    "memory, which device arrays cannot live in"
                )
            process_workers = min(process_workers, shards)
        engine = ShardedEngine(netlist, annotation, config, shards, process_workers)
        engine.compile()
        return ShardedGatspiSession(engine, self.name)
