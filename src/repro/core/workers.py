"""Process workers: a run's window list in groups on spawned processes.

The paper's multi-GPU strategy (Section 5) gives each of ``n`` devices a
group of the run's cycle-parallel windows: kernel time ``t = t1/n + ovr``.
``GatspiEngine(..., process_workers=N)`` (spec ``"gatspi:workers=process:N"``)
runs exactly that: it cuts the windows it always cuts, splits the list
into ``min(N, windows)`` contiguous groups (:func:`window_groups`) and
runs each on a spawned OS process, GIL-free, through the engine's own
segment step (:func:`run_window_group`).  Group outputs append to the
readback accumulators in window order, like segment batches, so every
worker count is **bit-identical** to plain ``gatspi`` by construction.

The packed design tensors are exported once into a shared-memory segment
(:mod:`repro.core.shm`) that every worker attaches read-only; a worker gets
the run's lowered events plus its windows and returns their host readback,
stats and timings.  Streamed runs are pipelined, not split: workers run
whole chunks.  On 2 cores, counts-only, two workers measured 1.41x of
``gatspi`` on a warm-pool 4,000-cycle whole run of a 400-gate random
netlist (medians of 9 fresh-interpreter runs) and about 1.8x on a
20k-cycle streamed replay.
"""

from __future__ import annotations

import multiprocessing
import weakref
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import shm as design_shm
from .config import SimConfig
from .engine import GatspiEngine, _ReadbackAccumulator, _WindowRange
from .incremental import ExecutionPlan
from .restructure import SourceEvents, StreamingSourceEvents, TrimmedReadback
from .results import PhaseTimings, SimulationStats, StreamBatch
from ..netlist import Netlist
from ..sdf.annotate import DelayAnnotation

#: What one window group hands back: per request, its trimmed host
#: readback batches in window order; plus the group's stats and timings.
GroupOutput = Tuple[List[List[TrimmedReadback]], SimulationStats, PhaseTimings]


def window_groups(
    windows: Sequence[_WindowRange], count: int
) -> List[Sequence[_WindowRange]]:
    """Split ``windows`` into ``min(count, len(windows))`` contiguous groups.

    Groups keep window order and differ in size by at most one window.
    """
    count = min(count, len(windows))
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

    ``engine`` has no process workers of its own, so the group runs here,
    into fresh accumulators whose batches come back with the group's own
    stats and timings.  Process workers run this, and the paper-table
    benches time it (:func:`~repro.bench.runner.share_kernel_seconds`).
    """
    timings = PhaseTimings()
    stats = SimulationStats(segments=0)
    readbacks = [_ReadbackAccumulator(plan.readback_nets) for _ in events]
    engine._run_groups(plan, events, windows, durations, timings, stats, readbacks)
    return [readback.batches for readback in readbacks], stats, timings


def append_groups(
    outputs: Iterable[GroupOutput],
    timings: PhaseTimings,
    stats: SimulationStats,
    readbacks: Sequence[_ReadbackAccumulator],
) -> None:
    """Append group outputs, taken in window order, to the run's
    accumulators and fold their workload into the run totals."""
    stats.shards = 0
    for batches, group_stats, group_timings in outputs:
        stats.shards += 1
        for readback, request_batches in zip(readbacks, batches):
            for batch in request_batches:
                readback.append(batch)
        _fold_workload(stats, timings, group_stats, group_timings)


def _fold_workload(
    stats: SimulationStats,
    timings: PhaseTimings,
    part_stats: SimulationStats,
    part_timings: PhaseTimings,
) -> None:
    """Fold one group's or chunk's workload into the run totals: counters
    and timings sum (the serial-equivalent cost), high-water marks max."""
    stats.windows += part_stats.windows
    stats.segments += part_stats.segments
    stats.chunks += part_stats.chunks
    stats.kernel_invocations += part_stats.kernel_invocations
    stats.level_batches += part_stats.level_batches
    stats.pool_words_used = max(stats.pool_words_used, part_stats.pool_words_used)
    stats.max_batch_tasks = max(stats.max_batch_tasks, part_stats.max_batch_tasks)
    timings.add(part_timings)


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
    """Initializer of one spawned worker: a plain ``gatspi`` engine over
    the attached design (``compile(packed=...)`` skips only the pack), so
    a worker runs the exact code path the parent runs."""
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
    engines refuse edits, so the parent's plan is always the full one)."""
    engine = _WORKER_STATE["engine"]
    return run_window_group(engine, engine._full_plan(), events, windows, durations)


def _process_run_stream_chunk(
    span: SourceEvents,
    chunk_index: int,
    chunk_start: int,
    chunk_end: int,
    duration: int,
) -> Tuple[StreamBatch, SimulationStats, PhaseTimings]:
    """One streaming chunk on this worker's engine (its stream pool is
    recycled across chunks, so worker RSS stays flat)."""
    timings = PhaseTimings()
    stats = SimulationStats(segments=0)
    batch = _WORKER_STATE["engine"].run_stream_chunk(
        span, chunk_index, chunk_start, chunk_end, duration,
        timings=timings, stats=stats,
    )
    return batch, stats, timings


def _release_process_resources(
    executor: ProcessPoolExecutor, shared: "design_shm.SharedDesign"
) -> None:
    """Shut the executor down before unlinking the segment its workers attach."""
    executor.shutdown(wait=True)
    shared.close()


class WorkerPool:
    """``width`` spawned workers attached to one engine's exported design,
    linked until :meth:`close` or until the pool is dropped.  Spawn, not
    fork: the serving front end runs sessions on live threads holding
    locks, which a forked child would inherit mid-flight."""

    def __init__(self, engine: GatspiEngine, width: int):
        self.width = width
        shared = design_shm.export_packed_design(engine.packed_design)
        self.executor = ProcessPoolExecutor(
            max_workers=width,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_process_worker_init,
            initargs=(
                engine.netlist, engine.annotation, engine.config, shared.manifest
            ),
        )
        self._finalizer = weakref.finalize(
            self, _release_process_resources, self.executor, shared
        )

    def close(self) -> None:
        """Shut the workers down and unlink the segment (idempotent)."""
        self._finalizer()

    def run_groups(
        self,
        events: Sequence[SourceEvents],
        windows: Sequence[_WindowRange],
        durations: Sequence[int],
        timings: PhaseTimings,
        stats: SimulationStats,
        readbacks: Sequence[_ReadbackAccumulator],
    ) -> None:
        """Run the window list as one group per worker, appended in order."""
        futures = [
            self.executor.submit(_process_run_group, events, group, durations)
            for group in window_groups(windows, self.width)
        ]
        append_groups(
            (future.result() for future in futures), timings, stats, readbacks
        )

    def stream(
        self,
        engine: GatspiEngine,
        source: StreamingSourceEvents,
        duration: int,
        chunk_cycles: Optional[int],
        timings: PhaseTimings,
        stats: SimulationStats,
    ) -> Iterator[StreamBatch]:
        """Stream chunks pipelined across the workers.

        The parent owns the stimulus stream (spans must be pulled
        sequentially), so it pulls each chunk's span, ships it to a worker
        and keeps up to ``width`` chunks in flight.  Batches are yielded
        strictly in chunk order, which the online accumulator requires.
        """
        stats.streamed = True
        stats.shards = self.width

        def folded(future) -> StreamBatch:
            batch, chunk_stats, chunk_timings = future.result()
            _fold_workload(stats, timings, chunk_stats, chunk_timings)
            return batch

        pending: "deque" = deque()
        for job in engine.pull_spans(source, duration, chunk_cycles, timings):
            pending.append(
                self.executor.submit(_process_run_stream_chunk, *job, duration)
            )
            if len(pending) >= self.width:
                yield folded(pending.popleft())
        while pending:
            yield folded(pending.popleft())
