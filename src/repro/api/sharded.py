"""The ``gatspi-sharded`` backend: window-axis sharding behind the registry.

The paper's multi-GPU strategy (Section 5) partitions the cycle-parallel
window axis across devices: ``32 * n`` windows on ``n`` GPUs, kernel time
``t = t1 / n + ovr``.  This backend is that strategy as a first-class
:class:`~repro.api.backend.SimBackend`: one ``run()`` carves the horizon
into ``shards`` contiguous shares (:func:`~repro.core.sharding.plan_shards`),
simulates each share — extended backwards by the engine's settle margin so
events still propagating across a boundary are reproduced exactly — and
merges the shares (toggle counts, stats, stitched waveforms) into a result
**bit-identical** to a single-session ``gatspi`` run.  Each share runs with
``ceil(cycle_parallelism / shards)`` windows, so the *total* parallelism
stays at the configured value.

Shares execute on one of two executors, picked by the ``workers`` option:

* **In the parent** (default): one after another on the session's single
  ``gatspi`` engine.  Deterministic, no extra processes; this is what the
  differential / golden / incremental suites use to pin partition + merge
  exactness.  It is not a speed-up — partitioning pays per-share level
  batches, settle margins and a per-net merge that only parallel execution
  could win back (``shards=2`` measured 0.38 s against 0.18 s for plain
  ``gatspi`` on an 812-gate design, 200 cycles, 2 cores; a thread pool over
  the same two shares measured the same 0.38 s under the GIL, which is why
  there is none).  ``shards=1``, the default, is a zero-overhead passthrough.
* **On process workers** (``workers="process"`` / ``"process:N"``, spec
  ``"gatspi-sharded:shards=4,workers=process"``): each share runs in a
  spawned OS process, GIL-free.  The packed design tensors are exported
  once into a ``multiprocessing.shared_memory`` segment
  (:mod:`repro.core.shm`) and every worker attaches them read-only, so the
  per-worker cost is one levelize plus zero-copy views.  Workers compile a
  normal ``gatspi`` engine around the attached tensors, so results stay
  bit-identical.  Bare ``"process"`` partitions only as wide as the machine
  (``min(shards, os.cpu_count())``); ``"process:N"`` pins the pool width
  and keeps the full partition count.  The mode that scales with cores:
  on 2 cores ``shards=2,workers=process:2`` measured 1.42x of ``gatspi``
  on counts-only streamed replay of a 40-gate design (100k cycles), 1.92x
  of a 400-gate one (20k cycles) and 1.32x on a warm 4,000-cycle whole
  run (0.54x when that run also spawns the pool).  Process sessions are
  host-only (``device="numpy"``) and refuse in-place edits;
  :meth:`ShardedGatspiSession.close` (or dropping the session) shuts the
  pool down and unlinks the segment.

A user-pinned ``window_overlap`` may be smaller than the critical path, in
which case partitioning is not exactness-preserving; such sessions always
run the single-share passthrough.

**Batched runs** (:meth:`~repro.api.session.Session.run_many`): requests
are columns.  At ``shards=1`` the batch runs on the engine as one level
loop over every request's own windows
(:meth:`~repro.core.engine.GatspiEngine.simulate_many`), exactly as on a
plain ``gatspi`` session; with more shards each request is one
partitioned run, one after another.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core import shm as design_shm
from ..core.config import SimConfig
from ..core.contract import fanin_weighted_toggles
from ..core.edits import Edit, EditReceipt
from ..core.engine import GatspiEngine
from ..core.restructure import (
    SourceEvents,
    StreamingSourceEvents,
    slice_stimulus,
)
from ..core.results import (
    PhaseTimings,
    SimulationResult,
    SimulationStats,
    StreamBatch,
)
from ..core.sharding import (
    Shard,
    merge_shard_waveforms,
    plan_shards,
    trim_shard_waveform,
)
from ..core.waveform import Waveform
from ..netlist import Netlist
from ..sdf.annotate import DelayAnnotation
from .adapters import GatspiSession, _reject_unknown_options
from .backend import BackendCapabilities, SimBackend
from .registry import register_backend
from .session import Session


# ----------------------------------------------------------------------
# Process-shard worker plumbing
# ----------------------------------------------------------------------
#: Per-worker-process state: the attached shared-memory design and the
#: ``gatspi`` engine compiled around it.  Populated once by the pool
#: initializer; worker processes are single-threaded, so no lock.
_WORKER_STATE: Dict[str, Any] = {}


def _process_worker_init(
    netlist: Netlist,
    annotation: DelayAnnotation,
    share_config: SimConfig,
    manifest: "design_shm.DesignManifest",
) -> None:
    """Initializer of one spawned shard worker.

    Attaches the parent's shared design tensors and compiles a normal
    ``gatspi`` engine around them (``compile(packed=...)`` skips only the
    pack/upload step), so shard execution in the worker runs the exact
    code path in-parent shares run.
    """
    attachment = design_shm.attach_packed_design(manifest)
    engine = GatspiEngine(netlist, annotation=annotation, config=share_config)
    engine.compile(packed=attachment.packed)
    # The attachment must outlive the engine: the packed tensors are
    # zero-copy views into its mapping.
    _WORKER_STATE["attachment"] = attachment
    _WORKER_STATE["engine"] = engine


def _process_run_shard(
    stimulus: Mapping[str, Waveform], duration: int
) -> SimulationResult:
    """Run one share on this worker's engine (executed in the worker)."""
    return _WORKER_STATE["engine"].simulate(
        stimulus, duration=duration, retain=False
    )


def _process_run_stream_chunk(
    span: "SourceEvents",
    chunk_index: int,
    chunk_start: int,
    chunk_end: int,
    duration: int,
) -> Tuple["StreamBatch", SimulationStats, PhaseTimings]:
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
    session alive; ordering matters — unlinking while a spawning worker
    has yet to attach would break its initializer.
    """
    if pool is not None:
        pool.shutdown(wait=True)
    if shared is not None:
        shared.close()


class ShardedGatspiSession(GatspiSession):
    """One compiled design, simulated in window-axis shares.

    A :class:`~repro.api.adapters.GatspiSession` whose single in-parent
    engine runs with the per-share window count: it executes the shares
    itself (default), or — with ``process_workers`` — serves the
    single-share passthrough, incremental reruns, the merge metadata and
    the compiled tensors the shared segment is exported from, while the
    shares run in the worker processes.
    """

    def __init__(
        self,
        netlist: Netlist,
        annotation: Optional[DelayAnnotation],
        config: SimConfig,
        shards: int = 1,
        process_workers: Optional[int] = None,
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if process_workers is not None:
            if process_workers < 1:
                raise ValueError("workers must be at least 1")
            if config.device != "numpy":
                raise ValueError(
                    "workers='process' requires the numpy device: the design "
                    "tensors are shared between processes via host shared "
                    "memory, which device arrays cannot live in"
                )
            process_workers = min(process_workers, shards)
        if config.window_overlap is not None:
            # A user-pinned settle margin may be smaller than the critical
            # path, in which case partitioning is not exactness-preserving:
            # fall back to a single full-range shard so the bit-identity
            # contract against single-session gatspi holds for every config.
            shards = 1
        self._shards = shards
        self._process_workers = process_workers
        engine = GatspiEngine(
            netlist,
            annotation=annotation,
            config=config.with_updates(
                # Keep the *total* window count at the configured
                # parallelism: each share gets its slice of the axis.
                cycle_parallelism=max(1, -(-config.cycle_parallelism // shards)),
                # Exact merging trims and stitches share outputs, which
                # needs the per-share waveforms even when the caller only
                # wants toggle counts.
                store_waveforms=True,
            ),
        )
        engine.compile()
        super().__init__(engine, "gatspi-sharded", config)
        # Process-mode resources, created lazily by the first multi-shard
        # run: the spawned worker pool and the shared-memory export of the
        # packed design every worker attaches.  Torn down by close() or,
        # failing that, the finalizer at garbage collection.
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._shared_design: Optional[design_shm.SharedDesign] = None
        self._process_finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Shares every run is partitioned into (1 = passthrough)."""
        return self._shards

    @property
    def worker_count(self) -> int:
        """Process workers shares run on (0: they run in the parent)."""
        return self._process_workers or 0

    # ------------------------------------------------------------------
    # Lifecycle (process workers)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release process-worker resources: pool shutdown + segment unlink.

        Idempotent; a no-op for sessions that never spawned workers.
        After ``close()`` the session still serves single-share
        passthrough runs on the in-parent engine.
        """
        finalizer = self._process_finalizer
        self._process_pool = None
        self._shared_design = None
        self._process_finalizer = None
        if finalizer is not None:
            finalizer()

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        """Export the packed design and spawn the worker pool (once).

        Spawn (not fork) context: the serving front end runs sessions on
        live threads holding locks, which a forked child would inherit
        mid-flight.  Workers attach the shared segment in their
        initializer, so the export must stay linked until ``close()``.
        """
        if self._process_pool is None:
            engine = self.engine
            self._shared_design = design_shm.export_packed_design(
                engine.packed_design
            )
            self._process_pool = ProcessPoolExecutor(
                max_workers=self._process_workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_process_worker_init,
                initargs=(
                    engine.netlist,
                    engine.annotation,
                    engine.config,
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

    # ------------------------------------------------------------------
    # Single-request execution
    # ------------------------------------------------------------------
    def _run(
        self,
        stimulus: Mapping[str, Waveform],
        cycles: int,
        duration: int,
    ) -> SimulationResult:
        result = self._execute(stimulus, duration)
        if self._config.store_waveforms:
            # The merged full-range result is the rerun base, never a share.
            self.engine.retain(stimulus, duration, result)
        else:
            result.waveforms.clear()
        return result

    def _run_many(
        self, requests: Sequence[Tuple[Mapping[str, Waveform], int, int]]
    ) -> List[SimulationResult]:
        if self._shards > 1:
            # One partitioned run per request.
            return Session._run_many(self, requests)
        results = super()._run_many(requests)
        if not self._config.store_waveforms:
            for result in results:
                result.waveforms.clear()
        return results

    def _execute(
        self, stimulus: Mapping[str, Waveform], duration: int
    ) -> SimulationResult:
        """Sharded execution; the result always carries waveforms."""
        plan = plan_shards(
            duration, self._shards, overlap=self.engine.window_overlap
        )
        if len(plan) == 1:
            # Zero-overhead passthrough: a single full-range shard is
            # exactly a single-session run.
            return self.engine.simulate(stimulus, duration=duration, retain=False)
        # Both executors take the same slices and return results in plan
        # order, so merging — and therefore the answer — is identical.
        slices = (
            slice_stimulus(stimulus, shard.ext_start, shard.end) for shard in plan
        )
        if self._process_workers is None:
            share_results = [
                self.engine.simulate(
                    share, duration=shard.run_duration, retain=False
                )
                for shard, share in zip(plan, slices)
            ]
        else:
            # The executor queues excess shares behind the worker count.
            pool = self._ensure_process_pool()
            futures = [
                pool.submit(_process_run_shard, share, shard.run_duration)
                for shard, share in zip(plan, slices)
            ]
            share_results = [future.result() for future in futures]
        return self._merge(stimulus, plan, share_results, duration)

    # ------------------------------------------------------------------
    # Incremental re-simulation (the in-parent engine; never process mode)
    # ------------------------------------------------------------------
    def _reject_edits_on_process_workers(self) -> None:
        if self._process_workers is not None:
            # Worker engines live in other processes; there is no channel
            # to re-sync their compiled state after an in-place edit, and
            # silently editing only the parent would break bit-identity.
            raise NotImplementedError(
                "process-shard sessions do not support in-place edits; "
                "prepare a new session for the edited design "
                "(or drop workers=process)"
            )

    def apply_edits(self, edits: Sequence[Edit]) -> EditReceipt:
        self._reject_edits_on_process_workers()
        return super().apply_edits(edits)

    def rerun(
        self,
        edits: Sequence[Edit],
        *,
        stimulus: Optional[Mapping[str, Waveform]] = None,
        cycles: Optional[int] = None,
        duration: Optional[int] = None,
    ) -> SimulationResult:
        self._reject_edits_on_process_workers()
        with self._run_lock:
            result = super().rerun(
                edits, stimulus=stimulus, cycles=cycles, duration=duration
            )
            if not self._config.store_waveforms:
                # The dict is shared with the engine's retained copy, so the
                # next rerun of a counts-only session falls back to a full
                # run, as a counts-only gatspi session's does.
                result.waveforms.clear()
        return result

    # ------------------------------------------------------------------
    # Streaming replay
    # ------------------------------------------------------------------
    def _stream_batches(
        self,
        source: StreamingSourceEvents,
        duration: int,
        chunk_cycles: Optional[int],
        timings: PhaseTimings,
        stats: SimulationStats,
    ) -> Iterator[StreamBatch]:
        """Stream chunks, pipelined across process workers when there are any.

        Streaming parallelism is *pipelined*, not partitioned: the parent
        owns the stimulus stream (spans must be pulled sequentially), so
        it pulls each chunk's span, ships it to a worker
        (:meth:`~repro.core.engine.GatspiEngine.run_stream_chunk`; every
        worker keeps its own recycled stream pool) and keeps up to
        ``workers`` chunks in flight.  Batches are yielded strictly in
        chunk order, which the online accumulator requires; each worker
        derives its own window geometry from the chunk span, exact under
        the shared critical-path settle margin.  With fewer than two
        workers there is nothing to overlap and this is the in-parent
        engine's own stream.
        """
        width = self._process_workers or 1
        if width == 1:
            yield from super()._stream_batches(
                source, duration, chunk_cycles, timings, stats
            )
            return
        pool = self._ensure_process_pool()
        stats.streamed = True
        stats.segments = 0
        stats.shards = width
        pending: "deque" = deque()
        for job in self.engine.pull_spans(source, duration, chunk_cycles, timings):
            pending.append(pool.submit(_process_run_stream_chunk, *job, duration))
            if len(pending) >= width:
                yield self._fold_chunk(stats, timings, *pending.popleft().result())
        while pending:
            yield self._fold_chunk(stats, timings, *pending.popleft().result())

    @staticmethod
    def _fold_chunk(
        stats: SimulationStats,
        timings: PhaseTimings,
        batch: StreamBatch,
        chunk_stats: SimulationStats,
        chunk_timings: PhaseTimings,
    ) -> StreamBatch:
        """Fold one worker chunk's workload into the run totals."""
        _fold_workload(stats, timings, chunk_stats, chunk_timings)
        return batch

    def _merge(
        self,
        stimulus: Mapping[str, Waveform],
        plan: Sequence[Shard],
        share_results: Sequence[SimulationResult],
        duration: int,
    ) -> SimulationResult:
        """Merge per-shard results exactly like a single-session run.

        Source nets take their counts (and waveforms) from the original
        stimulus; gate outputs are trimmed to their shard's owned range
        and stitched through the engine's seam rules.
        """
        merge_start = time.perf_counter()
        first = share_results[0].stats
        stats = SimulationStats(
            gate_count=first.gate_count,
            levels=first.levels,
            widest_level=first.widest_level,
            segments=0,
            kernel_mode=first.kernel_mode,
            restructure_mode=first.restructure_mode,
            device=first.device,
            shards=len(plan),
        )
        timings = PhaseTimings()
        for share in share_results:
            _fold_workload(stats, timings, share.stats, share.timings)
        result = SimulationResult(duration=duration, timings=timings, stats=stats)

        for net in self._netlist.source_nets():
            wave = stimulus[net]
            result.toggle_counts[net] = wave.toggles_in(0, duration - 1)
            result.waveforms[net] = wave

        overlap = self.engine.window_overlap
        total_output_transitions = 0
        for gate in self.engine.compiled.gates.values():
            net = gate.output_net
            trimmed = [
                trim_shard_waveform(share.waveforms[net], shard, duration, overlap)
                for shard, share in zip(plan, share_results)
            ]
            stitched = merge_shard_waveforms(plan, trimmed)
            result.waveforms[net] = stitched
            count = stitched.toggle_count()
            result.toggle_counts[net] = count
            total_output_transitions += count
        stats.output_transitions = total_output_transitions
        stats.input_events = fanin_weighted_toggles(
            self._netlist, result.toggle_counts
        )
        timings.readback += time.perf_counter() - merge_start
        return result


def _fold_workload(
    stats: SimulationStats,
    timings: PhaseTimings,
    part_stats: SimulationStats,
    part_timings: PhaseTimings,
) -> None:
    """Fold one share's or chunk's workload into the run totals.

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


@register_backend("gatspi-sharded")
class GatspiShardedBackend(SimBackend):
    """Window-axis sharded gatspi execution behind the standard protocol."""

    name = "gatspi-sharded"
    capabilities = BackendCapabilities(
        delay_aware=True,
        glitch_accurate=True,
        waveforms=True,
        phase_timings=True,
        description=(
            "gatspi with the window axis sharded in the parent or across "
            "process workers; bit-identical to single-session gatspi"
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
        """Compile once, ready to simulate in window-axis shares.

        ``shards`` is the partition count of every subsequent ``run``
        (spec syntax ``"gatspi-sharded:shards=4"``; the default 1 is the
        single-session passthrough).  Shares run one after another in
        the parent unless ``workers="process"`` puts them on spawned
        worker processes (GIL-free, design tensors shared read-only via
        :mod:`repro.core.shm`): bare ``"process"`` partitions only as
        wide as ``min(shards, os.cpu_count())``, ``"process:N"`` pins an
        ``N``-wide pool and keeps the full partition count.  A config
        with a user-pinned ``window_overlap`` always degrades to the
        single-shard passthrough — partitioning under a margin the
        engine cannot vouch for would break the bit-identity contract.
        ``device`` selects the array backend exactly as for ``gatspi``.
        """
        _reject_unknown_options(self.name, options)
        if shards < 1:
            raise ValueError("shards must be at least 1")
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
            else:
                # Per-share costs without parallel payoff would regress
                # throughput: never partition wider than the machine.
                shards = process_workers = max(
                    1, min(shards, os.cpu_count() or 1)
                )
        config = config or SimConfig()
        if device is not None:
            config = config.with_updates(device=device)
        return ShardedGatspiSession(
            netlist, annotation, config, shards, process_workers
        )
