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
  and keeps the full partition count.  Measured 0.79–1.06x of ``gatspi``
  at 1000 cycles on 2 cores — near break-even, the only mode that can
  scale with cores.  Process sessions are host-only (``device="numpy"``)
  and refuse in-place edits; :meth:`ShardedGatspiSession.close` (or
  dropping the session) shuts the pool down and unlinks the segment.

A user-pinned ``window_overlap`` may be smaller than the critical path, in
which case partitioning is not exactness-preserving; such sessions always
run the single-share passthrough.

**Batched runs** (:meth:`ShardedGatspiSession.run_many`) are the other axis:
requests for one compiled design are *fused along the time axis* — laid out
back to back with settle pads, executed as one engine run, and sliced apart
bit-exactly (:func:`~repro.core.sharding.plan_fusion` /
:func:`~repro.core.sharding.fuse_stimuli` /
:func:`~repro.core.sharding.split_fused_waveform`).  One fused run pays the
engine's per-level-batch and per-net fixed costs once per *batch* instead
of once per *request* (measured 1.34–1.87x over four serial runs), which is
what micro-batched serving (:mod:`repro.serve`) rides on.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core import shm as design_shm
from ..core.config import SimConfig
from ..core.contract import (
    StimulusError,
    fanin_weighted_toggles,
    normalize_horizon,
    validate_stimulus,
)
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
    FusedLayout,
    Shard,
    fuse_stimuli,
    merge_shard_waveforms,
    plan_fusion,
    plan_shards,
    split_fused_waveform,
    trim_shard_waveform,
)
from ..core.waveform import Waveform
from ..netlist import Netlist
from ..sdf.annotate import DelayAnnotation
from .adapters import GatspiSession, _reject_unknown_options
from .backend import BackendCapabilities, SimBackend
from .registry import register_backend


@dataclass(frozen=True)
class RunSpec:
    """One request of a batched :meth:`ShardedGatspiSession.run_many`."""

    stimulus: Mapping[str, Waveform]
    cycles: Optional[int] = None
    duration: Optional[int] = None


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
            # path, in which case partitioning is not exactness-preserving
            # (the same reason run_many refuses to fuse): fall back to a
            # single full-range shard so the bit-identity contract against
            # single-session gatspi holds for every config.
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
                # wants toggle counts.  Consequence: counts-only results
                # are the stitched-exact (waveform-mode) counts — seam
                # toggles counted once — not the engine's counts-only
                # shortcut of summing per-window trimmed counts.
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
        """Fold one worker chunk's workload stats into the run totals.

        Additive counters sum and high-water marks take the max — the
        same serial-equivalent accounting :meth:`_merge` applies to shards
        (a streamed chunk carries no design descriptors to adopt).
        """
        stats.windows += chunk_stats.windows
        stats.segments += chunk_stats.segments
        stats.chunks += chunk_stats.chunks
        stats.kernel_invocations += chunk_stats.kernel_invocations
        stats.level_batches += chunk_stats.level_batches
        stats.pool_words_used = max(
            stats.pool_words_used, chunk_stats.pool_words_used
        )
        stats.max_batch_tasks = max(
            stats.max_batch_tasks, chunk_stats.max_batch_tasks
        )
        timings.add(chunk_timings)
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
        and stitched through the engine's seam rules.  Phase timings are
        summed across shards — the serial-equivalent cost (wall-clock
        parallelism is measured by callers, e.g. the serving benchmark).
        """
        merge_start = time.perf_counter()
        timings = PhaseTimings()
        for share in share_results:
            timings.add(share.timings)

        first = share_results[0].stats
        stats = SimulationStats(
            gate_count=first.gate_count,
            levels=first.levels,
            widest_level=first.widest_level,
            windows=sum(share.stats.windows for share in share_results),
            segments=sum(share.stats.segments for share in share_results),
            kernel_invocations=sum(
                share.stats.kernel_invocations for share in share_results
            ),
            pool_words_used=max(
                share.stats.pool_words_used for share in share_results
            ),
            kernel_mode=first.kernel_mode,
            restructure_mode=first.restructure_mode,
            device=first.device,
            level_batches=sum(share.stats.level_batches for share in share_results),
            max_batch_tasks=max(
                share.stats.max_batch_tasks for share in share_results
            ),
            shards=len(plan),
        )
        result = SimulationResult(duration=duration, timings=timings, stats=stats)

        for net in self._netlist.source_nets():
            wave = stimulus[net]
            result.toggle_counts[net] = wave.toggles_in(0, duration - 1)
            result.waveforms[net] = wave

        overlap = self.engine.window_overlap
        total_output_transitions = 0
        for net in self._gate_output_nets():
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

    def _gate_output_nets(self) -> List[str]:
        """Merge order of the gate outputs (re-read: edits change it)."""
        return [gate.output_net for gate in self.engine.compiled.gates.values()]

    # ------------------------------------------------------------------
    # Batched execution (time-axis request fusion)
    # ------------------------------------------------------------------
    def run_many(self, requests: Sequence[RunSpec]) -> List[SimulationResult]:
        """Run a batch of requests, fused into one engine run when safe.

        Results are returned in request order and are bit-identical to
        calling :meth:`run` once per request.  Fusion applies when the
        settle margin is the engine's own critical-path estimate (the
        default); with a user-pinned ``window_overlap`` — whose exactness
        the engine cannot vouch for across arbitrary partitions — or a
        fused horizon that would violate the ``EOW`` sentinel headroom,
        the batch transparently falls back to sequential runs.

        Fused phase timings and workload stats are attributed evenly
        across the batch (the engine executed them jointly); counter and
        result semantics otherwise match :meth:`run` exactly.
        """
        if not requests:
            return []
        normalized: List[Tuple[int, int, Mapping[str, Waveform]]] = []
        for request in requests:
            cycles, duration = normalize_horizon(
                request.cycles, request.duration, self.clock_period
            )
            validate_stimulus(self._netlist, request.stimulus)
            normalized.append((cycles, duration, request.stimulus))

        fusable = (
            len(requests) > 1
            and self.engine.window_overlap > 0
            and self._config.window_overlap is None
        )
        if fusable:
            with self._run_lock:
                results = self._run_fused(normalized)
            if results is not None:
                return results
        return [
            self.run(stimulus, cycles=cycles, duration=duration)
            for cycles, duration, stimulus in normalized
        ]

    def _run_fused(
        self, normalized: Sequence[Tuple[int, int, Mapping[str, Waveform]]]
    ) -> Optional[List[SimulationResult]]:
        """One fused engine run for the whole batch (or ``None`` to punt)."""
        layout = plan_fusion(
            [d for _, d, _ in normalized], self.engine.window_overlap
        )
        nets = tuple(self._netlist.source_nets())
        fused_stimulus = fuse_stimuli(
            nets, [stimulus for _, _, stimulus in normalized], layout
        )
        try:
            fused = self._execute(fused_stimulus, layout.fused_duration)
        except StimulusError:
            # The fused horizon ran out of EOW sentinel headroom; the
            # caller serializes instead.
            return None
        batch = layout.batch_size
        results: List[SimulationResult] = []
        for index, (cycles, duration, stimulus) in enumerate(normalized):
            results.append(
                self._split_fused_result(
                    fused, layout, index, cycles, duration, stimulus, batch
                )
            )
        # Counted only once the whole batch split successfully, so a
        # mid-split failure (whose caller will retry serially) cannot
        # leave partial increments behind.
        self._runs_completed += len(results)
        return results

    def _split_fused_result(
        self,
        fused: SimulationResult,
        layout: FusedLayout,
        index: int,
        cycles: int,
        duration: int,
        stimulus: Mapping[str, Waveform],
        batch: int,
    ) -> SimulationResult:
        """Slice one request's standalone-equivalent result out of a fused run."""
        share = 1.0 / batch
        timings = PhaseTimings(
            restructure=fused.timings.restructure * share,
            host_to_device=fused.timings.host_to_device * share,
            scheduling=fused.timings.scheduling * share,
            kernel=fused.timings.kernel * share,
            readback=fused.timings.readback * share,
            dump=fused.timings.dump * share,
        )
        stats = SimulationStats(
            gate_count=fused.stats.gate_count,
            levels=fused.stats.levels,
            widest_level=fused.stats.widest_level,
            windows=fused.stats.windows // batch,
            segments=max(1, fused.stats.segments // batch),
            cycles=cycles,
            kernel_invocations=fused.stats.kernel_invocations // batch,
            pool_words_used=fused.stats.pool_words_used,
            kernel_mode=fused.stats.kernel_mode,
            restructure_mode=fused.stats.restructure_mode,
            device=fused.stats.device,
            level_batches=fused.stats.level_batches // batch,
            max_batch_tasks=fused.stats.max_batch_tasks,
            shards=fused.stats.shards,
            fused_requests=batch,
        )
        result = SimulationResult(duration=duration, timings=timings, stats=stats)
        store_waveforms = self._config.store_waveforms
        for net in self._netlist.source_nets():
            wave = stimulus[net]
            result.toggle_counts[net] = wave.toggles_in(0, duration - 1)
            if store_waveforms:
                result.waveforms[net] = wave
        total_output_transitions = 0
        for net in self._gate_output_nets():
            sliced = split_fused_waveform(fused.waveforms[net], layout, index)
            if store_waveforms:
                result.waveforms[net] = sliced
            count = sliced.toggle_count()
            result.toggle_counts[net] = count
            total_output_transitions += count
        stats.output_transitions = total_output_transitions
        stats.input_events = fanin_weighted_toggles(
            self._netlist, result.toggle_counts
        )
        return result


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
            "process workers, plus batched-run fusion; bit-identical to "
            "single-session gatspi"
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
