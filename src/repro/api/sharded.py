"""The ``gatspi-sharded`` backend: window-axis sharding behind the registry.

The paper's multi-GPU strategy (Section 5) partitions the cycle-parallel
window axis across devices.  This backend is that strategy as a first-class
:class:`~repro.api.backend.SimBackend`: one ``run()`` carves the horizon
into contiguous shares (via the same :mod:`~repro.core.sharding` planner
``simulate_multi_gpu`` uses), executes each share on a worker-thread pool —
one prepared ``gatspi`` session per worker, all sharing one compile through
the process-wide compile cache — and merges the per-share results (toggle
counts, stats, stitched waveforms) into a result **bit-identical** to a
single-session ``gatspi`` run.

Because it implements the standard backend protocol, every flow drives it
by name: ``bench/runner.py`` benchmarks it, the differential suite holds
it to the single-session pipeline, and :mod:`repro.serve` serves it, e.g.
with the spec ``"gatspi-sharded:shards=4"``.

Two design decisions matter for throughput:

* **Adaptive shard width.**  Partitioning pays real per-share costs (extra
  level batches, settle margins, per-net merge work) that only *parallel*
  execution can win back.  ``shards`` is therefore a cap: unless a worker
  count is pinned explicitly, the session partitions only as wide as the
  machine can actually execute in parallel (``os.cpu_count()``), down to a
  zero-overhead single-session passthrough on one core — the no-regression
  guarantee the serving benchmark enforces.  Passing ``workers=N``
  explicitly forces an ``N``-wide pool with the full requested partition
  count (the differential suite uses this to exercise real sharding on any
  machine).
* **Batched runs** (:meth:`ShardedGatspiSession.run_many`).  Requests for
  one compiled design can be *fused along the time axis* — laid out back
  to back with settle pads, executed as one engine run, and sliced apart
  bit-exactly (:func:`~repro.core.sharding.plan_fusion` /
  :func:`~repro.core.sharding.fuse_stimuli` /
  :func:`~repro.core.sharding.split_fused_waveform`).  One fused run pays
  the engine's per-level-batch and per-net fixed costs once per *batch*
  instead of once per *request*, which is what makes micro-batched serving
  (:mod:`repro.serve`) faster than serializing single-session runs even on
  one core.

Shares normally execute on worker *threads* — the numpy kernels release
the GIL only partially, so thread shards stop scaling once the Python-side
scheduling work saturates one core.  ``workers="process"`` (spec
``"gatspi-sharded:shards=4,workers=process"``; ``"process:N"`` pins the
pool width) runs each share in a separate spawned OS process instead.  The
packed design tensors are exported once into a
``multiprocessing.shared_memory`` segment (:mod:`repro.core.shm`) and every
worker attaches them read-only, so the per-worker cost is one levelize plus
zero-copy views — not a duplicate of the design tensors.  Workers rebuild a
normal ``gatspi`` session around the attached tensors through the regular
compile path, so process shards stay bit-identical to thread shards and to
single-session runs.  Process sessions are host-only (``device="numpy"``)
and do not support in-place edits (:meth:`ShardedGatspiSession.apply_edits`
/ :meth:`~ShardedGatspiSession.rerun` raise); call
:meth:`ShardedGatspiSession.close` (or drop the session) to shut the pool
down and unlink the shared segment.

Sharded runs keep the *total* cycle parallelism at the configured value:
each share runs with ``ceil(cycle_parallelism / shards)`` windows,
mirroring the paper's ``32 * n`` windows across ``n`` GPUs.  Each share's
stimulus is extended backwards by the engine's settle margin so events
still propagating across a shard boundary are reproduced exactly; the
margin region is trimmed from the share outputs before stitching, exactly
as the engine trims its own windows.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
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
from ..core.engine import RETAINED_RUN_CAPACITY, _RetainedRun
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
from .backend import BackendCapabilities, SimBackend
from .registry import register_backend
from .session import Session


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
#: ``gatspi`` session rebuilt around it.  Populated once by the pool
#: initializer; worker processes are single-threaded, so no lock.
_WORKER_STATE: Dict[str, Any] = {}


def _process_worker_init(
    netlist: Netlist,
    annotation: Optional[DelayAnnotation],
    inner_config: SimConfig,
    manifest: "design_shm.DesignManifest",
) -> None:
    """Initializer of one spawned shard worker.

    Attaches the parent's shared design tensors and compiles a normal
    ``gatspi`` engine around them (``compile(packed=...)`` skips only the
    pack/upload step), so shard execution in the worker runs the exact
    code path thread shards run in the parent.
    """
    from ..core.engine import GatspiEngine
    from .adapters import GatspiSession

    attachment = design_shm.attach_packed_design(manifest)
    engine = GatspiEngine(netlist, annotation=annotation, config=inner_config)
    engine.compile(packed=attachment.packed)
    # The attachment must outlive the engine: the packed tensors are
    # zero-copy views into its mapping.
    _WORKER_STATE["attachment"] = attachment
    _WORKER_STATE["session"] = GatspiSession(engine)


def _process_run_shard(
    stimulus: Mapping[str, Waveform], duration: int
) -> SimulationResult:
    """Run one share on this worker's session (executed in the worker)."""
    session = _WORKER_STATE["session"]
    return session.run(stimulus, duration=duration)


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
    merge serial-equivalent costs exactly like thread mode.
    """
    session = _WORKER_STATE["session"]
    timings = PhaseTimings()
    stats = SimulationStats(segments=0)
    batch = session.engine.run_stream_chunk(
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


class ShardedGatspiSession(Session):
    """One compiled design, simulated in window-axis shards on a pool.

    Holds one inner ``gatspi`` session per worker; all of them share one
    compile via the content-fingerprint compile cache, so preparing this
    session costs a single compilation regardless of the worker count.
    Inner sessions are thread-safe (each serializes its own runs), and a
    share is pinned to exactly one inner session, so concurrent shares
    never contend on engine state.
    """

    def __init__(
        self,
        netlist: Netlist,
        annotation: Optional[DelayAnnotation],
        config: SimConfig,
        shards: int,
        workers: Optional[int],
        worker_mode: str = "thread",
    ):
        super().__init__("gatspi-sharded", netlist, config)
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        if worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', got {worker_mode!r}"
            )
        if worker_mode == "process" and config.device != "numpy":
            raise ValueError(
                "workers='process' requires the numpy device: the design "
                "tensors are shared between processes via host shared "
                "memory, which device arrays cannot live in"
            )
        self._worker_mode = worker_mode
        self._annotation = annotation
        self._requested_shards = shards
        if config.window_overlap is not None:
            # A user-pinned settle margin may be smaller than the critical
            # path, in which case partitioning is not exactness-preserving
            # (the same reason run_many refuses to fuse): fall back to a
            # single full-range shard so the bit-identity contract against
            # single-session gatspi holds for every config.
            self._shards = 1
            self._workers = 1
        elif workers is None:
            # Adaptive width: never partition wider than the machine can
            # execute in parallel — per-share costs without parallel payoff
            # would regress straight-line throughput.
            self._workers = max(1, min(shards, os.cpu_count() or 1))
            self._shards = self._workers
        else:
            self._workers = min(workers, shards)
            self._shards = shards
        # Keep the *total* window count at the configured parallelism:
        # each share gets its slice of the cycle-parallel axis.
        inner_parallelism = max(1, -(-config.cycle_parallelism // self._shards))
        # Shares always keep waveforms internally: exact merging trims and
        # stitches share outputs, which needs the per-share waveforms even
        # when the caller only wants toggle counts.  Consequence: with
        # ``store_waveforms=False`` the merged counts are the stitched-exact
        # (waveform-mode) counts — seam toggles counted once — not the
        # engine's counts-only shortcut of summing per-window trimmed counts.
        # ``analysis="off"``: the outer (template-method) ``prepare`` already
        # analyzed the design once under the caller's mode; re-running it per
        # inner worker would duplicate warnings without new information.
        self._inner_config = config.with_updates(
            cycle_parallelism=inner_parallelism,
            store_waveforms=True,
            analysis="off",
        )
        from .registry import get_backend  # local: avoids import cycles

        backend = get_backend("gatspi")
        # Process mode keeps exactly one in-parent session: it serves the
        # single-shard passthrough, the merge metadata, and the compiled
        # tensors the shared segment is exported from; the shard-executing
        # sessions live in the worker processes instead.
        inner_count = 1 if worker_mode == "process" else self._workers
        self._inner_sessions = [
            backend.prepare(netlist, annotation=annotation, config=self._inner_config)
            for _ in range(inner_count)
        ]
        engine = self._inner_sessions[0].engine
        self._overlap = engine.window_overlap
        self._gate_output_nets = tuple(
            gate.output_net for gate in engine.compiled.gates.values()
        )
        # Incremental rerun keeps full-range *merged* results at this level
        # (keyed by the first engine's journal fingerprint); the inner
        # engines must not retain their per-share slices, which are useless
        # as rerun baselines and would pin share-sized waveform sets.
        for inner in self._inner_sessions:
            inner.engine.retain_results = False
        self._retained: "OrderedDict[str, _RetainedRun]" = OrderedDict()
        self._last_edit_receipt: Optional[EditReceipt] = None
        # Session-lifetime worker pool, created lazily by the first
        # multi-shard run (serving hot path: no per-run thread spawn/join)
        # and shut down when the session is garbage collected.
        self._pool: Optional[ThreadPoolExecutor] = None
        # Process-mode resources, also created lazily by the first
        # multi-shard run: the spawned worker pool and the shared-memory
        # export of the packed design every worker attaches.  Torn down by
        # close() or, failing that, the finalizer at garbage collection.
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._shared_design: Optional[design_shm.SharedDesign] = None
        self._process_finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Effective partition width of every run (adaptive, see module)."""
        return self._shards

    @property
    def requested_shards(self) -> int:
        """The ``shards`` cap the session was prepared with."""
        return self._requested_shards

    @property
    def worker_count(self) -> int:
        """Worker threads or processes shares execute on."""
        return self._workers

    @property
    def worker_mode(self) -> str:
        """``"thread"`` (default) or ``"process"`` (GIL-free shards)."""
        return self._worker_mode

    @property
    def compile_cache_hit(self) -> bool:
        """Whether the *first* inner prepare reused a cached compile."""
        return self._inner_sessions[0].engine.compile_cache_hit

    # ------------------------------------------------------------------
    # Lifecycle (process mode)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release process-shard resources: pool shutdown + segment unlink.

        Idempotent; a no-op for thread-mode sessions (their pool is torn
        down by the garbage-collection finalizer) and for process sessions
        that never ran multi-shard.  After ``close()`` the session still
        serves single-shard passthrough runs on the in-parent session.
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
            engine = self._inner_sessions[0].engine
            self._shared_design = design_shm.export_packed_design(
                engine.packed_design
            )
            self._process_pool = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_process_worker_init,
                initargs=(
                    self._netlist,
                    self._annotation,
                    self._inner_config,
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
        # Retain before the waveform clear below: rerun baselines need the
        # full merged waveforms (retention is skipped entirely when the
        # session never stores them, so the clear cannot corrupt the store).
        self._retain(stimulus, duration, result)
        if not self._config.store_waveforms:
            result.waveforms.clear()
        return result

    def _retain(
        self,
        stimulus: Mapping[str, Waveform],
        duration: int,
        result: SimulationResult,
    ) -> None:
        if not self._config.store_waveforms:
            return
        key = self._inner_sessions[0].engine.journal.fingerprint()
        self._retained[key] = _RetainedRun(
            stimulus=dict(stimulus), duration=duration, result=result
        )
        self._retained.move_to_end(key)
        while len(self._retained) > RETAINED_RUN_CAPACITY:
            self._retained.popitem(last=False)

    # ------------------------------------------------------------------
    # Incremental re-simulation
    # ------------------------------------------------------------------
    @property
    def last_edit_receipt(self) -> Optional[EditReceipt]:
        """Receipt of the most recent :meth:`rerun`/:meth:`apply_edits`."""
        return self._last_edit_receipt

    def _sync_inner_engines(self) -> None:
        """Propagate the first engine's post-edit state to every worker."""
        engine0 = self._inner_sessions[0].engine
        for inner in self._inner_sessions[1:]:
            inner.engine.adopt(engine0)
        self._overlap = engine0.window_overlap
        self._gate_output_nets = tuple(
            gate.output_net for gate in engine0.compiled.gates.values()
        )

    def _reject_edits_in_process_mode(self) -> None:
        if self._worker_mode == "process":
            # Worker engines live in other processes; there is no channel
            # to re-sync their compiled state after an in-place edit, and
            # silently editing only the parent would break bit-identity.
            raise NotImplementedError(
                "process-shard sessions do not support in-place edits; "
                "prepare a new session for the edited design "
                "(or use workers=thread)"
            )

    def apply_edits(self, edits: Sequence[Edit]) -> EditReceipt:
        self._reject_edits_in_process_mode()
        with self._run_lock:
            receipt = self._inner_sessions[0].engine.apply_edits(list(edits))
            self._sync_inner_engines()
            self._last_edit_receipt = receipt
        return receipt

    def rerun(
        self,
        edits: Sequence[Edit],
        *,
        stimulus: Optional[Mapping[str, Waveform]] = None,
        cycles: Optional[int] = None,
        duration: Optional[int] = None,
    ) -> SimulationResult:
        from .adapters import _check_edit_analysis

        self._reject_edits_in_process_mode()
        with self._run_lock:
            engine0 = self._inner_sessions[0].engine
            receipt = engine0.apply_edits(list(edits))
            try:
                _check_edit_analysis(engine0, receipt, self._config.analysis)
                retained = self._retained.get(receipt.parent_journal)
                if stimulus is None and retained is not None:
                    stimulus = retained.stimulus
                if duration is None and cycles is None and retained is not None:
                    duration = retained.duration
                result = engine0.resimulate(
                    receipt,
                    stimulus,
                    cycles=cycles,
                    duration=duration,
                    previous=retained.result if retained is not None else None,
                )
            except Exception:
                engine0.apply_edits(receipt.undo_edits)
                self._sync_inner_engines()
                raise
            self._sync_inner_engines()
            self._last_edit_receipt = receipt
            if stimulus is not None:
                self._retain(stimulus, result.duration, result)
            if not self._config.store_waveforms:
                result.waveforms.clear()
            self._finalize_stats(result, result.stats.cycles)
            self._runs_completed += 1
        return result

    def _execute(
        self, stimulus: Mapping[str, Waveform], duration: int
    ) -> SimulationResult:
        """Sharded execution; the result always carries waveforms."""
        plan = plan_shards(duration, self._shards, overlap=self._overlap)
        if len(plan) == 1:
            # Zero-overhead passthrough: a single full-range shard is
            # exactly a single-session run (the inner config keeps
            # waveforms, which `_run` drops again if asked to).
            return self._inner_sessions[0].run(stimulus, duration=duration)
        share_results = self._run_shards(stimulus, plan)
        return self._merge(stimulus, plan, share_results, duration)

    def _run_shards(
        self, stimulus: Mapping[str, Waveform], plan: Sequence[Shard]
    ) -> List[SimulationResult]:
        """Execute every shard, fanned out across the inner sessions.

        Shard ``k`` runs on inner session ``k % workers``; with more
        shards than workers the extra shards queue up behind their
        session's lock, bounding concurrency at the worker count.

        In process mode each share is sliced here in the parent (the same
        slice thread mode takes) and submitted to the spawned pool; the
        executor queues excess shares behind the worker count, and results
        come back in plan order, so merging is identical to thread mode —
        which is what keeps the two modes bit-identical.
        """
        if self._worker_mode == "process":
            pool = self._ensure_process_pool()
            futures = [
                pool.submit(
                    _process_run_shard,
                    slice_stimulus(stimulus, shard.ext_start, shard.end),
                    shard.run_duration,
                )
                for shard in plan
            ]
            return [future.result() for future in futures]

        def run_shard(shard: Shard) -> SimulationResult:
            session = self._inner_sessions[shard.index % self._workers]
            share_stimulus = slice_stimulus(stimulus, shard.ext_start, shard.end)
            return session.run(share_stimulus, duration=shard.run_duration)

        if self._workers == 1:
            return [run_shard(shard) for shard in plan]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="gatspi-shard"
            )
            weakref.finalize(
                self, ThreadPoolExecutor.shutdown, self._pool, wait=False
            )
        return list(self._pool.map(run_shard, plan))

    # ------------------------------------------------------------------
    # Streaming replay (chunk pipelining across the worker pool)
    # ------------------------------------------------------------------
    def _stream_batches(
        self,
        source: StreamingSourceEvents,
        duration: int,
        chunk_cycles: Optional[int],
        timings: PhaseTimings,
        stats: SimulationStats,
    ) -> Iterator[StreamBatch]:
        """Stream chunks through the worker pool, yielding in chunk order.

        Streaming parallelism is *pipelined*, not partitioned: the parent
        owns the stimulus stream (spans must be pulled sequentially), so
        it pulls each chunk's span, ships it to a worker
        (:meth:`~repro.core.engine.GatspiEngine.run_stream_chunk`), and
        keeps up to ``workers`` chunks in flight — thread mode pins chunk
        ``k`` to inner session ``k % workers`` so one engine never runs
        two chunks at once, process mode lets the spawned pool schedule
        freely (every worker keeps its own recycled stream pool).  Batches
        are yielded strictly in chunk order, which the online accumulator
        requires; each worker derives its own window geometry from the
        chunk span, exact under the shared critical-path settle margin.
        """
        # The parent pulls spans through the first inner engine's geometry
        # (every inner engine shares the compiled design and settle margin).
        pulled_spans = self._inner_sessions[0].engine.pull_spans(
            source, duration, chunk_cycles, timings
        )
        stats.streamed = True
        stats.segments = 0
        stats.shards = self._workers

        def run_chunk_inline(
            job: Tuple[SourceEvents, int, int, int]
        ) -> Tuple[StreamBatch, SimulationStats, PhaseTimings]:
            chunk_index = job[1]
            inner = self._inner_sessions[chunk_index % len(self._inner_sessions)]
            chunk_timings = PhaseTimings()
            chunk_stats = SimulationStats(segments=0)
            with inner._run_lock:
                batch = inner.engine.run_stream_chunk(
                    *job, duration, timings=chunk_timings, stats=chunk_stats
                )
            return batch, chunk_stats, chunk_timings

        width = self._workers
        submit = None
        if width > 1 and self._worker_mode == "process":
            pool = self._ensure_process_pool()
            submit = lambda job: pool.submit(  # noqa: E731
                _process_run_stream_chunk, *job, duration
            )
        elif width > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers, thread_name_prefix="gatspi-shard"
                )
                weakref.finalize(
                    self, ThreadPoolExecutor.shutdown, self._pool, wait=False
                )
            submit = lambda job: self._pool.submit(run_chunk_inline, job)  # noqa: E731

        def fold(
            outcome: Tuple[StreamBatch, SimulationStats, PhaseTimings]
        ) -> StreamBatch:
            batch, chunk_stats, chunk_timings = outcome
            self._merge_chunk_stats(stats, timings, chunk_stats, chunk_timings)
            return batch

        if submit is None:
            for job in pulled_spans:
                yield fold(run_chunk_inline(job))
            return
        pending: "deque" = deque()
        for job in pulled_spans:
            pending.append(submit(job))
            if len(pending) >= width:
                yield fold(pending.popleft().result())
        while pending:
            yield fold(pending.popleft().result())

    @staticmethod
    def _merge_chunk_stats(
        stats: SimulationStats,
        timings: PhaseTimings,
        chunk_stats: SimulationStats,
        chunk_timings: PhaseTimings,
    ) -> None:
        """Fold one chunk's workload stats into the run totals.

        Additive counters sum, high-water marks take the max, and the
        execution descriptors are adopted from the first chunk — the same
        serial-equivalent accounting :meth:`_merge` applies to shards.
        """
        if stats.chunks == 0:
            stats.gate_count = chunk_stats.gate_count
            stats.levels = chunk_stats.levels
            stats.widest_level = chunk_stats.widest_level
            stats.kernel_mode = chunk_stats.kernel_mode
            stats.restructure_mode = chunk_stats.restructure_mode
            stats.device = chunk_stats.device
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
        timings.host_to_device += chunk_timings.host_to_device
        timings.scheduling += chunk_timings.scheduling
        timings.kernel += chunk_timings.kernel
        timings.readback += chunk_timings.readback
        timings.restructure += chunk_timings.restructure
        timings.dump += chunk_timings.dump

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
        summed across shards — the serial-equivalent cost, mirroring
        ``MultiGpuResult.serial_kernel_runtime`` (wall-clock parallelism
        is measured by callers, e.g. the serving benchmark).
        """
        merge_start = time.perf_counter()
        timings = PhaseTimings()
        for share in share_results:
            timings.restructure += share.timings.restructure
            timings.host_to_device += share.timings.host_to_device
            timings.scheduling += share.timings.scheduling
            timings.kernel += share.timings.kernel
            timings.readback += share.timings.readback
            timings.dump += share.timings.dump

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

        total_output_transitions = 0
        for net in self._gate_output_nets:
            trimmed = [
                trim_shard_waveform(
                    share.waveforms[net], shard, duration, self._overlap
                )
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
            and self._overlap > 0
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
        layout = plan_fusion([d for _, d, _ in normalized], self._overlap)
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
        for net in self._gate_output_nets:
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
            "gatspi with the window axis sharded across a worker pool and "
            "batched-run fusion; bit-identical to single-session gatspi"
        ),
    )

    def _prepare(
        self,
        netlist: Netlist,
        annotation: Optional[DelayAnnotation] = None,
        config: Optional[SimConfig] = None,
        *,
        shards: int = 4,
        workers: Optional[Any] = None,
        device: Optional[str] = None,
        **options: Any,
    ) -> ShardedGatspiSession:
        """Compile once, ready to simulate in window-axis shares.

        ``shards`` caps the partition count of every subsequent ``run``
        (spec syntax ``"gatspi-sharded:shards=4"``).  By default the
        session partitions only as wide as ``os.cpu_count()`` allows
        (down to a single-session passthrough on one core); pass
        ``workers=N`` to pin an ``N``-wide pool and force the full
        requested partition count.  ``workers="process"`` runs shares on
        spawned worker *processes* instead of threads (GIL-free), with
        the packed design tensors shared read-only via
        :mod:`repro.core.shm`; ``workers="process:N"`` additionally pins
        the pool width and forces the full partition count, exactly like
        an integer ``workers=N``.  A config with a user-pinned
        ``window_overlap`` always degrades to the single-shard
        passthrough — partitioning under a margin the engine cannot
        vouch for would break the bit-identity contract.  ``device``
        selects the array backend exactly as for ``gatspi``.
        """
        from .adapters import _reject_unknown_options

        _reject_unknown_options(self.name, options)
        if shards < 1:
            raise ValueError("shards must be at least 1")
        worker_mode = "thread"
        if isinstance(workers, str):
            base, sep, width_text = workers.partition(":")
            if base != "process":
                raise ValueError(
                    f"workers must be an integer, 'process', or "
                    f"'process:N', got {workers!r}"
                )
            worker_mode = "process"
            if sep:
                try:
                    workers = int(width_text)
                except ValueError:
                    raise ValueError(
                        f"invalid process worker width {width_text!r} in "
                        f"workers={'process:' + width_text!r}"
                    ) from None
            else:
                workers = None
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        config = config or SimConfig()
        if device is not None:
            config = config.with_updates(device=device)
        return ShardedGatspiSession(
            netlist,
            annotation,
            config,
            shards=shards,
            workers=workers,
            worker_mode=worker_mode,
        )
