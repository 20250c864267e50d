"""The GATSPI re-simulation engine.

This is the paper's simulation flow (Fig. 5) end to end:

1. *Compile* the netlist: levelize the combinational logic, translate every
   cell's logic function into a truth-table array and every SDF delay into a
   conditional delay-lookup array (Fig. 4), pack everything into
   struct-of-arrays design tensors, and materialize them on the configured
   array backend (:mod:`repro.core.xp`).  Compiles are memoized process-wide
   (:mod:`repro.core.compile_cache`) so repeated sessions on the same design
   reuse the packed tensors.
2. *Restructure* the testbench: slice every source waveform (primary inputs
   and sequential-element outputs) into ``cycle_parallelism`` independent
   windows.  A batch of testbenches (:meth:`GatspiEngine.simulate_many`)
   contributes each testbench's windows as further columns.
3. *Load* the windows into the pre-allocated device-memory waveform pool.
4. For every logic level, count → allocate → store with one kernel
   execution: the launch sizes and produces the output waveforms, their
   start addresses are laid out in the pool, and the counted waveforms are
   written there (Algorithm 1; the paper's GPU re-runs the kernel to store
   only because a thread cannot allocate).
5. *Read back* toggle counts and waveforms for SAIF generation.

On a non-numpy device the vector pipeline crosses the host/device boundary
exactly twice per run: the lowered stimulus event tensors move *in* once
(:meth:`~repro.core.restructure.SourceEvents.to_device`, step 2) and the
trimmed readback moves *out* once per request per level-loop batch
(:meth:`~repro.core.restructure.TrimmedReadback.to_host`, step 5).  Window
descriptors (a handful of scalars per batch) ride along with the kernel
launches, exactly like CUDA launch parameters.

A whole run is one level-loop batch on a pool that grows on demand: the
paper's split of oversized testbenches into sequential segments is not
modelled, and :meth:`GatspiEngine.stream` (one recycled pool) is the memory
bound.  With ``process_workers`` the windows split into one group per
worker (:mod:`repro.core.workers`).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..netlist import CompiledGraph, Netlist, compile_netlist, levelize
from ..sdf.annotate import DelayAnnotation, default_annotation
from . import compile_cache
from .config import SimConfig
from .contract import (
    StimulusError,
    fanin_weighted_toggles,
    normalize_horizon,
    validate_stimulus,
)
from .edits import AppliedEdit, Edit, EditJournal, EditReceipt
from .incremental import (
    ExecutionPlan,
    build_dirty_plan,
    derive_compile_key,
    full_plan,
    rebuild_artifacts,
)
from .kernel import GateKernelInputs
from .memory import WaveformPool
from .restructure import (
    SourceEvents,
    StreamingSourceEvents,
    TrimmedReadback,
    gather_segments,
    lower_stimulus,
    slice_windows,
    stitch_windows,
    stitched_times,
    trim_readback,
)
from .results import PhaseTimings, SimulationResult, SimulationStats, StreamBatch
from .vector_kernel import PackedDesign, pack_design, simulate_level, tile_level
from .waveform import EOW, INITIAL_ONE_MARKER, Waveform
from .xp import HOST, ArrayBackend, get_array_backend

#: Previous-run results kept per engine for incremental re-simulation,
#: keyed by edit-journal fingerprint (the state of the design they ran on).
RETAINED_RUN_CAPACITY = 4


@dataclass
class _RetainedRun:
    """One completed run retained as the base for incremental reruns."""

    stimulus: Dict[str, Waveform] = field(default_factory=dict)
    duration: int = 0
    result: Optional[SimulationResult] = None


@dataclass
class _Request:
    """One testbench of a whole run; ``sources`` adds a dirty plan's
    clean boundary waveforms to the stimulus."""

    stimulus: Mapping[str, Waveform]
    sources: Mapping[str, Waveform]
    cycles: int
    duration: int


@dataclass
class _WindowRange:
    """``[start, end)`` of request ``request``'s own time; ``index`` is the
    batch-wide column."""

    index: int
    start: int
    end: int
    request: int = 0

    @property
    def length(self) -> int:
        return self.end - self.start


def _share(total: int, batch: int, index: int) -> int:
    """Request ``index``'s part of a batch counter; the parts sum to it."""
    return total // batch + int(index < total % batch)


def _request_runs(windows: Sequence[_WindowRange]) -> Iterator[Tuple[int, int, int]]:
    """``(request, lo, hi)``: windows are laid out request by request (and
    window groups keep that order), so each request owns one slice."""
    lo, count = 0, len(windows)
    for hi in range(1, count + 1):
        if hi == count or windows[hi].request != windows[lo].request:
            yield windows[lo].request, lo, hi
            lo = hi


class _ReadbackAccumulator:
    """Trimmed per-window outputs accumulated across level-loop batches.

    Batches arrive in window order (one per window group, in order), so
    concatenating a net's per-batch arrays yields its windows in run
    order — the shape :func:`~repro.core.restructure.stitch_windows`
    consumes.  Holding arrays instead of :class:`Waveform` objects is what
    lets result assembly stay vectorized end to end.  Batches land here
    *after* the device→host readback transfer, so accumulation is always
    host-side.
    """

    def __init__(self, nets: Tuple[str, ...]):
        self.nets = nets
        self.batches: List[TrimmedReadback] = []
        self._net_offsets: List = []

    def append(self, batch: TrimmedReadback) -> None:
        hnp = HOST
        offsets = hnp.zeros(len(self.nets) + 1, dtype=hnp.int64)
        offsets[1:] = hnp.cumsum(batch.counts.sum(axis=1))
        self.batches.append(batch)
        self._net_offsets.append(offsets)

    def net_series(self, index: int):
        """(establish_values, toggle_counts, times) of one net, all windows."""
        hnp = HOST
        establish = hnp.concatenate(
            [batch.establish_values[index] for batch in self.batches]
        )
        counts = hnp.concatenate([batch.counts[index] for batch in self.batches])
        times = hnp.concatenate(
            [
                batch.times[offsets[index] : offsets[index + 1]]
                for batch, offsets in zip(self.batches, self._net_offsets)
            ]
        )
        return establish, counts, times

    def merged(self):
        """All appended batches as one net-major ``(establish, counts, times)``.

        ``establish``/``counts`` are ``(N, total windows)``; ``times`` is
        flat net-major across every window.  The streaming driver uses this
        to hand a whole chunk (usually a single batch — the zero-copy fast
        path) to the online accumulator.
        """
        if len(self.batches) == 1:
            batch = self.batches[0]
            return batch.establish_values, batch.counts, batch.times
        hnp = HOST
        series = [self.net_series(index) for index in range(len(self.nets))]
        establish = hnp.concatenate([s[0] for s in series]).reshape(
            len(self.nets), -1
        )
        counts = hnp.concatenate([s[1] for s in series]).reshape(
            len(self.nets), -1
        )
        times = hnp.concatenate([s[2] for s in series])
        return establish, counts, times


class GatspiEngine:
    """GPU-style levelized gate re-simulator.

    Registered as the ``"gatspi"`` backend in :mod:`repro.api`; new code
    should reach it via ``get_backend("gatspi").prepare(...)`` rather than
    instantiating this class directly.

    The class runs one pipeline — the bulk-array restructure/load/readback
    phases around the level-batched kernel.  The drivers
    (:meth:`simulate` / :meth:`simulate_many`, :meth:`resimulate`,
    :meth:`run_stream_chunk`) build a plan, a window list and per-request
    sources and hand them to one executor: :meth:`_execute` is the seam a
    subclass replaces to run the same plans differently (the per-object
    oracle in :mod:`repro.reference.oracle_engine` does),
    :meth:`_run_windows` the array executor underneath it, and
    :meth:`_run_groups` the one step of that executor that spreads the
    window list over ``process_workers`` spawned workers when there are
    any.  A batch of requests is just more windows: each request's
    windows are the ones its standalone run would cut, tagged with the
    request they belong to.
    """

    #: Stamped on ``stats.kernel_mode`` / ``stats.restructure_mode`` of
    #: every result this engine class produces.
    kernel_mode = "vector"
    restructure_mode = "vector"

    def __init__(
        self,
        netlist: Netlist,
        annotation: Optional[DelayAnnotation] = None,
        config: Optional[SimConfig] = None,
        process_workers: Optional[int] = None,
    ):
        self.netlist = netlist
        self.annotation = annotation or default_annotation(netlist)
        self.config = config or SimConfig()
        #: Worker processes window groups run on (``None``: in this process).
        self.process_workers = process_workers
        self._workers = None  # the spawned repro.core.workers.WorkerPool
        self._compiled: Optional[CompiledGraph] = None
        self._gate_inputs: Dict[str, GateKernelInputs] = {}
        self._packed: Optional[PackedDesign] = None
        self._xp: ArrayBackend = get_array_backend(self.config.device)
        self._readback_net_ids = None
        self._source_net_ids = None
        self._compile_time = 0.0
        self._compile_cache_hit = False
        self._estimated_path_delay = 0
        self._artifacts: Optional[compile_cache.CompiledArtifacts] = None
        self._base_compile_key: Optional[str] = None
        self._journal = EditJournal()
        self._plan: Optional[ExecutionPlan] = None
        #: Completed runs kept as incremental-rerun bases (LRU, see
        #: :data:`RETAINED_RUN_CAPACITY`); written by :meth:`retain`.
        self._retained: "OrderedDict[str, _RetainedRun]" = OrderedDict()
        #: Recycled pool for :meth:`run_stream_chunk` (streaming, also on
        #: process workers); dropped whenever compiled artifacts change.
        self._stream_pool: Optional[WaveformPool] = None

    # ------------------------------------------------------------------
    # Compilation (netlist + SDF -> arrays)
    # ------------------------------------------------------------------
    @property
    def compiled(self) -> CompiledGraph:
        if self._compiled is None:
            self.compile()
        return self._compiled

    @property
    def packed_design(self) -> PackedDesign:
        """The compile-time struct-of-arrays design tensors (vector kernel).

        Built once per compile, materialized on the configured array
        backend, and reused by every run — process workers attach the
        same tensors through :mod:`~repro.core.shm`.
        """
        if self._packed is None:
            self.compile()
        return self._packed

    @property
    def xp(self) -> ArrayBackend:
        """The array backend the data plane runs on (``config.device``)."""
        return self._xp

    @property
    def compile_cache_hit(self) -> bool:
        """Whether the most recent :meth:`compile` reused cached artifacts."""
        return self._compile_cache_hit

    def compile(self, packed: Optional[PackedDesign] = None) -> CompiledGraph:
        """Levelize the netlist and build all lookup arrays.

        Produces two equivalent views of the design: the per-gate
        :class:`GateKernelInputs` (compile data the incremental rebuild and
        the reference oracle read), and the packed :class:`PackedDesign`
        tensors the level-batched kernel executes (built from the very same
        truth/delay arrays, so the two cannot diverge).  Results are memoized
        process-wide by content fingerprint unless
        ``SimConfig(compile_cache=False)``.

        ``packed`` injects pre-built design tensors (shared-memory views in
        a process worker) in place of re-packing; see
        :meth:`_build_artifacts`.
        """
        start = time.perf_counter()
        self._xp = get_array_backend(self.config.device)
        artifacts = None
        key = None
        netlist_fp = None
        if self.config.compile_cache:
            # prepare() seeds the fingerprint its analysis pass already
            # computed; outside prepare the handoff is empty and we hash.
            netlist_fp = compile_cache.consume_netlist_fingerprint(self.netlist)
            if netlist_fp is None:
                netlist_fp = compile_cache.fingerprint_netlist(self.netlist)
            key = compile_cache.compile_key(
                self.netlist,
                self.annotation,
                self.config,
                netlist_fingerprint=netlist_fp,
            )
            artifacts = compile_cache.lookup(key)
        cache_hit = artifacts is not None
        if artifacts is None:
            artifacts = self._build_artifacts(
                netlist_fingerprint=netlist_fp, packed=packed
            )
            if key is not None:
                compile_cache.store(key, artifacts)
        self._base_compile_key = key
        self._install_artifacts(artifacts, cache_hit=cache_hit)
        self._compile_time = time.perf_counter() - start
        return self._compiled

    def _install_artifacts(
        self,
        artifacts: compile_cache.CompiledArtifacts,
        cache_hit: bool = False,
    ) -> None:
        """Swap the engine onto a set of compiled artifacts.

        Cached artifacts are shared between engines and treated as
        immutable; the one mapping the engine exposes for mutation-style
        access (tests patch per-gate inputs) is copied per install, which
        also guarantees recompiles drop stale entries.
        """
        self._artifacts = artifacts
        self._compiled = artifacts.compiled
        self._gate_inputs = dict(artifacts.gate_inputs)
        self._packed = artifacts.packed
        self._readback_net_ids = artifacts.readback_net_ids
        self._source_net_ids = artifacts.source_net_ids
        self._estimated_path_delay = artifacts.estimated_path_delay
        self._compile_cache_hit = cache_hit
        self._plan = None
        self._stream_pool = None

    def _build_artifacts(
        self,
        netlist_fingerprint: Optional[str] = None,
        packed: Optional[PackedDesign] = None,
    ) -> compile_cache.CompiledArtifacts:
        """One full (uncached) compile: levelize, build lookup arrays, pack,
        and materialize the packed tensors on the configured backend.

        ``packed`` injects pre-built design tensors (e.g. shared-memory
        views attached by a process worker, :mod:`repro.core.shm`)
        instead of re-packing — the rest of the compile is unchanged, so
        the artifacts flow through the normal compile cache and backends.
        """
        gate_inputs: Dict[str, GateKernelInputs] = {}
        if netlist_fingerprint is not None:
            # prepare() analyzes before compiling; the analysis engine
            # levelizes through the same fingerprint-keyed memo, so this is
            # typically a hit and the design is walked once per prepare.
            levelization = compile_cache.levelize_cached(
                self.netlist, fingerprint=netlist_fingerprint
            )
        else:
            levelization = levelize(self.netlist)
        compiled = compile_netlist(self.netlist, levelization)
        annotation = self.annotation
        if not self.config.full_sdf:
            annotation = annotation.with_averaged_sdf()
        library = self.netlist.library
        for gate in compiled.gates.values():
            cell = self.netlist.instances[gate.name].cell
            truth_table = library.truth_table(gate.cell_name).table
            if cell.num_inputs == 0:
                gate_inputs[gate.name] = GateKernelInputs(
                    truth_table=truth_table,
                    delay_arrays=(),
                    wire_rise=(),
                    wire_fall=(),
                )
                continue
            table = annotation.table_for(gate.name)
            delay_arrays = tuple(table.table_for(pin) for pin in cell.inputs)
            wire_rise = []
            wire_fall = []
            for pin in cell.inputs:
                wire = annotation.wire_delay(gate.name, pin)
                wire_rise.append(float(wire.rise))
                wire_fall.append(float(wire.fall))
            gate_inputs[gate.name] = GateKernelInputs(
                truth_table=truth_table,
                delay_arrays=delay_arrays,
                wire_rise=tuple(wire_rise),
                wire_fall=tuple(wire_fall),
            )
        if packed is None:
            packed = pack_design(
                compiled.gates_by_level,
                gate_inputs,
                extra_nets=tuple(self.netlist.source_nets()),
            ).to_device(self._xp)
        # Net-id tensors of the two bulk registration paths — gate outputs
        # in readback order and stimulus sources in lowering order — cached
        # alongside the packed tensors so a cache hit skips the O(design)
        # rebuild and device upload.
        readback_net_ids = self._xp.asarray(
            [packed.net_index[gate.output_net] for gate in compiled.gates.values()],
            dtype=self._xp.int64,
        )
        source_net_ids = self._xp.asarray(
            [packed.net_index[net] for net in self.netlist.source_nets()],
            dtype=self._xp.int64,
        )
        # Estimate the critical path delay; it bounds how far an event can
        # still propagate past a cycle-parallel window boundary and therefore
        # sizes the default settle margin (window overlap).
        max_wire = 0.0
        for wire in annotation.interconnect.values():
            max_wire = max(max_wire, wire.rise, wire.fall)
        estimated_path_delay = int(
            compiled.depth * (annotation.max_gate_delay() + max_wire)
        )
        return compile_cache.CompiledArtifacts(
            compiled=compiled,
            gate_inputs=gate_inputs,
            packed=packed,
            readback_net_ids=readback_net_ids,
            source_net_ids=source_net_ids,
            estimated_path_delay=estimated_path_delay,
        )

    @property
    def window_overlap(self) -> int:
        """Settle margin prepended to every cycle-parallel window."""
        if self.config.window_overlap is not None:
            return self.config.window_overlap
        return self._estimated_path_delay

    # ------------------------------------------------------------------
    # Incremental recompilation (edit API)
    # ------------------------------------------------------------------
    @property
    def journal(self) -> EditJournal:
        """The edit journal chaining this engine's state to its base compile."""
        return self._journal

    def apply_edits(self, edits: Sequence[Edit]) -> EditReceipt:
        """Apply an edit batch in place and incrementally recompile.

        The batch is transactional: if any edit fails to apply, or the
        incremental recompile fails, every already-applied edit is undone
        (and its journal entry cancelled) before the exception propagates —
        the engine's design and artifacts are left exactly as before.

        Returns an :class:`~repro.core.edits.EditReceipt` whose
        ``undo_edits`` reverse the batch (via another ``apply_edits`` call)
        and whose seeds drive :meth:`resimulate`.
        """
        if self.process_workers is not None:
            # Worker engines cannot be re-synced after an in-place edit.
            raise NotImplementedError(
                "process-worker sessions do not support in-place edits; "
                "prepare a new session for the edited design"
            )
        if self._compiled is None:
            self.compile()
        parent = self._journal.fingerprint()
        applied: List[AppliedEdit] = []
        try:
            for edit in edits:
                applied.append(edit.apply(self.netlist, self.annotation))
        except Exception:
            for done in reversed(applied):
                done.inverse.apply(self.netlist, self.annotation)
            raise
        seeds: List[str] = []
        structural = False
        delay_only = True
        for done in applied:
            self._journal.record(done.edit, done.inverse)
            seeds.extend(done.seeds)
            structural = structural or done.edit.structural
            delay_only = delay_only and done.edit.delay_only
        seed_names = tuple(dict.fromkeys(seeds))
        try:
            self._refresh_artifacts(seed_names, structural)
        except Exception:
            for done in reversed(applied):
                undone = done.inverse.apply(self.netlist, self.annotation)
                self._journal.record(done.inverse, undone.inverse)
            raise
        return EditReceipt(
            edits=tuple(done.edit for done in applied),
            inverses=tuple(done.inverse for done in applied),
            seeds=seed_names,
            structural=structural,
            delay_only=delay_only and bool(applied),
            parent_journal=parent,
            journal=self._journal.fingerprint(),
        )

    def _refresh_artifacts(
        self, seeds: Tuple[str, ...], structural: bool
    ) -> None:
        """Re-derive compiled artifacts after an edit batch.

        Journal-chained cache keys make ECO iteration warm: the derived
        key is the base compile key plus the journal fingerprint, so
        re-applying a previously seen batch (or undoing one) adopts the
        cached artifacts instead of rebuilding; otherwise only the dirty
        slices are rebuilt (:func:`~repro.core.incremental.rebuild_artifacts`).
        """
        if not seeds:
            return
        previous = self._artifacts
        if previous is None:  # pragma: no cover - compile() precedes edits
            self.compile()
            return
        key = None
        if self._base_compile_key is not None and self.config.compile_cache:
            key = derive_compile_key(self._base_compile_key, self._journal)
            cached = compile_cache.lookup(key)
            if cached is not None:
                self._install_artifacts(cached, cache_hit=True)
                return
        artifacts = rebuild_artifacts(
            previous,
            self.netlist,
            self.annotation,
            self.config,
            seeds,
            structural,
            self._xp,
        )
        if key is not None:
            compile_cache.store(key, artifacts)
        self._install_artifacts(artifacts, cache_hit=False)

    def resimulate(
        self,
        receipt: EditReceipt,
        stimulus: Optional[Mapping[str, Waveform]] = None,
        cycles: Optional[int] = None,
        duration: Optional[int] = None,
        previous: Optional[SimulationResult] = None,
    ) -> SimulationResult:
        """Re-simulate only the cone of influence of an applied edit batch.

        ``previous`` (default: the retained run of the receipt's parent
        state) supplies the clean nets' waveforms; dirty gates re-simulate
        from the exact boundary waveforms, and the merged result is
        bit-identical to a cold full run of the edited design.  Falls back
        to :meth:`simulate` whenever partial execution cannot be exact:
        no usable previous run, a user-pinned ``window_overlap``, disabled
        waveform storage, or a changed stimulus/horizon.
        """
        retained = self._retained.get(receipt.parent_journal)
        if retained is not None:
            # Reading a base refreshes it: a probe loop's own reruns must
            # not evict the base every probe returns to.
            self._retained.move_to_end(receipt.parent_journal)
        if previous is None and retained is not None:
            previous = retained.result
        if stimulus is None and retained is not None:
            stimulus = retained.stimulus
        if duration is None and cycles is None and retained is not None:
            duration = retained.duration
        if stimulus is None:
            raise ValueError(
                "resimulate() needs a stimulus: none was given and no "
                "previous run is retained for the receipt's parent state"
            )
        cycles, duration = normalize_horizon(
            cycles, duration, self.config.clock_period
        )
        if not receipt.seeds:
            # Empty dirty set: the design is unchanged, so the previous
            # result (when reusable) already is the answer.
            if (
                previous is not None
                and previous.duration == duration
                and self._same_stimulus(stimulus, previous)
            ):
                stats = replace(
                    previous.stats,
                    incremental=True, dirty_gates=0, dirty_fraction=0.0,
                )
                return replace(previous, stats=stats)
            return self.simulate(stimulus, duration=duration)
        plan = None
        if previous is not None and self._partial_ok(previous, stimulus, duration):
            plan = build_dirty_plan(
                self.compiled,
                self._gate_inputs,
                self.netlist,
                receipt.seeds,
                self._xp,
            )
            if plan is not None and any(
                net not in previous.waveforms and net not in stimulus
                for net in plan.source_nets
            ):
                plan = None
        if plan is None or previous is None:
            return self.simulate(stimulus, duration=duration)
        validate_stimulus(self.netlist, stimulus)
        # True stimulus sources are clipped at the horizon — the extended
        # window slices of a partial run reach past window ends, but a cold
        # run never feeds stimulus events at or beyond ``duration``.
        sources = {}
        for net in plan.source_nets:
            if net in stimulus:
                wave = stimulus[net]
                if int(wave.data[-2]) >= duration:
                    wave = wave.window(0, duration, rebase=True)
                sources[net] = wave
            else:
                sources[net] = previous.waveforms[net]
        result = self._run_plan(
            plan, [_Request(stimulus, sources, cycles, duration)], previous=previous
        )[0]
        self.retain(stimulus, duration, result)
        return result

    def _partial_ok(
        self,
        previous: Optional[SimulationResult],
        stimulus: Mapping[str, Waveform],
        duration: int,
    ) -> bool:
        """Whether partial execution is provably exact for this rerun."""
        if previous is None or not previous.waveforms:
            return False
        if not self.config.store_waveforms:
            return False
        if self.config.window_overlap is not None:
            # Partial execution relies on the settle-margin invariance
            # argument, which needs the margin to cover the (post-edit)
            # critical path; a user-pinned overlap voids that guarantee.
            return False
        if previous.duration != duration:
            return False
        return self._same_stimulus(stimulus, previous)

    def _same_stimulus(
        self, stimulus: Mapping[str, Waveform], previous: SimulationResult
    ) -> bool:
        for net in self.netlist.source_nets():
            wave = stimulus.get(net)
            prior = previous.waveforms.get(net)
            if wave is None or prior is None:
                return False
            if wave is not prior and wave != prior:
                return False
        return True

    def retain(
        self,
        stimulus: Mapping[str, Waveform],
        duration: int,
        result: SimulationResult,
    ) -> None:
        """Keep a whole-horizon run as the rerun base of the current state."""
        if not self.config.store_waveforms:
            return
        key = self._journal.fingerprint()
        self._retained[key] = _RetainedRun(
            stimulus=dict(stimulus), duration=duration, result=result
        )
        self._retained.move_to_end(key)
        while len(self._retained) > RETAINED_RUN_CAPACITY:
            self._retained.popitem(last=False)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(
        self,
        stimulus: Mapping[str, Waveform],
        cycles: Optional[int] = None,
        duration: Optional[int] = None,
    ) -> SimulationResult:
        """Re-simulate the combinational logic for the given testbench.

        ``stimulus`` must provide a waveform for every source net (primary
        input or sequential-element output).  ``duration`` defaults to
        ``cycles * clock_period``; one of the two must be given.  The run
        is retained as the rerun base of the current design state.
        """
        cycles, duration = normalize_horizon(
            cycles, duration, self.config.clock_period
        )
        result = self.simulate_many([(stimulus, cycles, duration)])[0]
        self.retain(stimulus, duration, result)
        return result

    def simulate_many(
        self,
        requests: Sequence[Tuple[Mapping[str, Waveform], int, int]],
    ) -> List[SimulationResult]:
        """Simulate resolved ``(stimulus, cycles, duration)`` testbenches.

        Requests are columns: every request's windows are the ones its own
        :meth:`simulate` would cut, on its own time base, all run in one
        level loop — so each result is bit-identical to a standalone run.
        A multi-request batch shares its timings and workload stats
        (``stats.fused_requests`` is the batch size; the shares sum to the
        batch's totals).  A batch is never retained as a rerun base, not
        even a one-request batch — clocked frames run through here.
        """
        batch = [_Request(s, s, cycles, duration) for s, cycles, duration in requests]
        for request in batch:
            validate_stimulus(self.netlist, request.stimulus)
        return self._run_plan(self._full_plan(), batch) if batch else []

    def _run_plan(
        self,
        plan: ExecutionPlan,
        requests: Sequence[_Request],
        previous: Optional[SimulationResult] = None,
    ) -> List[SimulationResult]:
        """Execute ``plan`` over every request's horizon, one result each.

        The one whole-run driver behind :meth:`simulate_many` (full plan)
        and :meth:`resimulate` (one request, dirty plan: nets the plan
        does not read back are carried over from ``previous``).
        """
        compiled = self.compiled
        windows: List[_WindowRange] = []
        for number, request in enumerate(requests):
            own = self._window_ranges(0, request.duration, number, len(windows))
            self._check_sentinel_headroom(request.sources, own, plan.source_nets)
            windows.extend(own)
        timings = PhaseTimings()
        stats = SimulationStats(
            gate_count=compiled.gate_count,
            levels=compiled.depth,
            widest_level=compiled.levelization.widest_level,
            segments=0,
            kernel_mode=self.kernel_mode,
            restructure_mode=self.restructure_mode,
            device=self._xp.name,
        )
        if plan.partial:
            stats.incremental = True
            stats.dirty_gates = plan.dirty_gates
            stats.dirty_fraction = plan.dirty_fraction
        outputs = self._execute(plan, requests, windows, timings, stats)

        start = time.perf_counter()
        batch = len(requests)
        results = []
        for number, (request, request_outputs) in enumerate(zip(requests, outputs)):
            # A batch's workload is shared by its requests; the shares sum
            # to the batch's totals.
            share = stats if batch == 1 else replace(
                stats,
                windows=_share(stats.windows, batch, number),
                segments=_share(stats.segments, batch, number),
                kernel_invocations=_share(stats.kernel_invocations, batch, number),
                level_batches=_share(stats.level_batches, batch, number),
                fused_requests=batch,
            )
            share.cycles = request.cycles
            duration = request.duration
            result = SimulationResult(duration=duration, stats=share)
            # Source nets: toggle counts (and waveforms) from the original
            # stimulus, clipped to the simulated duration.
            for net in self.netlist.source_nets():
                wave = request.stimulus[net]
                result.toggle_counts[net] = wave.toggles_in(0, duration - 1)
                if self.config.store_waveforms:
                    result.waveforms[net] = wave
            total_output_transitions = 0
            for gate in compiled.gates.values():
                net = gate.output_net
                if net in request_outputs:
                    count, stitched = request_outputs[net]
                else:
                    # A clean net of a partial plan: the base run's answer.
                    assert previous is not None
                    count = previous.toggle_counts[net]
                    stitched = previous.waveforms[net]
                result.toggle_counts[net] = count
                if stitched is not None:
                    result.waveforms[net] = stitched
                total_output_transitions += count
            share.output_transitions = total_output_transitions
            # Input events seen by gates = fanout-weighted net transitions.
            share.input_events = fanin_weighted_toggles(
                self.netlist, result.toggle_counts
            )
            results.append(result)
        timings.readback += time.perf_counter() - start
        for result in results:
            result.timings = timings if batch == 1 else timings.scaled(1 / batch)
        return results

    # ------------------------------------------------------------------
    # Streaming (out-of-core) execution
    # ------------------------------------------------------------------
    def stream(
        self,
        source: StreamingSourceEvents,
        duration: int,
        chunk_cycles: Optional[int] = None,
        timings: Optional[PhaseTimings] = None,
        stats: Optional[SimulationStats] = None,
    ) -> Iterator[StreamBatch]:
        """Simulate ``duration`` time units chunk by chunk, yielding batches.

        The out-of-core replay driver: each chunk's stimulus span is pulled
        from ``source`` (which may itself stream from disk,
        :meth:`pull_spans`) and executed by :meth:`run_stream_chunk` — split
        into ``cycle_parallelism`` windows, run through the level loop
        against one persistent pool whose window columns are recycled
        between chunks (:meth:`WaveformPool.release_windows`), and read
        back as one host-side :class:`StreamBatch`.  Nothing proportional
        to the whole run is ever materialized — peak memory is O(chunk),
        which is what keeps million-cycle replays at constant RSS.
        Absolute times ride in int64 host arrays, so runs may even exceed
        the ``EOW`` sentinel that bounds whole-run waveforms.

        Bit-identity with :meth:`simulate` comes from the settle margin:
        every window is extended backwards across the chunk boundary by the
        derived critical-path margin, making the partition invisible in the
        results.  That argument needs the margin to cover the critical
        path, which is why a pinned ``config.window_overlap`` is refused
        here rather than silently risking seam-visible answers.
        """
        if timings is None:
            timings = PhaseTimings()
        if stats is None:
            stats = SimulationStats()
        stats.segments = 0
        if (self.process_workers or 0) >= 2:
            try:
                yield from self._worker_pool().stream(
                    self, source, duration, chunk_cycles, timings, stats
                )
            except BrokenProcessPool:
                self.close()
                raise
            return
        for span, index, start, end in self.pull_spans(
            source, duration, chunk_cycles, timings
        ):
            yield self.run_stream_chunk(
                span, index, start, end, duration, timings=timings, stats=stats
            )

    def pull_spans(
        self,
        source: StreamingSourceEvents,
        duration: int,
        chunk_cycles: Optional[int],
        timings: PhaseTimings,
    ) -> Iterator[Tuple[SourceEvents, int, int, int]]:
        """Pull ``(span, chunk_index, chunk_start, chunk_end)`` per chunk.

        The sequential half of a streamed run (spans must be pulled in
        order), shared by :meth:`stream` and the process workers' chunk
        pipeline; every yielded tuple is one :meth:`run_stream_chunk` call.
        Spans come back in the design's source-net order.
        """
        self._check_streamable()
        perm = self._source_permutation(source, self._full_plan())
        config = self.config
        if chunk_cycles is None:
            chunk_cycles = config.stream_chunk_cycles
        if chunk_cycles is None:
            chunk_cycles = 32 * config.cycle_parallelism
        if chunk_cycles < 1:
            raise ValueError("chunk_cycles must be at least 1")
        if duration < 1:
            raise ValueError("duration must be positive")
        chunk_duration = chunk_cycles * config.clock_period
        # Lookback of at least 1: the settle margin can derive to 0 on
        # trivial designs, but a chunk must still see the previous time
        # unit so toggles landing exactly on its boundary (which it owns,
        # see _source_span_fields) are present in the span.
        lookback = max(self.window_overlap, 1)
        for chunk_index, chunk_start in enumerate(
            range(0, duration, chunk_duration)
        ):
            chunk_end = min(chunk_start + chunk_duration, duration)
            extended_lo = max(0, chunk_start - lookback)
            start = time.perf_counter()
            span = source.span_events(
                extended_lo, chunk_end, retire_before=extended_lo
            )
            if perm is not None:
                span = _reorder_span(span, perm)
            timings.restructure += time.perf_counter() - start
            yield span, chunk_index, chunk_start, chunk_end

    def run_stream_chunk(
        self,
        span: SourceEvents,
        chunk_index: int,
        chunk_start: int,
        chunk_end: int,
        duration: int,
        timings: Optional[PhaseTimings] = None,
        stats: Optional[SimulationStats] = None,
    ) -> StreamBatch:
        """Execute one pre-pulled chunk span and assemble its host batch.

        ``span`` must cover ``(max(0, chunk_start - max(window_overlap, 1)),
        chunk_end)`` with nets in the design's source order (what
        :meth:`pull_spans` yields).  With process workers the parent owns
        the stimulus stream and ships each chunk's span to a worker, which
        calls this.  Each engine keeps one private stream
        pool recycled across calls — every chunk releases the previous
        chunk's window columns and reuses the same words — so RSS stays
        flat no matter how many chunks it executes.
        """
        plan = self._full_plan()
        self._check_streamable()
        if tuple(span.nets) != tuple(plan.source_nets):
            raise StimulusError(
                "stream chunk span nets do not match the design's source "
                "nets in order"
            )
        if timings is None:
            timings = PhaseTimings()
        if stats is None:
            stats = SimulationStats(segments=0)
        stats.streamed = True
        if chunk_end - chunk_start < 1:
            raise ValueError("chunk span must be non-empty")
        windows = self._window_ranges(chunk_start, chunk_end)
        self._check_stream_headroom(windows[0].length)
        if self._stream_pool is None:
            self._stream_pool = self._make_pool(windows, plan)
        [readback] = self._run_windows(
            plan, [span], windows, [duration], timings, stats,
            pool=self._stream_pool,
        )
        stats.chunks += 1
        hnp = HOST
        start = time.perf_counter()
        establish, counts, times = readback.merged()
        window_starts = hnp.asarray(
            [window.start for window in windows], dtype=hnp.int64
        )
        source_establish, source_counts, source_times = _source_span_fields(
            span, chunk_start
        )
        batch = StreamBatch(
            chunk_index=chunk_index,
            chunk_start=chunk_start,
            chunk_end=chunk_end,
            nets=plan.readback_nets,
            window_starts=window_starts,
            establish_values=establish,
            toggle_counts=counts,
            times=times,
            source_nets=span.nets,
            source_establish=source_establish,
            source_counts=source_counts,
            source_times=source_times,
        )
        timings.readback += time.perf_counter() - start
        return batch

    def _check_streamable(self) -> None:
        if self.config.window_overlap is not None:
            raise ValueError(
                "streaming execution derives its settle margin from the "
                "design's critical path; a pinned window_overlap below it "
                "would make chunk boundaries visible in the results — "
                "leave SimConfig.window_overlap unset for run_stream"
            )

    def _check_stream_headroom(self, window_length: int) -> None:
        """Streaming counterpart of :meth:`_check_sentinel_headroom`.

        Streamed runs never materialize absolute-time waveforms, so only
        *window-local* times must stay below the ``EOW`` sentinel: they are
        bounded by the extended window length plus the critical-path delay,
        independent of run length.
        """
        headroom = (
            window_length + self.window_overlap + self._estimated_path_delay
        )
        if headroom >= EOW:
            raise StimulusError(
                f"stream chunk windows are too long: window-local times up "
                f"to {headroom} could reach the EOW sentinel ({EOW}) and "
                f"silently truncate output waveforms; lower "
                f"stream_chunk_cycles or raise cycle_parallelism"
            )

    def _source_permutation(
        self, source: StreamingSourceEvents, plan: ExecutionPlan
    ) -> Optional[List[int]]:
        """Map a stream's net order onto the plan's source-net order.

        Returns ``None`` when the orders already agree (the fast path —
        session-built streams are constructed in plan order); otherwise the
        permutation applied to every span, or :class:`StimulusError` when
        the net *sets* differ.
        """
        source_nets = tuple(source.nets)
        expected = tuple(plan.source_nets)
        if source_nets == expected:
            return None
        index = {net: i for i, net in enumerate(source_nets)}
        missing = [net for net in expected if net not in index]
        extra = [net for net in source_nets if net not in set(expected)]
        if missing or extra:
            raise StimulusError(
                f"streaming source nets do not match the design's source "
                f"nets: {len(missing)} missing "
                f"(first: {missing[:3]}), {len(extra)} unexpected "
                f"(first: {extra[:3]})"
            )
        return [index[net] for net in expected]

    def _full_plan(self) -> ExecutionPlan:
        """The whole-design execution plan (cached until artifacts change)."""
        if self._plan is None:
            self._plan = full_plan(
                self.compiled,
                self.netlist,
                self.packed_design,
                self._source_net_ids,
                self._readback_net_ids,
            )
        return self._plan

    def _execute(
        self,
        plan: ExecutionPlan,
        requests: Sequence[_Request],
        windows: Sequence[_WindowRange],
        timings: PhaseTimings,
        stats: SimulationStats,
    ) -> List[Dict[str, Tuple[int, Optional[Waveform]]]]:
        """Run ``plan`` over ``windows`` from each request's ``sources``.

        Returns, per request, ``(toggle_count, waveform)`` per readback
        net.  The count follows the stitch seam rules (a transition landing
        exactly on a window seam is counted once); the waveform is ``None``
        unless waveforms are stored.

        This is the overridable seam: everything above it (plans, windows,
        result assembly, retention) is executor-independent.
        """
        # Lower each stimulus once into flat event tensors; every window
        # group slices the same tensors.
        start = time.perf_counter()
        events = [lower_stimulus(plan.source_nets, r.sources) for r in requests]
        timings.restructure += time.perf_counter() - start
        durations = [request.duration for request in requests]
        readbacks = self._run_windows(
            plan, events, windows, durations, timings, stats
        )
        return self._assemble(readbacks, windows, timings)

    def _assemble(
        self,
        readbacks: Sequence[_ReadbackAccumulator],
        windows: Sequence[_WindowRange],
        timings: PhaseTimings,
    ) -> List[Dict[str, Tuple[int, Optional[Waveform]]]]:
        """Stitch each request's accumulated windows into its outputs."""
        hnp = HOST
        start = time.perf_counter()
        outputs: List[Dict[str, Tuple[int, Optional[Waveform]]]] = []
        for readback, (_, lo, hi) in zip(readbacks, _request_runs(windows)):
            window_starts = hnp.asarray(
                [window.start for window in windows[lo:hi]], dtype=hnp.int64
            )
            request_outputs: Dict[str, Tuple[int, Optional[Waveform]]] = {}
            for index, net in enumerate(readback.nets):
                series = (window_starts, *readback.net_series(index))
                if self.config.store_waveforms:
                    stitched = stitch_windows(*series)
                    request_outputs[net] = (stitched.toggle_count(), stitched)
                else:
                    request_outputs[net] = (stitched_times(*series).size - 1, None)
            outputs.append(request_outputs)
        timings.readback += time.perf_counter() - start
        return outputs

    def _run_windows(
        self,
        plan: ExecutionPlan,
        events: Sequence[SourceEvents],
        windows: Sequence[_WindowRange],
        durations: Sequence[int],
        timings: PhaseTimings,
        stats: SimulationStats,
        pool: Optional[WaveformPool] = None,
    ) -> List[_ReadbackAccumulator]:
        """The array executor: lowered events in, trimmed readback out.

        ``events[r]``/``durations[r]`` belong to the windows of request
        ``r``, whose trimmed outputs land in the ``r``-th accumulator
        returned.  Moves the event tensors to the device (the only
        host→device transfer of the stimulus path), then runs the windows
        through :meth:`_run_groups`.  ``pool`` recycles a persistent pool
        across calls (the streaming driver's constant-RSS path) instead of
        one per batch.
        """
        start = time.perf_counter()
        events = [e.to_device(self._xp) for e in events]
        timings.host_to_device += time.perf_counter() - start
        readbacks = [_ReadbackAccumulator(plan.readback_nets) for _ in events]
        self._run_groups(
            plan, events, windows, durations, timings, stats, readbacks, pool
        )
        stats.windows += len(windows)
        return readbacks

    def _worker_pool(self):
        """Export the packed design and spawn the workers (once)."""
        if self._workers is None:
            from .workers import WorkerPool

            self._workers = WorkerPool(self, self.process_workers)
        return self._workers

    def close(self) -> None:
        """Shut the worker pool down and unlink its segment (idempotent);
        the next split run spawns a fresh pool."""
        workers, self._workers = self._workers, None
        if workers is not None:
            workers.close()

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
        """Run ``windows`` as contiguous groups into ``readbacks``, in order.

        With ``process_workers`` the list splits into one group per worker
        (:class:`~repro.core.workers.WorkerPool`); otherwise, and for a
        single window or a stream chunk on its recycled ``pool``, it is one
        :meth:`_simulate_batch`, counted in ``stats.segments``.  Groups
        append to the accumulators in window order, so any grouping yields
        the same result.  A dead worker breaks the pool: it is released
        (:meth:`close`) so the next run spawns a fresh one.
        """
        if pool is None and min(self.process_workers or 1, len(windows)) > 1:
            try:
                self._worker_pool().run_groups(
                    events, windows, durations, timings, stats, readbacks
                )
            except BrokenProcessPool:
                self.close()
                raise
            return
        self._simulate_batch(
            events, windows, durations, timings, stats, readbacks, plan, pool
        )
        stats.segments += 1

    def _check_sentinel_headroom(
        self,
        stimulus: Mapping[str, Waveform],
        windows: Sequence["_WindowRange"],
        nets: Sequence[str],
    ) -> None:
        """Refuse runs whose timestamps could reach the ``EOW`` sentinel.

        A toggle written at or beyond ``EOW`` (INT32_MAX) terminates its
        waveform early on readback — a silent wrong answer.  Window-local
        input times are bounded by both the longest extended window and the
        largest stimulus timestamp; adding the estimated critical-path delay
        bounds every output time the kernel can produce.  ``nets`` are the
        plan's source nets (partial execution feeds boundary waveforms, not
        just the design's stimulus sources).
        """
        max_timestamp = 0
        for net in nets:
            wave = stimulus[net]
            # data[-1] is EOW, data[-2] the final timestamp.
            max_timestamp = max(max_timestamp, int(wave.data[-2]))
        if max_timestamp >= EOW:
            raise StimulusError(
                f"stimulus contains a timestamp ({max_timestamp}) at or "
                f"beyond the EOW sentinel ({EOW}); such waveforms cannot be "
                f"represented in the array waveform format"
            )
        longest = max(window.length for window in windows) + self.window_overlap
        headroom = min(longest, max_timestamp) + self._estimated_path_delay
        if headroom >= EOW:
            raise StimulusError(
                f"stimulus timestamps approach the EOW sentinel ({EOW}): "
                f"window-local times up to {headroom} could be produced, "
                f"which would silently truncate output waveforms; shorten "
                f"the run or raise cycle_parallelism"
            )

    # ------------------------------------------------------------------
    # Window / pool management
    # ------------------------------------------------------------------
    def _window_ranges(
        self, start: int, end: int, request: int = 0, first: int = 0
    ) -> List[_WindowRange]:
        """Split ``[start, end)`` into up to ``cycle_parallelism`` windows
        of ``request``, numbered from column ``first``."""
        span = end - start
        window_length = max(1, -(-span // self.config.cycle_parallelism))
        ranges: List[_WindowRange] = []
        cursor = start
        while cursor < end:
            stop = min(cursor + window_length, end)
            ranges.append(_WindowRange(first + len(ranges), cursor, stop, request))
            cursor = stop
        if not ranges:
            ranges.append(_WindowRange(first, start, max(1, end), request))
        return ranges

    def _make_pool(
        self, windows: Sequence[_WindowRange], plan: ExecutionPlan
    ) -> WaveformPool:
        """A per-batch waveform pool on the engine's array backend.

        Registration rows come from the plan's net index built at pack
        time (the design-wide index for full runs, the dirty sub-design's
        for partial ones), so every bulk store/gather resolves
        ``(net, window)`` pairs through flat index tables.
        """
        return WaveformPool(
            xp=self._xp,
            net_index=plan.packed.net_index,
            window_indices=[window.index for window in windows],
        )

    def _simulate_batch(
        self,
        events: Sequence[SourceEvents],
        windows: Sequence[_WindowRange],
        durations: Sequence[int],
        timings: PhaseTimings,
        stats: SimulationStats,
        readbacks: Sequence[_ReadbackAccumulator],
        plan: ExecutionPlan,
        pool: Optional[WaveformPool] = None,
    ) -> None:
        """One level-loop batch through the bulk-array pipeline.

        Restructure, load, level execution, readback — and the boundary
        phases never touch per-window :class:`Waveform` objects: slice
        bounds come from ``searchsorted`` over the lowered event tensors,
        the pool is filled by one :meth:`WaveformPool.load_windows` call
        per request, and trimmed outputs land in the accumulator as flat
        host arrays after one device→host transfer per request.

        Each window is extended backwards by the settle margin so events
        still propagating across the window boundary are reproduced
        exactly; the margin region is trimmed from the outputs below.
        Requests are columns: each request's windows are sliced from its
        own event tensor into their own pool columns, run in one level
        loop with every other request's, and trimmed against their own
        request's duration into that request's accumulator.

        ``pool`` recycles a persistent pool instead of building one per
        batch (the streaming driver's constant-RSS path): every previously
        registered window is released first, which also rewinds the bump
        allocator to the retained floor, so repeated batches reuse the
        same storage.
        """
        xp = self._xp
        if pool is None:
            pool = self._make_pool(windows, plan)
        else:
            pool.release_windows()
        overlap = self.window_overlap
        window_indices = [window.index for window in windows]
        extended_starts = xp.asarray(
            [max(0, window.start - overlap) for window in windows], dtype=xp.int64
        )
        ends = xp.asarray([window.end for window in windows], dtype=xp.int64)
        # Partial plans keep the settle margin on the right too: boundary
        # waveforms are previous-run absolute waveforms, and the window
        # must see the propagation tail past its edge exactly as a cold
        # run's in-pool fanin waveforms would provide it.
        slice_ends = ends + overlap if plan.partial else ends

        runs = list(_request_runs(windows))
        for request, lo, hi in runs:
            request_events = events[request]
            # Restructure: per-(net, window) slice bounds over the flat
            # event tensor — the cycle-parallelism step without any
            # waveform copies.
            start = time.perf_counter()
            slices = slice_windows(
                request_events, extended_starts[lo:hi], slice_ends[lo:hi], xp=xp
            )
            timings.restructure += time.perf_counter() - start

            # Load: one batched scatter writes the request's windows into
            # the pool.
            start = time.perf_counter()
            pool.load_windows(
                request_events.nets,
                window_indices[lo:hi],
                slices.initial_values,
                request_events.times,
                slices.starts,
                slices.counts,
                extended_starts[lo:hi],
                net_ids=plan.source_net_ids,
            )
            timings.host_to_device += time.perf_counter() - start

        self._run_levels(pool, windows, timings, stats, plan)

        # Readback: trim every output window to exactly [start, end) and
        # lift the survivors to absolute time.  The settle margin on the
        # left is discarded, and so is any propagation tail past the right
        # edge (the next window reproduces it with full knowledge of its
        # stimulus); only each request's final window keeps its tail.
        start = time.perf_counter()
        margins = (
            xp.asarray([window.start for window in windows], dtype=xp.int64)
            - extended_starts
        )
        for request, lo, hi in runs:
            readback, B = readbacks[request], hi - lo
            nets = readback.nets
            addresses, toggle_counts = pool.window_table(
                nets, window_indices[lo:hi], net_ids=plan.readback_net_ids
            )
            markers = xp.astype(pool.data[addresses] == INITIAL_ONE_MARKER, xp.int64)
            task_offsets = xp.zeros(xp.size(toggle_counts) + 1, dtype=xp.int64)
            task_offsets[1:] = xp.cumsum(toggle_counts)
            local_times = gather_segments(
                pool.data, addresses + markers + 1, toggle_counts, xp=xp
            )
            own_starts, own_ends = extended_starts[lo:hi], ends[lo:hi]
            if overlap > 0:
                right_edges = xp.where(
                    own_ends < durations[request], own_ends - own_starts, EOW - 1
                )
            else:
                right_edges = xp.full(B, EOW - 1, dtype=xp.int64)
            apply_trim = (margins[lo:hi] > 0) | (right_edges != EOW - 1)
            N = len(nets)
            trimmed = trim_readback(
                local_times,
                task_offsets,
                markers,
                xp.tile(margins[lo:hi], N),
                xp.tile(right_edges, N),
                xp.tile(apply_trim, N),
                own_starts,
                N,
                B,
                xp=xp,
            )
            # Device→host transfer point (the only one of the readback
            # path): the request's trimmed windows move to the host in one
            # step.
            readback.append(trimmed.to_host(xp))
        stats.pool_words_used = max(stats.pool_words_used, pool.used_words)
        timings.readback += time.perf_counter() - start

    # ------------------------------------------------------------------
    # Level execution: level-batched kernel
    # ------------------------------------------------------------------
    def _run_levels(
        self,
        pool: WaveformPool,
        windows: Sequence[_WindowRange],
        timings: PhaseTimings,
        stats: SimulationStats,
        plan: ExecutionPlan,
    ) -> None:
        """Struct-of-arrays execution: one batched launch per level.

        For each level the launch sizes (and produces) every output
        waveform, the addresses come from one prefix-sum allocation, and
        the counted outputs are written with vectorized scatters — count →
        allocate → store, the paper's per-level protocol without its
        second kernel execution (a GPU thread cannot allocate; the host
        can).  Input pointers and toggle capacities come from the level's
        compile-time gather index tensors resolved against the pool's
        registration tables (:meth:`WaveformPool.gather_level_inputs`) —
        no per-batch Python pointer lookups.
        """
        config = self.config
        xp = self._xp
        packed = plan.packed
        W = len(windows)
        window_indices = [window.index for window in windows]

        schedule_start = time.perf_counter()
        pool.store_padding_waveform()
        timings.scheduling += time.perf_counter() - schedule_start

        for level in packed.levels:
            T = level.gate_count * W

            # Gather input pointers and toggle capacities per task from the
            # registration tables via the precomputed net-id tensors; each
            # net's row is read once per referencing pin (fanout reuse is
            # the shared table row).
            schedule_start = time.perf_counter()
            pointers, capacities = pool.gather_level_inputs(level.input_net_ids)
            timings.scheduling += time.perf_counter() - schedule_start

            kernel_start = time.perf_counter()
            result = simulate_level(
                pool.data,
                pointers,
                packed,
                level,
                W,
                capacities,
                pathpulse_fraction=config.pathpulse_fraction,
                net_delay_filtering=config.enable_net_delay_filtering,
                tiled=tile_level(level, W, xp),
                xp=xp,
            )
            stats.kernel_invocations += T
            stats.level_batches += 1
            stats.max_batch_tasks = max(stats.max_batch_tasks, T)
            timings.kernel += time.perf_counter() - kernel_start

            # Prefix-sum layout of all output addresses of the level, then
            # one scatter of the counted waveforms to those addresses.
            schedule_start = time.perf_counter()
            addresses = pool.allocate_batch(result.storage_words)
            pool.store_level_outputs(
                level.output_nets,
                window_indices,
                addresses,
                result.initial_values,
                result.toggle_buffer,
                result.toggle_starts,
                result.toggle_counts,
                net_ids=level.output_net_ids,
            )
            timings.scheduling += time.perf_counter() - schedule_start


def _reorder_span(span: SourceEvents, perm: List[int]) -> SourceEvents:
    """Permute a span's nets into ``perm`` order (host-side, per chunk)."""
    hnp = HOST
    order = hnp.asarray(perm, dtype=hnp.int64)
    counts = hnp.diff(span.offsets)[order]
    times = gather_segments(span.times, span.offsets[:-1][order], counts)
    offsets = hnp.zeros(len(perm) + 1, dtype=hnp.int64)
    offsets[1:] = hnp.cumsum(counts)
    return SourceEvents(
        nets=tuple(span.nets[i] for i in perm),
        times=times,
        offsets=offsets,
        initial_values=span.initial_values[order],
    )


def _source_span_fields(span: SourceEvents, chunk_start: int):
    """A chunk's *owned* source activity from its (extended) span.

    Chunks own the half-open interval ``[chunk_start, chunk_end)``: a
    toggle landing exactly on a chunk boundary belongs to the chunk it
    opens (the span lookback of at least one time unit guarantees it is
    present).  Returns ``(establish, counts, times)`` with ``establish``
    the value each source holds *entering* the chunk — after every toggle
    ``t < chunk_start`` — and ``times`` the owned toggles, net-major.
    Span toggles before ``chunk_start`` were already owned and reported by
    the previous chunk.  The per-net ``searchsorted`` loop is deliberate:
    span times are absolute and may exceed ``EOW`` on very long runs,
    where the shift-trick batched counting would not be safe.
    """
    hnp = HOST
    S = span.net_count
    lo = hnp.zeros(S, dtype=hnp.int64)
    for i in range(S):
        segment = span.times[int(span.offsets[i]) : int(span.offsets[i + 1])]
        lo[i] = hnp.searchsorted(segment, chunk_start, side="left")
    counts = hnp.diff(span.offsets) - lo
    establish = span.initial_values ^ (lo & 1)
    times = gather_segments(span.times, span.offsets[:-1] + lo, counts)
    return establish, counts, times

