"""The ``Session`` layer: compile once, simulate many times, uniformly.

A session owns one compiled design and exposes a single entry point::

    result = session.run(stimulus, cycles=..., duration=...)

(plus :meth:`Session.run_many` for a batch of :class:`RunSpec` requests,
which every backend answers exactly as one ``run`` per request).  ``run``
applies the shared simulation contract before dispatching to the
backend — stimulus validation and cycles/duration normalization, which the
individual simulators used to duplicate — and after dispatching it guarantees
a consistently populated :class:`~repro.core.results.SimulationStats`
(``cycles``, ``gate_count`` and ``input_events`` are filled in even for
backends that do not track them natively).

Sessions are **thread-safe**: ``run`` may be called from many threads at
once (the serving layer does exactly that when concurrent requests share a
compiled design).  Calls serialize on a per-session lock around the
backend dispatch and the stats/counter mutation — a session executes one
run at a time, because the concrete engines keep per-run state (memory
pools, timing accumulators) that is not re-entrant.  Callers wanting
parallel runs over one design should prepare several sessions (the compile
cache makes the extra ``prepare()`` calls share one compile) or run one
session's window groups on process workers (``gatspi:workers=process:N``).
"""

from __future__ import annotations

import abc
import threading
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Iterator, List, Mapping, Optional, Sequence,
    Tuple, TypeVar, Union,
)

from ..core.config import SimConfig
from ..core.contract import fanin_weighted_toggles, normalize_horizon, validate_stimulus
from ..core.edits import Edit, EditReceipt
from ..core.restructure import StreamingSourceEvents, WaveformEventStream
from ..core.results import (
    PhaseTimings,
    SimulationResult,
    SimulationStats,
    StreamBatch,
)
from ..core.waveform import Waveform
from ..netlist import Netlist

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..analysis.report import AnalysisReport
    from ..power.activity import StreamResult

#: Stimulus accepted by the streaming entry points: an ordinary in-memory
#: waveform mapping, or any span producer (e.g. an incremental VCD reader)
#: for runs whose stimulus never fits in memory at once.
StreamStimulus = Union[Mapping[str, Waveform], StreamingSourceEvents]

#: What a clocked driver returns: full waveforms or online totals.
_ClockedResult = TypeVar("_ClockedResult", SimulationResult, "StreamResult")


@dataclass(frozen=True)
class RunSpec:
    """One request of a batched :meth:`Session.run_many`."""

    stimulus: Mapping[str, Waveform]
    cycles: Optional[int] = None
    duration: Optional[int] = None


class Session(abc.ABC):
    """One prepared (compiled) design, ready to simulate any stimulus."""

    def __init__(
        self,
        backend_name: str,
        netlist: Netlist,
        config: Optional[SimConfig] = None,
    ):
        self._backend_name = backend_name
        self._netlist = netlist
        self._config = config or SimConfig()
        self._runs_completed = 0
        self._analysis_report: Optional["AnalysisReport"] = None
        # Serializes the backend dispatch and the counter/stats mutation of
        # concurrent ``run`` calls; reentrant so a backend-specific ``_run``
        # may itself call ``run`` on the same session if it ever needs to.
        self._run_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        return self._backend_name

    @property
    def netlist(self) -> Netlist:
        return self._netlist

    @property
    def config(self) -> SimConfig:
        return self._config

    @property
    def clock_period(self) -> int:
        return self._config.clock_period

    @property
    def runs_completed(self) -> int:
        """Number of successful :meth:`run` calls on this session."""
        return self._runs_completed

    @property
    def analysis_report(self) -> Optional["AnalysisReport"]:
        """Design-rule analysis report produced at ``prepare()`` time.

        ``None`` when the session was prepared with
        ``SimConfig(analysis="off")``.
        """
        return self._analysis_report

    def attach_analysis(self, report: Optional["AnalysisReport"]) -> None:
        """Record the prepare-time analysis report (called by the backend)."""
        self._analysis_report = report

    # ------------------------------------------------------------------
    # The uniform run contract
    # ------------------------------------------------------------------
    def run(
        self,
        stimulus: Mapping[str, Waveform],
        *,
        cycles: Optional[int] = None,
        duration: Optional[int] = None,
    ) -> SimulationResult:
        """Simulate ``stimulus`` over the given horizon.

        One of ``cycles`` / ``duration`` must be provided; the other is
        derived from the session's clock period.  ``stimulus`` must cover
        every source net of the prepared netlist.

        Thread-safe: concurrent calls serialize on the session lock (see
        the module docstring).  Validation and horizon normalization are
        pure and run outside the lock, so a malformed request never blocks
        other callers.
        """
        cycles, duration = normalize_horizon(cycles, duration, self.clock_period)
        validate_stimulus(self._netlist, stimulus)
        with self._run_lock:
            result = self._run(stimulus, cycles, duration)
            self._finalize_stats(result, cycles)
            self._runs_completed += 1
        return result

    @abc.abstractmethod
    def _run(
        self,
        stimulus: Mapping[str, Waveform],
        cycles: int,
        duration: int,
    ) -> SimulationResult:
        """Backend-specific dispatch; ``cycles``/``duration`` are resolved."""

    def run_many(self, requests: Sequence[RunSpec]) -> List[SimulationResult]:
        """One result per request, in order, each equal to :meth:`run`'s.

        Every request is checked before anything runs.  ``gatspi`` sessions
        run the batch as the columns of one level loop (splitting workload
        stats and timings so the shares sum to the batch's totals,
        ``stats.fused_requests``) and never retain it as a rerun base;
        other backends run the requests one after another.
        """
        resolved: List[Tuple[Mapping[str, Waveform], int, int]] = []
        for request in requests:
            cycles, duration = normalize_horizon(
                request.cycles, request.duration, self.clock_period
            )
            validate_stimulus(self._netlist, request.stimulus)
            resolved.append((request.stimulus, cycles, duration))
        with self._run_lock:
            results = self._run_many(resolved)
            for result, (_, cycles, _) in zip(results, resolved):
                self._finalize_stats(result, cycles)
            self._runs_completed += len(results)
        return results

    def _run_many(
        self, requests: Sequence[Tuple[Mapping[str, Waveform], int, int]]
    ) -> List[SimulationResult]:
        """Batch dispatch over resolved ``(stimulus, cycles, duration)``."""
        return [
            self._run(stimulus, cycles, duration)
            for stimulus, cycles, duration in requests
        ]

    # ------------------------------------------------------------------
    # Clocked sequential runs (any backend)
    # ------------------------------------------------------------------
    def run_cycles(
        self,
        stimulus: StreamStimulus,
        cycles: int,
        *,
        clock: Optional[str] = None,
        reset: Optional[str] = None,
    ) -> SimulationResult:
        """Clock-step the design for ``cycles`` capture edges.

        The sequential counterpart of :meth:`run`: the design's registers
        are committed at every clock edge by the shared clocked driver
        (:mod:`repro.core.clocked`), and the combinational frames between
        edges run through this session's ordinary backend, a block of
        ``cycle_parallelism`` frames per :meth:`run_many`-style batch —
        which is why clocked results are bit-identical across every
        backend: the register semantics live in one place.

        ``stimulus`` covers the primary inputs *except* the clock (the
        driver generates it, one rising edge per ``clock_period``) and the
        register outputs (they are simulated state).  ``clock``/``reset``
        override ``SimConfig.clock``/``SimConfig.reset``.  The result
        carries full stitched waveforms plus ``register_state``, the
        committed value of every register after the final capture edge.
        """
        from ..core.clocked import run_clocked

        return self._clocked(run_clocked, stimulus, cycles, clock, reset)

    def run_cycles_stream(
        self,
        stimulus: StreamStimulus,
        cycles: int,
        *,
        clock: Optional[str] = None,
        reset: Optional[str] = None,
    ) -> "StreamResult":
        """Clock-step ``cycles`` edges at constant memory.

        The streaming counterpart of :meth:`run_cycles`: each frame's
        waveforms are folded into online toggle/SAIF totals and discarded,
        so million-cycle sequential replays retain only O(design) state
        (waveforms still exist transiently — the footprint is one block of
        ``cycle_parallelism`` frames, never the run).  Pair with a
        :class:`~repro.core.restructure.StreamingSourceEvents` stimulus to
        keep the input side out-of-core too.  Totals are bit-identical to
        a whole-run :meth:`run_cycles`.
        """
        from ..core.clocked import run_clocked_stream

        return self._clocked(run_clocked_stream, stimulus, cycles, clock, reset)

    def _clocked(
        self,
        driver: Callable[..., _ClockedResult],
        stimulus: StreamStimulus,
        cycles: int,
        clock: Optional[str],
        reset: Optional[str],
    ) -> _ClockedResult:
        """Plan a clocked run and drive it (``run_clocked`` or
        ``run_clocked_stream``) under the session lock."""
        from ..core.clocked import ClockedSimulationError, plan_clocked_run

        if not self._config.store_waveforms:
            raise ClockedSimulationError(
                "clocked runs sample register data pins from per-frame "
                "waveforms; prepare the session with "
                "SimConfig(store_waveforms=True)"
            )
        plan = plan_clocked_run(
            self._netlist,
            self.clock_period,
            clock=clock if clock is not None else self._config.clock,
            reset=reset if reset is not None else self._config.reset,
        )
        with self._run_lock:
            result = driver(
                plan, stimulus, cycles, self._run_many,
                self._config.cycle_parallelism,
            )
            self._finalize_stats(result, cycles)
            self._runs_completed += 1
        return result

    # ------------------------------------------------------------------
    # Out-of-core streaming replay (opt-in per backend)
    # ------------------------------------------------------------------
    def run_stream(
        self,
        stimulus: StreamStimulus,
        *,
        cycles: Optional[int] = None,
        duration: Optional[int] = None,
        chunk_cycles: Optional[int] = None,
    ) -> "StreamResult":
        """Simulate ``stimulus`` chunk by chunk at constant memory.

        The streaming counterpart of :meth:`run`: the horizon is executed
        in chunks of ``chunk_cycles`` clock cycles (default
        ``SimConfig.stream_chunk_cycles``, falling back to
        ``32 * cycle_parallelism``), each chunk's readback is folded into
        an online activity accumulator, and nothing proportional to the
        whole run is retained — which is what lets million-cycle replays
        run in the memory footprint of one chunk.  The returned
        :class:`~repro.power.activity.StreamResult` carries per-net toggle
        counts and SAIF activity bit-identical to a whole-run :meth:`run`
        followed by ``activity_from_result`` (full waveforms are the one
        thing a streamed run cannot produce).

        ``stimulus`` may be an ordinary waveform mapping or any
        :class:`~repro.core.restructure.StreamingSourceEvents` producer
        (e.g. :class:`~repro.waveforms.vcd.VcdEventStream`, which tails a
        VCD file incrementally).  Thread-safe like :meth:`run`.
        """
        from ..power.activity import StreamResult, StreamingActivityAccumulator

        cycles, duration = normalize_horizon(cycles, duration, self.clock_period)
        source = self._coerce_stream_source(stimulus)
        timings = PhaseTimings()
        stats = SimulationStats()
        with self._run_lock:
            accumulator: Optional[StreamingActivityAccumulator] = None
            gate_nets: Tuple[str, ...] = ()
            for batch in self._stream_batches(
                source, duration, chunk_cycles, timings, stats
            ):
                if accumulator is None:
                    gate_nets = batch.nets
                    accumulator = StreamingActivityAccumulator(
                        batch.nets + batch.source_nets, duration
                    )
                start = time.perf_counter()
                accumulator.add_batch(batch)
                timings.dump += time.perf_counter() - start
            if accumulator is None:
                accumulator = StreamingActivityAccumulator((), duration)
            start = time.perf_counter()
            activities = accumulator.finalize()
            toggle_counts = accumulator.toggle_counts()
            timings.dump += time.perf_counter() - start
            result = StreamResult(
                duration=duration,
                toggle_counts=toggle_counts,
                activities=activities,
                timings=timings,
                stats=stats,
            )
            stats.output_transitions = sum(
                toggle_counts[net] for net in gate_nets
            )
            self._finalize_stats(result, cycles)
            self._runs_completed += 1
        return result

    def iter_windows(
        self,
        stimulus: StreamStimulus,
        *,
        cycles: Optional[int] = None,
        duration: Optional[int] = None,
        chunk_cycles: Optional[int] = None,
    ) -> Iterator[StreamBatch]:
        """Yield the raw per-chunk readbacks of a streaming run.

        The power-user face of :meth:`run_stream`: each yielded
        :class:`~repro.core.results.StreamBatch` carries one chunk's
        trimmed window outputs and source span as host arrays, and nothing
        is retained between chunks — callers fold batches into whatever
        online statistic they need (``StreamingActivityAccumulator`` is
        the stock consumer).  The session lock is held while the iterator
        is live; exhaust or close it promptly.
        """
        cycles, duration = normalize_horizon(cycles, duration, self.clock_period)
        source = self._coerce_stream_source(stimulus)
        with self._run_lock:
            yield from self._stream_batches(
                source, duration, chunk_cycles, PhaseTimings(), SimulationStats()
            )

    def _coerce_stream_source(
        self, stimulus: StreamStimulus
    ) -> StreamingSourceEvents:
        """Validate and lower a stream stimulus to a span producer."""
        if isinstance(stimulus, StreamingSourceEvents):
            return stimulus
        validate_stimulus(self._netlist, stimulus)
        return WaveformEventStream(self._netlist.source_nets(), stimulus)

    def _stream_batches(
        self,
        source: StreamingSourceEvents,
        duration: int,
        chunk_cycles: Optional[int],
        timings: PhaseTimings,
        stats: SimulationStats,
    ) -> Iterator[StreamBatch]:
        """Backend-specific chunk driver behind the streaming entry points."""
        raise NotImplementedError(
            f"backend {self._backend_name!r} does not support streaming "
            f"replay (run_stream/iter_windows)"
        )

    # ------------------------------------------------------------------
    # Incremental re-simulation (opt-in per backend)
    # ------------------------------------------------------------------
    def apply_edits(self, edits: Sequence[Edit]) -> EditReceipt:
        """Apply a batch of netlist/annotation edits to the prepared design.

        Backends that support incremental re-simulation (``gatspi``
        without process workers, ``gatspi-oracle``) apply the edits in
        place, refresh only the dirty slices of their compiled artifacts,
        and return an :class:`~repro.core.edits.EditReceipt` whose
        ``undo_edits`` restore the previous state exactly.  Other backends raise
        :class:`NotImplementedError`.
        """
        raise NotImplementedError(
            f"backend {self._backend_name!r} does not support incremental edits"
        )

    def rerun(
        self,
        edits: Sequence[Edit],
        *,
        stimulus: Optional[Mapping[str, Waveform]] = None,
        cycles: Optional[int] = None,
        duration: Optional[int] = None,
    ) -> SimulationResult:
        """Apply ``edits`` and re-simulate only their cone of influence.

        The result is bit-identical to preparing the edited design from
        scratch and running the same stimulus, but only the gates downstream
        of the edits are re-executed; clean waveforms are stitched from the
        previous run.  ``stimulus``/``cycles``/``duration`` default to the
        previous run's when omitted.  The edits stay applied on success
        (undo them via the receipt from :attr:`last_edit_receipt` on
        backends that expose it); on failure the design is left unchanged.
        """
        raise NotImplementedError(
            f"backend {self._backend_name!r} does not support incremental rerun"
        )

    def _finalize_stats(
        self, result: Union[SimulationResult, "StreamResult"], cycles: int
    ) -> None:
        """Make ``result.stats`` uniform across backends."""
        stats = result.stats
        stats.cycles = cycles
        if stats.gate_count == 0:
            stats.gate_count = self._netlist.gate_count
        if stats.input_events == 0:
            stats.input_events = fanin_weighted_toggles(
                self._netlist, result.toggle_counts
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Session backend={self._backend_name!r} "
            f"design={self._netlist.name!r} runs={self._runs_completed}>"
        )
