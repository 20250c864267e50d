"""Clocked (sequential) simulation: the shared two-phase driver.

GATSPI simulates the combinational logic between register boundaries; this
module closes the loop around it.  A clocked run of ``n`` cycles executes
``n`` *frames* — frame ``k`` covers ``[k*P, (k+1)*P)`` for clock period
``P`` — through any combinational executor, committing the register file at
each frame boundary:

* **Capture edges sit at multiples of the period** (``P, 2P, ... nP``).
  The capture closing frame ``k`` samples every register's D/EN/sync-reset
  level as the value settled at the end of the frame, commits the packed
  state vector in one vectorized step
  (:func:`repro.core.vector_kernel.register_next_state`), and schedules the
  Q transition at ``edge + clk_to_q`` — which lands *inside* the next
  frame, where it propagates as an ordinary source event.
* **The clock is generated analytically per frame** (low through frame 0,
  then high for the first half of every frame), never materialized over
  the whole horizon — million-cycle replays stay O(block).
* **A pending-event ledger carries Q transitions across frame
  boundaries**: capture and async-reset events are stored at absolute
  times and consumed by whichever frame contains them, so clk-to-q spill
  is exact.
* **Async resets** must be primary-input nets (their in-frame activity has
  to be known before the frame runs); an assertion at time ``t`` forces Q
  to the reset value at ``t + clk_to_q`` and dominates the next captures
  for as long as it is held.

Register outputs are known source waveforms once the captures are known,
so the frames of a run are independent — the paper's cycle parallelism.
The driver walks the run in blocks of up to ``cycle_parallelism`` frames,
in two phases per block:

1. **Derive the register trace** on the host: each frame's PI window, Q
   ledger and clock are assembled as before, and its capture samples a
   zero-delay settle of the frame's final source values
   (:class:`~repro.core.settle.ZeroDelaySettle`) instead of a simulation
   result.  A frame keeps every event, so its final values *are* the
   zero-delay values of its final sources.
2. **Run the block**: one ``run_frames`` call simulates every frame of the
   block (``Session._run_many``: the frames are the columns of one level
   loop on ``gatspi``, serial runs elsewhere).  Each frame's result is then
   checked against its derived capture — a mismatch is an invariant break
   and raises :class:`ClockedSimulationError`, never a silent re-run — and
   folded.

The driver is executor-agnostic, which is what keeps clocked runs
bit-identical across every backend — the register semantics live here,
once.  The one assumption inherited from the paper's re-simulation model
is that combinational activity settles within each cycle: a frame whose
result toggles at or past its capture edge raises
:class:`ClockedSimulationError` naming the frame, net and toggle time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
    TYPE_CHECKING,
)

from ..netlist.netlist import Netlist
from .contract import StimulusError
from .register_file import RegisterFile, build_register_file
from .restructure import StreamingSourceEvents
from .results import PhaseTimings, SimulationResult, SimulationStats
from .settle import ZeroDelaySettle
from .vector_kernel import register_next_state
from .waveform import Waveform, concatenate_windows
from .xp import HOST

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..power.activity import StreamResult

#: One frame request: the frame-local stimulus (every source net, times
#: rebased to 0), ``cycles`` (1) and ``duration`` (the clock period).
FrameRequest = Tuple[Mapping[str, Waveform], int, int]

#: A block of frames: ``run_frames(requests)`` returns one result with
#: per-net waveforms per request, each equal to a standalone run of it
#: (``Session._run_many`` / ``GatspiEngine.simulate_many``).
FrameBatchRunner = Callable[[Sequence[FrameRequest]], List[SimulationResult]]

#: Stimulus accepted by the clocked entry points: in-memory waveforms per
#: primary input, or a span producer for out-of-core runs.
ClockedStimulus = Union[Mapping[str, Waveform], StreamingSourceEvents]


class ClockedSimulationError(ValueError):
    """Raised when a design or request cannot be clock-stepped."""


@dataclass(frozen=True)
class ClockedPlan:
    """Pre-validated geometry of a clocked run over one design."""

    register_file: RegisterFile
    clock_net: str
    clock_period: int
    #: Primary inputs the caller must provide waveforms for (every PI
    #: except the generated clock).
    pi_nets: Tuple[str, ...]
    #: The design's combinational logic, packed for capture sampling.
    settle: ZeroDelaySettle


def plan_clocked_run(netlist: Netlist, clock_period: int) -> ClockedPlan:
    """Validate a design for clock-stepping; pack its register file and
    its combinational logic (the capture settle).

    The clock is inferred: every register clock pin must be on the same
    primary-input net.  Raises :class:`ClockedSimulationError` for
    designs the driver cannot step: no registers, latches, multiple
    clock domains, gated (non-primary-input) clocks, non-primary-input
    async resets, clk-to-q delays reaching the clock period, or register
    pins on undriven nets.
    """
    register_file = build_register_file(netlist)
    if len(register_file) == 0:
        raise ClockedSimulationError(
            f"design {netlist.name!r} has no sequential elements; use the "
            f"combinational run() entry point instead of run_cycles()"
        )
    if clock_period < 2:
        raise ClockedSimulationError(
            f"clock_period must be at least 2 to fit a half-period clock "
            f"waveform, got {clock_period}"
        )
    clock_nets = sorted(set(register_file.clock_nets))
    if len(clock_nets) > 1:
        raise ClockedSimulationError(
            f"design {netlist.name!r} has registers on multiple clock "
            f"nets {clock_nets}; run_cycles supports a single clock "
            f"domain: drive every register from one primary-input clock"
        )
    clock = clock_nets[0]
    if clock not in netlist.inputs:
        raise ClockedSimulationError(
            f"clock net {clock!r} is not a primary input; gated or "
            f"internally generated clocks cannot be stepped by run_cycles"
        )
    hnp = HOST
    async_mask = register_file.reset_async & register_file.has_reset
    for index in range(len(register_file)):
        if bool(async_mask[index]):
            net = register_file.reset_nets[index]
            if net not in netlist.inputs:
                raise ClockedSimulationError(
                    f"async reset net {net!r} of register "
                    f"{register_file.names[index]!r} is not a primary "
                    f"input; mid-cycle async activity must be known before "
                    f"the frame runs"
                )
    max_clk2q = int(
        max(
            int(hnp.to_host(hnp.asarray(register_file.clk_to_q_rise)).max()),
            int(hnp.to_host(hnp.asarray(register_file.clk_to_q_fall)).max()),
        )
    )
    if max_clk2q >= clock_period:
        raise ClockedSimulationError(
            f"clk-to-q delay {max_clk2q} reaches the clock period "
            f"{clock_period}; Q transitions must land within the next cycle"
        )
    settle = ZeroDelaySettle(netlist)
    undriven = sorted(_sampled_nets(register_file) - set(settle.net_ids))
    if undriven:
        raise ClockedSimulationError(
            f"register pin nets {undriven[:10]} are driven by neither a "
            f"primary input, a register nor a gate; captures cannot sample them"
        )
    pi_nets = tuple(n for n in netlist.inputs if n != clock)
    return ClockedPlan(
        register_file=register_file,
        clock_net=clock,
        clock_period=clock_period,
        pi_nets=pi_nets,
        settle=settle,
    )


def _sampled_nets(register_file: RegisterFile) -> set:
    """Every net a capture samples: D, and EN/RST where present."""
    sampled = set(register_file.d_nets)
    for nets, present in (
        (register_file.enable_nets, register_file.has_enable),
        (register_file.reset_nets, register_file.has_reset),
    ):
        sampled.update(net for net, has in zip(nets, present) if bool(has))
    return sampled


def validate_clocked_stimulus(
    plan: ClockedPlan, stimulus: ClockedStimulus
) -> None:
    """Check a clocked stimulus covers the PIs and nothing driver-owned."""
    if isinstance(stimulus, StreamingSourceEvents):
        provided = set(stimulus.nets)
    else:
        provided = set(stimulus)
    missing = sorted(set(plan.pi_nets) - provided)
    if missing:
        raise StimulusError(
            f"clocked stimulus is missing waveforms for primary inputs "
            f"{missing[:10]}"
        )
    if plan.clock_net in provided:
        raise StimulusError(
            f"clock net {plan.clock_net!r} is generated by run_cycles "
            f"(rising edges at every clock period); do not supply it"
        )
    owned = sorted(provided & set(plan.register_file.q_nets))
    if owned:
        raise StimulusError(
            f"register output nets {owned[:10]} are simulated state under "
            f"run_cycles; do not supply waveforms for them"
        )


def _clock_frame(frame_index: int, period: int) -> Waveform:
    """The clock's window for one frame: low through frame 0, then high
    for the first half-period of every frame (the rising edge is the
    frame-boundary establish change; the capture itself is driver-level)."""
    if frame_index == 0:
        return Waveform.constant(0)
    return Waveform.from_initial_and_toggles(1, [period // 2])


class _ClockedRun:
    """State of one in-progress clocked run (shared by both entry points)."""

    def __init__(
        self,
        plan: ClockedPlan,
        stimulus: ClockedStimulus,
        cycles: int,
        run_frames: FrameBatchRunner,
        block: int,
    ) -> None:
        if cycles < 1:
            raise ClockedSimulationError("cycles must be at least 1")
        if block < 1:
            raise ClockedSimulationError("block must be at least 1")
        validate_clocked_stimulus(plan, stimulus)
        self.plan = plan
        self.cycles = cycles
        self.run_frames = run_frames
        self.block = block
        self._stimulus = stimulus
        rf = plan.register_file
        net_ids = plan.settle.net_ids
        null_id = plan.settle.null_id
        # Settle-vector ids of every register's D/EN/RST pin (absent pins
        # read the constant-0 slot; register_next_state masks them off).
        self._d_ids = HOST.asarray([net_ids[n] for n in rf.d_nets])
        self._en_ids = HOST.asarray(
            [net_ids[n] if bool(h) else null_id
             for n, h in zip(rf.enable_nets, rf.has_enable)]
        )
        self._rst_ids = HOST.asarray(
            [net_ids[n] if bool(h) else null_id
             for n, h in zip(rf.reset_nets, rf.has_reset)]
        )
        # Sampled nets a frame simulates (the rest are its own sources).
        sources = set(plan.settle.source_nets)
        self._checked: List[Tuple[str, int]] = sorted(
            (net, net_ids[net]) for net in _sampled_nets(rf) if net not in sources
        )
        self._state = rf.initial_state()
        self._scheduled: List[int] = [int(v) for v in HOST.to_host(self._state)]
        self._pending: List[List[Tuple[int, int]]] = [[] for _ in rf.names]
        self._async_indices: List[int] = [
            i
            for i in range(len(rf))
            if bool(rf.has_reset[i]) and bool(rf.reset_async[i])
        ]
        # Reset level at the end of the previous frame, for detecting
        # assertions that land exactly on a frame boundary (they fold into
        # the window's establish value).  Starting "inactive" makes a
        # reset held active from t=0 scan as an assertion at t=0.
        self._reset_prev: Dict[int, int] = {
            i: (1 if bool(rf.reset_active_low[i]) else 0)
            for i in self._async_indices
        }
        self.register_state: Dict[str, int] = {
            name: int(v)
            for name, v in zip(rf.names, HOST.to_host(self._state))
        }
        self.timings = PhaseTimings()
        self.stats = SimulationStats()
        self._frames_folded = 0

    # ------------------------------------------------------------------
    # Per-frame stimulus
    # ------------------------------------------------------------------
    def _pi_frame(self, start: int, end: int) -> Dict[str, Waveform]:
        stimulus = self._stimulus
        if isinstance(stimulus, StreamingSourceEvents):
            span = stimulus.span_events(start, end, retire_before=start)
            waves: Dict[str, Waveform] = {}
            pi_set = set(self.plan.pi_nets)
            times = HOST.to_host(span.times)
            offsets = HOST.to_host(span.offsets)
            initial = HOST.to_host(span.initial_values)
            for index, net in enumerate(span.nets):
                if net not in pi_set:
                    continue
                toggles = [
                    int(t) - start
                    for t in times[offsets[index]:offsets[index + 1]]
                ]
                waves[net] = Waveform.from_initial_and_toggles(
                    int(initial[index]), toggles
                )
            return waves
        return {
            net: stimulus[net].window(start, end, rebase=True)
            for net in self.plan.pi_nets
        }

    def _scan_async_resets(
        self, start: int, end: int, pi_waves: Mapping[str, Waveform]
    ) -> None:
        rf = self.plan.register_file
        for index in self._async_indices:
            wave = pi_waves[rf.reset_nets[index]]
            active = 0 if bool(rf.reset_active_low[index]) else 1
            assert_times: List[int] = []
            previous = self._reset_prev[index]
            for time, value in wave.changes():
                if value == active and previous != active:
                    assert_times.append(time)
                previous = value
            self._reset_prev[index] = previous
            if not assert_times:
                continue
            value = int(rf.reset_values[index])
            delay = int(
                rf.clk_to_q_rise[index] if value else rf.clk_to_q_fall[index]
            )
            for time in assert_times:
                if self._scheduled[index] != value:
                    self._pending[index].append((start + time + delay, value))
                    self._scheduled[index] = value

    def _q_frame(self, start: int, end: int) -> Dict[str, Waveform]:
        rf = self.plan.register_file
        waves: Dict[str, Waveform] = {}
        for index, q_net in enumerate(rf.q_nets):
            events = self._pending[index]
            if events:
                consumed = [e for e in events if e[0] < end]
                self._pending[index] = [e for e in events if e[0] >= end]
            else:
                consumed = []
            current = int(self._state[index])
            establish = current
            toggles: List[int] = []
            if consumed:
                # Stable sort + last-wins on equal timestamps: an async
                # force emitted after a capture event at the same instant
                # deliberately overrides it.
                consumed.sort(key=lambda e: e[0])
                merged: Dict[int, int] = {}
                for time, value in consumed:
                    merged[time] = value
                for time, value in merged.items():
                    if time <= start:
                        current = value
                        establish = value
                    elif value != current:
                        toggles.append(time - start)
                        current = value
            waves[q_net] = Waveform.from_initial_and_toggles(establish, toggles)
            self._state[index] = current
        return waves

    # ------------------------------------------------------------------
    # Phase 1: capture from the settled frame
    # ------------------------------------------------------------------
    def _capture(self, end: int, frame_waves: Mapping[str, Waveform]) -> object:
        """Commit the capture at ``end`` from the frame's settled values,
        scheduling Q transitions; returns the settle vector."""
        rf = self.plan.register_file
        settle = self.plan.settle
        settled = settle.settle(
            [frame_waves[net].final_value for net in settle.source_nets]
        )
        next_vals = register_next_state(
            self._state,
            settled[self._d_ids],
            settled[self._en_ids],
            settled[self._rst_ids],
            has_enable=rf.has_enable,
            has_reset=rf.has_reset,
            reset_active_low=rf.reset_active_low,
            reset_values=rf.reset_values,
        )
        for index in range(len(rf)):
            value = int(next_vals[index])
            if value != self._scheduled[index]:
                delay = int(
                    rf.clk_to_q_rise[index]
                    if value
                    else rf.clk_to_q_fall[index]
                )
                self._pending[index].append((end + delay, value))
                self._scheduled[index] = value
        self.register_state = {
            name: int(v) for name, v in zip(rf.names, HOST.to_host(next_vals))
        }
        return settled

    # ------------------------------------------------------------------
    # Phase 2: check the simulated frame against its capture
    # ------------------------------------------------------------------
    def _check(
        self, frame_index: int, result: SimulationResult, settled: object
    ) -> None:
        period = self.plan.clock_period
        start = frame_index * period
        for net, wave in result.waveforms.items():
            last = int(wave.data[-2])
            if last >= period:
                raise ClockedSimulationError(
                    f"frame {frame_index}: net {net!r} toggles at "
                    f"{start + last}, at or past the capture edge "
                    f"{start + period}; combinational activity must settle "
                    f"within the clock period"
                )
        for net, net_id in self._checked:
            wave = result.waveforms.get(net)
            if wave is None:
                raise ClockedSimulationError(
                    f"cannot sample net {net!r} at the capture edge: the frame "
                    f"result carries no waveform for it (run_cycles requires "
                    f"SimConfig(store_waveforms=True))"
                )
            if wave.final_value != int(settled[net_id]):
                raise ClockedSimulationError(
                    f"frame {frame_index}: net {net!r} ends the frame at "
                    f"{wave.final_value} but its zero-delay settle is "
                    f"{int(settled[net_id])}; the simulated frame does not "
                    f"settle to its final sources"
                )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _fold(self, result: SimulationResult) -> None:
        self.timings.add(result.timings)
        stats = self.stats
        frame = result.stats
        if self._frames_folded == 0:
            stats.gate_count = frame.gate_count
            stats.levels = frame.levels
            stats.widest_level = frame.widest_level
            stats.kernel_mode = frame.kernel_mode
            stats.restructure_mode = frame.restructure_mode
            stats.device = frame.device
            stats.shards = frame.shards
            stats.segments = 0
        # A batch's workload counters are split across its results so that
        # they sum to the batch's totals: the sum is the real launch count.
        stats.windows += frame.windows
        stats.segments += frame.segments
        stats.input_events += frame.input_events
        stats.output_transitions += frame.output_transitions
        stats.kernel_invocations += frame.kernel_invocations
        stats.level_batches += frame.level_batches
        stats.max_batch_tasks = max(stats.max_batch_tasks, frame.max_batch_tasks)
        stats.pool_words_used = max(stats.pool_words_used, frame.pool_words_used)
        self._frames_folded += 1

    # ------------------------------------------------------------------
    # The block loop
    # ------------------------------------------------------------------
    def frames(self) -> Iterator[Tuple[int, Dict[str, Waveform], SimulationResult]]:
        period = self.plan.clock_period
        for first in range(0, self.cycles, self.block):
            block = []
            for frame_index in range(first, min(first + self.block, self.cycles)):
                start = frame_index * period
                end = start + period
                frame_waves = self._pi_frame(start, end)
                self._scan_async_resets(start, end, frame_waves)
                frame_waves.update(self._q_frame(start, end))
                frame_waves[self.plan.clock_net] = _clock_frame(frame_index, period)
                block.append((frame_index, frame_waves, self._capture(end, frame_waves)))
            results = self.run_frames([(waves, 1, period) for _, waves, _ in block])
            for (frame_index, frame_waves, settled), result in zip(block, results):
                self._check(frame_index, result, settled)
                self._fold(result)
                yield frame_index, frame_waves, result


def run_clocked(
    plan: ClockedPlan,
    stimulus: ClockedStimulus,
    cycles: int,
    run_frames: FrameBatchRunner,
    block: int,
) -> SimulationResult:
    """Run ``cycles`` clocked frames and stitch full-horizon waveforms.

    The whole-run clocked entry point: every net's per-frame windows are
    concatenated (frame-boundary value changes become boundary toggles,
    exactly as :func:`~repro.core.waveform.concatenate_windows` defines),
    toggle counts are derived from the stitched waveforms, and the final
    committed register state is attached as ``result.register_state``.
    """
    run = _ClockedRun(plan, stimulus, cycles, run_frames, block)
    windows: Dict[str, List[Waveform]] = {}
    for _, frame_waves, result in run.frames():
        merged = dict(frame_waves)
        merged.update(result.waveforms)
        for net, wave in merged.items():
            windows.setdefault(net, []).append(wave)
    period = plan.clock_period
    waveforms: Dict[str, Waveform] = {}
    toggle_counts: Dict[str, int] = {}
    for net, waves in windows.items():
        if len(waves) != cycles:
            raise ClockedSimulationError(
                f"net {net!r} produced {len(waves)} frame waveforms for "
                f"{cycles} cycles; frame results are inconsistent"
            )
        stitched = concatenate_windows(waves, period)
        waveforms[net] = stitched
        toggle_counts[net] = stitched.toggle_count()
    return SimulationResult(
        toggle_counts=toggle_counts,
        waveforms=waveforms,
        duration=cycles * period,
        timings=run.timings,
        stats=run.stats,
        register_state=dict(run.register_state),
    )


def run_clocked_stream(
    plan: ClockedPlan,
    stimulus: ClockedStimulus,
    cycles: int,
    run_frames: FrameBatchRunner,
    block: int,
) -> "StreamResult":
    """Run ``cycles`` clocked frames at constant memory.

    The streaming counterpart of :func:`run_clocked`: each frame's
    waveforms are folded into running toggle counts and SAIF T0/T1 totals
    and then discarded, so million-cycle sequential replays retain nothing
    proportional to the run — the footprint is one block of frames (pair
    it with a :class:`~repro.core.restructure.StreamingSourceEvents`
    stimulus to keep the input side O(block) too).  Toggle counts and SAIF activity are
    bit-identical to a whole-run :func:`run_clocked`.
    """
    from ..power.activity import StreamResult
    from ..waveforms.saif import NetActivity

    run = _ClockedRun(plan, stimulus, cycles, run_frames, block)
    period = plan.clock_period
    counts: Dict[str, int] = {}
    high: Dict[str, int] = {}
    prev_final: Dict[str, int] = {}
    for _, frame_waves, result in run.frames():
        merged = dict(frame_waves)
        merged.update(result.waveforms)
        for net, wave in merged.items():
            boundary = int(
                net in prev_final and wave.initial_value != prev_final[net]
            )
            counts[net] = counts.get(net, 0) + wave.toggle_count() + boundary
            high[net] = high.get(net, 0) + wave.duration_at(1, 0, period)
            prev_final[net] = wave.final_value
    duration = cycles * period
    activities = {
        net: NetActivity(t0=duration - high[net], t1=high[net], tc=counts[net])
        for net in counts
    }
    run.stats.streamed = True
    run.stats.chunks = cycles
    return StreamResult(
        duration=duration,
        toggle_counts=counts,
        activities=activities,
        timings=run.timings,
        stats=run.stats,
        register_state=dict(run.register_state),
    )
