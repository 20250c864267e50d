"""The per-object reference executors of the GATSPI engine.

:class:`OracleEngine` runs exactly the plans
:class:`~repro.core.engine.GatspiEngine` runs — same compile, same compile
cache, same edit/rerun machinery, same windows, same result assembly — but
executes them the slow, obviously-correct way: every ``(net, window)``
source slice is a :class:`~repro.core.waveform.Waveform` object, every
``(gate, window)`` task is one
:func:`~repro.core.kernel.simulate_gate_window` call, and output windows
are stitched change by change.  It shares no executor code with the array
pipeline, which is what makes ``gatspi == gatspi-oracle`` a meaningful
differential check; it is registered as the ``"gatspi-oracle"`` backend
and never runs in production.

Being per-object Python, it has no device representation (the config is
pinned to ``device="numpy"``) and no streaming mode (it materializes
per-window waveform objects, which is what streaming exists to avoid).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, NoReturn, Optional, Sequence, Tuple

from ..core.config import SimConfig
from ..core.engine import GatspiEngine, _Request, _WindowRange
from ..core.incremental import ExecutionPlan
from ..core.kernel import GateKernelResult, simulate_gate_window
from ..core.memory import WaveformPool
from ..core.results import PhaseTimings, SimulationStats
from ..core.waveform import EOW, Waveform
from ..netlist import Netlist
from ..sdf.annotate import DelayAnnotation


class OracleEngine(GatspiEngine):
    """:class:`GatspiEngine` with the per-object Python executors."""

    kernel_mode = "scalar"
    restructure_mode = "python"

    def __init__(
        self,
        netlist: Netlist,
        annotation: Optional[DelayAnnotation] = None,
        config: Optional[SimConfig] = None,
    ):
        config = (config or SimConfig()).with_updates(device="numpy")
        super().__init__(netlist, annotation=annotation, config=config)

    def pull_spans(self, *args: Any, **kwargs: Any) -> NoReturn:
        """Refused: streaming exists to avoid the per-window Waveform
        objects this engine materializes."""
        raise ValueError(
            "streaming execution requires the array pipeline (backend "
            "'gatspi'); the reference oracle materializes per-window "
            "Waveform objects"
        )

    run_stream_chunk = pull_spans

    def _execute(
        self,
        plan: ExecutionPlan,
        requests: Sequence[_Request],
        windows: Sequence[_WindowRange],
        timings: PhaseTimings,
        stats: SimulationStats,
    ) -> List[Dict[str, Tuple[int, Optional[Waveform]]]]:
        """One request after another, each over its own windows."""
        outputs: List[Dict[str, Tuple[int, Optional[Waveform]]]] = []
        for number, request in enumerate(requests):
            own = [window for window in windows if window.request == number]
            window_outputs: Dict[str, Dict[int, Waveform]] = {}
            self._simulate_batch_objects(
                request.sources, own, request.duration, timings, stats,
                window_outputs, plan,
            )
            stats.segments += 1
            stats.windows += len(own)
            # Toggle counts come from the stitched waveform, so transitions
            # landing exactly on a window seam are counted once.
            start = time.perf_counter()
            request_outputs: Dict[str, Tuple[int, Optional[Waveform]]] = {}
            for net, per_window in window_outputs.items():
                stitched = _stitch(per_window, own)
                request_outputs[net] = (
                    stitched.toggle_count(),
                    stitched if self.config.store_waveforms else None,
                )
            outputs.append(request_outputs)
            timings.readback += time.perf_counter() - start
        return outputs

    def _simulate_batch_objects(
        self,
        stimulus: Mapping[str, Waveform],
        windows: Sequence[_WindowRange],
        duration: int,
        timings: PhaseTimings,
        stats: SimulationStats,
        window_outputs: Dict[str, Dict[int, Waveform]],
        plan: ExecutionPlan,
    ) -> None:
        """One request's level-loop batch, one Python object per (net, window)."""
        pool = self._make_pool(windows, plan)
        overlap = self.window_overlap

        # Restructure source waveforms into windows (cycle parallelism).  Each
        # window is extended backwards by the settle margin so events still
        # propagating across the window boundary are reproduced exactly; the
        # margin region is trimmed from the outputs below.
        # Partial plans keep the settle margin on the right too: boundary
        # waveforms are previous-run absolute waveforms, and the window
        # must see the propagation tail past its edge exactly as a cold
        # run's in-pool fanin waveforms would provide it.
        slice_tail = overlap if plan.partial else 0
        start = time.perf_counter()
        sliced: Dict[Tuple[str, int], Waveform] = {}
        extended_starts: Dict[int, int] = {}
        for window in windows:
            extended_starts[window.index] = max(0, window.start - overlap)
        for net in plan.source_nets:
            wave = stimulus[net]
            for window in windows:
                sliced[(net, window.index)] = wave.window(
                    extended_starts[window.index],
                    window.end + slice_tail,
                    rebase=True,
                )
        timings.restructure += time.perf_counter() - start

        # Load the windows into the device memory pool.
        start = time.perf_counter()
        for (net, window_index), wave in sliced.items():
            pool.store_waveform(net, window_index, wave)
        timings.host_to_device += time.perf_counter() - start

        self._run_levels_scalar(pool, windows, timings, stats, plan)

        # Read back gate output waveforms for this batch of windows, trimming
        # each one to exactly [start, end): the settle margin on the left is
        # discarded, and so is any propagation tail past the right edge (the
        # next window reproduces it with full knowledge of its stimulus).
        # Only the final window keeps its tail, since nothing follows it.
        start = time.perf_counter()
        for net in plan.readback_nets:
            per_net = window_outputs.setdefault(net, {})
            for window in windows:
                wave = pool.read_waveform(net, window.index)
                margin = window.start - extended_starts[window.index]
                if overlap > 0 and window.end < duration:
                    right_edge = window.end - extended_starts[window.index]
                else:
                    right_edge = EOW - 1
                if margin > 0 or right_edge != EOW - 1:
                    wave = wave.window(margin, right_edge, rebase=True)
                per_net[window.index] = wave
        stats.pool_words_used = max(stats.pool_words_used, pool.used_words)
        timings.readback += time.perf_counter() - start

    def _run_levels_scalar(
        self,
        pool: WaveformPool,
        windows: Sequence[_WindowRange],
        timings: PhaseTimings,
        stats: SimulationStats,
        plan: ExecutionPlan,
    ) -> None:
        """Per-(gate, window) Python kernel loop."""
        config = self.config
        for level in plan.gates_by_level:
            schedule_start = time.perf_counter()
            tasks = [(gate, window) for gate in level for window in windows]
            timings.scheduling += time.perf_counter() - schedule_start

            # Count: one kernel execution per task sizes (and produces) its
            # output waveform.
            kernel_start = time.perf_counter()
            results: List[GateKernelResult] = []
            for gate, window in tasks:
                pointers = [
                    pool.pointer(net, window.index) for net in gate.input_nets
                ]
                results.append(
                    simulate_gate_window(
                        pool.data,
                        pointers,
                        self._gate_inputs[gate.name],
                        pathpulse_fraction=config.pathpulse_fraction,
                        net_delay_filtering=config.enable_net_delay_filtering,
                    )
                )
                stats.kernel_invocations += 1
            timings.kernel += time.perf_counter() - kernel_start

            # Allocate, then store the counted waveforms at their addresses.
            schedule_start = time.perf_counter()
            for (gate, window), result in zip(tasks, results):
                pool.store_kernel_output(
                    gate.output_net,
                    window.index,
                    pool.allocate(result.storage_words),
                    result.initial_value,
                    result.toggle_times,
                )
            timings.scheduling += time.perf_counter() - schedule_start
            stats.level_batches += 1
            stats.max_batch_tasks = max(stats.max_batch_tasks, len(tasks))


def _stitch(
    per_window: Mapping[int, Waveform], windows: Sequence[_WindowRange]
) -> Waveform:
    """Join one net's trimmed window waveforms, change by change."""
    changes: List[Tuple[int, int]] = []
    for window in windows:
        wave = per_window.get(window.index)
        if wave is None:
            continue
        for local_time, value in wave.changes():
            absolute = local_time + window.start
            if changes and changes[-1][1] == value:
                continue
            if changes and absolute <= changes[-1][0]:
                # A window-boundary artefact (a transition recorded right
                # at the seam); keep the earlier one.
                continue
            changes.append((absolute, value))
    if not changes:
        changes = [(0, 0)]
    return Waveform.from_changes(changes)
