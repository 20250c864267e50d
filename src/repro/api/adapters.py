"""Adapters registering the concrete simulators as named backends.

=================  ==================================================
Name               Engine
=================  ==================================================
``gatspi``         :class:`~repro.core.engine.GatspiEngine` — levelized
                   count → allocate → store re-simulator, one kernel
                   execution per level (the paper's system); with
                   ``workers=process:N`` its window list runs in groups
                   on spawned workers (:mod:`repro.core.workers`)
``gatspi-oracle``  :class:`~repro.reference.oracle_engine.OracleEngine`
                   — the same plans run per object in Python (Waveform
                   slicing, one scalar kernel call per task); the
                   differential suites' reference for ``gatspi``
``event``          :class:`~repro.reference.event_sim.EventDrivenSimulator`
                   — the commercial-simulator stand-in / oracle
``zero-delay``     :class:`~repro.core.settle.ZeroDelaySettle` — purely
                   functional: every source-change time is one row of a
                   batched settle; used to isolate glitch activity
=================  ==================================================

The concrete classes stay importable for backwards compatibility, but flows
should reach engines exclusively through ``get_backend(name).prepare(...)``.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.config import SimConfig
from ..core.edits import Edit, EditReceipt
from ..core.engine import GatspiEngine
from ..core.restructure import StreamingSourceEvents
from ..core.settle import ZeroDelaySettle
from ..core.results import (
    PhaseTimings,
    SimulationResult,
    SimulationStats,
    StreamBatch,
)
from ..core.waveform import Waveform
from ..core.xp import HOST
from ..netlist import Netlist
from ..reference.event_sim import EventDrivenSimulator
from ..reference.oracle_engine import OracleEngine
from ..sdf.annotate import DelayAnnotation
from .backend import BackendCapabilities, SimBackend
from .registry import register_backend
from .session import Session


def _reject_unknown_options(backend_name: str, options: Mapping[str, object]) -> None:
    if options:
        raise TypeError(
            f"backend {backend_name!r} got unexpected options: "
            f"{', '.join(sorted(options))}"
        )


# ----------------------------------------------------------------------
# gatspi
# ----------------------------------------------------------------------
#: Rules re-evaluated after a structural edit batch (fast structural set —
#: the expensive SDF/statistics rules cannot be invalidated by an ECO edit).
_STRUCTURAL_EDIT_RULES: Tuple[str, ...] = (
    "undriven-input",
    "multi-driven-net",
    "unconnected-output",
    "combinational-loop",
    "negative-delay",
)
#: Rules re-evaluated after a delay-only edit batch.
_DELAY_EDIT_RULES: Tuple[str, ...] = ("negative-delay",)


def _check_edit_analysis(engine: GatspiEngine, receipt: EditReceipt) -> None:
    """Incremental design-rule gate for an applied edit batch.

    Mirrors prepare-time analysis (`analyze_for_prepare`) but re-evaluates
    only the rules an edit of this kind can invalidate: delay-only batches
    check ``negative-delay`` alone, structural batches the fast structural
    set.  ``analysis="off"`` and empty batches skip entirely.
    """
    analysis = engine.config.analysis
    if analysis == "off" or not receipt.seeds:
        return
    from ..analysis.engine import AnalysisWarning, DesignAnalysisError, analyze_design

    rules = _DELAY_EDIT_RULES if receipt.delay_only else _STRUCTURAL_EDIT_RULES
    # The edited design mutates in place under a stable object identity, so
    # the fingerprint cache must not serve a stale pre-edit report.
    report = analyze_design(
        engine.netlist,
        annotation=engine.annotation,
        rules=rules,
        use_cache=False,
    )
    if report.has_errors:
        if analysis == "strict":
            raise DesignAnalysisError(report)
        warnings.warn(
            f"design {engine.netlist.name!r} has analysis errors after edits: "
            f"{report.summary()}",
            AnalysisWarning,
            stacklevel=4,
        )


class GatspiSession(Session):
    """Session over a compiled :class:`GatspiEngine` (or its oracle)."""

    def __init__(self, engine: GatspiEngine, backend_name: str = "gatspi"):
        super().__init__(backend_name, engine.netlist, engine.config)
        self.engine = engine
        self._last_edit_receipt: Optional[EditReceipt] = None

    def _run(
        self,
        stimulus: Mapping[str, Waveform],
        cycles: int,
        duration: int,
    ) -> SimulationResult:
        return self.engine.simulate(stimulus, duration=duration)

    def _run_many(
        self, requests: Sequence[Tuple[Mapping[str, Waveform], int, int]]
    ) -> List[SimulationResult]:
        # Requests are columns: one level loop over every request's windows.
        return self.engine.simulate_many(requests)

    def _stream_batches(
        self,
        source: StreamingSourceEvents,
        duration: int,
        chunk_cycles: Optional[int],
        timings: PhaseTimings,
        stats: SimulationStats,
    ) -> Iterator[StreamBatch]:
        return self.engine.stream(
            source, duration, chunk_cycles, timings=timings, stats=stats
        )

    @property
    def last_edit_receipt(self) -> Optional[EditReceipt]:
        """Receipt of the most recent :meth:`rerun`/:meth:`apply_edits`."""
        return self._last_edit_receipt

    def apply_edits(self, edits: Sequence[Edit]) -> EditReceipt:
        with self._run_lock:
            receipt = self.engine.apply_edits(list(edits))
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
        with self._run_lock:
            receipt = self.engine.apply_edits(list(edits))
            try:
                _check_edit_analysis(self.engine, receipt)
                result = self.engine.resimulate(
                    receipt, stimulus, cycles=cycles, duration=duration
                )
            except Exception:
                # Leave the design exactly as before the failed rerun.
                self.engine.apply_edits(receipt.undo_edits)
                raise
            self._last_edit_receipt = receipt
            self._finalize_stats(result, result.stats.cycles)
            self._runs_completed += 1
        return result

    def close(self) -> None:
        """Shut process workers down and unlink their segment (idempotent)."""
        self.engine.close()


def _process_workers(workers: object, config: SimConfig) -> int:
    """The pool width ``workers`` asks for: ``"process"`` is one worker per
    core, ``"process:N"`` is N."""
    base, sep, width = str(workers).partition(":")
    malformed = sep and not width.isdigit()
    if not isinstance(workers, str) or base != "process" or malformed:
        raise ValueError(
            f"workers must be 'process' or 'process:N', got {workers!r}: "
            f"window groups run on N process workers with workers=process:N"
        )
    if config.device != "numpy":
        raise ValueError(
            "workers='process' requires the numpy device: the design tensors "
            "are shared between processes via host shared memory"
        )
    count = int(width) if sep else os.cpu_count() or 1
    if count < 1:
        raise ValueError("workers must be at least 1")
    return count


@register_backend("gatspi")
class GatspiBackend(SimBackend):
    name = "gatspi"
    capabilities = BackendCapabilities(
        delay_aware=True,
        glitch_accurate=True,
        waveforms=True,
        phase_timings=True,
        description=(
            "Levelized count → allocate → store GPU-style re-simulator, one "
            "kernel execution per level (the paper's engine)"
        ),
    )
    engine_class = GatspiEngine

    def _prepare(
        self,
        netlist: Netlist,
        annotation: Optional[DelayAnnotation] = None,
        config: Optional[SimConfig] = None,
        *,
        device: Optional[str] = None,
        workers: Optional[str] = None,
        **options: Any,
    ) -> GatspiSession:
        """Compile the design; ``device`` and ``workers`` pick executors.

        ``device`` selects the array backend (:mod:`repro.core.xp`) the
        data plane runs on (``"numpy"`` default, ``"torch"``/``"cupy"``
        when installed) and overrides the config field, so equivalence
        harnesses can flip devices without rebuilding configs (e.g. the
        spec ``"gatspi:device=torch"``).  ``workers="process:N"`` (bare
        ``"process"``: one per core) runs every window list as
        ``min(N, windows)`` groups on spawned workers
        (:mod:`repro.core.workers`; host-only, no in-place edits,
        ``close()`` releases them).  Every device and worker count is
        bit-identical.
        """
        if workers is not None and self.engine_class is not GatspiEngine:
            # The oracle's executor never reaches a worker pool: refuse
            # rather than silently run in the parent.
            options["workers"] = workers
        _reject_unknown_options(self.name, options)
        config = config or SimConfig()
        if device is not None:
            config = config.with_updates(device=device)
        engine_options = {}
        if workers is not None:
            engine_options["process_workers"] = _process_workers(workers, config)
        engine = self.engine_class(
            netlist, annotation=annotation, config=config, **engine_options
        )
        engine.compile()
        return GatspiSession(engine, self.name)


@register_backend("gatspi-oracle")
class GatspiOracleBackend(GatspiBackend):
    """``gatspi`` with the per-object reference executors (numpy only)."""

    name = "gatspi-oracle"
    capabilities = BackendCapabilities(
        delay_aware=True,
        glitch_accurate=True,
        waveforms=True,
        phase_timings=True,
        description=(
            "Reference executors for gatspi: the same plans run per "
            "(gate, window) in Python; no streaming"
        ),
    )
    engine_class = OracleEngine


# ----------------------------------------------------------------------
# event
# ----------------------------------------------------------------------
class EventSession(Session):
    """Session over an elaborated :class:`EventDrivenSimulator`."""

    def __init__(self, simulator: EventDrivenSimulator):
        super().__init__("event", simulator.netlist, simulator.config)
        self.simulator = simulator

    def _run(
        self,
        stimulus: Mapping[str, Waveform],
        cycles: int,
        duration: int,
    ) -> SimulationResult:
        return self.simulator.simulate(stimulus, duration=duration)


@register_backend("event")
class EventBackend(SimBackend):
    name = "event"
    capabilities = BackendCapabilities(
        delay_aware=True,
        glitch_accurate=True,
        waveforms=True,
        phase_timings=False,
        description="Inertial-delay event-driven baseline (commercial-simulator stand-in)",
    )

    def _prepare(
        self,
        netlist: Netlist,
        annotation: Optional[DelayAnnotation] = None,
        config: Optional[SimConfig] = None,
        **options: Any,
    ) -> EventSession:
        _reject_unknown_options(self.name, options)
        simulator = EventDrivenSimulator(netlist, annotation=annotation, config=config)
        return EventSession(simulator)


# ----------------------------------------------------------------------
# zero-delay
# ----------------------------------------------------------------------
class ZeroDelaySession(Session):
    """Session over a packed :class:`ZeroDelaySettle`.

    A run evaluates the logic at time 0 and at every source toggle strictly
    inside ``(0, duration)``: each such time is one row of source values,
    all rows settle in one :meth:`~ZeroDelaySettle.settle_many` batch, and
    each net's waveform is its column's changes.  Every source and gate
    output net gets a waveform, at most one transition per change time.
    """

    def __init__(self, netlist: Netlist, config: SimConfig):
        super().__init__("zero-delay", netlist, config)
        self.settle = ZeroDelaySettle(netlist)
        self._nets = tuple(self.settle.source_nets) + tuple(
            inst.output_net() for inst in netlist.combinational_instances()
        )
        self._net_ids = HOST.asarray(
            [self.settle.net_ids[net] for net in self._nets], dtype=HOST.int64
        )

    def _run(
        self,
        stimulus: Mapping[str, Waveform],
        cycles: int,
        duration: int,
    ) -> SimulationResult:
        hnp = HOST
        settle = self.settle
        waves = [stimulus[net] for net in settle.source_nets]
        stamps = [wave.timestamps for wave in waves]
        times = hnp.unique(
            hnp.concatenate(
                [hnp.zeros(1, dtype=hnp.int64)]
                + [s[(s > 0) & (s < duration)] for s in stamps]
            )
        )
        # Source value at each change time: the parity of the last entry at
        # or before it (the initial value before the first entry).
        sources = hnp.empty((times.size, len(waves)), dtype=hnp.int8)
        for column, (wave, wave_stamps) in enumerate(zip(waves, stamps)):
            last = hnp.searchsorted(wave_stamps, times, side="right") - 1
            sources[:, column] = (wave.start_index + hnp.maximum(last, 0)) & 1
        settled = settle.settle_many(sources)[:, self._net_ids]
        changed = settled[1:] != settled[:-1]
        counts = hnp.sum(changed, axis=0)
        # Rows of the transposed mask come out net by net, in time order.
        _, rows = hnp.nonzero(changed.T)
        toggle_times = hnp.split(times[1:][rows], hnp.cumsum(counts)[:-1])
        result = SimulationResult(duration=duration)
        for net, initial, toggles in zip(self._nets, settled[0], toggle_times):
            result.waveforms[net] = Waveform.from_toggle_array(int(initial), toggles)
            result.toggle_counts[net] = int(toggles.size)
        result.stats = SimulationStats(
            gate_count=self.netlist.gate_count,
            levels=len(settle.level_sizes),
            widest_level=max(settle.level_sizes, default=0),
            windows=1,
            cycles=cycles,
            output_transitions=int(hnp.sum(counts[len(settle.source_nets) :])),
        )
        return result


@register_backend("zero-delay")
class ZeroDelayBackend(SimBackend):
    name = "zero-delay"
    capabilities = BackendCapabilities(
        delay_aware=False,
        glitch_accurate=False,
        waveforms=True,
        phase_timings=False,
        description="Zero-delay functional simulation (glitch-free reference activity)",
    )

    def _prepare(
        self,
        netlist: Netlist,
        annotation: Optional[DelayAnnotation] = None,
        config: Optional[SimConfig] = None,
        **options: Any,
    ) -> ZeroDelaySession:
        # ``annotation`` is accepted for interface uniformity and ignored:
        # a zero-delay simulation has no delays to annotate.
        _reject_unknown_options(self.name, options)
        return ZeroDelaySession(netlist, config or SimConfig())
