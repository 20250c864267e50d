"""Benchmark harness: run one case against two named backends.

For every benchmark the harness measures the Python runtimes of the primary
backend (default ``"gatspi"``) and the baseline backend (default ``"event"``,
the commercial-simulator stand-in) — real, laptop-scale speedups — checks
that their SAIF toggle counts agree (the paper's accuracy criterion), and
additionally evaluates the analytic GPU/CPU performance models to produce
paper-scale speedup estimates for the same workload shape.

Backends are resolved through the :mod:`repro.api` registry, so any
registered engine can be benchmarked against any other:
``run_case(case, backend="gatspi:workers=process:4", baseline_backend="event")``.
Backend strings may be full specs with prepare options
(``backend="gatspi:device=torch"``); ``backend="gatspi-oracle"`` benchmarks
the per-object reference executors against the array pipeline.
:func:`share_kernel_seconds` is the measured side of the paper's
multi-device tables (Table 3's imbalance column, Fig. 6): per-group kernel
seconds of the window groups ``gatspi:workers=process:N`` splits a run into.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..api import GatspiSession, resolve_backend
from ..core.config import SimConfig
from ..core.restructure import lower_stimulus
from ..core.engine import _ReadbackAccumulator
from ..core.results import PhaseTimings, SimulationResult, SimulationStats
from ..core.workers import append_groups, run_window_group, window_groups
from ..core.waveform import Waveform
from ..gpu import ApplicationModel, GpuSpec, KernelPerfModel, KernelWorkload, V100
from ..netlist import Netlist
from ..power import summarize_activity
from ..sdf import SyntheticDelayModel, annotation_from_design_delays
from ..waveforms import TestbenchSpec, stimulus_for_netlist
from .suites import BenchmarkCase


@dataclass
class BenchmarkRow:
    """One row of the Table 2 style results."""

    name: str
    testbench: str
    gate_count: int
    cycles: int
    activity_factor: float
    baseline_app_s: float
    baseline_kernel_s: float
    gatspi_app_s: float
    gatspi_kernel_s: float
    saif_match: bool
    modeled_gpu_kernel_s: float = 0.0
    modeled_cpu_kernel_s: float = 0.0
    modeled_gpu_app_s: float = 0.0
    modeled_cpu_app_s: float = 0.0
    backend: str = "gatspi"
    baseline_backend: str = "event"
    # Per-level batch execution stats of the primary backend (vector kernel).
    kernel_mode: str = ""
    #: Array backend (repro.core.xp) the primary backend's data plane ran on.
    device: str = ""
    level_batches: int = 0
    max_batch_tasks: int = 0
    mean_batch_tasks: float = 0.0
    #: Window groups of the primary backend (1 unless on process workers).
    shards: int = 1
    # Per-phase application timings of the primary backend (Table 5 shape).
    restructure_mode: str = ""
    restructure_s: float = 0.0
    host_to_device_s: float = 0.0
    scheduling_s: float = 0.0
    readback_s: float = 0.0

    @property
    def kernel_speedup(self) -> float:
        if self.gatspi_kernel_s == 0:
            return float("inf")
        return self.baseline_kernel_s / self.gatspi_kernel_s

    @property
    def app_speedup(self) -> float:
        if self.gatspi_app_s == 0:
            return float("inf")
        return self.baseline_app_s / self.gatspi_app_s

    @property
    def modeled_kernel_speedup(self) -> float:
        if self.modeled_gpu_kernel_s == 0:
            return float("inf")
        return self.modeled_cpu_kernel_s / self.modeled_gpu_kernel_s

    @property
    def modeled_app_speedup(self) -> float:
        if self.modeled_gpu_app_s == 0:
            return float("inf")
        return self.modeled_cpu_app_s / self.modeled_gpu_app_s


@dataclass
class BenchmarkArtifacts:
    """Full outputs of one benchmark run (for further analysis)."""

    case: BenchmarkCase
    netlist: Netlist
    row: BenchmarkRow
    gatspi_result: SimulationResult
    reference_result: SimulationResult
    workload: KernelWorkload


def prepare_case(case: BenchmarkCase):
    """Build the design, delay annotation, and stimulus for one benchmark."""
    netlist = case.build_design()
    delays = SyntheticDelayModel(seed=case.seed).build(netlist)
    annotation = annotation_from_design_delays(netlist, delays)
    spec = TestbenchSpec(
        name=case.testbench,
        cycles=case.cycles,
        clock_period=case.clock_period,
        activity_factor=case.activity_factor,
        seed=case.seed,
    )
    stimulus = stimulus_for_netlist(netlist, spec, kind=case.stimulus_kind)
    return netlist, annotation, stimulus


def run_window_shares(
    session: GatspiSession,
    stimulus: Mapping[str, Waveform],
    duration: int,
    shares: int,
) -> Tuple[List[float], Dict[str, int]]:
    """Kernel seconds of each window group ``gatspi:workers=process:N``
    runs, plus the toggle counts those same group outputs assemble to.

    The run's own windows (the ones ``session`` cuts for ``duration``)
    split by :func:`~repro.core.workers.window_groups`, each group timed
    through :func:`~repro.core.workers.run_window_group` — the step a
    process worker runs, as one device each would: ``max`` is the parallel
    kernel runtime of the paper's ``t = t1 / n + ovr``, ``sum`` the serial
    one, ``max / mean`` the uneven-activity load imbalance.  At most one
    group per window, so ``shares`` above ``cycle_parallelism`` yield
    ``cycle_parallelism`` groups.  The groups are appended in window order
    and stitched as a run's would be, so the counts must not move with
    ``shares``.
    """
    engine = session.engine
    plan = engine._full_plan()
    events = [lower_stimulus(plan.source_nets, stimulus)]
    windows = engine._window_ranges(0, duration)
    outputs = [
        run_window_group(engine, plan, events, group, [duration])
        for group in window_groups(windows, shares)
    ]
    readbacks = [_ReadbackAccumulator(plan.readback_nets)]
    append_groups(outputs, PhaseTimings(), SimulationStats(), readbacks)
    [assembled] = engine._assemble(readbacks, windows, PhaseTimings())
    counts = {net: count for net, (count, _) in assembled.items()}
    return [timings.kernel for _, _, timings in outputs], counts


def share_kernel_seconds(
    session: GatspiSession,
    stimulus: Mapping[str, Waveform],
    duration: int,
    shares: int,
) -> List[float]:
    """Kernel seconds of each window group (see :func:`run_window_shares`)."""
    return run_window_shares(session, stimulus, duration, shares)[0]


def run_case(
    case: BenchmarkCase,
    config: Optional[SimConfig] = None,
    device: GpuSpec = V100,
    run_reference: bool = True,
    backend: str = "gatspi",
    baseline_backend: str = "event",
) -> BenchmarkArtifacts:
    """Run one benchmark end to end and collect all measurements.

    ``backend`` and ``baseline_backend`` name engines in the
    :mod:`repro.api` registry.  The primary backend's preparation
    (compilation) is included in its measured application time — the paper
    counts netlist/SDF compilation as part of the GATSPI application run —
    while the baseline's elaboration happens before its timer starts, as a
    long-lived commercial simulator's would.
    """
    config = config or SimConfig(clock_period=case.clock_period)
    netlist, annotation, stimulus = prepare_case(case)

    primary, primary_options = resolve_backend(backend)
    start = time.perf_counter()
    session = primary.prepare(
        netlist, annotation=annotation, config=config, **primary_options
    )
    gatspi_result = session.run(stimulus, cycles=case.cycles)
    gatspi_app = time.perf_counter() - start

    if run_reference:
        baseline, baseline_options = resolve_backend(baseline_backend)
        baseline_session = baseline.prepare(
            netlist, annotation=annotation, config=config, **baseline_options
        )
        start = time.perf_counter()
        reference_result = baseline_session.run(stimulus, cycles=case.cycles)
        baseline_app = time.perf_counter() - start
        baseline_kernel = reference_result.kernel_runtime
        saif_match = gatspi_result.matches_toggle_counts(reference_result)
    else:
        reference_result = gatspi_result
        baseline_app = gatspi_app
        baseline_kernel = gatspi_result.kernel_runtime
        saif_match = True

    activity = summarize_activity(netlist, gatspi_result, case.cycles)
    workload = KernelWorkload.from_result(netlist, gatspi_result, design=case.name)

    kernel_model = KernelPerfModel(device)
    app_model = ApplicationModel(device)
    source_events = sum(
        gatspi_result.toggle_counts.get(net, 0) for net in netlist.source_nets()
    )
    estimate = app_model.estimate(
        workload, source_events=source_events, net_count=len(netlist.nets),
        config=config,
    )

    row = BenchmarkRow(
        name=case.name,
        testbench=case.testbench,
        gate_count=netlist.gate_count,
        cycles=case.cycles,
        activity_factor=activity.activity_factor,
        baseline_app_s=baseline_app,
        baseline_kernel_s=baseline_kernel,
        gatspi_app_s=gatspi_app,
        gatspi_kernel_s=gatspi_result.kernel_runtime,
        saif_match=saif_match,
        modeled_gpu_kernel_s=kernel_model.predict_kernel_seconds(workload, config),
        modeled_cpu_kernel_s=kernel_model.baseline_kernel_seconds(workload),
        modeled_gpu_app_s=estimate.total,
        modeled_cpu_app_s=kernel_model.baseline_application_seconds(workload),
        backend=backend,
        baseline_backend=baseline_backend,
        kernel_mode=gatspi_result.stats.kernel_mode,
        device=gatspi_result.stats.device,
        level_batches=gatspi_result.stats.level_batches,
        max_batch_tasks=gatspi_result.stats.max_batch_tasks,
        mean_batch_tasks=gatspi_result.stats.mean_batch_tasks(),
        shards=gatspi_result.stats.shards,
        restructure_mode=gatspi_result.stats.restructure_mode,
        restructure_s=gatspi_result.timings.restructure,
        host_to_device_s=gatspi_result.timings.host_to_device,
        scheduling_s=gatspi_result.timings.scheduling,
        readback_s=gatspi_result.timings.readback,
    )
    return BenchmarkArtifacts(
        case=case,
        netlist=netlist,
        row=row,
        gatspi_result=gatspi_result,
        reference_result=reference_result,
        workload=workload,
    )


def run_suite(
    cases: List[BenchmarkCase],
    config: Optional[SimConfig] = None,
    device: GpuSpec = V100,
    run_reference: bool = True,
    backend: str = "gatspi",
    baseline_backend: str = "event",
) -> List[BenchmarkArtifacts]:
    """Run a list of benchmark cases sequentially."""
    return [
        run_case(
            case,
            config=config,
            device=device,
            run_reference=run_reference,
            backend=backend,
            baseline_backend=baseline_backend,
        )
        for case in cases
    ]
