"""Partitioned multi-worker CPU simulation (the paper's OpenMP port).

The paper compares GATSPI against (a) an OpenMP port of its own algorithm on
32-64 CPU cores and (b) the multi-threaded mode of the commercial simulator
(Tables 3 and 4).  Real thread-level parallelism is not available to pure
Python, so this module reproduces the *structure* of those baselines: the
per-level gate×window task list is partitioned across ``num_workers``
workers, every partition is executed (sequentially) while being timed, and
the parallel runtime is modelled as the per-level maximum across partitions
plus a barrier overhead — which is exactly the quantity an OpenMP
``parallel for`` with a barrier per logic level would exhibit, including the
load-imbalance penalty the paper highlights for low-activity designs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.config import SimConfig
from ..core.contract import normalize_horizon
from ..core.engine import GatspiEngine
from ..core.kernel import simulate_gate_window
from ..core.memory import WaveformPool
from ..core.results import SimulationResult
from ..core.waveform import Waveform
from ..netlist import Netlist
from ..sdf.annotate import DelayAnnotation


@dataclass
class PartitionedRunReport:
    """Timing report of one partitioned (OpenMP-style) run."""

    num_workers: int
    per_level_worker_times: List[List[float]] = field(default_factory=list)
    barrier_overhead_per_level: float = 0.0
    serial_kernel_time: float = 0.0

    @property
    def parallel_kernel_time(self) -> float:
        """Modelled wall-clock time: per-level max across workers + barriers."""
        total = 0.0
        for worker_times in self.per_level_worker_times:
            if worker_times:
                total += max(worker_times)
            total += self.barrier_overhead_per_level
        return total

    @property
    def speedup_vs_serial(self) -> float:
        parallel = self.parallel_kernel_time
        if parallel == 0:
            return float("inf")
        return self.serial_kernel_time / parallel

    def load_imbalance(self) -> float:
        """Average (max / mean) worker time across levels — 1.0 is balanced."""
        ratios = []
        for worker_times in self.per_level_worker_times:
            busy = [t for t in worker_times if t > 0]
            if not busy:
                continue
            mean = sum(busy) / len(busy)
            if mean > 0:
                ratios.append(max(busy) / mean)
        if not ratios:
            return 1.0
        return sum(ratios) / len(ratios)


class PartitionedCpuSimulator:
    """OpenMP-style partitioned execution of the GATSPI algorithm on CPU.

    Registered as the ``"threaded-cpu"`` backend in :mod:`repro.api`; new
    code should reach it via ``get_backend("threaded-cpu").prepare(...)``
    (the timing report is kept on the session's ``last_report``).
    """

    def __init__(
        self,
        netlist: Netlist,
        annotation: Optional[DelayAnnotation] = None,
        config: Optional[SimConfig] = None,
        num_workers: int = 32,
        barrier_overhead: float = 1e-5,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.netlist = netlist
        self.config = config or SimConfig()
        self.num_workers = num_workers
        self.barrier_overhead = barrier_overhead
        self._engine = GatspiEngine(netlist, annotation=annotation, config=self.config)

    def run(
        self,
        stimulus: Mapping[str, Waveform],
        cycles: Optional[int] = None,
        duration: Optional[int] = None,
    ) -> Tuple[SimulationResult, PartitionedRunReport]:
        """Simulate and report per-worker kernel times.

        The functional result is produced by the regular engine (identical
        algorithm); the partition timing is measured by re-executing each
        level's tasks grouped by worker.
        """
        config = self.config
        cycles, duration = normalize_horizon(cycles, duration, config.clock_period)

        result = self._engine.simulate(stimulus, cycles=cycles, duration=duration)
        report = PartitionedRunReport(
            num_workers=self.num_workers,
            barrier_overhead_per_level=self.barrier_overhead,
            serial_kernel_time=result.kernel_runtime,
        )

        compiled = self._engine.compiled
        pool = WaveformPool(config.waveform_pool_words)
        windows = self._engine._window_ranges(0, duration)
        for net in self.netlist.source_nets():
            wave = stimulus[net]
            for window in windows:
                pool.store_waveform(
                    net, window.index, wave.window(window.start, window.end)
                )

        for level in compiled.gates_by_level:
            tasks = [(gate, window) for gate in level for window in windows]
            partitions: List[List] = [[] for _ in range(self.num_workers)]
            for index, task in enumerate(tasks):
                partitions[index % self.num_workers].append(task)
            worker_times: List[float] = []
            level_results: Dict[Tuple[str, int], object] = {}
            for partition in partitions:
                start = time.perf_counter()
                for gate, window in partition:
                    pointers = [
                        pool.pointer(net, window.index) for net in gate.input_nets
                    ]
                    kernel_result = simulate_gate_window(
                        pool.data,
                        pointers,
                        self._engine._gate_inputs[gate.name],
                        pathpulse_fraction=config.pathpulse_fraction,
                        net_delay_filtering=config.enable_net_delay_filtering,
                    )
                    level_results[(gate.output_net, window.index)] = kernel_result
                worker_times.append(time.perf_counter() - start)
            report.per_level_worker_times.append(worker_times)
            for (net, window_index), kernel_result in level_results.items():
                address = pool.allocate(kernel_result.storage_words)
                pool.store_kernel_output(
                    net,
                    window_index,
                    address,
                    kernel_result.initial_value,
                    kernel_result.toggle_times,
                )
        return result, report
