"""Multi-GPU workload distribution by cycle parallelism (paper Section 5).

The paper's multi-GPU strategy is deliberately simple: with ``n`` GPUs the
cycle parallelism is set to ``32 * n`` and each GPU simulates 32 of the
independent windows.  The kernel runtime then follows ``t = t1 / n + ovr``
where ``ovr`` is the stream-synchronize + kernel-launch overhead.

Without real GPUs, each "device" here is an independent backend-session run
(``repro.api``, default backend ``"gatspi"``) over its share of windows.  The
measured per-device runtimes let us
report the *parallel* runtime as the slowest device (plus overhead), which is
what a real multi-GPU run would show — including the paper's observation that
deviation from linear scaling comes from uneven activity between the
distributed windows.

The design is prepared exactly once: every device share runs through the same
session, so the gatspi backend's packed struct-of-arrays level tensors
(:class:`~repro.core.vector_kernel.PackedDesign`, built at compile time) are
partitioned across shares by window, never re-derived per device — only the
per-share stimulus windows and waveform pools are device-local.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..netlist import Netlist
from ..sdf.annotate import DelayAnnotation
from .config import SimConfig
from .restructure import slice_stimulus
from .results import SimulationResult
from .sharding import accumulate_toggle_counts, plan_shards
from .waveform import Waveform


@dataclass
class DeviceShare:
    """Result of one device's share of the cycle-parallel workload."""

    device_index: int
    window_start: int
    window_end: int
    result: SimulationResult

    @property
    def kernel_runtime(self) -> float:
        return self.result.kernel_runtime

    @property
    def level_batches(self) -> int:
        """Level-batched kernel launches this share executed."""
        return self.result.stats.level_batches

    @property
    def device(self) -> str:
        """Array backend this share's data plane ran on."""
        return self.result.stats.device

    @property
    def max_batch_tasks(self) -> int:
        """Largest (gate, window) batch this share launched."""
        return self.result.stats.max_batch_tasks


@dataclass
class MultiGpuResult:
    """Combined result of a multi-device run."""

    num_devices: int
    shares: List[DeviceShare] = field(default_factory=list)
    toggle_counts: Dict[str, int] = field(default_factory=dict)
    launch_overhead: float = 0.0
    #: Which kernel executed Algorithm 1 on every share.
    kernel_mode: str = ""
    #: Which array backend (repro.core.xp) every share's data plane ran on.
    device: str = ""
    #: Invariant of this implementation: all shares run through one prepared
    #: session, so the packed design tensors are built once and partitioned
    #: by window — never re-derived per device.
    compiled_once: bool = True

    @property
    def parallel_kernel_runtime(self) -> float:
        """Modelled wall-clock kernel time: slowest device plus overhead."""
        if not self.shares:
            return self.launch_overhead
        return max(share.kernel_runtime for share in self.shares) + self.launch_overhead

    @property
    def serial_kernel_runtime(self) -> float:
        """Total kernel work (what a single device would execute)."""
        return sum(share.kernel_runtime for share in self.shares)

    @property
    def speedup_vs_single_device(self) -> float:
        parallel = self.parallel_kernel_runtime
        if parallel == 0:
            return float("inf")
        return self.serial_kernel_runtime / parallel

    def total_toggles(self) -> int:
        return sum(self.toggle_counts.values())

    def per_device_runtimes(self) -> List[float]:
        return [share.kernel_runtime for share in self.shares]

    def load_imbalance(self) -> float:
        """Max/mean device runtime ratio — the paper's uneven-activity effect."""
        runtimes = self.per_device_runtimes()
        if not runtimes:
            return 1.0
        mean = sum(runtimes) / len(runtimes)
        if mean == 0:
            return 1.0
        return max(runtimes) / mean


def simulate_multi_gpu(
    netlist: Netlist,
    stimulus: Mapping[str, Waveform],
    cycles: int,
    num_devices: int,
    annotation: Optional[DelayAnnotation] = None,
    config: Optional[SimConfig] = None,
    launch_overhead: float = 0.0,
    backend: str = "gatspi",
    backend_options: Optional[Mapping[str, object]] = None,
) -> MultiGpuResult:
    """Distribute a testbench across ``num_devices`` model devices.

    Each device receives a contiguous slice of the testbench (its share of
    the ``32 * n`` cycle-parallel windows) and simulates it through one
    shared ``backend`` session: the design — including the gatspi backend's
    packed struct-of-arrays level tensors — is compiled exactly once, and
    each share's level batches execute over that shared compile artifact.
    Toggle counts are summed across devices; per-device kernel runtimes are
    kept so the parallel runtime can be modelled as the slowest device plus
    ``launch_overhead``.

    ``backend`` accepts a registry spec (``"gatspi:device=torch"``), and
    ``backend_options`` adds explicit prepare options on top of the spec.
    """
    # Imported lazily: ``repro.api`` depends on ``repro.core``.
    from ..api import resolve_backend

    if num_devices < 1:
        raise ValueError("num_devices must be at least 1")
    config = config or SimConfig()
    duration = cycles * config.clock_period

    backend_impl, options = resolve_backend(backend)
    if backend_options:
        options = {**options, **backend_options}
    session = backend_impl.prepare(
        netlist, annotation=annotation, config=config, **options
    )
    result = MultiGpuResult(num_devices=num_devices, launch_overhead=launch_overhead)
    if duration < 1:
        # Nothing to distribute (cycles=0 sweeps): an empty result, as the
        # pre-planner loop produced.
        return result
    # The shard planner shared with the gatspi-sharded backend; shares are
    # floored at one clock period and carry no settle margin here — the
    # distributor models independent devices and sums per-share activity
    # (events propagating across a slice seam may land on either side).
    for shard in plan_shards(duration, num_devices, min_length=config.clock_period):
        # Carve this device's share of the testbench with the vectorized
        # slicer (bit-identical to per-net Waveform.window calls).
        share_stimulus = slice_stimulus(stimulus, shard.start, shard.end)
        share_result = session.run(share_stimulus, duration=shard.length)
        result.kernel_mode = share_result.stats.kernel_mode
        result.device = share_result.stats.device
        result.shares.append(
            DeviceShare(
                device_index=shard.index,
                window_start=shard.start,
                window_end=shard.end,
                result=share_result,
            )
        )
        accumulate_toggle_counts(result.toggle_counts, share_result.toggle_counts)
    return result
