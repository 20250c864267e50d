"""Multi-GPU scaling model (paper Fig. 6).

With the cycle-parallel workload distribution, the kernel runtime follows
``t = t1 / n + ovr`` where ``t1`` is the single-GPU runtime and ``ovr`` the
stream-synchronize + kernel-launch overhead.  Deviations from linear scaling
come from uneven activity between the distributed windows — which the
measured per-group kernel seconds
(:func:`repro.bench.runner.share_kernel_seconds`, max / mean over the
window groups ``gatspi:workers=process:N`` splits a run into) expose directly and
this model captures with an imbalance factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.config import SimConfig
from .devices import GpuSpec, V100
from .perf_model import KernelPerfModel, KernelWorkload


@dataclass
class MultiGpuPoint:
    """One point on the Fig. 6 scaling curve."""

    label: str
    num_devices: int
    kernel_seconds: float
    speedup_vs_cpu: float


class MultiGpuModel:
    """Predict multi-GPU kernel runtimes from the single-GPU model."""

    def __init__(self, device: GpuSpec = V100):
        self.device = device
        self.kernel_model = KernelPerfModel(device)

    def scaling_curve(
        self,
        workload: KernelWorkload,
        device_counts: Sequence[int],
        config: Optional[SimConfig] = None,
        imbalance: float = 1.12,
    ) -> List[MultiGpuPoint]:
        """Kernel runtime for each device count, ``t = t1/n * imbalance + ovr``.

        ``imbalance`` models the uneven activity factor between distributed
        cycle-parallel workloads that the paper cites as the reason for
        sub-linear scaling.
        """
        config = config or SimConfig()
        single = self.kernel_model.predict_kernel_seconds(workload, config)
        overhead = (
            2.0 * workload.levels * self.device.kernel_launch_overhead_us * 1e-6
        )
        baseline = self.kernel_model.baseline_kernel_seconds(workload)
        points: List[MultiGpuPoint] = []
        for count in device_counts:
            if count < 1:
                raise ValueError("device counts must be positive")
            if count == 1:
                seconds = single
            else:
                seconds = (single - overhead) / count * imbalance + overhead
            points.append(
                MultiGpuPoint(
                    label=f"{count} {self.device.name}",
                    num_devices=count,
                    kernel_seconds=seconds,
                    speedup_vs_cpu=baseline / seconds if seconds > 0 else float("inf"),
                )
            )
        return points
