"""Multi-GPU cycle-parallel scaling (paper Fig. 6) on a generated design.

Distributes one testbench across 1, 2, 4, and 8 window-axis shares — the
paper's cycle-parallelism workload-distribution strategy, one share per model
device — reports measured per-share kernel times and load imbalance, checks
that the toggle totals the shares merge to do not move with the share count
(the window groups `gatspi:workers=process:N` runs on N workers), and prints
the modelled paper-scale scaling curve `t = t1/n + ovr`.

Run with:  python examples/multi_gpu_scaling.py
"""

from repro.api import get_backend
from repro.bench import run_window_shares
from repro.bench.designs import industry_like
from repro.core import SimConfig
from repro.gpu import KernelWorkload, MultiGpuModel, V100
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.waveforms import TestbenchSpec, stimulus_for_netlist


def main() -> None:
    netlist = industry_like(gate_count=600, num_flops=80, depth=14, seed=5)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=5).build(netlist)
    )
    spec = TestbenchSpec(name="concat", cycles=80, activity_factor=0.15, seed=5)
    stimulus = stimulus_for_netlist(netlist, spec, kind="functional")
    config = SimConfig(cycle_parallelism=8, clock_period=spec.clock_period)

    print(f"design: {netlist.gate_count} gates, testbench {spec.cycles} cycles\n")
    session = get_backend("gatspi").prepare(netlist, annotation=annotation,
                                            config=config)
    result = session.run(stimulus, cycles=spec.cycles)
    print("measured cycle-parallel distribution across model devices:")
    baseline = None
    for devices in (1, 2, 4, 8):
        seconds, counts = run_window_shares(
            session, stimulus, result.duration, devices
        )
        parallel = max(seconds)
        if baseline is None:
            baseline = parallel
        assert counts == {net: result.toggle_counts[net] for net in counts}
        print(f"  {devices} device(s): kernel {parallel:.2f}s  "
              f"speedup {baseline / parallel:4.1f}X  "
              f"imbalance {parallel * len(seconds) / sum(seconds):.2f}  "
              f"toggles {sum(counts.values())}")

    # Modelled paper-scale curve for the same workload shape.
    workload = KernelWorkload.from_result(netlist, result)
    print("\nmodelled V100 scaling (t = t1/n + overhead):")
    for point in MultiGpuModel(V100).scaling_curve(workload, [1, 2, 4, 8]):
        print(f"  {point.label}: {point.kernel_seconds * 1e3:.2f} ms, "
              f"{point.speedup_vs_cpu:.0f}X vs 1 CPU core")


if __name__ == "__main__":
    main()
