"""Table 8 and Fig. 6: scaling across GPU generations and GPU counts.

Table 8 compares kernel runtimes on T4 / V100 / A100; Fig. 6 shows kernel
runtime for Design B's concatenated testbenches on 1 CPU core, a 64-core
OpenMP run, 1/8 V100s and 1/4 A100s.  Both are regenerated from the analytic
device models driven by the measured workloads, and the multi-device
cycle-parallel distribution is additionally exercised with the real engine:
per-group kernel seconds over the window groups ``gatspi:workers=process:N``
runs, whose merged toggle totals must not move with the group count.
"""

from repro.api import get_backend
from repro.bench.runner import prepare_case, run_window_shares
from repro.core import SimConfig
from repro.gpu import (
    A100,
    KernelPerfModel,
    MultiGpuModel,
    T4,
    V100,
    format_table,
    openmp_kernel_seconds,
)

PAPER_TABLE8 = {
    # speedups vs 1 CPU core on (T4, V100, A100)
    "NVDLA,large(scan)": (60, 254, 385),
    "Design B(func. 2)": (195, 1026, 1232),
    "Design B(high activity)": (179, 1198, 1828),
}


def test_table8_gpu_generation_scaling(benchmark, representative_artifacts):
    def evaluate():
        rows = []
        for key, artifact in representative_artifacts.items():
            per_device = {}
            for device in (T4, V100, A100):
                model = KernelPerfModel(device)
                per_device[device.name] = (
                    model.predict_kernel_seconds(artifact.workload),
                    model.kernel_speedup(artifact.workload),
                )
            rows.append((key, per_device))
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    formatted = []
    for key, per_device in rows:
        formatted.append(
            [key] + [
                f"{per_device[name][0] * 1e3:.2f}ms ({per_device[name][1]:.0f}X)"
                for name in ("T4", "V100", "A100")
            ]
        )
        # Table 8 shape: A100 fastest, T4 slowest, everything beats the CPU.
        assert per_device["T4"][0] > per_device["V100"][0] > per_device["A100"][0]
        assert per_device["A100"][1] > per_device["V100"][1] > 1
    print("\n=== Table 8: modelled kernel runtime/speedup per GPU generation ===")
    print(format_table(["Design (testbench)", "T4", "V100", "A100"], formatted))


def test_fig6_multi_gpu_scaling(benchmark, representative_artifacts):
    # Fig. 6 uses Design B with all testbenches concatenated; the
    # high-activity representative stands in for the concatenated workload.
    key, artifact = [
        (k, a) for k, a in representative_artifacts.items() if "high activity" in k
    ][0]

    def evaluate():
        v100_curve = MultiGpuModel(V100).scaling_curve(artifact.workload, [1, 8])
        a100_curve = MultiGpuModel(A100).scaling_curve(artifact.workload, [1, 4])
        cpu = KernelPerfModel(V100).baseline_kernel_seconds(artifact.workload)
        openmp = openmp_kernel_seconds(artifact.workload, num_cpus=64)
        return v100_curve, a100_curve, cpu, openmp

    v100_curve, a100_curve, cpu, openmp = benchmark.pedantic(
        evaluate, rounds=1, iterations=1
    )

    rows = [["1 CPU core", f"{cpu:.2f}", "1X"],
            ["64-core OpenMP", f"{openmp:.2f}", f"{cpu / openmp:.0f}X"]]
    for point in v100_curve + a100_curve:
        rows.append(
            [point.label, f"{point.kernel_seconds:.4f}",
             f"{point.speedup_vs_cpu:.0f}X"]
        )
    print("\n=== Fig. 6: re-simulation kernel runtime across platforms (modelled) ===")
    print(format_table(["Platform", "Kernel runtime (s)", "Speedup vs 1 CPU"], rows))

    # Shape checks mirroring Fig. 6's ordering: CPU < OpenMP < 1 GPU < n GPUs,
    # with sub-linear multi-GPU scaling.
    assert cpu > openmp > v100_curve[0].kernel_seconds
    assert v100_curve[1].kernel_seconds < v100_curve[0].kernel_seconds
    assert a100_curve[1].kernel_seconds < a100_curve[0].kernel_seconds
    assert v100_curve[0].kernel_seconds / v100_curve[1].kernel_seconds < 8.0

    # The real multi-device distribution preserves total activity exactly
    # while the slowest share bounds the parallel runtime.
    case = artifact.case
    netlist, annotation, stimulus = prepare_case(case)
    config = SimConfig(clock_period=case.clock_period, cycle_parallelism=8)
    duration = case.cycles * case.clock_period
    session = get_backend("gatspi").prepare(
        netlist, annotation=annotation, config=config
    )
    totals = set()
    for shares in (1, 2, 4, 8):
        seconds, counts = run_window_shares(session, stimulus, duration, shares)
        totals.add(sum(counts.values()))
        speedup = sum(seconds) / max(seconds)
        print(f"measured {shares}-share cycle-parallel distribution: "
              f"{speedup:.1f}X vs serial, "
              f"imbalance {max(seconds) * len(seconds) / sum(seconds):.2f}")
        if shares == 4:
            assert speedup > 1.5
    assert len(totals) == 1, totals
