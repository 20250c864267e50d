"""Tables 3 and 4: GATSPI vs the OpenMP port and the multi-threaded commercial
simulator.

Table 3 compares GATSPI's kernel against an OpenMP implementation of the same
algorithm on 32-64 CPUs; Table 4 against the multi-threaded mode of the
commercial simulator.  Both baselines are modelled (paper-scale event counts
through the CPU/GPU models); Table 3's load-imbalance column — the penalty the
paper highlights for low-activity designs — is measured at laptop scale, as
max / mean kernel seconds over the window groups ``gatspi:workers=process:N``
runs.
"""

from repro.api import get_backend
from repro.bench.runner import prepare_case, share_kernel_seconds
from repro.core import SimConfig
from repro.gpu import KernelPerfModel, V100, format_table, openmp_kernel_seconds

PAPER_TABLE3 = {
    # design/testbench -> (GATSPI kernel s, OpenMP kernel s, #CPUs)
    "Industry Design A (functional 1)": (0.79, 10.10, 32),
    "Industry Design B (functional 2)": (14.55, 136.09, 40),
    "Industry Design B (high activity short test)": (38.90, 558.94, 64),
}


#: Window-axis shares the measured imbalance column is taken over.
IMBALANCE_SHARES = 8


def test_table3_openmp_comparison(benchmark, representative_artifacts):
    def run_shares():
        imbalance = {}
        for key, artifact in representative_artifacts.items():
            case = artifact.case
            netlist, annotation, stimulus = prepare_case(case)
            session = get_backend("gatspi").prepare(
                netlist, annotation=annotation,
                config=SimConfig(clock_period=case.clock_period,
                                 cycle_parallelism=4),
            )
            seconds = share_kernel_seconds(
                session, stimulus, case.cycles * case.clock_period,
                IMBALANCE_SHARES,
            )
            imbalance[key] = max(seconds) / (sum(seconds) / len(seconds))
        return imbalance

    imbalance = benchmark.pedantic(run_shares, rounds=1, iterations=1)

    model = KernelPerfModel(V100)
    rows = []
    for key, artifact in representative_artifacts.items():
        cpus = PAPER_TABLE3[key][2]
        gpu_s = model.predict_kernel_seconds(artifact.workload)
        openmp_s = openmp_kernel_seconds(artifact.workload, num_cpus=cpus)
        rows.append([
            key,
            str(cpus),
            f"{gpu_s * 1e3:.2f}",
            f"{openmp_s * 1e3:.2f}",
            f"{openmp_s / gpu_s:.1f}X",
            f"{PAPER_TABLE3[key][1] / PAPER_TABLE3[key][0]:.1f}X",
            f"{imbalance[key]:.2f}",
        ])
        assert imbalance[key] >= 1.0
        # Shape: the modelled GPU beats the modelled OpenMP port, as in Table 3
        # where GATSPI is 9-15X faster than 32-64 CPU cores.
        assert gpu_s < openmp_s
    print("\n=== Table 3: GATSPI vs OpenMP port (modelled, paper-scale shape) ===")
    print(format_table(
        ["Design (testbench)", "#CPUs", "GPU kernel (ms)", "OpenMP kernel (ms)",
         "Model speedup", "Paper speedup",
         f"Measured imbalance ({IMBALANCE_SHARES} shares)"],
        rows,
    ))


def test_table4_multithreaded_commercial(benchmark, representative_artifacts):
    model = KernelPerfModel(V100)

    def evaluate():
        rows = []
        for key, artifact in representative_artifacts.items():
            single = model.baseline_application_seconds(artifact.workload)
            multi = model.baseline_multithread_seconds(artifact.workload, threads=16)
            gpu_app = artifact.row.modeled_gpu_app_s
            rows.append((key, single, multi, gpu_app))
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    formatted = []
    for key, single, multi, gpu_app in rows:
        formatted.append([
            key, f"{single:.3f}", f"{multi:.3f}", f"{gpu_app:.3f}",
            f"{multi / gpu_app:.1f}X",
        ])
        # Table 4's shape: multi-threading helps the commercial tool by only
        # 2-4X, and GATSPI still beats the multi-threaded baseline.
        assert single / 8 < multi < single
        assert gpu_app < multi
    print("\n=== Table 4: GATSPI vs multi-threaded commercial baseline (modelled) ===")
    print(format_table(
        ["Design (testbench)", "1-core app (s)", "16-thread app (s)",
         "GATSPI app (s)", "Speedup"],
        formatted,
    ))
