"""Microbenchmark: scalar vs level-batched vector kernel throughput.

Runs the Table-2 speedup workload (same designs and testbenches as
``bench_table2_speedup.py``) through the ``gatspi`` backend (level-batched
vector kernel) and its reference ``gatspi-oracle`` (scalar kernel, one
Python call per task) and writes ``BENCH_kernel.json`` at the repository
root with gate-evaluations-per-second for both, so the performance
trajectory of the hot path is tracked as data, not anecdotes.  Only the
kernel phase of ``timings`` is read, so the oracle's per-object boundary
phases do not enter the comparison.

Set ``REPRO_BENCH_KERNEL_SMOKE=1`` to run only the smallest design with a
shortened testbench (the CI smoke configuration).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.api import get_backend  # noqa: E402
from repro.bench import table2_cases  # noqa: E402
from repro.bench.runner import prepare_case  # noqa: E402
from repro.core import SimConfig  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"

#: The backend that runs each kernel.
BACKENDS = {"scalar": "gatspi-oracle", "vector": "gatspi"}

#: Required aggregate advantage of the vector kernel over the scalar one.
#: The smoke configuration only sanity-checks that the vector kernel is not
#: slower — a 50-cycle run on a noisy shared CI runner is too small to gate
#: on a real performance floor.
FULL_SPEEDUP_FLOOR = 5.0
SMOKE_SPEEDUP_FLOOR = 1.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_KERNEL_SMOKE", "0") == "1"


def _cases():
    cases = table2_cases()
    if _smoke():
        cases = [case for case in cases if case.name == "32b_int_adder"]
        cases = [replace(case, cycles=min(case.cycles, 50)) for case in cases]
    return cases


def _measure(case, kernel: str):
    netlist, annotation, stimulus = prepare_case(case)
    config = SimConfig(clock_period=case.clock_period)
    session = get_backend(BACKENDS[kernel]).prepare(
        netlist, annotation=annotation, config=config
    )
    start = time.perf_counter()
    result = session.run(stimulus, cycles=case.cycles)
    wall = time.perf_counter() - start
    stats = result.stats
    return {
        "kernel_seconds": result.kernel_runtime,
        "application_seconds": wall,
        "gate_evaluations": stats.kernel_invocations,
        "gates_per_second": (
            stats.kernel_invocations / result.kernel_runtime
            if result.kernel_runtime > 0
            else float("inf")
        ),
        "level_batches": stats.level_batches,
        "max_batch_tasks": stats.max_batch_tasks,
        "total_toggles": result.total_toggles(),
    }


def test_vector_kernel_speedup_and_report():
    rows = []
    total = {"scalar": {"evals": 0, "seconds": 0.0}, "vector": {"evals": 0, "seconds": 0.0}}
    for case in _cases():
        measurements = {}
        for kernel in ("scalar", "vector"):
            m = _measure(case, kernel)
            measurements[kernel] = m
            total[kernel]["evals"] += m["gate_evaluations"]
            total[kernel]["seconds"] += m["kernel_seconds"]
        # Accuracy first: both kernels must agree on total switching activity.
        assert (
            measurements["scalar"]["total_toggles"]
            == measurements["vector"]["total_toggles"]
        )
        rows.append(
            {
                "design": case.name,
                "testbench": case.testbench,
                "cycles": case.cycles,
                "scalar": measurements["scalar"],
                "vector": measurements["vector"],
                "kernel_speedup": (
                    measurements["vector"]["gates_per_second"]
                    / measurements["scalar"]["gates_per_second"]
                ),
            }
        )

    rates = {
        kernel: total[kernel]["evals"] / total[kernel]["seconds"]
        for kernel in ("scalar", "vector")
    }
    speedup = rates["vector"] / rates["scalar"]
    report = {
        "workload": "table2" if not _smoke() else "table2-smoke",
        "scalar_gates_per_second": rates["scalar"],
        "vector_gates_per_second": rates["vector"],
        "vector_speedup": speedup,
        "cases": rows,
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nBENCH_kernel: scalar {rates['scalar']:,.0f} gate-evals/s, "
          f"vector {rates['vector']:,.0f} gate-evals/s ({speedup:.1f}x) "
          f"-> {RESULT_PATH}")

    floor = SMOKE_SPEEDUP_FLOOR if _smoke() else FULL_SPEEDUP_FLOOR
    assert speedup >= floor, (
        f"vector kernel speedup {speedup:.2f}x below the {floor}x floor"
    )


if __name__ == "__main__":
    test_vector_kernel_speedup_and_report()
