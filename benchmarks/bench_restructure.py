"""Microbenchmark: reference vs vectorized restructure/load/readback.

Runs the Table-2 workload through the per-(net, window) Python reference
pipeline (backend ``gatspi-oracle``) and the bulk-array pipeline (backend
``gatspi``) and writes ``BENCH_restructure.json`` at the repository root
with per-phase timings (restructure, host-to-device load, scheduling,
kernel, readback) for both, extending the ``BENCH_kernel.json``-style
tracking to the non-kernel phases.  The oracle also runs the scalar kernel,
but the comparison reads only the restructure, load and readback phases.

Accuracy gates the speedup claim: every case first asserts the two modes
produce **bit-identical waveforms** on every net, then the aggregate
restructure+load+readback phase time must beat the reference by at least
:data:`FULL_SPEEDUP_FLOOR`.

Set ``REPRO_BENCH_RESTRUCTURE_SMOKE=1`` to run only the smallest design
with a shortened testbench (the CI smoke configuration).
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

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_restructure.json"

#: The backend that runs each pipeline.
BACKENDS = {"python": "gatspi-oracle", "vector": "gatspi"}

#: Required aggregate advantage of the vectorized pipeline over the
#: per-object reference on the restructure+load+readback phases.  The smoke
#: configuration only sanity-checks that vectorization is not slower — a
#: 50-cycle run on a noisy shared CI runner is too small to gate on a real
#: performance floor.
FULL_SPEEDUP_FLOOR = 2.0
SMOKE_SPEEDUP_FLOOR = 1.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_RESTRUCTURE_SMOKE", "0") == "1"


def _cases():
    cases = table2_cases()
    if _smoke():
        cases = [case for case in cases if case.name == "32b_int_adder"]
        cases = [replace(case, cycles=min(case.cycles, 50)) for case in cases]
    return cases


def _measure(case, restructure: str):
    netlist, annotation, stimulus = prepare_case(case)
    config = SimConfig(clock_period=case.clock_period)
    session = get_backend(BACKENDS[restructure]).prepare(
        netlist, annotation=annotation, config=config
    )
    start = time.perf_counter()
    result = session.run(stimulus, cycles=case.cycles)
    wall = time.perf_counter() - start
    timings = result.timings.as_dict()
    phase = (
        timings["restructure"] + timings["host_to_device"] + timings["readback"]
    )
    return result, {
        "application_seconds": wall,
        "phases": timings,
        "restructure_load_readback_seconds": phase,
        "total_toggles": result.total_toggles(),
    }


def test_restructure_speedup_and_report():
    rows = []
    total = {"python": 0.0, "vector": 0.0}
    for case in _cases():
        results = {}
        measurements = {}
        for mode in ("python", "vector"):
            results[mode], measurements[mode] = _measure(case, mode)
            total[mode] += measurements[mode]["restructure_load_readback_seconds"]
        # Accuracy first: the vectorized pipeline must reproduce the
        # reference bit-for-bit — same per-net toggle counts and same
        # waveform arrays — before its speed counts for anything.
        reference, vectorized = results["python"], results["vector"]
        assert reference.toggle_counts == vectorized.toggle_counts, (
            reference.differing_nets(vectorized)
        )
        assert set(reference.waveforms) == set(vectorized.waveforms)
        for net in reference.waveforms:
            assert reference.waveforms[net] == vectorized.waveforms[net], net
        rows.append(
            {
                "design": case.name,
                "testbench": case.testbench,
                "cycles": case.cycles,
                "python": measurements["python"],
                "vector": measurements["vector"],
                "phase_speedup": (
                    measurements["python"]["restructure_load_readback_seconds"]
                    / measurements["vector"]["restructure_load_readback_seconds"]
                ),
            }
        )

    speedup = total["python"] / total["vector"]
    report = {
        "workload": "table2" if not _smoke() else "table2-smoke",
        "python_phase_seconds": total["python"],
        "vector_phase_seconds": total["vector"],
        "phase_speedup": speedup,
        "cases": rows,
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nBENCH_restructure: restructure+load+readback "
        f"python {total['python']:.3f}s, vector {total['vector']:.3f}s "
        f"({speedup:.1f}x) -> {RESULT_PATH}"
    )

    floor = SMOKE_SPEEDUP_FLOOR if _smoke() else FULL_SPEEDUP_FLOOR
    assert speedup >= floor, (
        f"restructure pipeline speedup {speedup:.2f}x below the {floor}x floor"
    )


if __name__ == "__main__":
    test_restructure_speedup_and_report()
