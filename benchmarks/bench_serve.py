"""Serving-layer benchmark: throughput under concurrent load.

Unlike the kernel/restructure/device benches — which time one run of one
engine — this bench measures the quantity the serving subsystem exists
for: **requests per second and request latency under concurrent clients**.
A :class:`~repro.serve.SimulationService` is driven by 1 / 4 / 16
concurrent clients re-simulating one compiled design, once through the
plain single-session ``gatspi`` backend (requests serialize on the shared
session) and once through ``gatspi:workers=process`` — the GIL-free
process-worker mode: each request's window groups run on one spawned
worker per core, attached to the shared-memory design export
(:mod:`repro.core.shm`).  Every client sends the same request, so queued
requests coalesce onto one run rather than batching through ``run_many``
(``fused_fraction`` stays 0).

The full run writes ``BENCH_serve.json`` at the repository root with
requests/sec and p50/p99 client-observed latency for every (backend,
concurrency) cell, plus the core-count-aware process floor: on >= 2
cores process workers must reach :data:`PROCESS_FLOOR_MULTI_CORE` (1.5x)
of the single-session baseline at 4 clients, while on a 1-core runner
bare ``workers=process`` is one worker (the engine's own step, no pool)
and the floor relaxes to
:data:`PROCESS_FLOOR_SINGLE_CORE` (1.0x); the report records
``cpu_count`` so the gap stays visible either way.

Accuracy gates throughput: every response's total switching activity must
equal the single-session reference before any rate is recorded.

The smoke configuration (``REPRO_BENCH_SERVE_SMOKE=1``) shrinks the
workload, only sanity-checks that the ratio is positive, and writes
nothing — a seconds-long run on a shared CI runner is too noisy to gate
on a real floor, and its numbers must never replace a full-mode record.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor
from threading import Lock

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.api import get_backend  # noqa: E402
from repro.bench import table2_cases  # noqa: E402
from repro.bench.runner import prepare_case  # noqa: E402
from repro.core import SimConfig, clear_compile_cache  # noqa: E402
from repro.serve import ServeRequest, SimulationService  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

SMOKE_FLOOR = 0.0

#: Process-worker throughput floors vs the single-session baseline at 4
#: clients.  Multi-core: groups execute truly in parallel (no shared
#: GIL), so the mode must beat the baseline outright.  Single core: bare
#: ``workers=process`` is one worker (the engine's own step), so the
#: floor is no-regression only.
PROCESS_FLOOR_MULTI_CORE = 1.5
PROCESS_FLOOR_SINGLE_CORE = 1.0

#: Interleaved (baseline, candidate) measurement pairs of the floored cell.
#: The floor gates on the *max* ratio across pairs: when the true ratio sits
#: exactly at the floor (single core, where process mode is the engine's
#: own step, true ratio 1.0), a single noisy sample fails the
#: gate ~half the time, while a genuine regression fails every pair.  The
#: same max-over-interleaved-pairs discipline (mirroring the analysis
#: bench's min-of-ratios overhead bound) is immune to co-tenant drift.
FLOOR_PAIRS = 3

SINGLE_BACKEND = "gatspi"
PROCESS_BACKEND = "gatspi:workers=process"
CONCURRENCY_LEVELS = (1, 4, 16)
SERVICE_WORKERS = 4

#: Requests per client at each concurrency level (full mode).  The
#: 4-client cell carries the no-regression floor, so it runs the most
#: requests: enough steady-state rounds that the (unfused) warm-up batch
#: does not dominate the measured rate.
REQUESTS_PER_CLIENT = {1: 6, 4: 6, 16: 1}
SMOKE_REQUESTS_PER_CLIENT = {1: 2, 4: 1, 16: 1}


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SERVE_SMOKE", "0") == "1"


def _case():
    """The served design: Industry Design B (largest Table-2 workload)."""
    cases = [
        case
        for case in table2_cases()
        if case.name == "Industry Design B" and case.testbench == "functional 2"
    ]
    case = cases[0]
    if _smoke():
        case = [c for c in table2_cases() if c.name == "32b_int_adder"][0]
        case = replace(case, cycles=min(case.cycles, 50))
    return case


def _percentile(sorted_values, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


def _measure_scenario(workload, backend: str, clients: int, per_client: int):
    """One (backend, concurrency) cell: drive the service, collect rates."""
    netlist, annotation, stimulus, cycles, config, reference_toggles = workload
    latencies = []
    fused_count = 0
    lock = Lock()

    def request(tag: str) -> ServeRequest:
        return ServeRequest(
            netlist=netlist,
            stimulus=stimulus,
            backend=backend,
            annotation=annotation,
            config=config,
            cycles=cycles,
            tag=tag,
        )

    with SimulationService(
        max_workers=SERVICE_WORKERS, queue_size=256
    ) as service:
        warm = service.run(request("warmup"))
        assert warm.result.total_toggles() == reference_toggles, (
            f"{backend}: served result diverged from the single-session "
            f"reference"
        )

        def client(index: int) -> None:
            nonlocal fused_count
            for step in range(per_client):
                start = time.perf_counter()
                response = service.run(request(f"c{index}r{step}"))
                elapsed = time.perf_counter() - start
                assert response.result.total_toggles() == reference_toggles
                with lock:
                    latencies.append(elapsed)
                    if response.fused:
                        fused_count += 1

        wall_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            for future in [pool.submit(client, i) for i in range(clients)]:
                future.result()
        wall = time.perf_counter() - wall_start
        stats = service.stats()

    total = clients * per_client
    ordered = sorted(latencies)
    return {
        "clients": clients,
        "requests": total,
        "wall_seconds": wall,
        "requests_per_second": total / wall,
        "latency_p50_ms": _percentile(ordered, 0.50) * 1e3,
        "latency_p99_ms": _percentile(ordered, 0.99) * 1e3,
        "fused_requests": fused_count,
        "fused_fraction": fused_count / total,
        "service_batches": stats["batches"],
        "max_batch_size": stats["max_batch_size"],
    }


def test_serve_throughput_and_report():
    case = _case()
    clear_compile_cache()
    netlist, annotation, stimulus = prepare_case(case)
    config = SimConfig(clock_period=case.clock_period)
    reference = (
        get_backend("gatspi")
        .prepare(netlist, annotation=annotation, config=config)
        .run(stimulus, cycles=case.cycles)
    )
    workload = (
        netlist, annotation, stimulus, case.cycles, config,
        reference.total_toggles(),
    )
    per_client = SMOKE_REQUESTS_PER_CLIENT if _smoke() else REQUESTS_PER_CLIENT

    backends = (SINGLE_BACKEND, PROCESS_BACKEND)
    scenarios = {backend: {} for backend in backends}
    for clients in CONCURRENCY_LEVELS:
        for backend in backends:
            scenarios[backend][str(clients)] = _measure_scenario(
                workload, backend, clients, per_client[clients]
            )

    process_ratios = {
        str(clients): (
            scenarios[PROCESS_BACKEND][str(clients)]["requests_per_second"]
            / scenarios[SINGLE_BACKEND][str(clients)]["requests_per_second"]
        )
        for clients in CONCURRENCY_LEVELS
    }
    cpu_count = os.cpu_count() or 1
    process_floor = (
        PROCESS_FLOOR_MULTI_CORE if cpu_count >= 2 else PROCESS_FLOOR_SINGLE_CORE
    )
    process_summary = ", ".join(
        f"{clients} clients {process_ratios[str(clients)]:.2f}x"
        for clients in CONCURRENCY_LEVELS
    )
    print(
        f"\nBENCH_serve: process-vs-single rps {process_summary} "
        f"(cpu_count={cpu_count})"
    )
    if _smoke():
        assert process_ratios["4"] > SMOKE_FLOOR
        return

    # Floored 4-client cell: re-measure interleaved pairs (the sweep
    # above is pair #1) and gate on the max ratio.
    floor_samples = [process_ratios["4"]]
    for _ in range(FLOOR_PAIRS - 1):
        base = _measure_scenario(
            workload, SINGLE_BACKEND, 4, per_client[4]
        )["requests_per_second"]
        cell = _measure_scenario(workload, PROCESS_BACKEND, 4, per_client[4])
        floor_samples.append(cell["requests_per_second"] / base)
    report = {
        "workload": {
            "design": case.name,
            "testbench": case.testbench,
            "cycles": case.cycles,
            "gate_count": netlist.gate_count,
            "mode": "full",
        },
        "service_workers": SERVICE_WORKERS,
        "cpu_count": cpu_count,
        "single_backend": SINGLE_BACKEND,
        "process_backend": PROCESS_BACKEND,
        "scenarios": scenarios,
        "process_vs_single_rps_ratio": process_ratios,
        "floor_ratio_samples_at_4_clients": floor_samples,
        "floor_methodology": (
            f"max ratio over {FLOOR_PAIRS} interleaved "
            f"(single, process) measurement pairs"
        ),
        "process_floor_at_4_clients": process_floor,
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"BENCH_serve: floor samples {floor_samples} -> {RESULT_PATH}")

    process_best = max(floor_samples)
    assert process_best >= process_floor, (
        f"workers=process at {process_best:.2f}x of single-session "
        f"gatspi throughput under 4 concurrent clients (max of "
        f"{len(floor_samples)} interleaved pairs, "
        f"floor {process_floor}x on {cpu_count} core(s)): the "
        f"process-worker serving path regressed"
    )


if __name__ == "__main__":
    test_serve_throughput_and_report()
