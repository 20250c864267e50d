"""Measurement loop: set-up, units for ``--seconds``, medians, layer table.

One call to :func:`run_workload` is one benchmark run of one workload in
this process (the caller provides the fresh process).  End-to-end metrics
are measured with nothing wrapped; with ``trace=True`` the run spends
two thirds of its time on traced units and the rest on untraced units,
which gives the per-layer rows and the tracing overhead from one process.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

import layers
from spans import Tracer, check_self_time_arithmetic
from workloads import WORKLOADS, UnitResult, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
GOLDENS_PATH = os.path.join(HERE, "goldens.json")
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Fewest measured units per run, however short ``--seconds`` is.
MIN_UNITS = 3
#: Unit ids of traced units start here (untraced units count from 0).
TRACED_UNIT_BASE = 1000


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _golden_mismatches(workload: Workload) -> int:
    """``goldens.json`` pins one seed's inputs and outputs; 1 if they moved."""
    with open(GOLDENS_PATH, "r", encoding="utf-8") as handle:
        goldens = json.load(handle)
    if workload.seed != goldens.get("seed"):
        return 0
    return int(goldens.get("workloads", {}).get(workload.name) != workload.golden)


def _timed_unit(workload: Workload, tracer: Tracer, unit_id: int):
    gc.collect()
    tracer.unit = unit_id
    counters_before = dict(tracer.counters)
    start = time.perf_counter()
    result = workload.unit()
    wall = time.perf_counter() - start
    tracer.unit = -1
    for key, value in tracer.counters.items():
        result.counts[key] = value - counters_before.get(key, 0)
    return wall, result


def _measure(
    workload: Workload, tracer: Tracer, seconds: float, min_units: int, first_id: int
):
    """Units until ``seconds`` have passed (at least ``min_units``)."""
    walls: List[float] = []
    results: List[UnitResult] = []
    began = time.perf_counter()
    while len(walls) < min_units or time.perf_counter() - began < seconds:
        wall, result = _timed_unit(workload, tracer, first_id + len(walls))
        walls.append(wall)
        results.append(result)
    return walls, results


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
) -> Dict[str, Any]:
    """One benchmark run; returns the contract result plus details."""
    cls = WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    tracer = Tracer()
    workload: Optional[Workload] = None
    try:
        # Set-up, repeated so ``setup_s`` is a median: inputs from the
        # seed, files, sessions, servers, and one warm-up (caches fill,
        # lazy imports finish).  References and the oracle check are
        # computed once, before anything is timed as a unit.
        workload = cls(seed, workdir, tracer)
        setup_times: List[float] = []
        failed = attempted = 0
        verify_s = 0.0
        for rep in range(1 if (quick or trace) else SETUP_REPS):
            workload.close()
            start = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - start
            if rep == 0:
                start = time.perf_counter()
                workload.verify()
                verify_s = time.perf_counter() - start
            start = time.perf_counter()
            warm = workload.warm_up()
            setup_times.append(elapsed + time.perf_counter() - start)
            failed += warm.failed
            attempted += max(1, len(warm.op_ms))
        failed += _golden_mismatches(workload)

        min_units = 1 if quick else MIN_UNITS
        budget = 0.0 if quick else float(seconds)
        if trace:
            check_self_time_arithmetic()
            # Traced units first: a young process runs its first units
            # faster (small heap, cheap collections), and the overhead
            # comparison should not mistake that for the wrappers' cost.
            tracer.install(layers.WRAP_TABLE)
            try:
                walls, results = _measure(
                    workload, tracer, budget * 2.0 / 3.0, min(2, min_units),
                    TRACED_UNIT_BASE,
                )
            finally:
                tracer.uninstall()
            plain_walls, plain_results = _measure(
                workload, tracer, budget / 3.0, min(2, min_units), 0
            )
            all_results = plain_results + results
        else:
            walls, results = _measure(workload, tracer, budget, min_units, 0)
            plain_walls, all_results = walls, results

        op_ms: List[float] = []
        for wall, result in zip(walls, results):
            op_ms.extend(result.op_ms or [wall * 1e3])
        for result in all_results:
            attempted += max(1, len(result.op_ms))
            failed += result.failed

        detail: Dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "mode": "quick" if quick else "full",
            "trace": int(trace),
            "units": len(walls),
            "op_samples": len(op_ms),
            "tail_percentile": workload.tail_percentile,
            "oracle_mismatch_nets": workload.oracle_mismatch_nets,
            "verify_s": verify_s,
            "failed_ops": failed,
            "ops": attempted,
            "golden": workload.golden,
        }
        if trace:
            metrics = _layer_metrics(workload, tracer, plain_walls, walls, results, detail)
            _write_trace(tracer, name)
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(walls),
                "sim_s": statistics.median(r.sim_s for r in results),
                "latency_p50_ms": percentile(op_ms, 50.0),
                "latency_tail_ms": percentile(op_ms, workload.tail_percentile),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        correct = failed == 0 and workload.oracle_mismatch_nets == 0
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "detail": detail,
        }
    finally:
        tracer.uninstall()
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_metrics(
    workload: Workload,
    tracer: Tracer,
    plain_walls: Sequence[float],
    walls: Sequence[float],
    results: Sequence[UnitResult],
    detail: Dict[str, Any],
) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced units."""
    tables = []
    for offset, result in enumerate(results):
        rows, inclusive, total, span_count = layers.fold_unit(
            tracer, TRACED_UNIT_BASE + offset, workload.table_root, result.extra_rows
        )
        inclusive.update(result.extra_inclusive)
        tables.append((rows, inclusive, total, span_count))

    def median_of(pick) -> float:
        return statistics.median(pick(table) for table in tables)

    metrics: Dict[str, float] = {}
    for name in layers.SECONDS_ROWS:
        metrics[name] = median_of(lambda t: t[0].get(name, 0.0))
    for name in layers.SECONDS_INCLUSIVE:
        metrics[name] = median_of(lambda t: t[1].get(name, 0.0))
    # Counts repeat exactly from unit to unit; report the last unit's.
    for name in layers.COUNTS:
        metrics[name] = float(results[-1].counts.get(name, 0))
    metrics["trace.overhead_frac"] = (
        statistics.median(walls) / statistics.median(plain_walls) - 1.0
    )
    metrics["trace.coverage_frac"] = median_of(lambda t: layers.coverage(t[0], t[2]))
    metrics["trace.missing"] = float(len(tracer.missing))
    metrics["trace.spans"] = median_of(lambda t: float(t[3]))
    last_rows, _, last_total, _ = tables[-1]
    detail["layer_table"] = layers.format_table(
        last_rows, last_total, f"{workload.name}, last traced unit"
    )
    detail["trace_missing"] = list(tracer.missing)
    detail["traced_units"] = len(walls)
    detail["untraced_units"] = len(plain_walls)
    return metrics


def _write_trace(tracer: Tracer, workload: str) -> None:
    """Spans of the traced units, written once the run is over."""
    path = os.path.join(OUT_DIR, f"trace.{workload}.json")
    scratch = f"{path}.{os.getpid()}.tmp"
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(tracer.export(TRACED_UNIT_BASE), handle)
    os.replace(scratch, path)
