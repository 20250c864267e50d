"""Microbenchmark: incremental rerun vs full re-simulation for ECO loops.

Models the interactive glitch-ECO loop on the Table-2 ``Industry Design
B`` / ``functional 2`` workload: a designer probes small edit batches (a
single-gate delay tweak, then a 10-gate batch) and wants the re-simulated
waveforms back.  The full path pays a cold ``prepare()`` (levelize, pack,
compile) plus a whole-design run for every probe; ``Session.rerun(edits)``
re-executes only the edits' cone of influence and stitches the rest from
the retained baseline.  The full run writes ``BENCH_incremental.json`` at
the repository root with wall times, speedups, and dirty-set statistics.

Accuracy gates the speedup claim: each batch first asserts the rerun is
**bit-identical** to the cold full run of the edited design, then the
single-gate speedup must beat :data:`FULL_SPEEDUP_FLOOR`.

Set ``REPRO_BENCH_INCREMENTAL_SMOKE=1`` to shorten the testbench and only
sanity-check the ordering (the CI smoke configuration); a smoke run writes
nothing, so its numbers never replace a full-mode record.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.api import resolve_backend  # noqa: E402
from repro.bench.runner import prepare_case  # noqa: E402
from repro.bench.suites import case_by_name  # noqa: E402
from repro.core import SimConfig, clear_compile_cache  # noqa: E402
from repro.core.edits import SetPinDelay  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_incremental.json"

#: Required advantage of ``Session.rerun`` over a cold prepare+run for a
#: single-gate ECO on Design B (ISSUE 7's headline number).  The smoke
#: configuration only checks incremental is not slower — a 50-cycle run
#: on a noisy shared CI runner is too small to gate on a real floor.
FULL_SPEEDUP_FLOOR = 5.0
SMOKE_SPEEDUP_FLOOR = 1.0

def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_INCREMENTAL_SMOKE", "0") == "1"


def _case():
    case = case_by_name("Industry Design B", "functional 2")
    if _smoke():
        case = replace(case, cycles=min(case.cycles, 50))
    return case


def _sink_gate_edit(netlist):
    """One delay edit on a deepest-level gate — the canonical glitch fix:
    path-balancing buffers land at a specific gate input near the path
    endpoint, so the forward cone is tiny."""
    from repro.netlist import levelize

    lev = levelize(netlist)
    for level in reversed(lev.levels):
        for name in level:
            inst = netlist.instances[name]
            if inst.cell.num_inputs >= 2:
                return [
                    SetPinDelay(
                        gate=inst.name, pin=inst.cell.inputs[-1],
                        rise=17.0, fall=13.0,
                    )
                ]
    raise AssertionError("design has no multi-input combinational gate")


def _spread_batch(netlist, size: int):
    """``size`` single-pin delay edits on gates spread across the design
    (a worst-ish case: the union of forward cones is large)."""
    gates = [
        inst for inst in netlist.combinational_instances()
        if inst.cell.num_inputs >= 2
    ]
    stride = max(1, len(gates) // (size + 1))
    batch = []
    for k in range(size):
        inst = gates[(k + 1) * stride % len(gates)]
        batch.append(
            SetPinDelay(
                gate=inst.name, pin=inst.cell.inputs[-1],
                rise=17.0 + k, fall=13.0 + k,
            )
        )
    return batch


def _assert_bit_identical(reference, candidate, context: str) -> None:
    assert reference.toggle_counts == candidate.toggle_counts, (
        f"{context}: toggle counts diverge on "
        f"{reference.differing_nets(candidate)}"
    )
    assert set(reference.waveforms) == set(candidate.waveforms), context
    for net in reference.waveforms:
        assert reference.waveforms[net] == candidate.waveforms[net], (
            f"{context}: waveform diverges on net {net!r}"
        )


def _measure_full(case, netlist, annotation, edits, stimulus, config):
    """Cold full turnaround: edited design, fresh compile, whole run."""
    work_netlist = copy.deepcopy(netlist)
    work_annotation = copy.deepcopy(annotation)
    for edit in edits:
        edit.apply(work_netlist, work_annotation)
    clear_compile_cache()
    backend, options = resolve_backend("gatspi")
    start = time.perf_counter()
    session = backend.prepare(
        work_netlist, annotation=work_annotation, config=config, **options
    )
    result = session.run(stimulus, cycles=case.cycles)
    return result, time.perf_counter() - start


def test_incremental_speedup_and_report():
    case = _case()
    netlist, annotation, stimulus = prepare_case(case)
    config = SimConfig(clock_period=case.clock_period)
    gate_count = len(list(netlist.combinational_instances()))

    backend, options = resolve_backend("gatspi")
    session = backend.prepare(
        netlist, annotation=annotation, config=config, **options
    )
    session.run(stimulus, cycles=case.cycles)  # retained baseline

    batches = (
        ("single-gate", _sink_gate_edit(netlist)),
        ("single-gate-mid-cone", _spread_batch(netlist, 1)),
        ("10-gate", _spread_batch(netlist, 10)),
    )
    rows = []
    speedups = {}
    for label, edits in batches:
        full_result, full_seconds = _measure_full(
            case, netlist, annotation, edits, stimulus, config
        )

        start = time.perf_counter()
        result = session.rerun(edits, stimulus=stimulus, cycles=case.cycles)
        incremental_seconds = time.perf_counter() - start
        # Accuracy first: the stitched partial run must reproduce the
        # cold full run of the edited design bit-for-bit.
        _assert_bit_identical(full_result, result, label)
        assert result.stats.incremental, (
            f"{label}: rerun fell back to a full re-simulation"
        )
        # Restore the base design for the next probe (untimed: the ECO
        # loop's cost per probe is the evaluation, not the bookkeeping).
        session.apply_edits(session.last_edit_receipt.undo_edits)

        speedup = full_seconds / incremental_seconds
        speedups[label] = speedup
        rows.append(
            {
                "batch": label,
                "edits": len(edits),
                "full_seconds": full_seconds,
                "incremental_seconds": incremental_seconds,
                "speedup": speedup,
                "dirty_gates": result.stats.dirty_gates,
                "dirty_fraction": result.stats.dirty_fraction,
            }
        )

    report = {
        "workload": (
            "table2:design_b/functional2"
        ),
        "design": case.name,
        "testbench": case.testbench,
        "cycles": case.cycles,
        "gate_count": gate_count,
        "single_gate_speedup": speedups["single-gate"],
        "batches": rows,
    }
    if not _smoke():
        RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    target = "not written (smoke)" if _smoke() else RESULT_PATH
    for row in rows:
        print(
            f"\nBENCH_incremental: {row['batch']} ECO full "
            f"{row['full_seconds']:.3f}s, rerun "
            f"{row['incremental_seconds']:.3f}s ({row['speedup']:.1f}x, "
            f"dirty {row['dirty_fraction']:.1%}) -> {target}"
        )

    floor = SMOKE_SPEEDUP_FLOOR if _smoke() else FULL_SPEEDUP_FLOOR
    single = speedups["single-gate"]
    assert single >= floor, (
        f"single-gate ECO speedup {single:.2f}x below the {floor}x floor"
    )


if __name__ == "__main__":
    test_incremental_speedup_and_report()
