"""Benchmark: clocked sequential throughput on the Yosys LFSR fixture.

The clocked driver (:meth:`Session.run_cycles`) derives each block's
register captures from a zero-delay settle first, so the frames of a
block of ``cycle_parallelism`` cycles are independent and run as the
columns of one batch.  The claim this bench gates is that the sequential
machinery (plan validation, PI/Q window assembly, settle and capture,
event ledger, stitch) keeps clocked throughput within a bounded factor
of dispatching the same frames one ``run()`` at a time:

* **cycles/sec** on the imported 8-bit LFSR fixture is measured and
  reported;
* the clocked loop must stay within :data:`FRAME_THROUGHPUT_FLOOR` of
  the *combinational per-frame baseline* — the same session running the
  same per-frame workload (one representative frame's waveforms, clock
  and register outputs supplied as stimulus) through plain ``run()``
  once per cycle.

Accuracy gates the speed claim: before any timing, the gatspi clocked
run is asserted bit-identical (final register state and per-net toggle
counts) to the ``event``-driven oracle.

Each timed leg runs in its own subprocess so interpreter warm-up and
allocator state measure that leg alone.  The full run writes
``BENCH_sequential.json`` at the repository root.

Set ``REPRO_BENCH_SEQUENTIAL_SMOKE=1`` to shrink the run and only
sanity-check the machinery (the CI smoke configuration — shared runners
are too noisy to gate real floors); a smoke run writes nothing, so its
numbers never replace a full-mode record.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.api import get_backend  # noqa: E402
from repro.core import SimConfig  # noqa: E402
from repro.netlist import load_fixture  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sequential.json"

#: Clocked cycles/sec must stay within this factor of the combinational
#: per-frame dispatch baseline on the same design.
FRAME_THROUGHPUT_FLOOR = 0.8
#: Smoke floor: tiny runs on shared CI runners only prove the machinery.
SMOKE_FRAME_THROUGHPUT_FLOOR = 0.05

FIXTURE = "lfsr"
CLOCK_PERIOD = 1000
#: Frame whose waveforms seed the combinational baseline stimulus (late
#: enough that the LFSR has left its low-activity power-on neighborhood).
TEMPLATE_FRAME = 5


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SEQUENTIAL_SMOKE", "0") == "1"

def _cycles() -> int:
    return 64 if _smoke() else 1_500


def _bit_identity_cycles() -> int:
    return 32 if _smoke() else 200


def _session():
    netlist = load_fixture(FIXTURE)
    config = SimConfig(clock_period=CLOCK_PERIOD, store_waveforms=True)
    return netlist, get_backend("gatspi").prepare(netlist, config=config)


def _frame_stimulus(netlist, session):
    """One representative frame of the clocked run, as plain stimulus.

    Clock and register-output waveforms ride along with the primary
    inputs, exactly as the clocked driver supplies them to each frame —
    so a ``run(frame, duration=P)`` call does the same combinational
    work as one clocked cycle, minus the sequential machinery.
    """
    warm = session.run_cycles({}, TEMPLATE_FRAME + 2)
    start = TEMPLATE_FRAME * CLOCK_PERIOD
    frame = {}
    for net in list(netlist.inputs) + [
        inst.output_net() for inst in netlist.sequential_instances()
    ]:
        frame[net] = warm.waveforms[net].window(
            start, start + CLOCK_PERIOD, rebase=True
        )
    return frame


def _measure_clocked(cycles: int) -> Dict[str, object]:
    netlist, session = _session()
    session.run_cycles({}, 8)  # warm the compile/plan caches
    start = time.perf_counter()
    result = session.run_cycles({}, cycles)
    seconds = time.perf_counter() - start
    return {
        "mode": "clocked",
        "cycles": cycles,
        "seconds": seconds,
        "cycles_per_second": cycles / seconds,
        "total_toggles": sum(result.toggle_counts.values()),
    }


def _measure_baseline(cycles: int) -> Dict[str, object]:
    netlist, session = _session()
    frame = _frame_stimulus(netlist, session)
    session.run(frame, duration=CLOCK_PERIOD)  # warm
    start = time.perf_counter()
    for _ in range(cycles):
        session.run(frame, duration=CLOCK_PERIOD)
    seconds = time.perf_counter() - start
    return {
        "mode": "combinational-per-frame",
        "cycles": cycles,
        "seconds": seconds,
        "cycles_per_second": cycles / seconds,
    }


def _measure_in_subprocess(mode: str, cycles: int) -> Dict[str, object]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--measure",
            mode,
            str(cycles),
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_sequential_throughput_and_report():
    netlist, session = _session()

    # Accuracy first: the clocked gatspi run must be bit-identical to
    # the event-driven oracle before cycles/sec means anything.
    cycles = _bit_identity_cycles()
    oracle = get_backend("event").prepare(
        netlist, config=SimConfig(clock_period=CLOCK_PERIOD, store_waveforms=True)
    )
    gatspi_run = session.run_cycles({}, cycles)
    event_run = oracle.run_cycles({}, cycles)
    assert gatspi_run.register_state == event_run.register_state, (
        "clocked gatspi register state diverges from the event oracle"
    )
    assert dict(gatspi_run.toggle_counts) == dict(event_run.toggle_counts), (
        "clocked gatspi toggle counts diverge from the event oracle"
    )

    clocked = _measure_in_subprocess("clocked", _cycles())
    baseline = _measure_in_subprocess("baseline", _cycles())
    ratio = clocked["cycles_per_second"] / baseline["cycles_per_second"]
    floor = SMOKE_FRAME_THROUGHPUT_FLOOR if _smoke() else FRAME_THROUGHPUT_FLOOR

    report = {
        "workload": (
            f"Yosys '{FIXTURE}' fixture ({netlist.gate_count} gates, "
            f"{netlist.sequential_count} flops), period={CLOCK_PERIOD}"
        ),
        "bit_identity_cycles": cycles,
        "clocked": clocked,
        "combinational_baseline": baseline,
        "clocked_vs_baseline_ratio": ratio,
        "frame_throughput_floor": floor,
    }
    if not _smoke():
        RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    target = "not written (smoke)" if _smoke() else RESULT_PATH
    print(
        f"\nBENCH_sequential: {clocked['cycles']:,} cycles in "
        f"{clocked['seconds']:.2f}s ({clocked['cycles_per_second']:,.0f} "
        f"cyc/s clocked vs {baseline['cycles_per_second']:,.0f} cyc/s "
        f"baseline, ratio {ratio:.2f}, floor {floor}) -> {target}"
    )

    assert ratio >= floor, (
        f"clocked throughput fell to {ratio:.2f}x of the combinational "
        f"per-frame baseline (floor {floor})"
    )


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--measure":
        mode, cycles = sys.argv[2], int(sys.argv[3])
        if mode == "clocked":
            print(json.dumps(_measure_clocked(cycles)))
        else:
            print(json.dumps(_measure_baseline(cycles)))
    else:
        test_sequential_throughput_and_report()
