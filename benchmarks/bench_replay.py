"""Benchmark: streaming replay at scale — out-of-core window pipeline.

The streaming claim has two halves and this bench gates both:

* **cycles/sec flat in run length** — the chunk pipeline re-does no work
  as the horizon grows, so throughput at a million cycles must stay
  within :data:`THROUGHPUT_RATIO_FLOOR` of the 10k-cycle run;
* **memory flat in cycles** — nothing proportional to the whole run is
  retained (stimulus streams in, one recycled pool executes, activity
  accumulates online), so peak RSS at a million cycles must stay within
  :data:`RSS_RATIO_CEILING` of the 10k-cycle run.

Accuracy gates the speed claim: before any measurement, a streamed run
is asserted **bit-identical** (toggle counts and SAIF bytes) to a
whole-run ``run`` + ``saif_from_result`` of the same stimulus.

Each sweep point runs in its own subprocess so ``ru_maxrss`` — a
high-water mark, unresettable within a process — measures that point
alone.  The stimulus is a closed-form periodic toggle source (every
input toggles at its own co-prime-ish period), generated span by span in
O(chunk): an in-memory waveform mapping would itself be O(run) and
defeat the measurement.  The full run writes ``BENCH_replay.json`` at the
repository root.

Set ``REPRO_BENCH_REPLAY_SMOKE=1`` to shrink the sweep and only
sanity-check the ratios (the CI smoke configuration — shared runners are
too noisy to gate real floors); a smoke run writes nothing, so its numbers
never replace a full-mode record.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Sequence, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.api import get_backend  # noqa: E402
from repro.core import SimConfig, Waveform  # noqa: E402
from repro.core.restructure import (  # noqa: E402
    SourceEvents,
    StreamingSourceEvents,
)
from repro.core.xp import HOST  # noqa: E402
from repro.testing import build_random_netlist  # noqa: E402
from repro.waveforms.saif import saif_from_result  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_replay.json"

#: Throughput at the largest sweep point must stay within this factor of
#: the smallest — the "cycles/sec flat in run length" claim.
THROUGHPUT_RATIO_FLOOR = 0.8
#: Peak RSS at the largest sweep point must stay within this factor of
#: the smallest — the "memory flat in cycles" claim.
RSS_RATIO_CEILING = 1.25
#: Smoke bounds: tiny runs on shared CI runners only sanity-check that
#: the machinery holds together, not the real floors.
SMOKE_THROUGHPUT_RATIO_FLOOR = 0.05
SMOKE_RSS_RATIO_CEILING = 3.0

#: One fixed workload for every point: the sweep varies run length only.
SEED = 1
NUM_INPUTS = 6
NUM_GATES = 40
CLOCK_PERIOD = 100
CYCLE_PARALLELISM = 64
CHUNK_CYCLES = 256


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_REPLAY_SMOKE", "0") == "1"


def _sweep() -> Sequence[int]:
    if _smoke():
        return (512, 4_096)
    return (10_000, 100_000, 1_000_000)


def _bit_identity_cycles() -> int:
    return 256 if _smoke() else 2_000


class PeriodicSource(StreamingSourceEvents):
    """Closed-form streaming stimulus: net ``i`` toggles at ``k * p_i``.

    ``span_events`` is computed from the periods alone — O(span) work and
    memory for any run length, which is exactly the property the RSS half
    of the bench needs from its stimulus.
    """

    def __init__(self, nets: Sequence[str], periods: Sequence[int]) -> None:
        self._nets = tuple(nets)
        self._periods = list(periods)

    @property
    def nets(self) -> Tuple[str, ...]:
        return self._nets

    def span_events(
        self, start: int, end: int, retire_before: int = 0
    ) -> SourceEvents:
        hnp = HOST
        N = len(self._nets)
        initial = hnp.zeros(N, dtype=hnp.int64)
        offsets = hnp.zeros(N + 1, dtype=hnp.int64)
        chunks = []
        for i, p in enumerate(self._periods):
            k_lo = start // p + 1
            k_hi = (end - 1) // p
            toggles = hnp.arange(k_lo, k_hi + 1, dtype=hnp.int64) * p
            initial[i] = (start // p) & 1
            chunks.append(toggles)
            offsets[i + 1] = offsets[i] + toggles.size
        times = (
            hnp.concatenate(chunks)
            if int(offsets[-1])
            else hnp.zeros(0, dtype=hnp.int64)
        )
        return SourceEvents(
            nets=self._nets,
            times=times,
            offsets=offsets,
            initial_values=initial,
        )

    def materialize(self, duration: int) -> Dict[str, Waveform]:
        """The same stimulus as in-memory waveforms (bit-identity oracle)."""
        out = {}
        for net, p in zip(self._nets, self._periods):
            out[net] = Waveform.from_initial_and_toggles(
                0, list(range(p, duration, p))
            )
        return out


def _workload():
    netlist = build_random_netlist(
        num_inputs=NUM_INPUTS, num_gates=NUM_GATES, seed=SEED
    )
    config = SimConfig(
        cycle_parallelism=CYCLE_PARALLELISM,
        clock_period=CLOCK_PERIOD,
        stream_chunk_cycles=CHUNK_CYCLES,
    )
    nets = sorted(netlist.source_nets())
    source = PeriodicSource(nets, [191 + 37 * i for i in range(len(nets))])
    return netlist, config, source


def _measure(cycles: int) -> Dict[str, object]:
    """One sweep point, meant to run in a fresh subprocess."""
    netlist, config, source = _workload()
    session = get_backend("gatspi").prepare(netlist, config=config)
    start = time.perf_counter()
    result = session.run_stream(source, cycles=cycles)
    seconds = time.perf_counter() - start
    return {
        "cycles": cycles,
        "seconds": seconds,
        "cycles_per_second": cycles / seconds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "chunks": result.stats.chunks,
        "windows": result.stats.windows,
        "pool_words_used": result.stats.pool_words_used,
        "total_toggles": result.total_toggles(),
    }


def _measure_in_subprocess(cycles: int) -> Dict[str, object]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure", str(cycles)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_streaming_replay_scaling_and_report():
    netlist, config, source = _workload()

    # Accuracy first: streamed toggle counts and SAIF must be
    # bit-identical to the whole-run path before speed means anything.
    cycles = _bit_identity_cycles()
    duration = cycles * CLOCK_PERIOD
    session = get_backend("gatspi").prepare(netlist, config=config)
    reference = session.run(source.materialize(duration), cycles=cycles)
    streamed = session.run_stream(
        source, cycles=cycles, chunk_cycles=max(1, cycles // 4)
    )
    assert streamed.toggle_counts == dict(reference.toggle_counts), (
        "streamed toggle counts diverge from the whole-run oracle"
    )
    assert streamed.saif() == saif_from_result(reference), (
        "streamed SAIF diverges from the whole-run oracle"
    )
    assert streamed.stats.chunks > 1

    rows = [_measure_in_subprocess(c) for c in _sweep()]

    first, last = rows[0], rows[-1]
    throughput_ratio = (
        last["cycles_per_second"] / first["cycles_per_second"]
    )
    rss_ratio = last["peak_rss_kb"] / first["peak_rss_kb"]
    report = {
        "workload": (
            f"random netlist ({NUM_GATES} gates, {NUM_INPUTS} inputs, "
            f"seed {SEED}), periodic stimulus, chunk={CHUNK_CYCLES} cycles"
        ),
        "bit_identity_cycles": cycles,
        "sweep": rows,
        "throughput_ratio_last_vs_first": throughput_ratio,
        "peak_rss_ratio_last_vs_first": rss_ratio,
        "throughput_ratio_floor": (
            SMOKE_THROUGHPUT_RATIO_FLOOR if _smoke() else THROUGHPUT_RATIO_FLOOR
        ),
        "peak_rss_ratio_ceiling": (
            SMOKE_RSS_RATIO_CEILING if _smoke() else RSS_RATIO_CEILING
        ),
    }
    if not _smoke():
        RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    target = "not written (smoke)" if _smoke() else RESULT_PATH
    for row in rows:
        print(
            f"\nBENCH_replay: {row['cycles']:>9,} cycles in "
            f"{row['seconds']:.2f}s ({row['cycles_per_second']:,.0f} cyc/s, "
            f"peak RSS {row['peak_rss_kb'] / 1024:.0f} MB, "
            f"{row['chunks']} chunks) -> {target}"
        )
    print(
        f"BENCH_replay: throughput ratio {throughput_ratio:.2f} "
        f"(floor {report['throughput_ratio_floor']}), RSS ratio "
        f"{rss_ratio:.2f} (ceiling {report['peak_rss_ratio_ceiling']})"
    )

    assert throughput_ratio >= report["throughput_ratio_floor"], (
        f"cycles/sec fell to {throughput_ratio:.2f}x from "
        f"{first['cycles']} to {last['cycles']} cycles"
    )
    assert rss_ratio <= report["peak_rss_ratio_ceiling"], (
        f"peak RSS grew {rss_ratio:.2f}x from "
        f"{first['cycles']} to {last['cycles']} cycles"
    )


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--measure":
        print(json.dumps(_measure(int(sys.argv[2]))))
    else:
        test_streaming_replay_scaling_and_report()
