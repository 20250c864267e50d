"""Result containers for GATSPI and reference simulations."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional, Tuple

from .waveform import Waveform


@dataclass
class PhaseTimings:
    """Wall-clock time spent in each application phase, in seconds.

    Mirrors the phases the paper profiles in Table 5: host-to-device data
    transfer (here, building the device memory pool), stream-synchronize +
    kernel-launch overhead (here, per-level scheduling), and kernel execution.
    The restructuring of input waveforms into cycle-parallel windows and the
    result dump are reported separately as part of application runtime.
    """

    restructure: float = 0.0
    host_to_device: float = 0.0
    scheduling: float = 0.0
    kernel: float = 0.0
    readback: float = 0.0
    dump: float = 0.0

    @property
    def application(self) -> float:
        """Total application runtime (everything, the paper's "App. Runtime")."""
        return (
            self.restructure
            + self.host_to_device
            + self.scheduling
            + self.kernel
            + self.readback
            + self.dump
        )

    def add(self, other: "PhaseTimings") -> None:
        """Sum ``other`` into this: the serial-equivalent cost of parts."""
        for phase in fields(self):
            setattr(
                self, phase.name, getattr(self, phase.name) + getattr(other, phase.name)
            )

    def scaled(self, factor: float) -> "PhaseTimings":
        """Every phase times ``factor``: one request's share of a batch."""
        return PhaseTimings(
            **{phase.name: getattr(self, phase.name) * factor for phase in fields(self)}
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "restructure": self.restructure,
            "host_to_device": self.host_to_device,
            "scheduling": self.scheduling,
            "kernel": self.kernel,
            "readback": self.readback,
            "dump": self.dump,
            "application": self.application,
        }


@dataclass
class SimulationStats:
    """Workload statistics gathered during simulation.

    These feed both the activity-factor column of Table 2 and the GPU
    performance model (events per gate drive memory traffic estimates).
    """

    gate_count: int = 0
    levels: int = 0
    widest_level: int = 0
    windows: int = 0
    segments: int = 1
    cycles: int = 0
    input_events: int = 0
    output_transitions: int = 0
    kernel_invocations: int = 0
    pool_words_used: int = 0
    #: Which kernel executed Algorithm 1 ("vector" or "scalar").
    kernel_mode: str = ""
    #: Which pipeline ran restructure/load/readback ("vector" or "python").
    restructure_mode: str = ""
    #: Which array backend the data plane ran on ("numpy", "torch", "cupy").
    device: str = ""
    #: Kernel launches: one per level per segment, on either kernel.
    level_batches: int = 0
    #: Largest single batch, in (gate, window) tasks.
    max_batch_tasks: int = 0
    #: Window groups the run ran as: ``min(N, windows)`` on a whole run
    #: with ``workers=process:N``, the worker width on a streamed one, and
    #: 1 on every run that stays in this process.
    shards: int = 1
    #: Requests batched into the engine run that produced this result (1 =
    #: standalone; ``Session.run_many`` runs same-design requests as the
    #: columns of one level loop, and their workload stats/timings are
    #: split across the batch so the shares sum to its totals).
    fused_requests: int = 1
    #: Whether this result came from an incremental rerun (``Session.rerun``):
    #: only the cone of influence of an edit batch was re-simulated and the
    #: clean waveforms were stitched from the previous run.
    incremental: bool = False
    #: Gates inside the re-simulated dirty cone (0 for full runs).
    dirty_gates: int = 0
    #: ``dirty_gates`` over the design's total gate count.
    dirty_fraction: float = 0.0
    #: Whether this run executed through the out-of-core streaming driver
    #: (``Session.run_stream``): windows were simulated chunk by chunk with
    #: pool columns recycled between chunks and no full-run waveforms kept.
    streamed: bool = False
    #: Streaming chunks executed (0 for whole-run simulations).
    chunks: int = 0

    def mean_batch_tasks(self) -> float:
        """Average tasks per level-batched kernel launch."""
        if self.level_batches == 0:
            return 0.0
        return self.kernel_invocations / self.level_batches

    def activity_factor(self) -> float:
        """Average toggles per gate per cycle (the paper's activity factor)."""
        if self.gate_count == 0 or self.cycles == 0:
            return 0.0
        return self.output_transitions / (self.gate_count * self.cycles)


@dataclass
class StreamBatch:
    """One simulated chunk of a streaming run, as host arrays.

    Produced by the engine's streaming driver and consumed by the online
    activity accumulator; nothing in a batch outlives the chunk it came
    from, which is what keeps streaming runs at constant RSS.

    Gate-output readback is window-batched exactly like
    :class:`~repro.core.restructure.TrimmedReadback`, but flattened
    net-major across the whole chunk: ``establish_values``/``toggle_counts``
    are ``(N, B)`` over the chunk's ``B`` windows and net ``n``'s window
    ``b`` owns ``toggle_counts[n, b]`` entries of ``times`` (absolute time,
    ascending within a window, windows in chunk order).  Source nets are
    reported as one span per chunk, owning the half-open interval
    ``[chunk_start, chunk_end)``: ``source_establish`` is the value each
    source holds entering the chunk (after every toggle ``t <
    chunk_start``) and ``source_times`` holds the owned toggles (net ``i``
    owns ``source_counts[i]`` entries, net-major).
    """

    chunk_index: int
    chunk_start: int
    chunk_end: int
    nets: Tuple[str, ...]
    window_starts: "object"  # (B,) int64 absolute (unextended) window starts
    establish_values: "object"  # (N, B) int64 in {0, 1}
    toggle_counts: "object"  # (N, B) int64
    times: "object"  # flat int64 absolute toggle times, net-major
    source_nets: Tuple[str, ...]
    source_establish: "object"  # (S,) int64 value at chunk_start
    source_counts: "object"  # (S,) int64
    source_times: "object"  # flat int64 absolute toggle times

    @property
    def window_count(self) -> int:
        return int(len(self.window_starts))


@dataclass
class SimulationResult:
    """Output of one re-simulation run."""

    toggle_counts: Dict[str, int] = field(default_factory=dict)
    waveforms: Dict[str, Waveform] = field(default_factory=dict)
    duration: int = 0
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    stats: SimulationStats = field(default_factory=SimulationStats)
    #: Final register state of a clocked run (instance name -> 0/1), set by
    #: ``run_cycles``: the state committed by the capture edge that closes
    #: the last cycle.  ``None`` for ordinary combinational runs.
    register_state: Optional[Dict[str, int]] = None

    @property
    def kernel_runtime(self) -> float:
        """Re-simulation kernel runtime (the paper's "Re-sim. Kernel Runtime")."""
        return self.timings.kernel

    @property
    def application_runtime(self) -> float:
        return self.timings.application

    def total_toggles(self) -> int:
        return sum(self.toggle_counts.values())

    def toggle_count(self, net: str) -> int:
        return self.toggle_counts.get(net, 0)

    def waveform(self, net: str) -> Waveform:
        return self.waveforms[net]

    def activity_factor(self) -> float:
        return self.stats.activity_factor()

    def matches_toggle_counts(
        self, other: "SimulationResult", nets: Optional[Mapping[str, int]] = None
    ) -> bool:
        """Compare per-net toggle counts with another result (SAIF check)."""
        keys = set(self.toggle_counts) | set(other.toggle_counts)
        if nets is not None:
            keys &= set(nets)
        return all(
            self.toggle_counts.get(k, 0) == other.toggle_counts.get(k, 0)
            for k in keys
        )

    def differing_nets(self, other: "SimulationResult") -> Dict[str, tuple]:
        """Nets whose toggle counts differ, for debugging accuracy issues."""
        keys = set(self.toggle_counts) | set(other.toggle_counts)
        return {
            k: (self.toggle_counts.get(k, 0), other.toggle_counts.get(k, 0))
            for k in sorted(keys)
            if self.toggle_counts.get(k, 0) != other.toggle_counts.get(k, 0)
        }
