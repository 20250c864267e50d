"""Simulation configuration ("hyperparameters") for the GATSPI engine.

The paper tunes three GPU launch parameters — cycle parallelism,
threads/block, and registers/thread — and fixes the simulation constraint
``PATHPULSEPERCENT=100``.  The same knobs are exposed here; the two launch
parameters do not change functional results (they only feed the GPU
performance model), while cycle parallelism controls how the testbench is
split into independent windows.

No field sizes the waveform pool: it grows on demand
(:mod:`repro.core.memory`), ``stream_chunk_cycles`` bounds a streamed run's
memory, and GPU memory sizes belong to the performance model
(:mod:`repro.gpu.devices`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .xp import available_array_backends, default_device


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one GATSPI simulation run.

    No field sets the settle margin of a cycle-parallel window: the
    engine derives it from the annotated delays (the critical-path
    estimate, :attr:`GatspiEngine.window_overlap`), so no calibration
    run is needed.  Clocked runs likewise infer their clock and reset
    nets from the design's registers.

    Parameters
    ----------
    cycle_parallelism:
        Number of independent stimulus windows simulated "in parallel"
        (paper default 32 — one window per thread in a warp).
    threads_per_block, registers_per_thread:
        CUDA launch configuration; functionally inert, consumed by the GPU
        performance model (paper default ``{32, 512, 64}``).
    pathpulse_percent:
        Minimum output pulse width as a percentage of the gate delay
        (``100`` = classic inertial rejection, the paper's constraint).
    enable_net_delay_filtering:
        When false, interconnect inertial filtering (Algorithm 1 lines 11-12)
        is skipped — the paper's "No Net Delay" ablation in Table 7.
    full_sdf:
        When false, conditional SDF delays collapse to per-pin averages — the
        paper's "No Full SDF" ablation in Table 7.
    device:
        Which array backend (:mod:`repro.core.xp`) executes the data plane:
        ``"numpy"`` (always available, bit-identical reference), ``"torch"``
        or ``"cupy"`` when installed.  Defaults to the ``REPRO_DEVICE``
        environment variable, falling back to ``"numpy"``.  (The
        per-object reference engine, backend ``"gatspi-oracle"``, pins
        itself to numpy whatever this field says.)
    analysis:
        Design-rule analysis mode applied at ``prepare()`` time
        (:mod:`repro.analysis`).  ``"warn"`` (default) evaluates every
        rule, attaches the report to the session
        (:attr:`~repro.api.session.Session.analysis_report`), and emits a
        Python warning when error-severity findings exist; ``"strict"``
        raises :class:`~repro.analysis.DesignAnalysisError` before any
        compilation happens; ``"off"`` skips analysis entirely.  Reports
        are cached process-wide by content fingerprint, so repeated
        prepares of one design analyze it once.
    """

    cycle_parallelism: int = 32
    threads_per_block: int = 512
    registers_per_thread: int = 64
    pathpulse_percent: float = 100.0
    enable_net_delay_filtering: bool = True
    full_sdf: bool = True
    device: str = field(default_factory=default_device)
    analysis: str = "warn"
    store_waveforms: bool = True
    clock_period: int = 1000
    #: Cycles simulated per streaming chunk by :meth:`Session.run_stream`.
    #: Each chunk is split into ``cycle_parallelism`` windows, simulated,
    #: read back, and its pool columns recycled before the next chunk is
    #: lowered — so peak memory is O(chunk), not O(run).  ``None`` (default)
    #: uses ``32 * cycle_parallelism`` cycles per chunk.  Ignored by the
    #: whole-run ``Session.run`` path.
    stream_chunk_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cycle_parallelism < 1:
            raise ValueError("cycle_parallelism must be at least 1")
        if self.threads_per_block < 1:
            raise ValueError("threads_per_block must be at least 1")
        if not 0.0 <= self.pathpulse_percent <= 100.0:
            raise ValueError("pathpulse_percent must be within [0, 100]")
        if self.clock_period <= 0:
            raise ValueError("clock_period must be positive")
        if self.stream_chunk_cycles is not None and self.stream_chunk_cycles < 1:
            raise ValueError("stream_chunk_cycles must be at least 1")
        if self.analysis not in ("strict", "warn", "off"):
            raise ValueError(
                f"analysis must be 'strict', 'warn' or 'off', got "
                f"{self.analysis!r}"
            )
        if self.device not in available_array_backends():
            raise ValueError(
                f"device must name a registered array backend "
                f"({', '.join(available_array_backends())}), got "
                f"{self.device!r}; torch/cupy are only available when the "
                f"package is installed, and an unset device defaults to the "
                f"REPRO_DEVICE environment variable"
            )

    @property
    def pathpulse_fraction(self) -> float:
        """Minimum pulse width as a fraction of the gate delay."""
        return self.pathpulse_percent / 100.0

    def with_updates(self, **kwargs) -> "SimConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


#: The configuration used throughout the paper's single-GPU experiments.
#: Pinned to the numpy device so importing the package never depends on the
#: REPRO_DEVICE environment variable being valid — a bad env value surfaces
#: at first use-time ``SimConfig()`` construction, not at import.
PAPER_DEFAULT_CONFIG = SimConfig(device="numpy")
