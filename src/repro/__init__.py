"""repro: a from-scratch reproduction of GATSPI (DAC 2022).

GATSPI is a GPU-accelerated, delay-aware, glitch-enabled gate-level
re-simulator for power estimation.  This package re-implements the complete
system in pure Python: the array waveform format, truth-table and conditional
delay-table lookups, the per-gate/per-window simulation kernel, the levelized
count → allocate → store engine with a device-memory pool model, SDF and
structural-Verilog front ends, SAIF/VCD back ends, an event-driven reference
simulator standing in for the commercial baseline, one batched zero-delay
evaluator (the ``zero-delay`` backend and the clocked driver's capture
settle), analytic GPU performance models, and the glitch-power optimization
flow.

All simulation engines are served through one unified entry point, the
:mod:`repro.api` backend registry::

    from repro.api import get_backend

    session = get_backend("gatspi").prepare(netlist, annotation, config)
    result = session.run(stimulus, cycles=100)

Backends ``"gatspi"`` (``"gatspi:workers=process:N"`` runs its window groups
on spawned workers), ``"gatspi-oracle"``, ``"event"`` and ``"zero-delay"``
ship built in; the benchmark harness
(:mod:`repro.bench`), the glitch-optimization flow (:mod:`repro.opt`) and the
serving front end (:mod:`repro.serve`) all accept backend names, never
concrete classes.
"""

__version__ = "0.1.0"

from .cells import DEFAULT_LIBRARY, Cell, CellLibrary
from .core import (
    GatspiEngine,
    SimConfig,
    SimulationResult,
    StimulusError,
    Waveform,
)
from .netlist import Netlist, NetlistBuilder, parse_verilog, read_verilog
from .sdf import (
    DelayAnnotation,
    SyntheticDelayModel,
    annotation_from_sdf,
    parse_sdf,
    read_sdf,
)
from .api import (
    BackendCapabilities,
    Session,
    SimBackend,
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "__version__",
    "DEFAULT_LIBRARY",
    "Cell",
    "CellLibrary",
    "GatspiEngine",
    "SimConfig",
    "SimulationResult",
    "StimulusError",
    "Waveform",
    "Netlist",
    "NetlistBuilder",
    "parse_verilog",
    "read_verilog",
    "DelayAnnotation",
    "SyntheticDelayModel",
    "annotation_from_sdf",
    "parse_sdf",
    "read_sdf",
    "BackendCapabilities",
    "Session",
    "SimBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]
