"""``repro.serve``: the concurrent simulation serving front end.

A :class:`SimulationService` accepts many concurrent re-simulation
requests through a bounded queue, micro-batches requests that share a
compiled-design fingerprint onto one prepared session, coalesces
identical in-flight requests onto one engine run, and executes them
on a worker pool — any registered backend spec, including
``"gatspi:workers=process:4"`` (window groups on spawned workers)::

    from repro.serve import ServeRequest, SimulationService

    with SimulationService(max_workers=4) as service:
        future = service.submit(ServeRequest(
            netlist=netlist, stimulus=stimulus,
            backend="gatspi:workers=process:4",
            annotation=annotation, cycles=100,
        ))
        response = future.result()       # -> ServeResponse
        print(response.result.total_toggles(), response.run_seconds)

For out-of-process clients, :class:`SimulationServer` fronts a service
with a length-prefixed socket protocol (:mod:`repro.serve.wire`) and
:class:`WireClient` speaks it — ``python -m repro.serve`` stands a
server up from the command line.
"""

from .server import SimulationServer
from .service import (
    DesignRejectedError,
    QuotaExceededError,
    ServeRequest,
    ServeResponse,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    SimulationService,
    UnknownBaseDesignError,
    session_key,
    stimulus_fingerprint,
)
from .wire import WireClient, WireError

__all__ = [
    "DesignRejectedError",
    "QuotaExceededError",
    "ServeRequest",
    "ServeResponse",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "SimulationServer",
    "SimulationService",
    "UnknownBaseDesignError",
    "WireClient",
    "WireError",
    "session_key",
    "stimulus_fingerprint",
]
