"""``repro.serve``: the concurrent simulation serving front end.

A :class:`SimulationService` admits many concurrent re-simulation
requests (bounded by ``queue_size``), and for each compiled-design
fingerprint hands one drain task to a worker pool: the drain runs every
pending request of that design as one batch on one prepared session,
coalescing identical requests onto one engine run — any registered
backend spec, including ``"gatspi:workers=process:4"`` (window groups on
spawned workers)::

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
