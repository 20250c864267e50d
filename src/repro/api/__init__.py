"""``repro.api``: the unified backend registry and session layer.

Every simulation engine in the repository is reachable through one
three-step flow, regardless of how it is implemented::

    from repro.api import get_backend

    backend = get_backend("gatspi")              # or "event", "zero-delay",
    session = backend.prepare(netlist,           # "gatspi-oracle"
                              annotation=annotation, config=config)
    result = session.run(stimulus, cycles=100)   # -> SimulationResult
    results = session.run_many([RunSpec(stimulus, cycles=100), ...])

``prepare`` does all per-design compilation once; ``run`` may be called any
number of times with different stimuli (compile-once/simulate-many), and
``run_many`` takes a batch at once — on ``gatspi`` the requests become the
columns of one level loop, with results identical to one ``run`` each.
``prepare(..., workers="process:N")`` (spec ``"gatspi:workers=process:N"``)
splits that window list into groups run on spawned workers, and returns
the same results bit for bit at any worker count.  The
benchmark harness, the glitch-optimization flow and the serving front end
all dispatch through this registry, so swapping the engine under any of
them is a string change.

Register new engines with::

    @register_backend("my-backend")
    class MyBackend(SimBackend):
        ...
"""

from .backend import BackendCapabilities, SimBackend
from .registry import (
    BackendRegistryError,
    DuplicateBackendError,
    UnknownBackendError,
    available_backends,
    get_backend,
    parse_backend_spec,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from .session import RunSpec, Session

# Importing the adapters registers the four built-in backends.
from . import adapters  # noqa: E402,F401
from .adapters import (
    EventBackend,
    EventSession,
    GatspiBackend,
    GatspiSession,
    ZeroDelayBackend,
    ZeroDelaySession,
)

__all__ = [
    "BackendCapabilities",
    "SimBackend",
    "RunSpec",
    "Session",
    "BackendRegistryError",
    "DuplicateBackendError",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "parse_backend_spec",
    "register_backend",
    "resolve_backend",
    "unregister_backend",
    "EventBackend",
    "EventSession",
    "GatspiBackend",
    "GatspiSession",
    "ZeroDelayBackend",
    "ZeroDelaySession",
]
