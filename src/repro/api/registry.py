"""String-keyed registry of simulation backends.

The registry is the seam between *flows* (benchmark harness, glitch
optimization, serving, user scripts) and *engines*: a flow
asks for a backend by name and receives an object implementing the
:class:`~repro.api.backend.SimBackend` protocol, never a concrete simulator
class.  New engines (cached, remote) plug in with
``@register_backend("my-name")`` without touching any flow code.

Backend *specs* extend plain names with prepare-time options so flow
configuration (benchmark CLIs, serve requests) can select engine variants
without code changes: ``"gatspi:device=torch"`` resolves to the ``gatspi``
backend with ``prepare(..., device="torch")``, and
``"gatspi:workers=process:2"`` runs its window groups on two spawned
workers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, Union

from .backend import SimBackend


class BackendRegistryError(Exception):
    """Base class for backend registry failures."""


class DuplicateBackendError(BackendRegistryError, ValueError):
    """Raised when a backend name is registered twice."""


class UnknownBackendError(BackendRegistryError, LookupError):
    """Raised when looking up a name no backend was registered under."""


_REGISTRY: Dict[str, SimBackend] = {}

#: Retired names and where they went (specs arrive from serve requests).
_RETIRED = {"gatspi-sharded": "use gatspi:workers=process:N"}


def register_backend(
    name: str,
    backend: Optional[Union[SimBackend, type]] = None,
) -> Union[SimBackend, Callable[[type], type]]:
    """Register a backend under ``name``.

    Three call styles are supported::

        @register_backend("gatspi")          # class decorator; the class is
        class GatspiBackend(SimBackend): ...  # instantiated with no arguments

        register_backend("event", EventBackend)    # a class
        register_backend("event", EventBackend())  # an instance

    Duplicate names are rejected with :class:`DuplicateBackendError` so two
    plugins cannot silently shadow each other.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")

    if backend is None:

        def decorator(cls: type) -> type:
            register_backend(name, cls)
            return cls

        return decorator

    if name in _REGISTRY:
        raise DuplicateBackendError(
            f"backend {name!r} is already registered "
            f"(by {type(_REGISTRY[name]).__name__})"
        )
    instance = backend() if isinstance(backend, type) else backend
    _REGISTRY[name] = instance
    return instance


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (used by tests and plugins)."""
    if name not in _REGISTRY:
        raise UnknownBackendError(
            f"unknown backend {name!r}; available backends: "
            f"{', '.join(available_backends()) or '(none)'}"
        )
    del _REGISTRY[name]


def get_backend(name: str) -> SimBackend:
    """Look up a backend by name.

    The error message of a failed lookup lists every registered backend,
    which makes typos in CLI/benchmark configuration self-explaining.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        retired = f" ({name} is retired: {_RETIRED[name]})" if name in _RETIRED else ""
        raise UnknownBackendError(
            f"unknown backend {name!r}{retired}; available backends: "
            f"{', '.join(available_backends()) or '(none)'}"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Names of all registered backends, sorted alphabetically."""
    return tuple(sorted(_REGISTRY))


def _coerce_option(value: str) -> Any:
    """Best-effort typing of an option value parsed from a spec string."""
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def parse_backend_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split ``"name:key=value,key=value"`` into a name and options.

    A bare name parses to ``(name, {})``.  Values are coerced to
    ``bool``/``int``/``float`` when they look like one, otherwise kept as
    strings — e.g. ``"gatspi:device=torch"`` or
    ``"gatspi:workers=process:2"`` (only the first ``:`` separates the
    name, so option values may contain one).
    """
    if not spec or not isinstance(spec, str):
        raise ValueError("backend spec must be a non-empty string")
    name, _, option_text = spec.partition(":")
    options: Dict[str, Any] = {}
    if option_text:
        for item in option_text.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise ValueError(
                    f"malformed backend option {item!r} in spec {spec!r}; "
                    f"expected key=value"
                )
            options[key.strip()] = _coerce_option(value.strip())
    return name, options


def resolve_backend(spec: str) -> Tuple[SimBackend, Dict[str, Any]]:
    """Look up a backend from a spec string, returning prepare options too.

    ``resolve_backend("gatspi:device=torch")`` returns the ``gatspi``
    backend plus ``{"device": "torch"}`` to splat into ``prepare``.
    """
    name, options = parse_backend_spec(spec)
    return get_backend(name), options
