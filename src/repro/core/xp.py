"""Device-pluggable array-backend ("xp") layer.

The GATSPI data plane — packed design tensors, the level-batched kernel,
the restructure/load/readback pipeline, and the waveform pool — is written
against a small array-operation surface instead of ``numpy`` directly.
This module defines that surface (:class:`ArrayBackend`) and a registry of
implementations:

* ``"numpy"`` — always available; the reference backend.  Its operations
  *are* the numpy functions, so routing through it is bit-identical (and
  cost-identical) to calling numpy directly.
* ``"torch"`` — registered when PyTorch is importable; runs the same
  pipeline on ``torch`` tensors (CUDA when available, else CPU).
* ``"cupy"`` — registered when CuPy is importable; runs on the GPU through
  CuPy's numpy-compatible API.

Selection precedence
--------------------

The active backend of a simulation is chosen by, in decreasing precedence:

1. ``SimConfig(device="torch")`` — the explicit config field, which the
   ``gatspi`` backend's ``prepare(..., device=...)`` option and the registry
   spec form ``"gatspi:device=torch"`` both feed.
2. The ``REPRO_DEVICE`` environment variable (read when a
   :class:`~repro.core.config.SimConfig` is constructed without an explicit
   ``device``).
3. The default, ``"numpy"``.

The reference oracle engine (:mod:`repro.reference.oracle_engine`, backend
``"gatspi-oracle"``) pins itself to the numpy backend regardless of the
configured device — it is per-object Python with no device representation
— so a non-numpy device only drives the array pipeline, and differential
runs under ``REPRO_DEVICE=torch`` compare the device pipeline against the
host oracle exactly as intended.

Operation surface
-----------------

Backends expose the ~20 operations the pipeline uses: construction
(``asarray``/``ascontiguousarray``/``zeros``/``empty``/``full``/``arange``),
``searchsorted``, prefix sums (``cumsum``/``diff``), gather/scatter-style
indexing (plain ``__getitem__``/``__setitem__`` on backend arrays, plus
``repeat``/``tile``/``broadcast_to``/``take_along``-style fancy indexing),
``where``, clipped ``minimum``/``maximum``, reductions
(``sum``/``min``/``max``/``any``/``all``), ``isfinite``, dtype conversion
(``astype``), ``copy``, ``transpose``, ``concatenate``, ``size``, and the
host boundary ``to_host``.  Dtype handles (``int8``/``int64``/``float64``/
``bool_``) and ``inf`` are exposed as attributes so no caller ever touches
``numpy`` dtypes for device arrays.

``tests/test_xp.py`` holds the conformance suite every registered backend
must pass; it encodes the exact numpy semantics (searchsorted sides,
truncating float→int casts, repeat/tile shapes, scatter writes) the
pipeline relies on for bit-identical results.
"""

from __future__ import annotations

import importlib.util
import os
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: Environment variable supplying the default device name.
DEVICE_ENV_VAR = "REPRO_DEVICE"

#: Operations every backend must provide (the conformance surface).
ARRAY_OPS: Tuple[str, ...] = (
    "asarray",
    "ascontiguousarray",
    "to_host",
    "zeros",
    "empty",
    "full",
    "arange",
    "where",
    "minimum",
    "maximum",
    "searchsorted",
    "cumsum",
    "diff",
    "repeat",
    "tile",
    "broadcast_to",
    "concatenate",
    "astype",
    "copy",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "isfinite",
    "transpose",
    "size",
)

#: Dtype/constant attributes every backend must provide.
ARRAY_ATTRS: Tuple[str, ...] = ("int8", "int64", "float64", "bool_", "inf")


class ArrayBackendError(RuntimeError):
    """Base class for array-backend registry failures."""


class UnknownArrayBackendError(ArrayBackendError, LookupError):
    """Raised when asking for a device no backend was registered under."""


class ArrayBackend:
    """Base class: a named provider of the :data:`ARRAY_OPS` surface."""

    name: str = "abstract"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArrayBackend {self.name!r}>"


class NumpyBackend(ArrayBackend):
    """The reference backend: operations *are* the numpy functions.

    Anything not explicitly wrapped resolves to the same-named ``numpy``
    attribute, so routing host-side code through this backend is
    guaranteed bit- and cost-identical to calling numpy directly.  Only
    operations whose numpy spelling is a *method* (``astype``, ``copy``
    via ``ndarray.copy`` semantics, ``size``) or that do not exist in
    numpy (``to_host``) are defined here.
    """

    name = "numpy"

    def __getattr__(self, attr: str):
        try:
            return getattr(np, attr)
        except AttributeError:
            raise AttributeError(
                f"numpy array backend has no operation {attr!r}"
            ) from None

    @staticmethod
    def asarray(x, dtype=None):
        return np.asarray(x, dtype=dtype)

    @staticmethod
    def to_host(x) -> np.ndarray:
        """Identity: numpy arrays already live on the host."""
        return np.asarray(x)

    @staticmethod
    def astype(x, dtype):
        return x.astype(dtype)

    @staticmethod
    def copy(x):
        return x.copy()

    @staticmethod
    def size(x) -> int:
        return int(np.asarray(x).size)


class TorchBackend(ArrayBackend):  # pragma: no cover - needs torch installed
    """PyTorch implementation of the operation surface.

    Tensors live on CUDA when available, otherwise CPU.  Every wrapper
    reproduces the *numpy* semantics the pipeline relies on (validated by
    the conformance suite): ``searchsorted`` sides, truncating
    float→int64 casts, ``repeat`` as ``repeat_interleave``, scalar
    ``minimum``/``maximum`` as clamps.
    """

    name = "torch"

    def __init__(self, device: Optional[str] = None):
        import torch

        self._torch = torch
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        self._device = torch.device(device)
        self.int8 = torch.int8
        self.int64 = torch.int64
        self.float64 = torch.float64
        self.bool_ = torch.bool
        self.inf = float("inf")

    # -- construction ---------------------------------------------------
    def asarray(self, x, dtype=None):
        torch = self._torch
        if isinstance(x, np.ndarray) and x.dtype == np.int8 and dtype is None:
            dtype = torch.int8
        return torch.as_tensor(x, dtype=dtype, device=self._device)

    def ascontiguousarray(self, x, dtype=None):
        return self.asarray(x, dtype=dtype).contiguous()

    def to_host(self, x) -> np.ndarray:
        if self._torch.is_tensor(x):
            return x.detach().to("cpu").numpy()
        return np.asarray(x)

    def _shape(self, shape):
        if isinstance(shape, int):
            return (shape,)
        return tuple(int(s) for s in shape)

    def zeros(self, shape, dtype=None):
        return self._torch.zeros(self._shape(shape), dtype=dtype, device=self._device)

    def empty(self, shape, dtype=None):
        return self._torch.empty(self._shape(shape), dtype=dtype, device=self._device)

    def full(self, shape, fill_value, dtype=None):
        return self._torch.full(
            self._shape(shape), fill_value, dtype=dtype, device=self._device
        )

    def arange(self, n, dtype=None):
        return self._torch.arange(int(n), dtype=dtype, device=self._device)

    # -- elementwise ----------------------------------------------------
    def where(self, cond, x, y):
        torch = self._torch
        if cond.dtype != torch.bool:
            cond = cond != 0
        x_t, y_t = torch.is_tensor(x), torch.is_tensor(y)
        if x_t and not y_t:
            dtype = torch.float64 if isinstance(y, float) and x.dtype != torch.float64 else x.dtype
            y = torch.as_tensor(y, dtype=dtype, device=x.device)
        elif y_t and not x_t:
            dtype = torch.float64 if isinstance(x, float) and y.dtype != torch.float64 else y.dtype
            x = torch.as_tensor(x, dtype=dtype, device=y.device)
        elif not x_t and not y_t:
            x = torch.as_tensor(x, device=self._device)
            y = torch.as_tensor(y, device=self._device)
        return torch.where(cond, x, y)

    def minimum(self, x, y):
        torch = self._torch
        if not torch.is_tensor(y):
            return torch.clamp(x, max=y)
        if not torch.is_tensor(x):
            return torch.clamp(y, max=x)
        return torch.minimum(x, y)

    def maximum(self, x, y):
        torch = self._torch
        if not torch.is_tensor(y):
            return torch.clamp(x, min=y)
        if not torch.is_tensor(x):
            return torch.clamp(y, min=x)
        return torch.maximum(x, y)

    def isfinite(self, x):
        return self._torch.isfinite(x)

    # -- sorted search / prefix sums ------------------------------------
    def searchsorted(self, a, v, side: str = "left"):
        torch = self._torch
        right = side == "right"
        if torch.is_tensor(v):
            return torch.searchsorted(a, v, right=right)
        scalar = not hasattr(v, "__len__")
        query = torch.as_tensor(
            [v] if scalar else v, dtype=a.dtype, device=a.device
        )
        result = torch.searchsorted(a, query, right=right)
        return int(result[0]) if scalar else result

    def cumsum(self, x, axis=None):
        return self._torch.cumsum(x, dim=0 if axis is None else axis)

    def diff(self, x):
        return self._torch.diff(x)

    # -- shape / layout -------------------------------------------------
    def repeat(self, x, repeats, axis=None):
        torch = self._torch
        if not torch.is_tensor(x):
            x = self.asarray(x)
        return torch.repeat_interleave(x, repeats, dim=axis)

    def tile(self, x, reps):
        if isinstance(reps, int):
            reps = (reps,)
        return self._torch.tile(x, reps)

    def broadcast_to(self, x, shape):
        return self._torch.broadcast_to(x, self._shape(shape))

    def concatenate(self, seq):
        return self._torch.cat(list(seq))

    def astype(self, x, dtype):
        return x.to(dtype)

    def copy(self, x):
        return x.clone()

    def transpose(self, x, axes):
        return x.permute(*axes)

    def size(self, x) -> int:
        return int(x.numel())

    # -- reductions -----------------------------------------------------
    def sum(self, x, axis=None):
        if axis is None:
            return self._torch.sum(x)
        return self._torch.sum(x, dim=axis)

    def min(self, x, axis=None):
        if axis is None:
            return self._torch.min(x)
        return self._torch.amin(x, dim=axis)

    def max(self, x, axis=None):
        if axis is None:
            return self._torch.max(x)
        return self._torch.amax(x, dim=axis)

    def any(self, x):
        return self._torch.any(x)

    def all(self, x):
        return self._torch.all(x)


class CupyBackend(ArrayBackend):  # pragma: no cover - needs cupy installed
    """CuPy implementation: numpy-compatible API on the GPU.

    CuPy mirrors the numpy function surface, so — like the numpy backend —
    unwrapped operations resolve to the same-named ``cupy`` attribute.
    """

    name = "cupy"

    def __init__(self):
        import cupy

        self._cupy = cupy

    def __getattr__(self, attr: str):
        try:
            return getattr(self._cupy, attr)
        except AttributeError:
            raise AttributeError(
                f"cupy array backend has no operation {attr!r}"
            ) from None

    def asarray(self, x, dtype=None):
        return self._cupy.asarray(x, dtype=dtype)

    def to_host(self, x) -> np.ndarray:
        return self._cupy.asnumpy(x)

    def astype(self, x, dtype):
        return x.astype(dtype)

    def copy(self, x):
        return x.copy()

    def size(self, x) -> int:
        return int(x.size)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}


def register_array_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory under ``name`` (instantiated lazily)."""
    if not name or not isinstance(name, str):
        raise ValueError("array backend name must be a non-empty string")
    if name in _FACTORIES:
        raise ArrayBackendError(f"array backend {name!r} is already registered")
    _FACTORIES[name] = factory


def available_array_backends() -> Tuple[str, ...]:
    """Names of all registered array backends, sorted alphabetically."""
    return tuple(sorted(_FACTORIES))


def get_array_backend(name: str) -> ArrayBackend:
    """Look up (and lazily instantiate) an array backend by name."""
    if name in _INSTANCES:
        return _INSTANCES[name]
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownArrayBackendError(
            f"unknown array backend {name!r}; available backends: "
            f"{', '.join(available_array_backends())} "
            f"(torch/cupy appear only when the package is importable)"
        ) from None
    instance = factory()
    _INSTANCES[name] = instance
    return instance


def default_device() -> str:
    """The default device name: ``$REPRO_DEVICE`` or ``"numpy"``."""
    return os.environ.get(DEVICE_ENV_VAR, "").strip() or "numpy"


def is_host(xp: ArrayBackend) -> bool:
    """Whether ``xp`` has host (numpy) semantics.

    Host↔device transfer helpers are identities for host backends — this
    is the single definition every ``to_device``/``to_host`` boundary
    checks, so the notion of "host" cannot drift between call sites.
    """
    return xp is HOST or xp.name == "numpy"


# numpy is always available; torch/cupy register only when importable so a
# bare install never pays their import cost (instantiation is lazy anyway,
# but find_spec keeps even the *names* honest about availability).
register_array_backend("numpy", NumpyBackend)
if importlib.util.find_spec("torch") is not None:  # pragma: no cover - env
    register_array_backend("torch", TorchBackend)
if importlib.util.find_spec("cupy") is not None:  # pragma: no cover - env
    register_array_backend("cupy", CupyBackend)


#: The host backend — used for host-side array work (stimulus lowering,
#: result stitching) and as the default ``xp`` of every device-threaded
#: function, keeping the numpy path bit- and cost-identical.
HOST: ArrayBackend = get_array_backend("numpy")
