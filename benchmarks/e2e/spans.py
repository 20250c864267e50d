"""Span recorder and monkey-patch wrappers for the traced pass.

The benchmark measures layers *from outside*: the harness times its own
calls into public functions (``Tracer.span``) and, in the traced pass only,
wraps a fixed table of callables (:data:`layers.WRAP_TABLE`) so their calls
record spans too.  Nothing under ``src/`` knows it is being traced.

A span is ``(name, start, end, parent, unit)``; spans live in per-thread
lists (no lock on the hot path, parents are indices into the same thread's
list) and are merged when the run ends.  A layer's *self time* is its
span's duration minus the time its direct children cover — each child
interval is subtracted from exactly one parent, so self times of a thread
sum to the durations of that thread's root spans.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# Record layout (a list, mutated in place when the span closes).
NAME, START, END, PARENT, UNIT = range(5)

#: ``(module, attribute, metric[, counter])`` — see :mod:`layers`.
WrapEntry = Tuple[Any, ...]


class Tracer:
    """In-memory span recorder shared by the harness and the wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(thread ident, span list)`` per thread that recorded anything.
        self._threads: List[Tuple[int, List[list]]] = []
        #: Unit id stamped on spans opened from now on (-1 = outside units).
        self.unit = -1
        #: Free-form counters filled by wrapper counter hooks.
        self.counters: Dict[str, float] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> Tuple[List[list], List[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append((threading.get_ident(), local.spans))
            return local.spans, local.stack

    def _open(self, name: str) -> Tuple[list, List[int]]:
        spans, stack = self._state()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
        stack.append(len(spans))
        spans.append(record)
        record[START] = time.perf_counter()
        return record, stack

    @staticmethod
    def _close(record: list, stack: List[int]) -> None:
        record[END] = time.perf_counter()
        stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """Record a span around the ``with`` body (a harness-call span)."""
        record, stack = self._open(name)
        try:
            yield record
        finally:
            self._close(record, stack)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        counter: Optional[Callable[[tuple, Any], Tuple[str, float]]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span named ``name`` per call.

        ``counter(args, result)`` may return ``(key, value)`` to add to
        :attr:`counters` (bytes encoded, say).
        """
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            record, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record, stack)
            if counter is not None:
                key, value = counter(args, result)
                counters[key] = counters.get(key, 0) + value
            return result

        return traced

    # ------------------------------------------------------------------
    # Wrapper installation (traced pass only)
    # ------------------------------------------------------------------
    def install(self, table: Sequence[WrapEntry]) -> None:
        """Patch every resolvable target of ``table``.

        A target that cannot be resolved (module gone, attribute renamed)
        is recorded in :attr:`missing` and skipped — later PRs that fuse or
        rename a function lose a row of the layer table, never the
        benchmark.
        """
        for entry in table:
            module_name, attribute, metric = entry[0], entry[1], entry[2]
            counter = entry[3] if len(entry) > 3 else None
            try:
                owner: Any = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                if not callable(original):
                    raise AttributeError(attribute)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{attribute}")
                continue
            setattr(owner, leaf, self.wrap(original, metric, counter))
            self._patched.append((owner, leaf, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def threads(self) -> List[Tuple[int, List[list]]]:
        with self._lock:
            return list(self._threads)

    def export(self, first_unit: int) -> Dict[str, Any]:
        """Spans of units ``>= first_unit``, one row per span.

        ``parent`` is an index into the same thread's span list, which is
        why ``index`` is exported too.
        """
        rows: List[list] = []
        for ident, spans in self.threads():
            for index, record in enumerate(spans):
                if record[UNIT] >= first_unit:
                    rows.append(
                        [record[UNIT], ident, index, record[PARENT],
                         record[NAME], record[START], record[END]]
                    )
        return {
            "columns": ["unit", "thread", "index", "parent", "name", "start", "end"],
            "spans": rows,
        }


def self_times(spans: Sequence[list]) -> List[float]:
    """Self time of every span of one thread's list.

    Children always appear after their parent and point at it by index, so
    one pass subtracts each child's duration from exactly one parent.
    """
    own = [record[END] - record[START] for record in spans]
    for record in spans:
        # A span still open (END unset) has covered nothing yet.
        if record[PARENT] >= 0 and record[END] != 0.0:
            own[record[PARENT]] -= record[END] - record[START]
    return own


def has_ancestor(spans: Sequence[list], index: int, name: str) -> bool:
    """Whether span ``index`` sits (strictly) below a span called ``name``."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def check_self_time_arithmetic() -> None:
    """Self-check of the span arithmetic on a synthetic trace.

    root[0,10] > a[1,4] > b[2,3]; root > c[5,9]; plus a second root
    d[10,12].  Self times must be root 3, a 2, b 1, c 4, d 2 — every
    child interval subtracted once — and sum to the root durations.
    """
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["d", 10.0, 12.0, -1, 0],
    ]
    own = self_times(spans)
    expected = [3.0, 2.0, 1.0, 4.0, 2.0]
    if own != expected:
        raise AssertionError(f"span self-time arithmetic is off: {own} != {expected}")
    if sum(own) != 12.0:
        raise AssertionError("self times do not sum to the root durations")
    if not has_ancestor(spans, 2, "root") or has_ancestor(spans, 4, "root"):
        raise AssertionError("span ancestry walk is off")

    tracer = Tracer()

    def target(value: int) -> int:
        return value + 1

    tracer.install([(__name__, "no_such_function", "x"), ("no.such.module", "f", "y")])
    if len(tracer.missing) != 2:
        raise AssertionError("unresolvable wrap targets must be recorded, not raised")
    wrapped = tracer.wrap(target, "t", lambda args, result: ("n", result))
    with tracer.span("outer"):
        if wrapped(1) != 2:
            raise AssertionError("wrapper changed the wrapped function's result")
    (_, recorded), = tracer.threads()
    if [r[NAME] for r in recorded] != ["outer", "t"] or recorded[1][PARENT] != 0:
        raise AssertionError("wrapper span is not nested under the harness span")
    if tracer.counters != {"n": 2}:
        raise AssertionError("wrapper counter hook did not fire")
