"""Reference simulators: the event-driven baseline (the commercial-simulator
stand-in) and the per-object oracle for ``gatspi``.

Zero-delay functional simulation is not here: the ``zero-delay`` backend
runs on :class:`repro.core.settle.ZeroDelaySettle`, the evaluator the
clocked driver also uses."""

from .event_sim import EventDrivenSimulator, simulate_reference

__all__ = [
    "EventDrivenSimulator",
    "simulate_reference",
]
