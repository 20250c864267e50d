"""Reference simulators: the event-driven baseline and zero-delay functional
simulation."""

from .event_sim import EventDrivenSimulator, simulate_reference
from .zero_delay import ZeroDelaySimulator, functional_toggle_counts

__all__ = [
    "EventDrivenSimulator",
    "simulate_reference",
    "ZeroDelaySimulator",
    "functional_toggle_counts",
]
