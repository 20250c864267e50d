"""Per-gate, per-cycle re-simulation kernel (paper Algorithm 1).

On the GPU each thread runs this routine for one gate and one independent
stimulus window.  Here it is a plain Python function operating on the flat
waveform memory pool and per-pin start-address pointers, with the same
structure as the CUDA kernel:

* resolve initial input values and the initial output value (lines 3-6),
* walk the input waveforms in arrival-time order, applying per-pin
  interconnect delays and interconnect inertial pulse filtering
  (lines 8-13 / 10-12),
* resolve multiple-simultaneous-input (MSI) switching before re-evaluating
  the output (lines 14-18),
* evaluate the output through the truth-table lookup and the conditional
  delay-table lookup (Fig. 4),
* apply gate-output inertial pulse filtering controlled by
  ``PATHPULSEPERCENT`` (lines 19-25).

On the GPU the kernel runs twice per logic level — a *count* pass that only
sizes the output waveforms (so their start addresses in the pre-allocated
device memory pool can be laid out) and a *store* pass that writes them
(paper Fig. 5) — because a thread cannot allocate memory.  The host engine
runs it once per task: the caller allocates from the returned size and
stores the returned transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .delaytable import FALL, GateDelayTable, NO_DELAY, RISE
from .waveform import EOW, INITIAL_ONE_MARKER


@dataclass
class GateKernelInputs:
    """Everything one kernel thread needs for one gate.

    ``delay_arrays`` holds one ``(2, 2, 2**n)`` array per input pin (rows:
    input edge, output edge; columns: truth-table index), and ``wire_rise`` /
    ``wire_fall`` the per-pin interconnect delays.
    """

    truth_table: np.ndarray
    delay_arrays: Tuple[np.ndarray, ...]
    wire_rise: Tuple[float, ...]
    wire_fall: Tuple[float, ...]

    @property
    def num_pins(self) -> int:
        return len(self.delay_arrays)


@dataclass
class GateKernelResult:
    """Output of one kernel invocation for one gate and one window."""

    initial_value: int
    toggle_times: List[int]

    @property
    def toggle_count(self) -> int:
        return len(self.toggle_times)

    @property
    def storage_words(self) -> int:
        """Pool words needed to store the output waveform (Fig. 3 layout).

        One establishing entry, the toggles, the EOW terminator, plus the
        ``-1`` marker when the initial value is 1.
        """
        return 1 + len(self.toggle_times) + 1 + (1 if self.initial_value else 0)


def resolve_gate_delay(
    delay_arrays: Sequence[np.ndarray],
    switching: Sequence[Tuple[int, int]],
    output_edge: int,
    column_index: int,
) -> float:
    """Look up the gate delay for an observed output transition.

    ``switching`` lists ``(pin_index, input_edge)`` for every pin that changed
    at this timestamp (MSI resolution): the fastest valid arc wins.  Arcs that
    are undefined for the exact input edge fall back to the opposite edge, and
    finally to zero, so sparse SDF annotation never stalls simulation.
    """
    best = NO_DELAY
    for pin_index, input_edge in switching:
        value = delay_arrays[pin_index][input_edge, output_edge, column_index]
        if value < best:
            best = float(value)
    if best != NO_DELAY:
        return best
    for pin_index, input_edge in switching:
        value = delay_arrays[pin_index][1 - input_edge, output_edge, column_index]
        if value < best:
            best = float(value)
    if best != NO_DELAY:
        return best
    return 0.0


def simulate_gate_window(
    pool: np.ndarray,
    input_pointers: Sequence[int],
    gate: GateKernelInputs,
    pathpulse_fraction: float = 1.0,
    net_delay_filtering: bool = True,
) -> GateKernelResult:
    """Simulate one gate for one stimulus window (Algorithm 1).

    ``pool`` is the flat waveform memory array; ``input_pointers`` gives the
    start address of each input pin's waveform inside the pool.  The output
    waveform is returned as an initial value plus toggle times (window-local);
    the caller allocates its pool address and stores it there.
    """
    num_pins = gate.num_pins
    if len(input_pointers) != num_pins:
        raise ValueError("one input pointer per pin is required")

    # ------------------------------------------------------------------
    # Lines 3-6: initial values and initial output.
    # ------------------------------------------------------------------
    pointers = [int(p) for p in input_pointers]
    for i in range(num_pins):
        if pool[pointers[i]] == INITIAL_ONE_MARKER:
            pointers[i] += 1

    weights = [1 << (num_pins - 1 - i) for i in range(num_pins)]
    column_index = 0
    for i in range(num_pins):
        if pointers[i] & 1:
            column_index += weights[i]

    output_value = int(gate.truth_table[column_index])
    initial_value = output_value
    toggle_times: List[int] = []
    last_output_time = 0

    wire_rise = gate.wire_rise
    wire_fall = gate.wire_fall
    delay_arrays = gate.delay_arrays
    truth_table = gate.truth_table

    # ------------------------------------------------------------------
    # Main loop over input transitions in arrival-time order (lines 7-25).
    # ------------------------------------------------------------------
    while True:
        next_time = EOW
        for i in range(num_pins):
            pointer = pointers[i]
            # Interconnect inertial filtering (lines 10-12): drop input pulses
            # narrower than the wire delay of their leading edge.
            if net_delay_filtering:
                while True:
                    first = pool[pointer + 1]
                    if first == EOW:
                        break
                    second = pool[pointer + 2]
                    if second == EOW:
                        break
                    net_delay = wire_fall[i] if (pointer & 1) else wire_rise[i]
                    if second - net_delay - first < 0:
                        pointer += 2
                        continue
                    break
                pointers[i] = pointer
            upcoming = pool[pointer + 1]
            if upcoming == EOW:
                continue
            net_delay = wire_fall[i] if (pointer & 1) else wire_rise[i]
            arrival = upcoming + net_delay
            if arrival < next_time:
                next_time = arrival

        if next_time == EOW:
            break

        # ------------------------------------------------------------------
        # MSI resolution (lines 14-18): advance every pin arriving now.
        # ------------------------------------------------------------------
        switching: List[Tuple[int, int]] = []
        for i in range(num_pins):
            pointer = pointers[i]
            upcoming = pool[pointer + 1]
            if upcoming == EOW:
                continue
            net_delay = wire_fall[i] if (pointer & 1) else wire_rise[i]
            if upcoming + net_delay == next_time:
                pointer += 1
                pointers[i] = pointer
                new_value = pointer & 1
                if new_value:
                    column_index += weights[i]
                    switching.append((i, RISE))
                else:
                    column_index -= weights[i]
                    switching.append((i, FALL))

        new_output = int(truth_table[column_index])
        if new_output == output_value:
            continue

        # ------------------------------------------------------------------
        # Output evaluation and inertial filtering (lines 19-25).
        # ------------------------------------------------------------------
        output_edge = RISE if new_output == 1 else FALL
        gate_delay = resolve_gate_delay(
            delay_arrays, switching, output_edge, column_index
        )
        output_time = int(next_time + gate_delay)
        min_pulse = gate_delay * pathpulse_fraction
        if toggle_times and (
            output_time - last_output_time < min_pulse
            or output_time <= last_output_time
        ):
            # Reject the previous output pulse: cancel the last recorded
            # transition and do not record this one.
            toggle_times.pop()
            output_value = new_output
            last_output_time = toggle_times[-1] if toggle_times else 0
        else:
            toggle_times.append(output_time)
            output_value = new_output
            last_output_time = output_time

    return GateKernelResult(initial_value=initial_value, toggle_times=toggle_times)


def count_input_events(
    pool: np.ndarray, input_pointers: Sequence[int]
) -> int:
    """Number of input transitions this gate/window will process.

    Used for workload statistics and the GPU performance model; the count
    excludes each waveform's establishing entry.
    """
    total = 0
    for pointer in input_pointers:
        index = int(pointer)
        if pool[index] == INITIAL_ONE_MARKER:
            index += 1
        index += 1  # skip the establishing entry
        while pool[index] != EOW:
            total += 1
            index += 1
    return total
