"""Level-batched struct-of-arrays execution of Algorithm 1.

The scalar kernel (:mod:`repro.core.kernel`) runs one Python loop per
``(gate, window)`` task, which makes the interpreter itself the hot path.
This module is the GPU-faithful alternative: ``compile()`` lowers the
levelized netlist into *packed design tensors* — flat truth-table and
delay-table arrays plus per-level gate/pin attribute matrices — and
:func:`simulate_level` then executes Algorithm 1 for **every task of a level
at once**, exactly the way a CUDA grid would: all tasks advance through the
same lock-step event loop with boolean masks playing the role of the SIMT
active mask.  Tasks that exhaust their input waveforms retire from the
batch; the loop ends when the batch is empty.

Every array operation routes through the pluggable array backend layer
(:mod:`repro.core.xp`): ``pack_design`` builds the tensors on the host, and
:meth:`PackedDesign.to_device` materializes them on the configured backend
at compile time — for the numpy backend this is the identity, so the
default path is bit- and cost-identical to a hard-wired numpy
implementation, while torch/cupy sessions run the same lock-step loop on
device tensors.

Bit-exactness with the scalar kernel is a hard contract (the scalar path
stays registered as the reference oracle, backend ``"gatspi-oracle"``):
every arithmetic step below mirrors the scalar statement it replaces,
including the float64 arrival-time arithmetic, the MSI equality comparison,
and the truncating ``int()`` conversion of output timestamps.

Task layout
-----------

A level with ``G`` gates simulated over ``W`` cycle-parallel windows forms
``T = G * W`` tasks ordered gate-major (``task = gate * W + window``).  Gates
of different arity share one batch: pin axes are padded to the level's widest
gate, and padded pins point at a canonical null waveform (``[0, EOW]``) so
they never produce events, carry weight 0, and cannot perturb the column
index.

Fanout-aware input gathering
----------------------------

Each level also carries *gather index tensors* built at pack time:
``input_net_ids`` maps every ``(gate, pin)`` to a design-wide net index
(padded pins to the reserved null id), and ``output_net_ids`` maps every
gate to its output net.  The waveform pool registers stored waveforms in
flat tables keyed by those same indices, so per-level input-pointer
gathering is two fancy-indexing reads — no per-batch Python lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .delaytable import flatten_delay_array
from .kernel import GateKernelInputs
from .truthtable import pack_truth_tables
from .waveform import EOW, INITIAL_ONE_MARKER
from .xp import HOST, ArrayBackend, is_host


@dataclass(frozen=True)
class LevelTensors:
    """Packed design tensors for one logic level (one row per gate).

    ``weights``/``wire_rise``/``wire_fall``/``delay_offsets`` are padded to
    the widest gate of the level; ``num_pins`` records each gate's real
    arity.  ``tt_offsets`` and ``delay_offsets`` index the design-level flat
    tensors on :class:`PackedDesign`.  ``input_net_ids``/``output_net_ids``
    are the fanout-aware gather index tensors into the design's net index
    (padded pins carry :attr:`PackedDesign.null_net_id`).
    """

    gate_names: Tuple[str, ...]
    output_nets: Tuple[str, ...]
    input_nets: Tuple[Tuple[str, ...], ...]
    num_pins: "object"  # (G,)    int64
    weights: "object"  # (G, P)  int64, 0 on padded pins
    wire_rise: "object"  # (G, P)  float64
    wire_fall: "object"  # (G, P)  float64
    tt_offsets: "object"  # (G,)    int64 into PackedDesign.tt_flat
    delay_offsets: "object"  # (G, P)  int64 into PackedDesign.delay_flat
    num_columns: "object"  # (G,)    int64, 2**num_pins
    input_net_ids: "object"  # (G, P)  int64 net ids, null id on padded pins
    output_net_ids: "object"  # (G,)    int64 net ids

    @property
    def gate_count(self) -> int:
        return len(self.gate_names)

    @property
    def max_pins(self) -> int:
        return int(self.weights.shape[1]) if self.weights.ndim == 2 else 0


@dataclass(frozen=True)
class PackedDesign:
    """The whole design lowered to flat tensors, one :class:`LevelTensors`
    per logic level.  Built once at compile time and shared by every
    simulation run (and every multi-device share) of the session.

    ``net_index`` assigns every net of the design (stimulus sources first,
    then gate outputs in level order) a dense integer id; the id one past
    the last net (:attr:`null_net_id`) is reserved for padded pins and maps
    to the pool's null waveform.  ``device`` names the array backend the
    tensors are materialized on (``"numpy"`` straight out of
    :func:`pack_design`).
    """

    tt_flat: "object"  # int8: concatenated truth tables
    delay_flat: "object"  # float64: concatenated per-pin delay arrays
    levels: Tuple[LevelTensors, ...]
    net_index: Mapping[str, int]
    device: str = "numpy"

    @property
    def gate_count(self) -> int:
        return sum(level.gate_count for level in self.levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def null_net_id(self) -> int:
        """Reserved net id for padded pins (the pool's null-waveform row)."""
        return len(self.net_index)

    def to_device(self, xp: ArrayBackend) -> "PackedDesign":
        """Materialize every tensor on ``xp`` (identity for numpy).

        This is the one compile-time host→device upload of a session; all
        simulation runs (and multi-device shares) reuse the materialized
        tensors.
        """
        if is_host(xp):
            return self
        levels = tuple(
            replace(
                level,
                num_pins=xp.asarray(level.num_pins, xp.int64),
                weights=xp.asarray(level.weights, xp.int64),
                wire_rise=xp.asarray(level.wire_rise, xp.float64),
                wire_fall=xp.asarray(level.wire_fall, xp.float64),
                tt_offsets=xp.asarray(level.tt_offsets, xp.int64),
                delay_offsets=xp.asarray(level.delay_offsets, xp.int64),
                num_columns=xp.asarray(level.num_columns, xp.int64),
                input_net_ids=xp.asarray(level.input_net_ids, xp.int64),
                output_net_ids=xp.asarray(level.output_net_ids, xp.int64),
            )
            for level in self.levels
        )
        return PackedDesign(
            tt_flat=xp.asarray(self.tt_flat, xp.int8),
            delay_flat=xp.asarray(self.delay_flat, xp.float64),
            levels=levels,
            net_index=self.net_index,
            device=xp.name,
        )


def pack_design(
    gates_by_level: Sequence[Sequence],
    gate_inputs: Mapping[str, GateKernelInputs],
    extra_nets: Sequence[str] = (),
) -> PackedDesign:
    """Lower compiled per-gate kernel inputs into packed design tensors.

    ``gates_by_level`` is ``CompiledGraph.gates_by_level``; ``gate_inputs``
    is the per-gate :class:`GateKernelInputs` mapping the scalar path
    consumes, so both kernels are guaranteed to read the *same* truth and
    delay tables.  ``extra_nets`` (the design's stimulus source nets) seed
    the net index so every net the testbench drives has an id even when no
    gate reads it.
    """
    hnp = HOST
    net_index: Dict[str, int] = {}
    for net in extra_nets:
        net_index.setdefault(net, len(net_index))

    tt_tables: List = []
    delay_offset_by_id: Dict[int, int] = {}
    delay_chunks: List = []
    delay_cursor = 0

    def delay_offset(arr) -> int:
        nonlocal delay_cursor
        key = id(arr)
        if key not in delay_offset_by_id:
            chunk = flatten_delay_array(arr)
            delay_chunks.append(chunk)
            delay_offset_by_id[key] = delay_cursor
            delay_cursor += chunk.size
        return delay_offset_by_id[key]

    def net_id(net: str) -> int:
        return net_index.setdefault(net, len(net_index))

    levels: List[LevelTensors] = []
    for level_gates in gates_by_level:
        names: List[str] = []
        outputs: List[str] = []
        inputs: List[Tuple[str, ...]] = []
        pins: List[int] = []
        for gate in level_gates:
            names.append(gate.name)
            outputs.append(gate.output_net)
            inputs.append(tuple(gate.input_nets))
            pins.append(len(gate.input_nets))
        G = len(names)
        P = max(pins) if pins else 0
        num_pins = hnp.asarray(pins, dtype=hnp.int64)
        weights = hnp.zeros((G, P), dtype=hnp.int64)
        wire_rise = hnp.zeros((G, P), dtype=hnp.float64)
        wire_fall = hnp.zeros((G, P), dtype=hnp.float64)
        tt_offsets = hnp.zeros(G, dtype=hnp.int64)
        delay_offsets = hnp.zeros((G, P), dtype=hnp.int64)
        num_columns = hnp.zeros(G, dtype=hnp.int64)
        input_net_ids = hnp.zeros((G, P), dtype=hnp.int64)
        output_net_ids = hnp.zeros(G, dtype=hnp.int64)
        for g, gate in enumerate(level_gates):
            inp = gate_inputs[gate.name]
            n = inp.num_pins
            num_columns[g] = 1 << n
            tt_tables.append(inp.truth_table)
            output_net_ids[g] = net_id(gate.output_net)
            for i in range(n):
                weights[g, i] = 1 << (n - 1 - i)
                wire_rise[g, i] = inp.wire_rise[i]
                wire_fall[g, i] = inp.wire_fall[i]
                delay_offsets[g, i] = delay_offset(inp.delay_arrays[i])
                input_net_ids[g, i] = net_id(gate.input_nets[i])
        levels.append(
            LevelTensors(
                gate_names=tuple(names),
                output_nets=tuple(outputs),
                input_nets=tuple(inputs),
                num_pins=num_pins,
                weights=weights,
                wire_rise=wire_rise,
                wire_fall=wire_fall,
                tt_offsets=tt_offsets,
                delay_offsets=delay_offsets,
                num_columns=num_columns,
                input_net_ids=input_net_ids,
                output_net_ids=output_net_ids,
            )
        )

    # Padded pins must point at the reserved null id, assigned only after
    # every real net has an index (it is len(net_index)).
    null_id = len(net_index)
    for level in levels:
        G = level.gate_count
        P = level.max_pins
        if P:
            pad = hnp.arange(P, dtype=hnp.int64)[None, :] >= level.num_pins[:, None]
            level.input_net_ids[pad] = null_id

    tt_flat, tt_offsets_all = pack_truth_tables(tt_tables)
    cursor = 0
    for level in levels:
        G = level.gate_count
        level.tt_offsets[:] = tt_offsets_all[cursor : cursor + G]
        cursor += G
    delay_flat = (
        hnp.concatenate(delay_chunks)
        if delay_chunks
        else hnp.zeros(0, dtype=hnp.float64)
    )
    return PackedDesign(
        tt_flat=tt_flat,
        delay_flat=delay_flat,
        levels=tuple(levels),
        net_index=net_index,
    )


@dataclass(frozen=True)
class TiledLevel:
    """Per-gate level tensors tiled across windows (one row per task).

    Built once per launch; the event loop compacts these rows as tasks
    retire.
    """

    weights: "object"  # (T, P) int64
    wire_rise: "object"  # (T, P) float64
    wire_fall: "object"  # (T, P) float64
    tt_offsets: "object"  # (T,)   int64
    delay_offsets: "object"  # (T, P) int64
    num_columns: "object"  # (T,)   int64
    pin_mask: "object"  # (T, P) bool


def tile_level(
    level: LevelTensors, windows: int, xp: ArrayBackend = HOST
) -> TiledLevel:
    """Tile the per-gate tensors of a level into per-task rows
    (``task = gate * windows + window``)."""
    return TiledLevel(
        weights=xp.repeat(level.weights, windows, axis=0),
        wire_rise=xp.repeat(level.wire_rise, windows, axis=0),
        wire_fall=xp.repeat(level.wire_fall, windows, axis=0),
        tt_offsets=xp.repeat(level.tt_offsets, windows),
        delay_offsets=xp.repeat(level.delay_offsets, windows, axis=0),
        num_columns=xp.repeat(level.num_columns, windows),
        pin_mask=(
            xp.arange(level.max_pins, dtype=xp.int64)[None, :]
            < xp.repeat(level.num_pins, windows)[:, None]
        ),
    )


@dataclass
class LevelKernelResult:
    """Output of one level-batched kernel launch (all tasks of a level).

    Toggle times live in one flat buffer with per-task start offsets — the
    same struct-of-arrays shape ``store_level_outputs`` writes to the pool.
    All arrays live on the backend that executed the launch.
    """

    initial_values: "object"  # (T,) int64
    toggle_buffer: "object"  # flat int64
    toggle_starts: "object"  # (T,) int64
    toggle_counts: "object"  # (T,) int64

    @property
    def storage_words(self):
        """Pool words per task: establishing entry + toggles + EOW + marker."""
        return 2 + self.toggle_counts + (self.initial_values != 0)

    def toggles_for(self, task: int):
        start = int(self.toggle_starts[task])
        return self.toggle_buffer[start : start + int(self.toggle_counts[task])]


def simulate_level(
    pool,
    input_pointers,
    design: PackedDesign,
    level: LevelTensors,
    windows: int,
    toggle_capacity,
    pathpulse_fraction: float = 1.0,
    net_delay_filtering: bool = True,
    tiled: Optional[TiledLevel] = None,
    xp: ArrayBackend = HOST,
) -> LevelKernelResult:
    """Run Algorithm 1 for every ``(gate, window)`` task of one level.

    ``input_pointers`` is ``(T, P)`` with padded pins pointing at a null
    waveform (``[0, EOW]``); ``toggle_capacity`` is a per-task upper bound on
    produced toggles (the task's total input-toggle count is always safe:
    every event-loop iteration consumes at least one input transition).
    ``tiled`` optionally supplies the :func:`tile_level` result.  ``pool``
    and both per-task tensors must live on ``xp``; the result stays on
    ``xp``.

    The event loop carries a *compacted active set*: the pointer matrix,
    current outputs and tiled per-task constants hold one row per task that
    still has input events, in ``task`` order, and are re-compacted only on
    the iterations where tasks retire.  Only the output-side state (toggle
    buffer, counts, last output time) stays indexed by global task id.
    """
    G = level.gate_count
    T = G * windows
    P = level.max_pins
    if tuple(input_pointers.shape) != (T, P):
        raise ValueError(
            f"input pointers must have shape {(T, P)}, got "
            f"{tuple(input_pointers.shape)}"
        )

    # The loop below issues a few dozen tiny array operations per iteration,
    # so the backend's attribute lookup is bound once per launch.
    where, minimum, maximum, astype = xp.where, xp.minimum, xp.maximum, xp.astype
    amin, asum, any_, all_, isfinite = xp.min, xp.sum, xp.any, xp.all, xp.isfinite
    int64, inf = xp.int64, xp.inf

    tt_flat = design.tt_flat
    delay_flat = design.delay_flat
    limit = xp.size(pool) - 1

    if tiled is None:
        tiled = tile_level(level, windows, xp)
    weights = tiled.weights
    wire_rise = tiled.wire_rise
    wire_fall = tiled.wire_fall
    tt_off = tiled.tt_offsets
    pin_mask = tiled.pin_mask
    delay_off = tiled.delay_offsets
    ncols = tiled.num_columns

    # Lines 3-6: skip initial-one markers, resolve the initial column/output.
    ptr = xp.copy(xp.ascontiguousarray(input_pointers, int64))
    if P:
        ptr += astype(pool[minimum(ptr, limit)] == INITIAL_ONE_MARKER, int64)
        col = asum(weights * (ptr & 1), axis=1)
    else:
        col = xp.zeros(T, dtype=int64)
    out = astype(tt_flat[tt_off + col], int64)
    initial_values = out

    caps = xp.ascontiguousarray(toggle_capacity, int64)
    if tuple(caps.shape) != (T,):
        raise ValueError(
            f"toggle capacity must have shape {(T,)}, got {tuple(caps.shape)}"
        )
    toggle_starts = xp.zeros(T, dtype=int64)
    toggle_starts[1:] = xp.cumsum(caps[:-1])
    toggle_buffer = xp.zeros(int(asum(caps)), dtype=int64)
    toggle_counts = xp.zeros(T, dtype=int64)
    last_time = xp.zeros(T, dtype=int64)

    task = xp.arange(T, dtype=int64)
    active = T if P else 0

    # Main lock-step event loop (Algorithm 1 lines 7-25, all tasks at once).
    while active:
        # Interconnect inertial filtering (lines 10-12): drop input pulses
        # narrower than the wire delay of their leading edge.  The last
        # ``first``/``nd`` read are those of the settled pointers.
        while True:
            first = pool[minimum(ptr + 1, limit)]
            nd = where(ptr & 1, wire_fall, wire_rise)
            live = pin_mask & (first != EOW)
            if not net_delay_filtering:
                break
            second = pool[minimum(ptr + 2, limit)]
            drop = live & (second != EOW) & (second - nd - first < 0)
            if not any_(drop):
                break
            ptr += astype(drop, int64) << 1

        arrival = where(live, first + nd, inf)
        next_time = amin(arrival, axis=1)

        # Retire tasks whose inputs are exhausted; compact what is carried.
        alive = next_time < EOW
        if not all_(alive):
            task = task[alive]
            active = xp.size(task)
            if not active:
                break
            ptr = ptr[alive]
            out = out[alive]
            weights = weights[alive]
            wire_rise = wire_rise[alive]
            wire_fall = wire_fall[alive]
            tt_off = tt_off[alive]
            pin_mask = pin_mask[alive]
            arrival = arrival[alive]
            next_time = next_time[alive]

        # MSI resolution (lines 14-18): advance every pin arriving now and
        # re-derive the column index from the new pin values.
        arriving = arrival == next_time[:, None]
        ptr += astype(arriving, int64)
        col = asum(weights * (ptr & 1), axis=1)
        new_out = astype(tt_flat[tt_off + col], int64)
        changed = new_out != out
        out = new_out
        if not any_(changed):
            continue

        # Output evaluation and inertial filtering (lines 19-25).
        ci = task[changed]
        arr_c = arriving[changed]
        input_edge = 1 - (ptr[changed] & 1)  # RISE=0 for a pin that just rose
        output_edge = 1 - new_out[changed]  # RISE=0 when the output rises
        Cc = ncols[ci]
        span = 2 * Cc[:, None]
        # Every index is in range without a guard: a real pin stays inside
        # its own 4*C table, and a padded pin (offset 0) inside the first
        # 4*C words, which the changed gate's real pin guarantees exist.
        # Non-arriving pins are masked to inf after the gather.
        base = delay_off[ci] + (output_edge * Cc + col[changed])[:, None]
        exact = delay_flat[base + input_edge * span]
        best = amin(where(arr_c, exact, inf), axis=1)
        finite = isfinite(best)
        if all_(finite):
            gate_delay = best
        else:
            # Arcs undefined for the exact input edge fall back to the
            # opposite edge, and finally to zero.
            opposite = delay_flat[base + (1 - input_edge) * span]
            best_opp = amin(where(arr_c, opposite, inf), axis=1)
            gate_delay = where(
                finite, best, where(isfinite(best_opp), best_opp, 0.0)
            )

        output_time = astype(next_time[changed] + gate_delay, int64)
        count = toggle_counts[ci]
        last_c = last_time[ci]
        reject = (count > 0) & (
            (output_time - last_c < gate_delay * pathpulse_fraction)
            | (output_time <= last_c)
        )
        if any_(reject):
            # Reject: cancel the previous output pulse, do not record this one.
            rej = ci[reject]
            left = count[reject] - 1
            toggle_counts[rej] = left
            prev = toggle_starts[rej] + left - 1
            last_time[rej] = where(left > 0, toggle_buffer[maximum(prev, 0)], 0)
            accept = ~reject
            ci = ci[accept]
            count = count[accept]
            output_time = output_time[accept]
        # Accept: record the transition.
        toggle_buffer[toggle_starts[ci] + count] = output_time
        toggle_counts[ci] = count + 1
        last_time[ci] = output_time

    return LevelKernelResult(
        initial_values=initial_values,
        toggle_buffer=toggle_buffer,
        toggle_starts=toggle_starts,
        toggle_counts=toggle_counts,
    )


# ----------------------------------------------------------------------
# Clocked update: vectorized register commit at a capture edge
# ----------------------------------------------------------------------
def register_next_state(
    state: "object",
    data: "object",
    enable: "object",
    reset: "object",
    *,
    has_enable: "object",
    has_reset: "object",
    reset_active_low: "object",
    reset_values: "object",
) -> "object":
    """Next state of every register at one capture edge, in lock step.

    All arguments are host arrays over the register file's register axis:
    ``data``/``enable``/``reset`` carry the pin levels sampled at the edge
    (don't-care where the corresponding ``has_*`` mask is false), and the
    precedence matches :meth:`repro.cells.Cell.next_state` bit for bit —
    reset dominates enable dominates data.  Registers whose reset is
    asserted at the edge commit ``reset_values`` whether the reset is async
    or sync: an async reset still held at the capture edge pins the state
    exactly like a sync one (mid-cycle async pulses are handled separately
    by the clocked driver's pending-event ledger).
    """
    hnp = HOST
    next_state = hnp.where(has_enable & (enable == 0), state, data)
    reset_level = hnp.where(reset_active_low, 1 - reset, reset)
    reset_active = has_reset & (reset_level == 1)
    return hnp.astype(
        hnp.where(reset_active, reset_values, next_state), state.dtype
    )
