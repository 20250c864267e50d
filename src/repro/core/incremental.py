"""Cone-of-influence incremental recompilation and partial execution plans.

This module is the dirty-marking half of ``Session.rerun(edits)``: given the
seed gates an edit batch touched (:class:`~repro.core.edits.EditReceipt`), it

1. patches the compiled artifacts in place of a full recompile —
   :func:`rebuild_artifacts` rebuilds only the dirty slices of the packed
   truth/delay/pin tensors, reusing every clean level (and, for delay-only
   edits, the whole levelization and net index) byte-for-byte from the
   previous compile; and
2. derives a *partial execution plan* — :func:`build_dirty_plan` propagates
   the seeds forward through the fanout (``forward_cone``) and packs just the
   dirty sub-design, with the clean nets feeding the cone exposed as
   *boundary sources* whose waveforms come from the previous run.

Bit-identity contract
---------------------

The packed tensors produced here must be indistinguishable, to the kernels,
from a cold :func:`~repro.core.vector_kernel.pack_design` of the edited
design:

* non-structural rebuilds *append* the dirty gates' truth/delay rows at the
  end of the flat tensors and repoint only those gates' offsets — shared
  (deduplicated) rows referenced by clean gates are never mutated, so a
  dirty gate that used to share a row with a clean one simply stops sharing;
* structural rebuilds re-levelize but reuse every clean gate's
  :class:`~repro.core.kernel.GateKernelInputs` (the packed tensors are
  rebuilt from the same arrays both kernels read, so they cannot diverge).

Partial execution is exact because a gate outside the forward cone of every
edited gate sees bit-identical inputs, hence produces a bit-identical output
waveform; the dirty sub-design re-simulates from the previous run's exact
absolute waveforms at the cone boundary with the post-edit settle margin,
which the window-overlap invariance of the engine guarantees reproduces the
cold run of the edited design.

This file (with :mod:`repro.core.vector_kernel`) is one of the two
sanctioned homes of packed-tensor slice mutation — ``tools/lint_invariants.py``
rule ``MUT002`` rejects subscript writes to ``LevelTensors``/``PackedDesign``
fields anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from .compile_cache import CompiledArtifacts
from .delaytable import flatten_delay_array
from .edits import EditJournal, forward_cone
from .kernel import GateKernelInputs
from .vector_kernel import LevelTensors, PackedDesign, pack_design
from .xp import HOST, ArrayBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netlist.levelize import Levelization
    from ..netlist.netlist import Netlist
    from ..sdf.annotate import DelayAnnotation
    from .config import SimConfig


def derive_compile_key(base_key: str, journal: EditJournal) -> str:
    """Compile-cache key of a design reached by edits from a cached base.

    The chain key is the parent fingerprint plus the edit-journal
    fingerprint, so repeated ECO iterations (apply → rerun → undo → apply
    the next candidate) stay warm in the compile cache: undoing a batch
    cancels its journal entries and the key collapses back to ``base_key``,
    re-adopting the original artifacts.
    """
    fingerprint = journal.fingerprint()
    if not fingerprint:
        return base_key
    return f"{base_key}~eco:{fingerprint}"


@dataclass(frozen=True)
class ExecutionPlan:
    """What one engine run reads, executes, and reads back.

    A *full* plan covers the whole design (``simulate()``); a *dirty* plan
    from :func:`build_dirty_plan` covers only the cone of influence of an
    edit batch, with ``source_nets`` holding the cone's boundary nets (true
    stimulus sources plus clean nets feeding dirty gates) and
    ``readback_nets`` the dirty gate outputs.
    """

    source_nets: Tuple[str, ...]
    gates_by_level: Tuple[Tuple[object, ...], ...]
    readback_nets: Tuple[str, ...]
    packed: PackedDesign
    source_net_ids: "object"  # (len(source_nets),) int64 on the plan's device
    readback_net_ids: "object"  # (len(readback_nets),) int64 on the plan's device
    dirty_gates: int
    total_gates: int
    #: Partial plans extend every window's source slice by the settle
    #: margin on the right: boundary waveforms must keep the propagation
    #: tail a cold run's in-pool waveforms carry past the window edge
    #: (bounded by the critical-path estimate), or the final window's
    #: kept tail — and wire-filter decisions at the seam — would diverge.
    partial: bool = False

    @property
    def dirty_fraction(self) -> float:
        if self.total_gates <= 0:
            return 0.0
        return self.dirty_gates / self.total_gates


def build_gate_input(
    netlist: "Netlist", annotation: "DelayAnnotation", gate_name: str
) -> GateKernelInputs:
    """Per-gate kernel inputs: truth table, per-pin delay tables and wire
    delays (the cold compile and the incremental rebuild both call this)."""
    cell = netlist.instances[gate_name].cell
    truth_table = netlist.library.truth_table(cell.name).table
    if cell.num_inputs == 0:
        return GateKernelInputs(
            truth_table=truth_table,
            delay_arrays=(),
            wire_rise=(),
            wire_fall=(),
        )
    table = annotation.table_for(gate_name)
    delay_arrays = tuple(table.table_for(pin) for pin in cell.inputs)
    wire_rise = []
    wire_fall = []
    for pin in cell.inputs:
        wire = annotation.wire_delay(gate_name, pin)
        wire_rise.append(float(wire.rise))
        wire_fall.append(float(wire.fall))
    return GateKernelInputs(
        truth_table=truth_table,
        delay_arrays=delay_arrays,
        wire_rise=tuple(wire_rise),
        wire_fall=tuple(wire_fall),
    )


def estimated_path_delay(annotation: "DelayAnnotation", depth: int) -> int:
    """Critical-path estimate: it bounds how far an event can still
    propagate past a cycle-parallel window boundary, so it sizes the
    default settle margin (window overlap)."""
    max_wire = 0.0
    for wire in annotation.interconnect.values():
        max_wire = max(max_wire, wire.rise, wire.fall)
    return int(depth * (annotation.max_gate_delay() + max_wire))


def build_artifacts(
    netlist: "Netlist",
    annotation: "DelayAnnotation",
    levelization: "Levelization",
    xp: ArrayBackend,
    reuse: Optional[Mapping[str, GateKernelInputs]] = None,
    packed: Optional[PackedDesign] = None,
) -> CompiledArtifacts:
    """Compile a levelized design into the artifacts an engine installs.

    Each gate's kernel inputs are taken from ``reuse`` when present there
    and built otherwise; ``packed`` injects pre-built design tensors
    instead of packing them onto ``xp``.  Beside the packed tensors go the
    net-id tensors of the two bulk registration paths — gate outputs in
    readback order and stimulus sources in lowering order — so a compile
    cache hit skips their O(design) rebuild and device upload too.
    """
    from ..netlist import compile_netlist

    compiled = compile_netlist(netlist, levelization)
    reuse = reuse or {}
    gate_inputs = {
        name: reuse.get(name) or build_gate_input(netlist, annotation, name)
        for name in compiled.gates
    }
    if packed is None:
        packed = pack_design(
            compiled.gates_by_level,
            gate_inputs,
            extra_nets=tuple(netlist.source_nets()),
        ).to_device(xp)
    return CompiledArtifacts(
        compiled=compiled,
        gate_inputs=gate_inputs,
        packed=packed,
        readback_net_ids=xp.asarray(
            [packed.net_index[gate.output_net] for gate in compiled.gates.values()],
            dtype=xp.int64,
        ),
        source_net_ids=xp.asarray(
            [packed.net_index[net] for net in netlist.source_nets()],
            dtype=xp.int64,
        ),
        estimated_path_delay=estimated_path_delay(annotation, compiled.depth),
    )


def _patch_level(
    level: LevelTensors,
    dirty_rows: Sequence[int],
    gate_inputs: Mapping[str, GateKernelInputs],
    tt_append: List,
    delay_append: List,
    tt_cursor: int,
    delay_cursor: int,
    xp: ArrayBackend,
) -> Tuple[LevelTensors, int, int]:
    """Rebuild the dirty rows of one level's tensors.

    New truth/delay rows are *appended* to the design flats (via the
    ``tt_append``/``delay_append`` host chunk lists) and the dirty rows'
    offsets repointed at them; every clean row — including deduplicated
    rows the dirty gate used to share with clean gates — is left untouched.
    Returns the patched level plus the advanced append cursors.
    """
    hnp = HOST
    wire_rise = xp.copy(level.wire_rise)
    wire_fall = xp.copy(level.wire_fall)
    tt_offsets = xp.copy(level.tt_offsets)
    delay_offsets = xp.copy(level.delay_offsets)
    for g in dirty_rows:
        inp = gate_inputs[level.gate_names[g]]
        table = hnp.asarray(inp.truth_table, dtype=hnp.int8).reshape(-1)
        tt_append.append(table)
        tt_offsets[g] = tt_cursor
        tt_cursor += int(table.size)
        for i in range(inp.num_pins):
            chunk = flatten_delay_array(inp.delay_arrays[i])
            delay_append.append(chunk)
            delay_offsets[g, i] = delay_cursor
            delay_cursor += int(chunk.size)
            wire_rise[g, i] = inp.wire_rise[i]
            wire_fall[g, i] = inp.wire_fall[i]
    patched = replace(
        level,
        wire_rise=wire_rise,
        wire_fall=wire_fall,
        tt_offsets=tt_offsets,
        delay_offsets=delay_offsets,
    )
    return patched, tt_cursor, delay_cursor


def rebuild_artifacts(
    previous: CompiledArtifacts,
    netlist: "Netlist",
    annotation: "DelayAnnotation",
    config: "SimConfig",
    seeds: Sequence[str],
    structural: bool,
    xp: ArrayBackend,
) -> CompiledArtifacts:
    """Incrementally recompile after an edit batch touching ``seeds``.

    Non-structural edits (retype, delay resize) keep the levelization, net
    index, and every clean level byte-for-byte and patch only the seed
    gates' tensor rows; structural edits (rewire, buffer insert/remove)
    re-levelize but reuse every clean gate's kernel inputs.
    """
    ann = annotation if config.full_sdf else annotation.with_averaged_sdf()

    if not structural:
        compiled = previous.compiled
        gate_inputs: Dict[str, GateKernelInputs] = dict(previous.gate_inputs)
        dirty = [name for name in seeds if name in gate_inputs]
        for name in dirty:
            gate_inputs[name] = build_gate_input(netlist, ann, name)
        dirty_set = set(dirty)
        packed = previous.packed
        tt_cursor = int(xp.size(packed.tt_flat))
        delay_cursor = int(xp.size(packed.delay_flat))
        tt_append: List = []
        delay_append: List = []
        levels: List[LevelTensors] = []
        for level in packed.levels:
            rows = [
                g
                for g, name in enumerate(level.gate_names)
                if name in dirty_set
            ]
            if not rows:
                levels.append(level)
                continue
            patched, tt_cursor, delay_cursor = _patch_level(
                level,
                rows,
                gate_inputs,
                tt_append,
                delay_append,
                tt_cursor,
                delay_cursor,
                xp,
            )
            levels.append(patched)
        hnp = HOST
        tt_flat = packed.tt_flat
        delay_flat = packed.delay_flat
        if tt_append:
            tt_flat = xp.concatenate(
                [tt_flat, xp.asarray(hnp.concatenate(tt_append), dtype=xp.int8)]
            )
        if delay_append:
            delay_flat = xp.concatenate(
                [
                    delay_flat,
                    xp.asarray(hnp.concatenate(delay_append), dtype=xp.float64),
                ]
            )
        new_packed = PackedDesign(
            tt_flat=tt_flat,
            delay_flat=delay_flat,
            levels=tuple(levels),
            net_index=packed.net_index,
            device=packed.device,
        )
        return CompiledArtifacts(
            compiled=compiled,
            gate_inputs=gate_inputs,
            packed=new_packed,
            readback_net_ids=previous.readback_net_ids,
            source_net_ids=previous.source_net_ids,
            estimated_path_delay=estimated_path_delay(ann, compiled.depth),
        )

    # Structural: the level structure (and possibly the net population)
    # changed, so re-levelize — but reuse every clean gate's kernel inputs,
    # which keeps the expensive per-gate table assembly proportional to the
    # edit, and lets pack_design's id()-keyed delay dedup keep sharing rows.
    from ..netlist import levelize

    seed_set = set(seeds)
    reuse = {
        name: inputs
        for name, inputs in previous.gate_inputs.items()
        if name not in seed_set
    }
    return build_artifacts(netlist, ann, levelize(netlist), xp, reuse=reuse)


def build_dirty_plan(
    compiled: "object",
    gate_inputs: Mapping[str, GateKernelInputs],
    netlist: "Netlist",
    seeds: Sequence[str],
    xp: ArrayBackend,
) -> Optional[ExecutionPlan]:
    """Pack the forward cone of ``seeds`` into a partial execution plan.

    The sub-design keeps the full design's level structure restricted to
    dirty gates (same-level gates are independent and dirty outputs only
    feed strictly deeper levels, so the restriction stays topologically
    valid); empty levels are dropped.  Boundary nets — inputs of dirty
    gates produced outside the cone — are the plan's stimulus sources, in
    first-reference order.  Returns ``None`` when the cone is empty.
    """
    dirty = forward_cone(netlist, seeds)
    if not dirty:
        return None
    sub_levels: List[Tuple[object, ...]] = []
    readback: List[str] = []
    for level in compiled.gates_by_level:
        sub = tuple(gate for gate in level if gate.name in dirty)
        if sub:
            sub_levels.append(sub)
            readback.extend(gate.output_net for gate in sub)
    if not sub_levels:
        return None
    dirty_outputs = set(readback)
    boundary: List[str] = []
    seen = set(dirty_outputs)
    for level_gates in sub_levels:
        for gate in level_gates:
            for net in gate.input_nets:
                if net not in seen:
                    seen.add(net)
                    boundary.append(net)
    packed = pack_design(
        sub_levels, gate_inputs, extra_nets=tuple(boundary)
    ).to_device(xp)
    source_net_ids = xp.asarray(
        [packed.net_index[net] for net in boundary], dtype=xp.int64
    )
    readback_net_ids = xp.asarray(
        [packed.net_index[net] for net in readback], dtype=xp.int64
    )
    dirty_gates = sum(len(level_gates) for level_gates in sub_levels)
    return ExecutionPlan(
        source_nets=tuple(boundary),
        gates_by_level=tuple(sub_levels),
        readback_nets=tuple(readback),
        packed=packed,
        source_net_ids=source_net_ids,
        readback_net_ids=readback_net_ids,
        dirty_gates=dirty_gates,
        total_gates=int(compiled.gate_count),
        partial=True,
    )


def full_plan(
    compiled: "object",
    netlist: "Netlist",
    packed: PackedDesign,
    source_net_ids: "object",
    readback_net_ids: "object",
) -> ExecutionPlan:
    """The whole-design plan ``simulate()`` executes (trivially clean)."""
    return ExecutionPlan(
        source_nets=tuple(netlist.source_nets()),
        gates_by_level=tuple(tuple(level) for level in compiled.gates_by_level),
        readback_nets=tuple(
            gate.output_net for gate in compiled.gates.values()
        ),
        packed=packed,
        source_net_ids=source_net_ids,
        readback_net_ids=readback_net_ids,
        dirty_gates=int(compiled.gate_count),
        total_gates=int(compiled.gate_count),
    )
