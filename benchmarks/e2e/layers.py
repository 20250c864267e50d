"""The layer vocabulary: wrap table, per-layer metric names, table arithmetic.

Everything here is data plus the one function that folds recorded spans
into the per-layer table.  Metric names are ``<module>.<what>``; seconds
are self time summed over one traced unit, counts come from public
result/stat fields.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import END, NAME, START, UNIT, Tracer, has_ancestor, self_times


def _frame_bytes(args: tuple, frame: bytes) -> Tuple[str, float]:
    # ``encode_frame(kind, payload, ...)``: kind 1 is a REQUEST frame.
    side = "request" if args and args[0] == 1 else "response"
    return f"serve.wire.{side}_bytes", float(len(frame))


#: ``(module, attribute, metric[, counter hook])``.  The module is the one
#: whose *namespace the caller looks the name up in* — ``engine.py`` binds
#: ``lower_stimulus`` & co. with ``from .restructure import ...``, so the
#: patch goes on ``repro.core.engine``.  Several targets may share a
#: metric (their self times add up).
WRAP_TABLE: List[tuple] = [
    ("repro.api.backend", "SimBackend.prepare", "api.prepare_s"),
    ("repro.analysis.engine", "analyze_for_prepare", "analysis.analyze_s"),
    ("repro.core.engine", "GatspiEngine.compile", "core.compile_s"),
    ("repro.api.session", "Session.run", "api.run_s"),
    ("repro.api.session", "Session.run_stream", "api.run_s"),
    ("repro.api.session", "Session.run_cycles_stream", "api.run_s"),
    ("repro.api.adapters", "GatspiSession.rerun", "api.run_s"),
    ("repro.api.adapters", "GatspiSession.apply_edits", "api.undo_s"),
    ("repro.core.engine", "GatspiEngine.simulate", "core.engine_self_s"),
    ("repro.core.engine", "GatspiEngine.resimulate", "core.engine_self_s"),
    ("repro.core.engine", "lower_stimulus", "core.restructure.lower_s"),
    ("repro.core.engine", "slice_windows", "core.restructure.slice_s"),
    ("repro.core.engine", "trim_readback", "core.restructure.trim_s"),
    ("repro.core.engine", "stitch_windows", "core.restructure.stitch_s"),
    ("repro.core.memory", "WaveformPool.load_windows", "core.memory.load_s"),
    ("repro.core.memory", "WaveformPool.gather_level_inputs", "core.memory.gather_s"),
    ("repro.core.memory", "WaveformPool.allocate_batch", "core.memory.allocate_s"),
    ("repro.core.memory", "WaveformPool.store_level_outputs", "core.memory.store_s"),
    ("repro.core.memory", "WaveformPool.store_padding_waveform", "core.memory.store_s"),
    ("repro.core.memory", "WaveformPool.window_table", "core.memory.window_table_s"),
    ("repro.core.memory", "WaveformPool.release_windows", "core.memory.release_s"),
    ("repro.core.engine", "simulate_level", "core.vector_kernel_s"),
    ("repro.core.engine", "tile_level", "core.vector_kernel_s"),
    ("repro.core.clocked", "run_clocked_stream", "core.clocked.frame_loop_s"),
    ("repro.core.clocked", "register_next_state", "core.vector_kernel.register_next_state_s"),
    ("repro.core.engine", "build_dirty_plan", "core.incremental.plan_s"),
    ("repro.core.engine", "rebuild_artifacts", "core.incremental.rebuild_s"),
    ("repro.power.activity", "StreamingActivityAccumulator.add_batch", "power.accumulate_s"),
    ("repro.power.activity", "StreamingActivityAccumulator.finalize", "power.accumulate_s"),
    ("repro.waveforms.vcd", "VcdEventStream.span_events", "waveforms.vcd_stream_s"),
    ("repro.serve.wire", "encode_frame", "serve.wire.encode_s", _frame_bytes),
    ("repro.serve.wire", "read_frame", "serve.wire.decode_s"),
    ("repro.serve.server", "read_frame", "serve.wire.decode_s"),
    # Blocking socket reads: a child of read_frame, so decode_s is the
    # header checks plus unpickling and never the wait for the peer.
    ("repro.serve.wire", "_recv_exact", "serve.wire.recv_wait_s"),
    ("repro.serve.service", "SimulationService.submit", "serve.service.admit_s"),
]

#: Spans whose self time is reported under another row name: the glue a
#: parent span keeps once its wrapped children are subtracted.
SELF_ROW = {
    "api.run_s": "core.engine_self_s",
    "api.prepare_s": "api.prepare_self_s",
    "unit": "harness.glue_s",
    "op": "harness.glue_s",
}
#: Reported inclusive (outermost span durations) beside their self row.
INCLUSIVE = ("api.prepare_s", "api.run_s")
#: A wait for another thread, never a row (its cause has rows of its own).
WAIT = "serve.wire.recv_wait_s"
#: Rows that only make the table sum; left out of ``trace.coverage_frac``.
REMAINDER_ROWS = ("harness.glue_s", "serve.wire.transit_s")

#: Self-time rows, in table order.
SECONDS_ROWS: List[str] = [
    "netlist.parse_verilog_s",
    "netlist.import_yosys_s",
    "sdf.parse_s",
    "sdf.annotate_s",
    "waveforms.read_vcd_s",
    "waveforms.vcd_stream_s",
    "api.prepare_self_s",
    "analysis.analyze_s",
    "core.compile_s",
    "core.engine_self_s",
    "core.restructure.lower_s",
    "core.restructure.slice_s",
    "core.restructure.trim_s",
    "core.restructure.stitch_s",
    "core.memory.load_s",
    "core.memory.gather_s",
    "core.memory.allocate_s",
    "core.memory.store_s",
    "core.memory.window_table_s",
    "core.memory.release_s",
    "core.vector_kernel_s",
    "core.clocked.frame_loop_s",
    "core.vector_kernel.register_next_state_s",
    "core.incremental.plan_s",
    "core.incremental.rebuild_s",
    "api.undo_s",
    "power.accumulate_s",
    "waveforms.saif_s",
    "serve.wire.encode_s",
    "serve.wire.decode_s",
    "serve.service.admit_s",
    "serve.service.queue_wait_s",
    "serve.wire.transit_s",
    "harness.glue_s",
]
#: Inclusive seconds (parents of rows above; not rows themselves).
SECONDS_INCLUSIVE: List[str] = ["api.prepare_s", "api.run_s", "serve.service.run_s"]
#: Counts read from public result/stat fields after the traced unit.
COUNTS: List[str] = [
    "core.compile_cache.hits",
    "core.compile_cache.misses",
    "analysis.cache_hits",
    "core.memory.pool_words_used",
    "core.vector_kernel.launches",
    "core.vector_kernel.tasks",
    "core.windows",
    "core.segments",
    "core.clocked.frames",
    "core.incremental.dirty_gates",
    "core.incremental.dirty_fraction",
    "core.incremental.fell_back",
    "serve.wire.request_bytes",
    "serve.wire.response_bytes",
    "serve.service.session_hits",
    "serve.service.session_misses",
    "serve.service.batches",
    "serve.service.coalesced",
    "serve.service.fused_fallbacks",
]
#: Qualifiers of the table itself.
TRACE_METRICS: List[str] = [
    "trace.overhead_frac",
    "trace.coverage_frac",
    "trace.missing",
    "trace.spans",
]


def fold_unit(
    tracer: Tracer,
    unit: int,
    root: str,
    extra_rows: Dict[str, float],
) -> Tuple[Dict[str, float], Dict[str, float], float, int]:
    """Fold the spans of one traced unit into the layer table.

    ``root`` names the spans whose durations the rows must add up to:
    ``"unit"`` for the single-threaded job workloads (the unit's wall
    time), ``"op"`` for ``wire_serve`` (request-seconds: the sum of the
    client round trips, which is what latency is made of when requests
    overlap).  ``extra_rows`` are rows measured elsewhere than by spans
    (service queue wait from ``SimulationService.stats()``).

    Returns ``(rows, inclusive, total, span_count)``; the rows sum to
    ``total`` — whatever no span covers lands in ``harness.glue_s`` (time
    inside the root spans themselves) or ``serve.wire.transit_s`` (time
    between threads: socket I/O, hand-offs, interpreter-lock waits).
    """
    rows: Dict[str, float] = {}
    inclusive: Dict[str, float] = {name: 0.0 for name in INCLUSIVE}
    total = 0.0
    count = 0
    for _ident, spans in tracer.threads():
        own = self_times(spans)
        for index, record in enumerate(spans):
            # A server thread is still blocked in its next read when the
            # unit ends; a span that never closed is not part of it.
            if record[UNIT] != unit or record[END] == 0.0:
                continue
            count += 1
            name = record[NAME]
            duration = record[END] - record[START]
            if name == root:
                total += duration
            if name == WAIT or (name == "unit" and root != "unit"):
                continue
            if name in inclusive and not has_ancestor(spans, index, name):
                inclusive[name] += duration
            row = SELF_ROW.get(name, name)
            rows[row] = rows.get(row, 0.0) + own[index]
    for name, value in extra_rows.items():
        rows[name] = rows.get(name, 0.0) + value
    # Single-threaded units tile exactly; across threads the remainder is
    # the time requests spent between spans.
    rows["serve.wire.transit_s"] = max(0.0, total - sum(rows.values()))
    return rows, inclusive, total, count


def coverage(rows: Dict[str, float], total: float) -> float:
    """Share of ``total`` that measured rows (not remainders) account for."""
    if total <= 0:
        return 0.0
    measured = sum(v for k, v in rows.items() if k not in REMAINDER_ROWS)
    return measured / total


def format_table(rows: Dict[str, float], total: float, title: str) -> str:
    """The per-workload table of self times, largest first."""
    lines = [f"  layer table: {title} (rows sum to {sum(rows.values()):.4f} s of {total:.4f} s)"]
    for name, value in sorted(rows.items(), key=lambda kv: -kv[1]):
        if value <= 0:
            continue
        share = value / total if total > 0 else 0.0
        lines.append(f"    {name:<44s} {value:10.4f} s  {share:6.1%}")
    return "\n".join(lines)
