"""Design-rule analysis over netlists, SDF annotations, and delay tables.

:func:`analyze_design` evaluates every registered rule (or a caller-chosen
subset) against one design and returns a structured
:class:`~repro.analysis.report.AnalysisReport`.  Reports are memoized
process-wide in a fingerprint-keyed LRU — the same content fingerprints the
compile cache uses — so the serving layer and repeated ``prepare()`` calls
pay for analysis once per distinct design, exactly like compilation.

:func:`analyze_for_prepare` is the session-layer entry point: it honours
``SimConfig(analysis="strict"|"warn"|"off")`` — ``strict`` raises
:class:`DesignAnalysisError` on any error-severity finding before the
backend compiles anything, ``warn`` attaches the report to the session and
emits a Python warning when errors are present, ``off`` skips analysis
entirely.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import OrderedDict
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from ..core.compile_cache import (
    fingerprint_annotation,
    fingerprint_netlist,
    levelize_cached,
)
from ..core.incremental import estimated_path_delay
from ..core.xp import HOST
from ..netlist import Levelization, Netlist, NetlistError, levelize
from .report import AnalysisReport, Finding
from .rules import RULES, RuleSpec, get_rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import SimConfig
    from ..netlist.levelize import RegisterCrossing
    from ..sdf.annotate import DelayAnnotation
    from ..sdf.types import SdfFile


class AnalysisWarning(UserWarning):
    """Emitted when ``analysis="warn"`` finds error-severity violations."""


class DesignAnalysisError(ValueError):
    """Raised by strict-mode analysis when a design violates an error rule.

    The offending :class:`AnalysisReport` is available as :attr:`report`.
    """

    def __init__(self, report: AnalysisReport):
        self.report = report
        errors = report.errors
        rule_ids = ", ".join(sorted({f.rule_id for f in errors}))
        super().__init__(
            f"design {report.design!r} failed analysis with "
            f"{len(errors)} error(s) [{rule_ids}]:\n{report.format_findings()}"
        )


class AnalysisContext:
    """Shared, lazily-built structural tensors one analysis run reads.

    Rules pull what they need; expensive artifacts (levelization, the
    padded per-level input-id matrices, the loop peel) are computed at
    most once per run and shared across rules.
    """

    def __init__(
        self,
        netlist: Netlist,
        annotation: Optional["DelayAnnotation"] = None,
        sdf: Optional["SdfFile"] = None,
        horizon: Optional[int] = None,
        netlist_fingerprint: Optional[str] = None,
    ):
        self.netlist = netlist
        self.annotation = annotation
        self.sdf = sdf
        self.horizon = horizon
        #: Precomputed content fingerprint (when the report cache already
        #: hashed the netlist) — routes levelization through the shared
        #: memo so the engine's subsequent compile reuses it.
        self.netlist_fingerprint = netlist_fingerprint

    # ------------------------------------------------------------------
    # Flat net tensors
    # ------------------------------------------------------------------
    @cached_property
    def net_names(self) -> Tuple[str, ...]:
        return tuple(self.netlist.nets)

    @cached_property
    def net_id(self) -> Dict[str, int]:
        return {name: index for index, name in enumerate(self.net_names)}

    @cached_property
    def fanout(self) -> "object":
        """(num_nets,) int64 load counts, in :attr:`net_names` order."""
        hnp = HOST
        return hnp.asarray(
            [len(self.netlist.nets[name].loads) for name in self.net_names],
            dtype=hnp.int64,
        )

    @cached_property
    def source_net_set(self) -> Set[str]:
        return set(self.netlist.source_nets())

    @cached_property
    def combinational_io(self) -> Tuple[Tuple[str, Tuple[str, ...], str], ...]:
        """``(name, input_nets, output_net)`` per combinational instance.

        Materialized once: several rules walk the same per-gate structure,
        and rebuilding the connection tuples per rule dominated analysis
        time on large designs.
        """
        result = []
        for inst in self.netlist.instances.values():
            cell = inst.cell
            if cell.is_sequential:
                continue
            connections = inst.connections
            result.append((
                inst.name,
                tuple([connections[pin] for pin in cell.inputs]),
                connections[cell.output],
            ))
        return tuple(result)

    # ------------------------------------------------------------------
    # Levelization (None when the design cannot be levelized)
    # ------------------------------------------------------------------
    @cached_property
    def levelization(self) -> Optional[Levelization]:
        try:
            if self.netlist_fingerprint is not None:
                return levelize_cached(
                    self.netlist, fingerprint=self.netlist_fingerprint
                )
            return levelize(self.netlist)
        except (NetlistError, KeyError):
            # KeyError: a structurally corrupted netlist (e.g. an instance
            # rewired past the construction-time driver bookkeeping) —
            # exactly what analysis exists to diagnose, so it must not
            # crash on it.
            return None

    @cached_property
    def _topo_io(self) -> Tuple[Tuple[str, Tuple[str, ...], str], ...]:
        """:attr:`combinational_io` in topological (level) order, or ``()``
        when the design cannot be levelized."""
        levelization = self.levelization
        if levelization is None:
            return ()
        gate_levels = levelization.gate_levels
        return tuple(
            sorted(self.combinational_io, key=lambda io: gate_levels[io[0]])
        )

    # ------------------------------------------------------------------
    # Loop detection (two-phase Kahn peel; names only on-cycle gates)
    # ------------------------------------------------------------------
    @cached_property
    def loop_instances(self) -> Tuple[str, ...]:
        netlist = self.netlist
        # Fast path: a successful levelization IS a topological order, so
        # there is no cycle and the (Python-loop) peel below never needs to
        # run on healthy designs.
        if self.levelization is not None:
            return ()
        combinational = self.combinational_io
        resolved = set(self.source_net_set)
        # Undriven inputs are a different rule's problem: treat them as
        # resolved so they do not masquerade as loop members here.
        for _, input_nets, _ in combinational:
            for net_name in input_nets:
                if netlist.nets[net_name].driver is None:
                    resolved.add(net_name)
        consumers: Dict[str, List[str]] = {}
        pending: Dict[str, int] = {}
        ready: List[str] = []
        output_of: Dict[str, str] = {}
        for name, input_nets, output_net in combinational:
            output_of[name] = output_net
            remaining = 0
            for net_name in input_nets:
                if net_name in resolved:
                    continue
                remaining += 1
                consumers.setdefault(net_name, []).append(name)
            pending[name] = remaining
            if remaining == 0:
                ready.append(name)
        # Forward peel: everything reachable in topological order drops out.
        while ready:
            name = ready.pop()
            del pending[name]
            output = output_of[name]
            for consumer in consumers.get(output, ()):
                if consumer in pending:
                    pending[consumer] -= 1
                    if pending[consumer] == 0:
                        ready.append(consumer)
        if not pending:
            return ()
        # Backward peel within the remainder: gates whose output feeds no
        # remaining gate are merely *downstream* of a cycle, not on one.
        remaining_set = set(pending)
        out_degree: Dict[str, int] = {name: 0 for name in remaining_set}
        feeds: Dict[str, List[str]] = {}
        for name in remaining_set:
            output = output_of[name]
            for consumer in consumers.get(output, ()):
                if consumer in remaining_set:
                    out_degree[name] += 1
                    feeds.setdefault(consumer, []).append(name)
        ready = [name for name, degree in out_degree.items() if degree == 0]
        while ready:
            name = ready.pop()
            remaining_set.discard(name)
            for producer in feeds.get(name, ()):
                if producer in remaining_set:
                    out_degree[producer] -= 1
                    if out_degree[producer] == 0:
                        ready.append(producer)
        return tuple(sorted(remaining_set))

    # ------------------------------------------------------------------
    # Cone propagation (set-based sweeps in topological order; at
    # reproduction scale building padded per-level id matrices costs more
    # than the propagation itself, so these stay as plain set passes)
    # ------------------------------------------------------------------
    @cached_property
    def constant_gates(self) -> Tuple[str, ...]:
        """Gates (with >= 1 input) whose entire input cone is tie-cell
        constant, in level order."""
        topo = self._topo_io
        if not topo:
            return ()
        # Seed with zero-input (tie-high/low) outputs, then sweep forward:
        # a gate whose every input is constant produces a constant output.
        constant = {
            output_net for _, input_nets, output_net in topo if not input_nets
        }
        flagged: List[str] = []
        for name, input_nets, output_net in topo:
            if input_nets and all(n in constant for n in input_nets):
                constant.add(output_net)
                flagged.append(name)
        return tuple(flagged)

    @cached_property
    def register_crossings(self) -> Tuple["RegisterCrossing", ...]:
        """The design's register crossing table, or ``()`` when the
        netlist is too corrupted to enumerate it (other rules report
        the corruption)."""
        from ..netlist import register_crossings

        try:
            return tuple(register_crossings(self.netlist))
        except (NetlistError, KeyError):
            return ()

    @cached_property
    def unreachable_gates(self) -> Tuple[str, ...]:
        """Gates whose output cone reaches no endpoint, in level order.

        Registers are *not* unconditional endpoints: a register is live
        only when its Q net is itself needed (it reaches a primary output,
        directly or through other live registers), and only live
        registers' data/enable/reset/clock cones count as observable.
        This is a fixed point because liveness flows backwards through
        register crossings: Q needed -> D cone needed -> other Qs needed.
        """
        topo = self._topo_io
        if not topo:
            return ()
        crossings = self.register_crossings
        needed: Set[str] = set(self.netlist.outputs)
        while True:
            before = len(needed)
            for crossing in crossings:
                if crossing.q_net not in needed:
                    continue
                for net in (
                    crossing.d_net,
                    crossing.enable_net,
                    crossing.reset_net,
                    crossing.clock_net,
                ):
                    if net is not None:
                        needed.add(net)
            for _, input_nets, output_net in reversed(topo):
                if output_net in needed:
                    needed.update(input_nets)
            if len(needed) == before:
                break
        return tuple(
            name for name, _, output_net in topo if output_net not in needed
        )

    # ------------------------------------------------------------------
    # Delay estimate (shared by the EOW-overflow rule)
    # ------------------------------------------------------------------
    @cached_property
    def estimated_path_delay(self) -> int:
        """Upper bound on the critical-path delay: the engine's settle
        margin when annotated, intrinsic cell delays when not."""
        levelization = self.levelization
        if levelization is None:
            return 0
        depth = levelization.depth
        if self.annotation is not None:
            return estimated_path_delay(self.annotation, depth)
        max_intrinsic = 0.0
        for inst in self.netlist.combinational_instances():
            cell = inst.cell
            max_intrinsic = max(
                max_intrinsic, float(cell.intrinsic_rise), float(cell.intrinsic_fall)
            )
        return int(depth * max_intrinsic)


# ======================================================================
# Report cache (fingerprint-keyed LRU, mirroring the compile cache)
# ======================================================================
#: Default maximum number of cached analysis reports.
ANALYSIS_CACHE_CAPACITY = 64

_LOCK = threading.RLock()
_CACHE: "OrderedDict[str, AnalysisReport]" = OrderedDict()
_capacity = ANALYSIS_CACHE_CAPACITY
_HITS = 0
_MISSES = 0
_RUNS = 0


def set_analysis_cache_capacity(capacity: int) -> None:
    """Set the maximum number of cached reports (0 disables caching)."""
    global _capacity
    if capacity < 0:
        raise ValueError("analysis cache capacity must be non-negative")
    with _LOCK:
        _capacity = int(capacity)
        while len(_CACHE) > _capacity:
            _CACHE.popitem(last=False)


def clear_analysis_cache() -> None:
    """Drop every cached report and reset the counters."""
    global _HITS, _MISSES, _RUNS
    with _LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0
        _RUNS = 0


def analysis_cache_info() -> Dict[str, int]:
    """Occupancy, hit/miss counters, and the number of full rule runs."""
    with _LOCK:
        return {
            "size": len(_CACHE),
            "capacity": _capacity,
            "hits": _HITS,
            "misses": _MISSES,
            "runs": _RUNS,
        }


def _fingerprint_sdf(sdf: Optional["SdfFile"]) -> str:
    if sdf is None:
        return "none"
    import hashlib

    h = hashlib.sha256()
    h.update(sdf.design.encode())
    for cell in sdf.cells:
        h.update(repr((cell.cell_type, cell.instance, cell.iopaths)).encode())
        h.update(repr(cell.interconnects).encode())
    h.update(repr(sdf.interconnects).encode())
    return h.hexdigest()


def analysis_key(
    netlist: Netlist,
    annotation: Optional["DelayAnnotation"],
    sdf: Optional["SdfFile"],
    horizon: Optional[int],
    rule_ids: Tuple[str, ...],
    netlist_fingerprint: Optional[str] = None,
) -> str:
    """Content-based cache key of one analysis invocation."""
    annotation_fp = (
        fingerprint_annotation(annotation, netlist)
        if annotation is not None
        else "default"
    )
    return "|".join(
        (
            netlist_fingerprint or fingerprint_netlist(netlist),
            annotation_fp,
            _fingerprint_sdf(sdf),
            f"horizon={horizon}",
            ",".join(rule_ids),
        )
    )


# ======================================================================
# Entry points
# ======================================================================
def analyze_design(
    netlist: Netlist,
    annotation: Optional["DelayAnnotation"] = None,
    sdf: Optional["SdfFile"] = None,
    *,
    horizon: Optional[int] = None,
    rules: Optional[Iterable[str]] = None,
    use_cache: bool = True,
    netlist_fingerprint: Optional[str] = None,
) -> AnalysisReport:
    """Evaluate design rules and return the structured report.

    ``rules`` restricts evaluation to the named rule ids (default: every
    registered rule); ``horizon`` (a duration in time units) arms the
    EOW-overflow rule.  With ``use_cache`` (default) reports are memoized
    by content fingerprint, so repeated analysis of structurally identical
    designs is a dictionary hit.  A caller that already hashed the netlist
    (the serving admission gate computes the same fingerprint for its
    session key) passes ``netlist_fingerprint`` to skip the re-hash.
    """
    global _HITS, _MISSES, _RUNS
    if rules is None:
        specs: List[RuleSpec] = list(RULES.values())
    else:
        specs = [get_rule(rule_id) for rule_id in rules]
    rule_ids = tuple(spec.rule_id for spec in specs)
    key = ""
    netlist_fp: Optional[str] = netlist_fingerprint
    if use_cache:
        if netlist_fp is None:
            netlist_fp = fingerprint_netlist(netlist)
        key = analysis_key(
            netlist, annotation, sdf, horizon, rule_ids,
            netlist_fingerprint=netlist_fp,
        )
        with _LOCK:
            cached = _CACHE.get(key)
            if cached is not None:
                _CACHE.move_to_end(key)
                _HITS += 1
                return cached
            _MISSES += 1
    start = time.perf_counter()
    context = AnalysisContext(
        netlist,
        annotation=annotation,
        sdf=sdf,
        horizon=horizon,
        netlist_fingerprint=netlist_fp,
    )
    findings: List[Finding] = []
    for spec in specs:
        findings.extend(spec.func(context))
    report = AnalysisReport(
        design=netlist.name,
        findings=findings,
        rules_run=rule_ids,
        fingerprint=key,
        analysis_seconds=time.perf_counter() - start,
    )
    with _LOCK:
        _RUNS += 1
        if use_cache and _capacity > 0:
            _CACHE[key] = report
            _CACHE.move_to_end(key)
            while len(_CACHE) > _capacity:
                _CACHE.popitem(last=False)
    return report


def analyze_for_prepare(
    netlist: Netlist,
    annotation: Optional["DelayAnnotation"],
    config: "SimConfig",
) -> Optional[AnalysisReport]:
    """Analysis as run by ``SimBackend.prepare`` according to the config.

    ``analysis="off"`` returns ``None`` without evaluating anything;
    ``"strict"`` raises :class:`DesignAnalysisError` when any
    error-severity finding exists; ``"warn"`` returns the report (cached
    by fingerprint, so repeated prepares re-use it) and emits an
    :class:`AnalysisWarning` when errors are present — the subsequent
    compile will typically fail anyway, but with the diagnosis already on
    record.
    """
    mode = config.analysis
    if mode == "off":
        return None
    report = analyze_design(netlist, annotation=annotation)
    if report.has_errors:
        if mode == "strict":
            raise DesignAnalysisError(report)
        warnings.warn(
            f"design {netlist.name!r} has analysis errors: "
            f"{report.summary()}",
            AnalysisWarning,
            stacklevel=3,
        )
    return report
