"""The six workloads.  Each is ``setup()`` once, then ``unit()`` many times.

A *unit* is a fixed amount of work (one job, one pass over a probe list,
one pass over a request schedule); the harness repeats units for
``--seconds`` and reports medians.  ``setup()`` materialises the inputs
from the seed and brings the program to the state units start from
(files written, sessions prepared, server up); it is what ``setup_s``
times, so it holds no benchmark-side checking.  ``verify()`` runs once,
before any timing: it computes the in-memory references every unit is
checked against and compares the engine with the event-driven oracle.
Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import copy
import os
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.engine import analysis_cache_info, clear_analysis_cache
from repro.api import get_backend
from repro.bench import designs
from repro.core import SimConfig, clear_compile_cache
from repro.core.compile_cache import cache_info, fingerprint_netlist
from repro.core.edits import Edit, InsertBuffer, RetypeGate, SetPinDelay
from repro.core.waveform import Waveform
from repro.netlist import levelize, load_fixture, parse_verilog
from repro.sdf.annotate import annotation_from_sdf
from repro.sdf.parser import parse_sdf
from repro.serve import ServeRequest, SimulationServer, SimulationService, WireClient
from repro.testing import build_random_netlist
from repro.waveforms.saif import saif_from_result
from repro.waveforms.vcd import VcdEventStream, read_vcd

import inputs
from spans import Tracer

NPROC = os.cpu_count() or 1


@dataclass
class UnitResult:
    """What one unit reports back to the harness."""

    #: Seconds from "inputs parsed/opened" to "SAIF text produced"
    #: (``eco_rerun``: baseline run plus every rerun; ``wire_serve``: the
    #: service's busy seconds for the pass).
    sim_s: float
    #: Per-operation latency in ms (one job, probe or request each).
    op_ms: List[float]
    #: Operations whose output was wrong or that raised.
    failed: int
    #: Per-layer counts read from public result/stat fields.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Rows measured elsewhere than by spans (service stats deltas).
    extra_rows: Dict[str, float] = field(default_factory=dict)
    #: Inclusive seconds measured elsewhere than by spans.
    extra_inclusive: Dict[str, float] = field(default_factory=dict)


def _engine_counts(stats: Any) -> Dict[str, float]:
    return {
        "core.vector_kernel.launches": stats.level_batches,
        "core.vector_kernel.tasks": stats.kernel_invocations,
        "core.windows": stats.windows,
        "core.segments": stats.segments,
        "core.memory.pool_words_used": stats.pool_words_used,
    }


def _cache_snapshot() -> Tuple[int, int, int]:
    compile_info = cache_info()
    return compile_info["hits"], compile_info["misses"], analysis_cache_info()["hits"]


def _cache_counts(before: Tuple[int, int, int]) -> Dict[str, float]:
    """Cache traffic since ``before`` (the counters are process-wide)."""
    names = ("core.compile_cache.hits", "core.compile_cache.misses", "analysis.cache_hits")
    return {name: now - then for name, now, then in zip(names, _cache_snapshot(), before)}


def _oracle_mismatch(netlist, annotation, config, stimulus, cycles) -> int:
    """Nets whose toggle count differs between ``gatspi`` and ``event``."""
    fast = get_backend("gatspi").prepare(netlist, annotation=annotation, config=config)
    slow = get_backend("event").prepare(netlist, annotation=annotation, config=config)
    return len(
        fast.run(stimulus, cycles=cycles).differing_nets(
            slow.run(stimulus, cycles=cycles)
        )
    )


class Workload:
    """Base class; subclasses fill in ``setup`` and ``unit``."""

    name = ""
    #: Span name the layer-table rows must add up to (see ``layers.fold_unit``).
    table_root = "unit"
    #: Percentile reported as ``latency_tail_ms``: with one op per unit a
    #: run collects ~10 samples, so the job workloads report the upper
    #: quartile; workloads with >=100 op samples per run report p90 (the
    #: highest percentile with ten samples beyond it).
    tail_percentile = 75.0

    def __init__(self, seed: int, workdir: str, tracer: Tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        #: Nets differing from the event-driven oracle (checked in setup).
        self.oracle_mismatch_nets = 0
        #: What ``goldens.json`` pins for the default seed.
        self.golden: Dict[str, Any] = {}

    def setup(self) -> None:
        """Inputs from the seed, program ready for units.  Repeatable."""
        raise NotImplementedError

    def verify(self) -> None:
        """References, goldens and the oracle check (after one ``setup``)."""
        raise NotImplementedError

    def unit(self) -> UnitResult:
        raise NotImplementedError

    def warm_up(self) -> UnitResult:
        """The checked, untimed-as-a-unit run that ends set-up: one unit."""
        return self.unit()

    def close(self) -> None:
        """Release what ``setup`` opened."""

    # Shared by the four job workloads (one job per unit, one SAIF out).
    def _set_reference(self, reference: Any, design_name: str, **golden_inputs: Any) -> None:
        """Pin what every unit's output must equal (and the goldens entry)."""
        self.expected_toggles = reference.total_toggles()
        self.expected_saif = inputs.sha256_text(
            saif_from_result(reference, design=design_name)
        )
        self.golden = dict(
            golden_inputs,
            total_toggles=self.expected_toggles,
            saif_sha256=self.expected_saif,
        )

    def _job_result(
        self, result: Any, saif_text: str, sim_s: float, caches: Tuple[int, int, int]
    ) -> UnitResult:
        wrong = (
            result.total_toggles() != self.expected_toggles
            or inputs.sha256_text(saif_text) != self.expected_saif
        )
        counts = _engine_counts(result.stats)
        counts.update(_cache_counts(caches))
        return UnitResult(sim_s=sim_s, op_ms=[], failed=int(wrong), counts=counts)


# ----------------------------------------------------------------------
# batch_deep / batch_wide: a cold job from files
# ----------------------------------------------------------------------
class BatchJob(Workload):
    """Verilog + SDF + VCD files -> prepare -> run -> SAIF file, all cold."""

    cycles = 0
    activity = 0.0
    oracle_cycles = 0

    def build_netlist(self):
        raise NotImplementedError

    def setup(self) -> None:
        netlist = inputs.flatten_netlist(self.build_netlist())
        design = inputs.build_design(
            netlist,
            seed=self.seed,
            cycles=self.cycles,
            activity=self.activity,
        )
        self.design = design
        self.config = SimConfig(clock_period=design.clock_period)
        self.files = inputs.write_design_files(design, self.workdir, self.name)
        self.saif_path = os.path.join(self.workdir, f"{self.name}.saif")

    def verify(self) -> None:
        design = self.design
        netlist = design.netlist
        reference = (
            get_backend("gatspi")
            .prepare(netlist, annotation=design.annotation, config=self.config)
            .run(design.stimulus, cycles=design.cycles)
        )
        self._set_reference(
            reference,
            netlist.name,
            netlist_fingerprint=fingerprint_netlist(netlist),
            sdf_sha256=inputs.sha256_text(inputs.read_text(self.files.sdf)),
            vcd_sha256=inputs.sha256_text(inputs.read_text(self.files.vcd)),
        )
        self.oracle_mismatch_nets = _oracle_mismatch(
            netlist, design.annotation, self.config, design.stimulus, self.oracle_cycles
        )

    def unit(self) -> UnitResult:
        span = self.tracer.span
        clear_compile_cache()
        clear_analysis_cache()
        caches = _cache_snapshot()
        with span("unit"):
            with span("netlist.parse_verilog_s"):
                netlist = parse_verilog(inputs.read_text(self.files.verilog))
            with span("sdf.parse_s"):
                sdf = parse_sdf(inputs.read_text(self.files.sdf))
            with span("sdf.annotate_s"):
                annotation = annotation_from_sdf(netlist, sdf)
            with span("waveforms.read_vcd_s"):
                stimulus = read_vcd(self.files.vcd)
            start = time.perf_counter()
            with span("api.prepare_s"):
                session = get_backend("gatspi").prepare(
                    netlist, annotation=annotation, config=self.config
                )
            with span("api.run_s"):
                result = session.run(stimulus, cycles=self.cycles)
            with span("waveforms.saif_s"):
                text = saif_from_result(result, design=netlist.name)
                with open(self.saif_path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            sim_s = time.perf_counter() - start
        return self._job_result(result, text, sim_s, caches)


class BatchDeep(BatchJob):
    name = "batch_deep"
    cycles = 1000
    activity = 1.0
    oracle_cycles = 150

    def build_netlist(self):
        return designs.ripple_carry_adder(32, name="adder32")


class BatchWide(BatchJob):
    name = "batch_wide"
    cycles = 1000
    activity = 0.005
    oracle_cycles = 1000

    def build_netlist(self):
        return designs.industry_like(
            gate_count=500, num_flops=96, depth=8, seed=111, name="wide"
        )


# ----------------------------------------------------------------------
# stream_replay: VCD file -> run_stream -> SAIF
# ----------------------------------------------------------------------
class StreamReplay(Workload):
    name = "stream_replay"
    cycles = 4096
    clock_period = 100
    chunk_cycles = 256
    oracle_cycles = 512

    def setup(self) -> None:
        netlist = build_random_netlist(num_inputs=6, num_gates=40, seed=1)
        self.netlist = netlist
        self.config = SimConfig(
            cycle_parallelism=64,
            clock_period=self.clock_period,
            stream_chunk_cycles=self.chunk_cycles,
        )
        duration = self.cycles * self.clock_period
        stimulus = inputs.random_toggle_stimulus(
            netlist, duration, self.seed, min_gap=100, max_gap=500
        )
        self.vcd_path = os.path.join(self.workdir, f"{self.name}.vcd")
        inputs.write_vcd_file(stimulus, self.vcd_path, duration)
        self.stimulus = stimulus
        self.session = get_backend("gatspi").prepare(netlist, config=self.config)

    def verify(self) -> None:
        netlist, stimulus = self.netlist, self.stimulus
        # Reference: the whole-run path on the in-memory stimulus (on a
        # session of its own); the streamed SAIF must be byte-identical.
        reference = (
            get_backend("gatspi")
            .prepare(netlist, config=self.config)
            .run(stimulus, cycles=self.cycles)
        )
        self._set_reference(
            reference,
            netlist.name,
            netlist_fingerprint=fingerprint_netlist(netlist),
            vcd_sha256=inputs.sha256_text(inputs.read_text(self.vcd_path)),
        )
        self.oracle_mismatch_nets = _oracle_mismatch(
            netlist, None, self.config, stimulus, self.oracle_cycles
        )

    def unit(self) -> UnitResult:
        span = self.tracer.span
        caches = _cache_snapshot()
        with span("unit"):
            start = time.perf_counter()
            with VcdEventStream(
                self.vcd_path, nets=self.netlist.source_nets()
            ) as stream:
                with span("api.run_s"):
                    result = self.session.run_stream(
                        stream, cycles=self.cycles, chunk_cycles=self.chunk_cycles
                    )
            with span("waveforms.saif_s"):
                text = result.saif(design=self.netlist.name)
            sim_s = time.perf_counter() - start
        return self._job_result(result, text, sim_s, caches)


# ----------------------------------------------------------------------
# clocked_seq: Yosys fixture -> run_cycles_stream
# ----------------------------------------------------------------------
class ClockedSeq(Workload):
    name = "clocked_seq"
    scan_cycles = 80
    functional_cycles = 80
    clock_period = 1000

    def _stimulus(self) -> Dict[str, Waveform]:
        """Scan window (``scan_en`` high, alternating ``scan_in``) followed
        by a functional window (sparse operand pulses, bit from the seed);
        ``rst_n`` held high, as in ``examples/scan_vs_functional_power.py``."""
        period = self.clock_period
        rng = random.Random(self.seed)
        switch = self.scan_cycles * period + period // 4
        toggles: Dict[str, List[int]] = {f"b[{bit}]": [] for bit in range(4)}
        for cycle in range(self.scan_cycles, self.scan_cycles + self.functional_cycles, 8):
            bit = rng.randrange(4)
            toggles[f"b[{bit}]"] += [
                cycle * period + period // 4,
                (cycle + 1) * period + period // 4,
            ]
        stimulus = {
            "rst_n": Waveform.constant(1),
            "scan_en": Waveform.from_toggle_array(1, [switch]),
            "scan_in": Waveform.from_toggle_array(
                0, [k * period + period // 4 for k in range(1, self.scan_cycles)]
            ),
        }
        for net, times in toggles.items():
            stimulus[net] = Waveform.from_toggle_array(0, times)
        return stimulus

    def setup(self) -> None:
        self.cycles = self.scan_cycles + self.functional_cycles
        self.config = SimConfig(clock_period=self.clock_period, store_waveforms=True)
        self.stimulus = self._stimulus()

    def verify(self) -> None:
        netlist = load_fixture("alu")
        # Reference: the whole-run clocked path; oracle: the event backend
        # through the same shared frame loop.
        reference = (
            get_backend("gatspi")
            .prepare(netlist, config=self.config)
            .run_cycles(self.stimulus, self.cycles)
        )
        oracle = (
            get_backend("event")
            .prepare(netlist, config=self.config)
            .run_cycles(self.stimulus, self.cycles)
        )
        self.oracle_mismatch_nets = len(reference.differing_nets(oracle))
        self._set_reference(
            reference,
            netlist.name,
            netlist_fingerprint=fingerprint_netlist(netlist),
            stimulus_toggles=sum(w.toggle_count() for w in self.stimulus.values()),
        )

    def unit(self) -> UnitResult:
        span = self.tracer.span
        clear_compile_cache()
        clear_analysis_cache()
        caches = _cache_snapshot()
        with span("unit"):
            with span("netlist.import_yosys_s"):
                netlist = load_fixture("alu")
            start = time.perf_counter()
            with span("api.prepare_s"):
                session = get_backend("gatspi").prepare(netlist, config=self.config)
            with span("api.run_s"):
                result = session.run_cycles_stream(self.stimulus, self.cycles)
            with span("waveforms.saif_s"):
                text = result.saif(design=netlist.name)
            sim_s = time.perf_counter() - start
        unit = self._job_result(result, text, sim_s, caches)
        unit.counts["core.clocked.frames"] = result.stats.chunks
        return unit


# ----------------------------------------------------------------------
# eco_rerun: what-if probes against one prepared session
# ----------------------------------------------------------------------
def eco_probes(netlist, seed: int) -> List[Tuple[str, List[Edit]]]:
    """The fixed probe list: 13 what-if edit batches of five kinds.

    Which gates are probed follows from the (pinned) design structure;
    the seed only picks the delay values.  Thirteen, not twelve: with an
    odd count the median latency falls inside one probe's distribution
    instead of on the gap between two.
    """
    rng = random.Random(seed)
    gates = [i for i in netlist.combinational_instances() if i.cell.num_inputs >= 2]
    levels = levelize(netlist).levels
    sinks = [
        netlist.instances[name]
        for level in reversed(levels)
        for name in level
        if netlist.instances[name].cell.num_inputs >= 2
    ][:4]

    def delay(inst) -> SetPinDelay:
        return SetPinDelay(
            gate=inst.name,
            pin=inst.cell.inputs[-1],
            rise=float(rng.randint(12, 24)),
            fall=float(rng.randint(10, 20)),
        )

    def spread(count: int, phase: int) -> List[Any]:
        stride = max(1, len(gates) // (count + 1))
        return [gates[((k + 1) * stride + phase) % len(gates)] for k in range(count)]

    swaps = {"NAND2": "NOR2", "NOR2": "NAND2", "AND2": "OR2", "OR2": "AND2"}
    retypable = [i for i in gates if i.cell_name in swaps]
    by_kind: Dict[str, List[List[Edit]]] = {
        "sink": [[delay(inst)] for inst in sinks],
        "mid": [[delay(inst)] for inst in spread(4, 3)],
        "batch10": [[delay(inst) for inst in spread(10, 0)]],
        "retype": [
            [RetypeGate(inst.name, swaps[inst.cell_name])]
            for inst in (retypable[len(retypable) // 3], retypable[-1])
        ],
        "buffer": [
            [InsertBuffer(inst.name, inst.cell.inputs[0], float(rng.randint(8, 16)))]
            for inst in spread(2, 7)
        ],
    }
    # Deal the kinds round-robin so every stretch of the list mixes them.
    probes: List[Tuple[str, List[Edit]]] = []
    for k in range(4):
        for kind in ("mid", "batch10", "buffer", "retype", "sink"):
            if k < len(by_kind[kind]):
                probes.append((f"{kind}{k}", by_kind[kind][k]))
    return probes


class EcoRerun(Workload):
    name = "eco_rerun"
    tail_percentile = 90.0
    cycles = 200

    def setup(self) -> None:
        # Design B family (industry_like, depth 22), scaled down so a pass of
        # 13 probes stays near one second.
        netlist = designs.industry_like(
            gate_count=400, num_flops=50, depth=22, seed=112, name="design_b"
        )
        design = inputs.build_design(
            netlist, seed=self.seed, cycles=self.cycles, activity=0.013,
            delay_seed=inputs.SCHEDULE_SEED,
        )
        self.design = design
        self.config = SimConfig(clock_period=design.clock_period)
        self.probes = eco_probes(netlist, self.seed)
        self.session = get_backend("gatspi").prepare(
            netlist, annotation=design.annotation, config=self.config
        )

    def verify(self) -> None:
        design = self.design
        netlist = design.netlist
        # Cold references on a private copy: each probe applied, prepared
        # from scratch and run.
        cold_netlist = copy.deepcopy(netlist)
        cold_annotation = copy.deepcopy(design.annotation)
        self.expected: Dict[str, Tuple[int, str]] = {}
        for label, edits in self.probes:
            applied = [edit.apply(cold_netlist, cold_annotation) for edit in edits]
            cold = (
                get_backend("gatspi")
                .prepare(cold_netlist, annotation=cold_annotation, config=self.config)
                .run(design.stimulus, cycles=self.cycles)
            )
            self.expected[label] = (
                cold.total_toggles(),
                inputs.sha256_text(saif_from_result(cold, design=netlist.name)),
            )
            for done in reversed(applied):
                done.inverse.apply(cold_netlist, cold_annotation)
        self.oracle_mismatch_nets = _oracle_mismatch(
            netlist, design.annotation, self.config, design.stimulus, self.cycles
        )
        self.golden = {
            "netlist_fingerprint": fingerprint_netlist(netlist),
            "probes": {
                label: {"total_toggles": toggles, "saif_sha256": digest}
                for label, (toggles, digest) in self.expected.items()
            },
        }

    def unit(self) -> UnitResult:
        span = self.tracer.span
        design = self.design
        # Every pass probes cold: derived compile-cache entries of the
        # previous pass would turn each rebuild into a lookup.
        clear_compile_cache()
        caches = _cache_snapshot()
        results = []
        op_ms: List[float] = []
        sim_s = 0.0
        with span("unit"):
            # The designer's session opens with a baseline run.  It also
            # re-retains the base run, which the engine's 4-entry
            # retained-run LRU evicts after the fourth distinct probe.
            start = time.perf_counter()
            with span("api.run_s"):
                self.session.run(design.stimulus, cycles=self.cycles)
            sim_s += time.perf_counter() - start
            for label, edits in self.probes:
                with span("op"):
                    start = time.perf_counter()
                    with span("api.run_s"):
                        result = self.session.rerun(
                            edits, stimulus=design.stimulus, cycles=self.cycles
                        )
                    ran = time.perf_counter()
                    with span("api.undo_s"):
                        self.session.apply_edits(
                            self.session.last_edit_receipt.undo_edits
                        )
                    done = time.perf_counter()
                sim_s += ran - start
                op_ms.append((done - start) * 1e3)
                results.append((label, result))
        failed = 0
        counts = {
            "core.incremental.dirty_gates": 0,
            "core.incremental.dirty_fraction": 0.0,
            "core.incremental.fell_back": 0,
            "core.vector_kernel.launches": 0,
            "core.vector_kernel.tasks": 0,
        }
        for label, result in results:
            toggles, digest = self.expected[label]
            if (
                result.total_toggles() != toggles
                or inputs.sha256_text(saif_from_result(result, design=design.netlist.name))
                != digest
            ):
                failed += 1
            stats = result.stats
            counts["core.incremental.dirty_gates"] += stats.dirty_gates
            counts["core.incremental.dirty_fraction"] += stats.dirty_fraction / len(results)
            counts["core.incremental.fell_back"] += int(not stats.incremental)
            counts["core.vector_kernel.launches"] += stats.level_batches
            counts["core.vector_kernel.tasks"] += stats.kernel_invocations
            counts["core.windows"] = stats.windows
            counts["core.segments"] = stats.segments
            counts["core.memory.pool_words_used"] = max(
                counts.get("core.memory.pool_words_used", 0), stats.pool_words_used
            )
        counts.update(_cache_counts(caches))
        return UnitResult(sim_s=sim_s, op_ms=op_ms, failed=failed, counts=counts)


# ----------------------------------------------------------------------
# wire_serve: closed-loop clients against an in-process socket server
# ----------------------------------------------------------------------
class WireServe(Workload):
    name = "wire_serve"
    table_root = "op"
    tail_percentile = 90.0
    #: One pass: ten requests, pinned (the order decides which requests
    #: overlap, and with it every latency).  Adder 50 %, NVDLA 30 %,
    #: Design A 20 %; two in ten are delta requests (``base_key`` + one
    #: edit).  The shares put both reported percentiles *inside* a latency
    #: mode instead of on the gap between two: the four cheap requests
    #: sort below the four full adder runs (p50 lands in that block) and
    #: the two Design A requests are the top fifth (p90 lands in theirs).
    pass_schedule = (
        ("adder", "nvdla", "design_a", "adder+delta", "adder"),
        ("nvdla+delta", "adder", "adder", "nvdla", "design_a"),
    )
    clients: Sequence[WireClient] = ()
    server: Optional[SimulationServer] = None
    service: Optional[SimulationService] = None

    def _designs(self) -> Dict[str, inputs.Design]:
        build = inputs.build_design
        return {
            "adder": build(
                designs.ripple_carry_adder(32),
                seed=self.seed, cycles=32, activity=1.0,
            ),
            "nvdla": build(
                designs.nvdla_like_mac_block(macs=8, data_bits=4, name="nvdla_m_large"),
                seed=self.seed, cycles=100, activity=0.0017,
            ),
            "design_a": build(
                designs.industry_like(
                    gate_count=800, num_flops=100, depth=14, seed=111, name="design_a"
                ),
                seed=self.seed, cycles=40, activity=0.094,
            ),
        }

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.config = SimConfig(clock_period=1000)
        self.designs = self._designs()
        self.service = SimulationService(max_workers=NPROC)
        self.server = SimulationServer(self.service, host="127.0.0.1", port=0).start()
        host, port = self.server.address
        self.clients = [WireClient(host, port) for _ in range(min(2, NPROC))]
        #: label -> request; ``<design>+delta`` are the delta requests.
        self.requests: Dict[str, ServeRequest] = {}
        self.edits: Dict[str, Edit] = {}
        for label, design in self.designs.items():
            full = ServeRequest(
                netlist=design.netlist,
                stimulus=design.stimulus,
                annotation=design.annotation,
                config=self.config,
                cycles=design.cycles,
                tag=label,
            )
            # Warm the served session; its key is the deltas' base.
            warm = self.clients[0].run(full)
            gates = [
                i
                for i in design.netlist.combinational_instances()
                if i.cell.num_inputs >= 2
            ]
            inst = gates[len(gates) // 2]
            edit = SetPinDelay(
                gate=inst.name,
                pin=inst.cell.inputs[-1],
                rise=float(rng.randint(12, 24)),
                fall=float(rng.randint(10, 20)),
            )
            self.edits[label] = edit
            self.requests[label] = full
            self.requests[f"{label}+delta"] = ServeRequest(
                base_key=warm.session_key,
                edits=(edit,),
                stimulus=design.stimulus,
                cycles=design.cycles,
                tag=f"{label}+delta",
            )
        #: One closed-loop sub-schedule per client (a single client on a
        #: one-core machine replays both).
        if len(self.clients) == 1:
            self.schedules = [sum(self.pass_schedule, ())]
        else:
            self.schedules = list(self.pass_schedule)

    def verify(self) -> None:
        #: label -> digest of the per-net toggle counts a response must carry.
        self.expected: Dict[str, str] = {}
        for label, design in self.designs.items():
            self.oracle_mismatch_nets += _oracle_mismatch(
                design.netlist, design.annotation, self.config,
                design.stimulus, design.cycles,
            )
            # In-process references on a private copy, never the served session.
            private = get_backend("gatspi").prepare(
                copy.deepcopy(design.netlist),
                annotation=copy.deepcopy(design.annotation),
                config=self.config,
            )
            full = private.run(design.stimulus, cycles=design.cycles)
            delta = private.rerun(
                [self.edits[label]], stimulus=design.stimulus, cycles=design.cycles
            )
            self.expected[label] = inputs.toggle_digest(full.toggle_counts)
            self.expected[f"{label}+delta"] = inputs.toggle_digest(delta.toggle_counts)
            self.golden[label] = {
                "netlist_fingerprint": fingerprint_netlist(design.netlist),
                "toggle_digest": self.expected[label],
                "delta_toggle_digest": self.expected[f"{label}+delta"],
            }

    def warm_up(self) -> UnitResult:
        """One request of every kind, serially, on the first connection.

        A concurrent pass is not a steady warm-up: in a young process the
        two clients interleave differently (a pass takes 1.0 s instead of
        1.4 s) for a pass or two, which made ``setup_s`` bimodal.
        """
        clients, schedules = self.clients, self.schedules
        self.clients, self.schedules = clients[:1], [tuple(self.requests)]
        try:
            return self.unit()
        finally:
            self.clients, self.schedules = clients, schedules

    def _client_pass(self, client: WireClient, labels: Sequence[str], out: list) -> None:
        span = self.tracer.span
        for label in labels:
            response = None
            with span("op"):
                start = time.perf_counter()
                try:
                    response = client.run(self.requests[label])
                except Exception:  # noqa: BLE001 - a failed op, counted as one
                    pass
                latency = time.perf_counter() - start
            out.append((label, latency, response))

    def unit(self) -> UnitResult:
        before = self.service.stats()
        caches = _cache_snapshot()
        outcomes: List[list] = [[] for _ in self.clients]
        threads = [
            threading.Thread(
                target=self._client_pass,
                args=(client, labels, out),
                name=f"e2e-client-{index}",
            )
            for index, (client, labels, out) in enumerate(
                zip(self.clients, self.schedules, outcomes)
            )
        ]
        with self.tracer.span("unit"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        after = self.service.stats()
        delta = {key: after[key] - before[key] for key in after}
        failed = 0
        op_ms: List[float] = []
        counts: Dict[str, float] = {
            "core.vector_kernel.launches": 0,
            "core.vector_kernel.tasks": 0,
            "core.incremental.dirty_gates": 0,
            "core.incremental.fell_back": 0,
        }
        for label, latency, response in (o for out in outcomes for o in out):
            op_ms.append(latency * 1e3)
            if response is None or (
                inputs.toggle_digest(response.result.toggle_counts)
                != self.expected[label]
            ):
                failed += 1
                continue
            stats = response.result.stats
            counts["core.vector_kernel.launches"] += stats.level_batches
            counts["core.vector_kernel.tasks"] += stats.kernel_invocations
            counts["core.incremental.dirty_gates"] += stats.dirty_gates
            if label.endswith("+delta"):
                counts["core.incremental.fell_back"] += int(not stats.incremental)
        counts.update(_cache_counts(caches))
        for key in ("session_hits", "session_misses", "batches", "coalesced", "fused_fallbacks"):
            counts[f"serve.service.{key}"] = delta[key]
        return UnitResult(
            sim_s=delta["run_seconds_total"],
            op_ms=op_ms,
            failed=failed,
            counts=counts,
            extra_rows={"serve.service.queue_wait_s": delta["queue_seconds_total"]},
            extra_inclusive={"serve.service.run_s": delta["run_seconds_total"]},
        )

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            # ``SimulationServer.close()`` closes its listener, which on
            # Linux does not wake the accept thread, and then waits out a
            # 10 s join timeout.  Shutting the listening socket down first
            # does wake it; if the attribute goes away, close() is merely
            # slow again (found while building, see README).
            listener = getattr(self.server, "_listener", None)
            if listener is not None:
                try:
                    listener.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self.server.close()
        if self.service is not None:
            self.service.close()


WORKLOADS = {
    cls.name: cls
    for cls in (BatchDeep, BatchWide, StreamReplay, ClockedSeq, EcoRerun, WireServe)
}
