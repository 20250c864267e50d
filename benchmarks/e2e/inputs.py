"""Input materialisation: designs, delays and stimuli from a seed, as files.

Everything a workload feeds the program is generated here from ``--seed``
and — for the file-driven workloads — written to real ``.v``/``.sdf``/
``.vcd`` files, so the program under test only ever sees what a user
would hand it.  The in-memory objects are kept beside the files: they are
the reference the file-driven runs are verified against.

Indexed net names do not survive the file front ends today
(``parse_verilog(write_verilog(n))`` keeps the escape backslash, so
``\\a[0]`` != ``a[0]``; ``read_vcd(write_vcd(s))`` strips the index and
then raises "duplicate VCD variable"), so names are flattened
(``a[0]`` -> ``a_0``) before anything is written.  ``src/`` is not patched.

The driver compares runs made with different ``--seed`` values, so the
seed must vary *what* the simulator computes, not *how much*: design
structure is pinned (generator seeds are constants), and so is the
low-activity stimulus schedule — which net toggles in which cycle —
because at a few hundred source toggles per run its sampling noise alone
moves run time by +-15 %.  The seed drives the SDF delays and where in its
cycle each toggle lands (:func:`placed_stimulus`).
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.waveform import Waveform
from repro.netlist import Netlist, write_verilog
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.sdf.annotate import DelayAnnotation
from repro.sdf.delay_model import DesignDelays
from repro.sdf.writer import write_sdf
from repro.waveforms import TestbenchSpec, stimulus_for_netlist
from repro.waveforms.stimulus import clock_waveform
from repro.waveforms.vcd import write_vcd

#: Pins which (net, cycle) pairs toggle in :func:`placed_stimulus`.
SCHEDULE_SEED = 2022


def flat_name(name: str) -> str:
    """``a[0]`` -> ``a_0`` (see the module docstring for why)."""
    return name.replace("[", "_").replace("]", "")


def flatten_netlist(netlist: Netlist) -> Netlist:
    """A copy of ``netlist`` with every net/instance name flattened."""
    flat = Netlist(netlist.name, library=netlist.library)
    for port in netlist.inputs:
        flat.add_input(flat_name(port))
    for port in netlist.outputs:
        flat.add_output(flat_name(port))
    for inst in netlist.instances.values():
        flat.add_instance(
            inst.cell_name,
            flat_name(inst.name),
            {pin: flat_name(net) for pin, net in inst.connections.items()},
        )
    if len(flat.nets) != len(netlist.nets) or len(flat.instances) != len(netlist.instances):
        raise ValueError(f"flattening {netlist.name!r} merged two names")
    for name, value in netlist.initial_values.items():
        flat.set_initial_value(flat_name(name), value)
    return flat


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def toggle_digest(toggle_counts: Mapping[str, int]) -> str:
    """Order-independent digest of a per-net toggle-count table."""
    body = "\n".join(f"{net} {toggle_counts[net]}" for net in sorted(toggle_counts))
    return sha256_text(body)


@dataclass
class Design:
    """One materialised design: in-memory reference objects plus text."""

    netlist: Netlist
    delays: DesignDelays
    annotation: DelayAnnotation
    stimulus: Dict[str, Waveform]
    cycles: int
    clock_period: int

    @property
    def duration(self) -> int:
        return self.cycles * self.clock_period


def placed_stimulus(
    netlist: Netlist, *, cycles: int, clock_period: int, activity: float, seed: int
) -> Dict[str, Waveform]:
    """Low-activity stimulus with a pinned schedule and seeded placement.

    Each data net toggles in a cycle with probability ``activity``; those
    draws (and the initial values) come from :data:`SCHEDULE_SEED`, so
    every seed simulates the same number of source toggles.  ``seed``
    places each toggle within the first quarter of its cycle.  Clock nets
    get a free-running clock, as in ``stimulus_for_netlist``.
    """
    schedule = random.Random(SCHEDULE_SEED)
    place = random.Random(seed)
    duration = cycles * clock_period
    stimulus: Dict[str, Waveform] = {}
    for net in netlist.source_nets():
        if "clk" in net.lower():
            stimulus[net] = clock_waveform(cycles, clock_period)
            continue
        initial = schedule.randint(0, 1)
        toggles = []
        for cycle in range(cycles):
            if schedule.random() < activity:
                time = cycle * clock_period + 1 + place.randint(0, clock_period // 4)
                if time < duration:
                    toggles.append(time)
        stimulus[net] = Waveform.from_toggle_array(initial, toggles)
    return stimulus


def build_design(
    netlist: Netlist,
    *,
    seed: int,
    cycles: int,
    activity: float,
    clock_period: int = 1000,
    delay_seed: Optional[int] = None,
) -> Design:
    """Delays and stimulus for a (flattened) netlist, both from ``seed``.

    ``activity`` 1.0 is the paper's "random stimulus" (every source toggles
    every cycle; the seed picks initial values); anything lower is a
    :func:`placed_stimulus`.  ``delay_seed`` pins the SDF delays instead
    (``eco_rerun``: the settle margin and the glitching inside every
    re-simulated cone follow them, which moved a pass by +-4 %).
    """
    delays = SyntheticDelayModel(
        seed=seed if delay_seed is None else delay_seed
    ).build(netlist)
    annotation = annotation_from_design_delays(netlist, delays)
    if activity >= 1.0:
        spec = TestbenchSpec("random", cycles, clock_period, 1.0, seed)
        stimulus = stimulus_for_netlist(netlist, spec, kind="random")
    else:
        stimulus = placed_stimulus(
            netlist, cycles=cycles, clock_period=clock_period,
            activity=activity, seed=seed,
        )
    return Design(netlist, delays, annotation, stimulus, cycles, clock_period)


def random_toggle_stimulus(
    netlist: Netlist, duration: int, seed: int, min_gap: int, max_gap: int
) -> Dict[str, Waveform]:
    """Random toggles per source net (the replay bench's stimulus shape)."""
    rng = random.Random(seed)
    stimulus: Dict[str, Waveform] = {}
    for net in netlist.source_nets():
        time = 0
        toggles = []
        while True:
            time += rng.randint(min_gap, max_gap)
            if time >= duration:
                break
            toggles.append(time)
        stimulus[net] = Waveform.from_toggle_array(rng.randint(0, 1), toggles)
    return stimulus


@dataclass
class DesignFiles:
    verilog: str
    sdf: str
    vcd: str


def write_design_files(design: Design, directory: str, stem: str) -> DesignFiles:
    """Write ``<stem>.v/.sdf/.vcd`` under ``directory``; returns the paths."""
    paths = DesignFiles(
        verilog=os.path.join(directory, f"{stem}.v"),
        sdf=os.path.join(directory, f"{stem}.sdf"),
        vcd=os.path.join(directory, f"{stem}.vcd"),
    )
    with open(paths.verilog, "w", encoding="utf-8") as handle:
        handle.write(write_verilog(design.netlist))
    with open(paths.sdf, "w", encoding="utf-8") as handle:
        handle.write(write_sdf(design.netlist, design.delays))
    write_vcd_file(design.stimulus, paths.vcd, design.duration)
    return paths


def write_vcd_file(stimulus: Mapping[str, Waveform], path: str, end_time: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_vcd(stimulus, end_time=end_time))


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()
