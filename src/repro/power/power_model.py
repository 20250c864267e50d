"""Gate-level power model driven by switching activity (SAIF).

This is the downstream consumer of GATSPI's output in the paper's flow
("To Power Analysis" in Fig. 2): given per-net toggle counts over a known
duration, it computes switching, internal, and leakage power from the cell
library's electrical data.  The absolute numbers are representative, not
foundry-accurate; what matters for reproducing the paper's glitch-flow result
is that power is proportional to toggle counts, so removing glitch toggles
produces a faithful relative saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..core.results import SimulationResult
from ..netlist import Netlist, PORT


@dataclass(frozen=True)
class PowerParameters:
    """Electrical environment for power computation."""

    vdd: float = 0.8          # volts
    time_unit_s: float = 1e-12  # library delays/timestamps are in picoseconds
    wire_cap_per_fanout_ff: float = 0.35


@dataclass
class NetPowerDetail:
    """Per-net contribution breakdown."""

    net: str
    toggle_count: int
    load_cap_ff: float
    switching_w: float
    internal_w: float

    @property
    def dynamic_w(self) -> float:
        return self.switching_w + self.internal_w


@dataclass
class PowerReport:
    """Design-level power report."""

    switching_w: float = 0.0
    internal_w: float = 0.0
    leakage_w: float = 0.0
    duration: int = 0
    per_net: Dict[str, NetPowerDetail] = field(default_factory=dict)

    @property
    def dynamic_w(self) -> float:
        return self.switching_w + self.internal_w

    @property
    def total_w(self) -> float:
        return self.dynamic_w + self.leakage_w

    def top_nets(self, count: int = 10) -> list:
        """Highest dynamic-power nets (candidates for glitch fixing)."""
        ordered = sorted(
            self.per_net.values(), key=lambda d: d.dynamic_w, reverse=True
        )
        return ordered[:count]

    def summary(self) -> Dict[str, float]:
        return {
            "switching_w": self.switching_w,
            "internal_w": self.internal_w,
            "leakage_w": self.leakage_w,
            "dynamic_w": self.dynamic_w,
            "total_w": self.total_w,
        }


class PowerModel:
    """Activity-driven power calculator for one netlist."""

    def __init__(self, netlist: Netlist, parameters: Optional[PowerParameters] = None):
        self.netlist = netlist
        self.parameters = parameters or PowerParameters()
        self._load_caps = self._compute_load_caps()
        self._leakage_w = self._compute_leakage()

    def _compute_load_caps(self) -> Dict[str, float]:
        """Total capacitance (fF) switched when each net toggles."""
        caps: Dict[str, float] = {}
        params = self.parameters
        for name, net in self.netlist.nets.items():
            cap = 0.0
            for owner, pin in net.loads:
                if owner == PORT:
                    cap += 2.0  # nominal output-port load
                    continue
                inst = self.netlist.instances[owner]
                cap += inst.cell.power.input_cap_ff
            if net.driver is not None and net.driver[0] != PORT:
                driver = self.netlist.instances[net.driver[0]]
                cap += driver.cell.power.output_cap_ff
            cap += params.wire_cap_per_fanout_ff * max(1, net.fanout)
            caps[name] = cap
        return caps

    def _compute_leakage(self) -> float:
        leak_nw = sum(
            inst.cell.power.leakage_nw for inst in self.netlist.instances.values()
        )
        return leak_nw * 1e-9

    @property
    def leakage_w(self) -> float:
        return self._leakage_w

    def compute(
        self,
        toggle_counts: Mapping[str, int],
        duration: int,
    ) -> PowerReport:
        """Compute power from per-net toggle counts over ``duration`` time
        units."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        params = self.parameters
        seconds = duration * params.time_unit_s
        report = PowerReport(duration=duration, leakage_w=self._leakage_w)
        half_vdd_squared = 0.5 * params.vdd * params.vdd
        for net, toggles in toggle_counts.items():
            if net not in self.netlist.nets:
                continue
            load_ff = self._load_caps.get(net, 0.0)
            switching_j = half_vdd_squared * load_ff * 1e-15 * toggles
            internal_j = 0.0
            driver = self.netlist.nets[net].driver
            if driver is not None and driver[0] != PORT:
                cell = self.netlist.instances[driver[0]].cell
                internal_j = cell.power.internal_energy_fj * 1e-15 * toggles
            switching_w = switching_j / seconds
            internal_w = internal_j / seconds
            report.switching_w += switching_w
            report.internal_w += internal_w
            report.per_net[net] = NetPowerDetail(
                net=net,
                toggle_count=int(toggles),
                load_cap_ff=load_ff,
                switching_w=switching_w,
                internal_w=internal_w,
            )
        return report

    def compute_from_result(self, result: SimulationResult) -> PowerReport:
        return self.compute(result.toggle_counts, result.duration)
