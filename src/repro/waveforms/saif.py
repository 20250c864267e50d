"""SAIF (Switching Activity Interchange Format) writer and reader.

GATSPI's deliverable for downstream power analysis is an industry-standard
SAIF file containing per-net ``T0`` / ``T1`` / ``TC`` (time at 0, time at 1,
toggle count).  The reader exists so the correctness check the paper uses —
comparing the SAIF produced by GATSPI against the commercial simulator's —
can be reproduced verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..core.results import SimulationResult
from ..core.waveform import Waveform


@dataclass(frozen=True)
class NetActivity:
    """Switching activity of one net over the SAIF duration."""

    t0: int
    t1: int
    tc: int

    @property
    def static_probability(self) -> float:
        total = self.t0 + self.t1
        if total == 0:
            return 0.0
        return self.t1 / total

    def toggle_rate(self, duration: int) -> float:
        if duration == 0:
            return 0.0
        return self.tc / duration


def activity_from_result(
    result: SimulationResult, duration: Optional[int] = None
) -> Dict[str, NetActivity]:
    """Derive per-net SAIF activity from a simulation result.

    T0/T1 are measured from the stored waveforms, so every counted net
    needs one: a counts-only result (``store_waveforms=False``) raises
    ``ValueError`` naming the first net without a waveform rather than
    reporting invented times.  Streamed runs measure T0/T1 online
    (``StreamResult.activities``).
    """
    duration = duration or result.duration
    activities: Dict[str, NetActivity] = {}
    for net, count in result.toggle_counts.items():
        wave = result.waveforms.get(net)
        if wave is None:
            raise ValueError(
                f"net {net!r} has no stored waveform, so its T0/T1 are "
                f"unknown; run with SimConfig(store_waveforms=True) or "
                f"stream the run (run_stream) for measured activity"
            )
        t1 = wave.duration_at(1, 0, duration)
        activities[net] = NetActivity(t0=duration - t1, t1=t1, tc=count)
    return activities


def write_saif(
    activities: Mapping[str, NetActivity],
    duration: int,
    design: str = "top",
    timescale: str = "1ps",
) -> str:
    """Render per-net activity as SAIF text."""
    lines = [
        "(SAIFILE",
        '  (SAIFVERSION "2.0")',
        '  (DIRECTION "backward")',
        f"  (DURATION {duration})",
        f'  (TIMESCALE {timescale})',
        f'  (DESIGN "{design}")',
        "  (INSTANCE top",
        "    (NET",
    ]
    for net in sorted(activities):
        activity = activities[net]
        lines.append(f"      ({_escape(net)}")
        lines.append(
            f"        (T0 {activity.t0}) (T1 {activity.t1}) (TX 0) "
            f"(TC {activity.tc}) (IG 0)"
        )
        lines.append("      )")
    lines.extend(["    )", "  )", ")"])
    return "\n".join(lines) + "\n"


def _escape(name: str) -> str:
    if re.search(r"[\[\]]", name):
        return f"\\{name} "
    return name


def saif_from_result(
    result: SimulationResult, design: str = "top"
) -> str:
    """Produce SAIF text directly from a simulation result."""
    activities = activity_from_result(result)
    return write_saif(activities, duration=result.duration, design=design)


def saif_from_activities(
    activities: Mapping[str, NetActivity], duration: int, design: str = "top"
) -> str:
    """Produce SAIF text from pre-computed per-net activity.

    This is the streaming-run companion of :func:`saif_from_result`: an
    online accumulator (``StreamingActivityAccumulator``) supplies the
    activities and the shared :func:`write_saif` renderer guarantees the
    output is byte-identical to the whole-run path for identical totals.
    """
    return write_saif(activities, duration=duration, design=design)


def save_saif(result: SimulationResult, path: str, design: str = "top") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(saif_from_result(result, design=design))


_NET_ENTRY = re.compile(
    r"\(\s*(\\?[\w\[\].$/]+)\s*\r?\n?\s*"
    r"\(T0\s+(\d+)\)\s*\(T1\s+(\d+)\)\s*\(TX\s+(\d+)\)\s*\(TC\s+(\d+)\)"
)
_DURATION = re.compile(r"\(DURATION\s+(\d+)\)")


@dataclass
class SaifData:
    """Parsed contents of a SAIF file."""

    duration: int
    nets: Dict[str, NetActivity]

    def toggle_counts(self) -> Dict[str, int]:
        return {net: activity.tc for net, activity in self.nets.items()}


def parse_saif(text: str) -> SaifData:
    """Parse the NET section of a SAIF file."""
    duration_match = _DURATION.search(text)
    duration = int(duration_match.group(1)) if duration_match else 0
    nets: Dict[str, NetActivity] = {}
    for match in _NET_ENTRY.finditer(text):
        name = match.group(1).lstrip("\\").strip()
        nets[name] = NetActivity(
            t0=int(match.group(2)),
            t1=int(match.group(3)),
            tc=int(match.group(5)),
        )
    return SaifData(duration=duration, nets=nets)


def read_saif(path: str) -> SaifData:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_saif(handle.read())


def saif_files_match(first: SaifData, second: SaifData) -> bool:
    """The paper's accuracy check: equal toggle counts for every common net."""
    common = set(first.nets) & set(second.nets)
    return all(first.nets[n].tc == second.nets[n].tc for n in common)
