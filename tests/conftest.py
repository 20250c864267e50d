"""Shared fixtures for the test suite.

The random design/stimulus builders live in :mod:`repro.testing`; they are
re-exported here only for backwards compatibility of older helper imports.
Test modules should import them explicitly::

    from repro.testing import build_random_netlist, build_random_stimulus
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import pytest

# Allow running the tests without installing the package and without the
# pyproject ``pythonpath`` setting (e.g. ``pytest`` invoked from elsewhere).
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import NetlistBuilder  # noqa: E402
from repro.sdf import SyntheticDelayModel, UnitDelayModel, annotation_from_design_delays  # noqa: E402
from repro.testing import build_random_netlist, build_random_stimulus  # noqa: E402,F401


@pytest.fixture
def small_netlist():
    """A tiny hand-built netlist: NAND feeding INV and XOR."""
    builder = NetlistBuilder("small")
    a = builder.input("a")
    b = builder.input("b")
    n1 = builder.gate("NAND2", [a, b], name="u_nand")
    n2 = builder.gate("INV", [n1], name="u_inv")
    builder.output("y")
    builder.gate("XOR2", [n1, n2], output_net="y", name="u_xor")
    return builder.build()


@pytest.fixture
def small_annotation(small_netlist):
    return annotation_from_design_delays(
        small_netlist, UnitDelayModel(delay=10).build(small_netlist)
    )


@pytest.fixture
def random_netlist():
    return build_random_netlist(seed=7)


@pytest.fixture
def random_annotation(random_netlist):
    delays = SyntheticDelayModel(seed=7).build(random_netlist)
    return annotation_from_design_delays(random_netlist, delays)


@pytest.fixture
def initial_pool_words(monkeypatch):
    """``initial_pool_words(n)`` starts every engine pool at ``n`` words.

    Pools grow on demand, so a run whose waveforms exceed ``n`` words
    must grow its pool inside its one level-loop batch.  Applies to the
    engines of this process (not to spawned process workers).
    """
    from repro.core import engine, memory

    def start_at(words):
        monkeypatch.setattr(
            engine, "WaveformPool", functools.partial(memory.WaveformPool, words)
        )
        return words

    return start_at
