"""GATSPI-engine vs event-driven-reference equivalence (the paper's accuracy check).

The paper verifies correctness by comparing SAIF files and spot-checking full
waveforms against a commercial simulator.  Here the independently implemented
event-driven simulator plays the commercial role, and the check is exhaustive:
identical per-net toggle counts *and* identical full waveforms, across random
netlists, random stimuli, every cycle-parallelism setting, and the feature
ablation variants.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import get_backend
from repro.core import GatspiEngine, SimConfig, Waveform
from repro.reference import EventDrivenSimulator
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays

from repro.testing import build_random_netlist, build_random_stimulus

DURATION = 6000
CONFIG = SimConfig(clock_period=500)


def run_both(netlist, annotation, stimulus, config=CONFIG):
    engine = GatspiEngine(netlist, annotation=annotation, config=config)
    gatspi = engine.simulate(stimulus, duration=DURATION)
    reference = EventDrivenSimulator(
        netlist, annotation=annotation, config=config
    ).simulate(stimulus, duration=DURATION)
    return gatspi, reference


def assert_equivalent(gatspi, reference):
    mismatches = gatspi.differing_nets(reference)
    assert not mismatches, f"toggle count mismatches: {list(mismatches.items())[:5]}"
    for net, wave in gatspi.waveforms.items():
        assert wave == reference.waveforms[net], f"waveform mismatch on {net}"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_netlists_match_reference(seed):
    netlist = build_random_netlist(num_gates=45, seed=seed)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=seed).build(netlist)
    )
    stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 100)
    gatspi, reference = run_both(netlist, annotation, stimulus)
    assert_equivalent(gatspi, reference)


@pytest.mark.parametrize("parallelism", [1, 3, 8, 32])
def test_cycle_parallelism_does_not_change_results(parallelism):
    netlist = build_random_netlist(num_gates=40, seed=5)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=5).build(netlist)
    )
    stimulus = build_random_stimulus(netlist, DURATION, seed=55)
    config = CONFIG.with_updates(cycle_parallelism=parallelism)
    gatspi, reference = run_both(netlist, annotation, stimulus, config=config)
    assert_equivalent(gatspi, reference)


@pytest.mark.parametrize(
    "updates",
    [
        {"enable_net_delay_filtering": False},
        {"full_sdf": False},
        {"enable_net_delay_filtering": False, "full_sdf": False},
        {"pathpulse_percent": 50.0},
    ],
)
def test_feature_ablations_match_reference(updates):
    """The Table 7 ablation variants stay bit-exact vs the same-config reference."""
    netlist = build_random_netlist(num_gates=35, seed=9)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=9).build(netlist)
    )
    stimulus = build_random_stimulus(netlist, DURATION, seed=99)
    config = CONFIG.with_updates(cycle_parallelism=1, **updates)
    gatspi, reference = run_both(netlist, annotation, stimulus, config=config)
    assert_equivalent(gatspi, reference)


def test_zero_wire_delays_match_reference():
    netlist = build_random_netlist(num_gates=30, seed=12)
    model = SyntheticDelayModel(seed=12, wire_delay_range=(0, 0))
    annotation = annotation_from_design_delays(netlist, model.build(netlist))
    stimulus = build_random_stimulus(netlist, DURATION, seed=121)
    gatspi, reference = run_both(netlist, annotation, stimulus)
    assert_equivalent(gatspi, reference)


def test_delay_aware_toggles_at_least_functional():
    """Delay-aware simulation can only add (glitch) toggles, never lose real ones.

    This holds when stimulus event times are shared by all sources and spaced
    wider than the critical path, so every functional transition settles
    before the next event arrives.
    """
    import random as _random

    netlist = build_random_netlist(num_gates=40, seed=21)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=21).build(netlist)
    )
    rng = _random.Random(211)
    event_times = list(range(700, DURATION, 700))
    stimulus = {}
    for net in netlist.source_nets():
        toggles = [t for t in event_times if rng.random() < 0.6]
        stimulus[net] = Waveform.from_initial_and_toggles(rng.randint(0, 1), toggles)
    gatspi = GatspiEngine(netlist, annotation=annotation, config=CONFIG).simulate(
        stimulus, duration=DURATION
    )
    functional = get_backend("zero-delay").prepare(netlist).run(
        stimulus, duration=DURATION
    )
    sources = set(netlist.source_nets())
    # With stimulus gaps much larger than the critical path, every functional
    # transition propagates; glitches can only add toggles on top.
    for net, count in functional.toggle_counts.items():
        if net in sources:
            continue
        assert gatspi.toggle_counts[net] >= count


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_equivalence_property(seed):
    """Property-based version of the accuracy check on small random circuits."""
    netlist = build_random_netlist(num_inputs=5, num_gates=25, seed=seed)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=seed).build(netlist)
    )
    stimulus = build_random_stimulus(netlist, 3000, seed=seed ^ 0xABCD,
                                     min_gap=20, max_gap=300)
    config = SimConfig(clock_period=500, cycle_parallelism=1 + seed % 5)
    engine = GatspiEngine(netlist, annotation=annotation, config=config)
    gatspi = engine.simulate(stimulus, duration=3000)
    reference = EventDrivenSimulator(
        netlist, annotation=annotation, config=config
    ).simulate(stimulus, duration=3000)
    assert gatspi.toggle_counts == reference.toggle_counts
