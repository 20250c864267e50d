"""Tests for the unified backend registry and session layer (`repro.api`)."""

import pytest

from repro.api import (
    BackendCapabilities,
    DuplicateBackendError,
    Session,
    SimBackend,
    UnknownBackendError,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.core import SimConfig, SimulationResult, StimulusError
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.testing import build_random_netlist, build_random_stimulus

DURATION = 4000
CONFIG = SimConfig(clock_period=500, cycle_parallelism=4)
BUILTIN_BACKENDS = ("event", "gatspi", "gatspi-oracle", "zero-delay")
#: Every built-in backend plus gatspi on process workers, which keeps the
#: id of the ``gatspi-sharded`` backend it replaced.
SESSION_SPECS = BUILTIN_BACKENDS + (
    pytest.param("gatspi:workers=process:2", id="gatspi-sharded"),
)


def _prepare(spec, netlist, annotation):
    backend, options = resolve_backend(spec)
    return backend.prepare(netlist, annotation=annotation, config=CONFIG, **options)


@pytest.fixture(scope="module")
def design():
    netlist = build_random_netlist(num_gates=30, seed=17)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=17).build(netlist)
    )
    stimulus = build_random_stimulus(netlist, DURATION, seed=170)
    return netlist, annotation, stimulus


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == BUILTIN_BACKENDS

    def test_unknown_backend_error_lists_available(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("no-such-backend")
        message = str(excinfo.value)
        assert "no-such-backend" in message
        for name in BUILTIN_BACKENDS:
            assert name in message

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateBackendError):
            register_backend("gatspi", get_backend("event"))

    def test_decorator_registration_and_unregister(self):
        @register_backend("temp-backend")
        class TempBackend(SimBackend):
            name = "temp-backend"
            capabilities = BackendCapabilities(description="test stub")

            def _prepare(self, netlist, annotation=None, config=None, **options):
                raise NotImplementedError

        try:
            assert isinstance(get_backend("temp-backend"), TempBackend)
            assert "temp-backend" in available_backends()
        finally:
            unregister_backend("temp-backend")
        assert "temp-backend" not in available_backends()
        with pytest.raises(UnknownBackendError):
            unregister_backend("temp-backend")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            register_backend("", get_backend("event"))


class TestSessionContract:
    @pytest.mark.parametrize("spec", SESSION_SPECS)
    def test_prepare_run_returns_uniform_result(self, spec, design):
        netlist, annotation, stimulus = design
        session = _prepare(spec, netlist, annotation)
        try:
            result = session.run(stimulus, cycles=8)
        finally:
            if spec.startswith("gatspi"):
                session.close()
        assert isinstance(result, SimulationResult)
        assert result.duration == 8 * CONFIG.clock_period
        # Stats are uniformly populated, whichever engine ran.
        assert result.stats.cycles == 8
        assert result.stats.gate_count == netlist.gate_count
        assert result.stats.input_events > 0
        assert result.total_toggles() > 0
        assert session.backend_name == spec.partition(":")[0]
        assert session.runs_completed == 1

    @pytest.mark.parametrize("spec", SESSION_SPECS)
    def test_missing_stimulus_rejected(self, spec, design):
        netlist, annotation, _ = design
        session = _prepare(spec, netlist, annotation)
        with pytest.raises(StimulusError):
            session.run({}, cycles=2)

    @pytest.mark.parametrize("spec", SESSION_SPECS)
    def test_cycles_or_duration_required(self, spec, design):
        netlist, annotation, stimulus = design
        session = _prepare(spec, netlist, annotation)
        with pytest.raises(ValueError):
            session.run(stimulus)

    def test_compile_once_simulate_many(self, design):
        netlist, annotation, stimulus = design
        session = get_backend("gatspi").prepare(
            netlist, annotation=annotation, config=CONFIG
        )
        first = session.run(stimulus, cycles=8)
        second = session.run(stimulus, cycles=8)
        assert first.toggle_counts == second.toggle_counts
        assert session.runs_completed == 2
        # A different stimulus reuses the same compiled design.
        other = build_random_stimulus(netlist, DURATION, seed=999)
        third = session.run(other, duration=DURATION)
        assert third.stats.cycles == DURATION // CONFIG.clock_period

    def test_unknown_prepare_option_rejected(self, design):
        netlist, annotation, _ = design
        with pytest.raises(TypeError):
            get_backend("gatspi").prepare(
                netlist, annotation=annotation, config=CONFIG, num_wokers=4
            )

    def test_capabilities_describe_backends(self):
        assert get_backend("gatspi").capabilities.delay_aware
        assert get_backend("event").capabilities.glitch_accurate
        assert not get_backend("zero-delay").capabilities.delay_aware

    def test_bare_sharded_backend_is_the_passthrough(self, design, monkeypatch):
        """No option means no partitioning, whatever the machine looks like.

        Regression: the scale-out backend used to default to
        ``min(4, cpu_count)`` thread shards, which measured 0.29–0.46x of
        ``gatspi``.  Bare ``gatspi`` and a one-worker pool both take the
        engine's own step and spawn nothing.
        """
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        netlist, annotation, stimulus = design
        bare = _prepare("gatspi", netlist, annotation)
        assert bare.engine.process_workers is None
        assert bare.run(stimulus, duration=DURATION).stats.shards == 1
        one = _prepare("gatspi:workers=process:1", netlist, annotation)
        assert one.run(stimulus, duration=DURATION).stats.shards == 1
        assert one.engine._workers is None
        with pytest.raises(TypeError, match="shards"):
            _prepare("gatspi:shards=4", netlist, annotation)

    @pytest.mark.parametrize("spec, error, match", [
        ("gatspi:workers=2", ValueError, "workers=process:N"),
        ("gatspi:workers=thread", ValueError, "workers=process:N"),
        ("gatspi:workers=process:0", ValueError, "at least 1"),
        ("gatspi:device=torch,workers=process", ValueError, "numpy"),
        ("gatspi-oracle:workers=process:2", TypeError, "workers"),
        ("gatspi-sharded:shards=4", UnknownBackendError,
         "gatspi:workers=process:N"),
    ])
    def test_bad_scale_out_specs_fail_at_prepare(self, spec, error, match, design):
        """Every malformed or retired scale-out spec raises its typed error
        before anything runs (no engine, no pool)."""
        netlist, annotation, _ = design
        with pytest.raises(error, match=match):
            _prepare(spec, netlist, annotation)

    def test_scale_out_knobs_are_gone(self, design):
        """One scale-out path: the thread pool and its duplicates left."""
        import importlib

        import repro
        from repro.core import GatspiEngine

        netlist, annotation, _ = design
        gatspi = get_backend("gatspi")
        for workers in (2, 1, "thread", "thread:2"):
            with pytest.raises(ValueError, match="workers=process:N"):
                gatspi.prepare(
                    netlist, annotation=annotation, config=CONFIG,
                    workers=workers,
                )
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("threaded-cpu")
        assert all(name in str(excinfo.value) for name in BUILTIN_BACKENDS)
        assert len(available_backends()) == 4
        for module, name in (
            ("repro", "simulate_multi_gpu"),
            ("repro.core", "simulate_multi_gpu"),
            ("repro.core", "MultiGpuResult"),
            ("repro.reference", "PartitionedCpuSimulator"),
            ("repro.netlist", "validate_netlist"),
        ):
            assert not hasattr(importlib.import_module(module), name), name
        for gone in ("core.multi_gpu", "reference.threaded", "netlist.validate"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.{gone}")
        assert not hasattr(GatspiEngine, "adopt")
        for name in ("ShardedGatspiSession", "GatspiShardedBackend"):
            assert not hasattr(repro.api, name), name
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.api.sharded")

    def test_horizon_sharding_is_gone(self):
        """Shares are window groups: the horizon planner, its slicer and
        trim/merge, the retry cap and the derived-config hook left."""
        import importlib
        import inspect

        from repro.api import GatspiSession
        from repro.core import restructure

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.sharding")
        core = importlib.import_module("repro.core")
        for name in ("Shard", "plan_shards", "trim_shard_waveform",
                     "merge_shard_waveforms", "slice_stimulus"):
            assert not hasattr(core, name), name
        assert not hasattr(restructure, "slice_stimulus")
        assert "config" not in inspect.signature(GatspiSession).parameters

    def test_config_fields_are_an_explicit_list(self):
        """``SimConfig`` is exactly these knobs: the settle margin is
        derived from the delays and the clock inferred from the
        registers, so no field or run argument pins either."""
        import dataclasses
        import inspect

        from repro.core.clocked import plan_clocked_run

        assert {field.name for field in dataclasses.fields(SimConfig)} == {
            "cycle_parallelism", "threads_per_block", "registers_per_thread",
            "pathpulse_percent", "enable_net_delay_filtering", "full_sdf",
            "device", "analysis", "store_waveforms", "clock_period",
            "stream_chunk_cycles",
        }
        for entry in (Session.run_cycles, Session.run_cycles_stream,
                      plan_clocked_run):
            parameters = inspect.signature(entry).parameters
            assert "clock" not in parameters and "reset" not in parameters

    def test_time_axis_fusion_helpers_are_gone(self):
        """Requests are columns: the fusion layout, its split and the
        sharded session's fused path left; ``RunSpec`` and ``run_many``
        live on the base session."""
        import importlib

        from repro.api import GatspiSession, RunSpec, Session

        gone = (
            "FusedLayout", "plan_fusion", "fuse_stimuli",
            "split_fused_waveform", "_run_fused",
        )
        owner = importlib.import_module("repro.core")
        for name in gone:
            assert not hasattr(owner, name), name
        for name in ("_run_fused", "_split_fused_result"):
            assert not hasattr(GatspiSession, name), name
        assert RunSpec.__module__ == "repro.api.session"
        assert "run_many" in vars(Session)
        assert "run_many" not in vars(GatspiSession)


@pytest.mark.concurrency
class TestSessionConcurrency:
    """Regressions for the unsynchronized ``Session.run`` critical section.

    Before the per-session lock, concurrent ``run()`` calls raced on the
    ``_runs_completed`` counter *and* on backend-internal per-run state —
    the event-driven engine mutates its gate states in place during a
    run, so two interleaved runs corrupt each other's waveforms outright.
    """

    @pytest.fixture(autouse=True)
    def tight_switch_interval(self):
        import sys

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(old)

    @pytest.mark.parametrize("backend_name", ["event", "gatspi"])
    def test_concurrent_runs_stay_consistent(self, backend_name, design):
        from concurrent.futures import ThreadPoolExecutor

        netlist, annotation, stimulus = design
        backend = get_backend(backend_name)
        reference = backend.prepare(
            netlist, annotation=annotation, config=CONFIG
        ).run(stimulus, duration=DURATION)

        session = backend.prepare(netlist, annotation=annotation, config=CONFIG)
        attempts = 12
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(
                pool.map(
                    lambda _: session.run(stimulus, duration=DURATION),
                    range(attempts),
                )
            )
        # No lost counter increments.
        assert session.runs_completed == attempts
        # Every concurrent run produced the serial result, with uniformly
        # finalized stats.
        for result in results:
            assert result.toggle_counts == reference.toggle_counts
            assert result.stats.cycles == reference.stats.cycles
            assert result.stats.gate_count == netlist.gate_count
            assert result.stats.input_events == reference.stats.input_events

    def test_concurrent_runs_with_distinct_stimuli(self, design):
        """Interleaved runs with different stimuli keep their own answers."""
        from concurrent.futures import ThreadPoolExecutor

        netlist, annotation, _ = design
        backend = get_backend("gatspi")
        stimuli = [
            build_random_stimulus(netlist, DURATION, seed=1000 + i)
            for i in range(6)
        ]
        expected = [
            backend.prepare(netlist, annotation=annotation, config=CONFIG).run(
                stim, duration=DURATION
            ).toggle_counts
            for stim in stimuli
        ]
        session = backend.prepare(netlist, annotation=annotation, config=CONFIG)
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(
                pool.map(
                    lambda stim: session.run(stim, duration=DURATION), stimuli
                )
            )
        for result, counts in zip(results, expected):
            assert result.toggle_counts == counts
        assert session.runs_completed == len(stimuli)


class TestCrossBackendEquivalence:
    """The ISSUE acceptance check: gatspi and event agree through the api."""

    @pytest.mark.parametrize("seed", [2, 11])
    def test_gatspi_and_event_toggle_counts_agree(self, seed):
        netlist = build_random_netlist(num_gates=35, seed=seed)
        annotation = annotation_from_design_delays(
            netlist, SyntheticDelayModel(seed=seed).build(netlist)
        )
        stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 50)
        results = {}
        for name in ("gatspi", "event"):
            session = get_backend(name).prepare(
                netlist, annotation=annotation, config=CONFIG
            )
            results[name] = session.run(stimulus, duration=DURATION)
        mismatches = results["gatspi"].differing_nets(results["event"])
        assert not mismatches, f"toggle mismatches: {list(mismatches.items())[:5]}"
