"""Tests for the process-wide compiled-design cache.

Repeated sessions over the same (netlist, annotation, config) triple must
reuse the packed design tensors; any change to the inputs the compile
consumes — netlist structure, delay tables, the ``full_sdf`` ablation, the
device — must miss.  Fingerprints are content-based, so structurally
identical copies (``deepcopy``) share a compile, and results stay
bit-identical whether they came from the cache or a fresh build.
"""

from __future__ import annotations

import copy
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import get_backend
from repro.core import SimConfig, cache_info, clear_compile_cache
from repro.core.engine import GatspiEngine
from repro.sdf import SyntheticDelayModel, UnitDelayModel, annotation_from_design_delays
from repro.testing import build_random_netlist, build_random_stimulus


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _design(seed=0):
    netlist = build_random_netlist(num_inputs=5, num_gates=20, seed=seed)
    delays = SyntheticDelayModel(seed=seed).build(netlist)
    return netlist, annotation_from_design_delays(netlist, delays)


class TestCacheReuse:
    def test_second_compile_reuses_packed_tensors(self):
        netlist, annotation = _design()
        first = GatspiEngine(netlist, annotation=annotation)
        first.compile()
        assert not first.compile_cache_hit
        second = GatspiEngine(netlist, annotation=annotation)
        second.compile()
        assert second.compile_cache_hit
        assert second.packed_design is first.packed_design
        assert second.compiled is first.compiled
        info = cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_deepcopy_shares_a_compile(self):
        netlist, annotation = _design()
        GatspiEngine(netlist, annotation=annotation).compile()
        clone = GatspiEngine(
            copy.deepcopy(netlist), annotation=copy.deepcopy(annotation)
        )
        clone.compile()
        assert clone.compile_cache_hit

    def test_prepare_sessions_share_a_compile(self):
        netlist, annotation = _design()
        backend = get_backend("gatspi")
        a = backend.prepare(netlist, annotation=annotation)
        b = backend.prepare(netlist, annotation=annotation)
        assert b.engine.compile_cache_hit
        assert a.engine.packed_design is b.engine.packed_design

    def test_cached_results_bit_identical(self):
        netlist, annotation = _design(seed=3)
        stimulus = build_random_stimulus(netlist, 8_000, seed=7)
        backend = get_backend("gatspi")
        fresh = backend.prepare(netlist, annotation=annotation).run(
            stimulus, duration=8_000
        )
        cached = backend.prepare(netlist, annotation=annotation).run(
            stimulus, duration=8_000
        )
        assert fresh.toggle_counts == cached.toggle_counts
        for net in fresh.waveforms:
            assert fresh.waveforms[net] == cached.waveforms[net]


class TestCacheInvalidation:
    def test_different_annotation_misses(self):
        netlist, annotation = _design()
        GatspiEngine(netlist, annotation=annotation).compile()
        other = annotation_from_design_delays(
            netlist, UnitDelayModel(delay=42).build(netlist)
        )
        engine = GatspiEngine(netlist, annotation=other)
        engine.compile()
        assert not engine.compile_cache_hit

    def test_different_netlist_misses(self):
        netlist, annotation = _design(seed=1)
        GatspiEngine(netlist, annotation=annotation).compile()
        other_netlist, other_annotation = _design(seed=2)
        engine = GatspiEngine(other_netlist, annotation=other_annotation)
        engine.compile()
        assert not engine.compile_cache_hit

    def test_full_sdf_flag_is_part_of_the_key(self):
        netlist, annotation = _design()
        GatspiEngine(netlist, annotation=annotation).compile()
        engine = GatspiEngine(
            netlist, annotation=annotation, config=SimConfig(full_sdf=False)
        )
        engine.compile()
        assert not engine.compile_cache_hit

    def test_in_place_annotation_mutation_misses_on_recompile(self):
        netlist, annotation = _design()
        engine = GatspiEngine(netlist, annotation=annotation)
        engine.compile()
        name = next(iter(annotation.gate_tables))
        annotation.gate_tables[name] = annotation.gate_tables[name].averaged()
        engine.compile()
        assert not engine.compile_cache_hit

    def test_capacity_is_configurable_and_bounds_entries(self):
        from repro.core import set_compile_cache_capacity
        from repro.core.compile_cache import COMPILE_CACHE_CAPACITY

        try:
            set_compile_cache_capacity(1)
            for seed in (1, 2, 3):
                netlist, annotation = _design(seed=seed)
                GatspiEngine(netlist, annotation=annotation).compile()
            assert cache_info()["size"] == 1
            set_compile_cache_capacity(0)
            assert cache_info()["size"] == 0
            netlist, annotation = _design(seed=4)
            GatspiEngine(netlist, annotation=annotation).compile()
            assert cache_info()["size"] == 0
            with pytest.raises(ValueError):
                set_compile_cache_capacity(-1)
        finally:
            set_compile_cache_capacity(COMPILE_CACHE_CAPACITY)

    def test_disabled_cache_never_stores(self):
        from repro.core import set_compile_cache_capacity
        from repro.core.compile_cache import COMPILE_CACHE_CAPACITY

        netlist, annotation = _design()
        try:
            set_compile_cache_capacity(0)
            GatspiEngine(netlist, annotation=annotation).compile()
            engine = GatspiEngine(netlist, annotation=annotation)
            engine.compile()
            assert not engine.compile_cache_hit
            assert cache_info()["size"] == 0
            assert cache_info()["hits"] == 0
        finally:
            set_compile_cache_capacity(COMPILE_CACHE_CAPACITY)

    def test_store_respects_capacity_after_concurrent_shrink(self):
        from repro.core import set_compile_cache_capacity
        from repro.core.compile_cache import COMPILE_CACHE_CAPACITY

        try:
            set_compile_cache_capacity(2)
            for seed in (1, 2):
                netlist, annotation = _design(seed=seed)
                GatspiEngine(netlist, annotation=annotation).compile()
            set_compile_cache_capacity(1)
            assert cache_info()["size"] == 1
        finally:
            set_compile_cache_capacity(COMPILE_CACHE_CAPACITY)

    def test_recompile_still_clears_stale_gate_inputs(self):
        """The cached mapping is copied per compile, so engine-local
        mutations (the PR 1 regression scenario) never leak back."""
        netlist, annotation = _design()
        engine = GatspiEngine(netlist, annotation=annotation)
        engine.compile()
        expected = set(engine._gate_inputs)
        engine._gate_inputs["stale_gate"] = engine._gate_inputs[
            next(iter(expected))
        ]
        engine.compile()
        assert engine.compile_cache_hit
        assert "stale_gate" not in engine._gate_inputs
        assert set(engine._gate_inputs) == expected


@pytest.mark.concurrency
class TestCacheConcurrency:
    """Regressions for the unlocked module-global cache.

    Before the cache operations were serialized under ``_LOCK``,
    concurrent ``prepare()`` calls raced on the ``OrderedDict``
    (``move_to_end`` / insertion / the eviction loop): the LRU could
    corrupt, ``popitem`` could double-evict into a ``KeyError``, and the
    hit/miss counters could lose updates.  These tests hammer exactly
    those paths from a ``ThreadPoolExecutor``; they are probabilistic by
    nature, so they maximize interleavings with a tiny switch interval
    and a capacity small enough that every store evicts.
    """

    @pytest.fixture(autouse=True)
    def tight_switch_interval(self):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(old)

    def test_concurrent_prepare_hammer(self):
        """Many threads preparing overlapping designs under eviction."""
        from repro.api import get_backend
        from repro.core import set_compile_cache_capacity
        from repro.core.compile_cache import COMPILE_CACHE_CAPACITY

        designs = [_design(seed=seed) for seed in range(6)]
        backend = get_backend("gatspi")
        attempts = 48

        def prepare_one(index: int):
            netlist, annotation = designs[index % len(designs)]
            session = backend.prepare(netlist, annotation=annotation)
            return session.engine.packed_design is not None

        try:
            # Capacity below the design count: every miss evicts, so the
            # store/evict path races against lookups and other stores.
            set_compile_cache_capacity(3)
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert all(pool.map(prepare_one, range(attempts)))
            info = cache_info()
            assert info["size"] <= 3
            # Every prepare consulted the cache exactly once; a lost
            # counter update means the mutation raced.
            assert info["hits"] + info["misses"] == attempts
        finally:
            set_compile_cache_capacity(COMPILE_CACHE_CAPACITY)

    def test_cache_primitive_ops_race_free(self):
        """Direct lookup/store hammer on the cache primitives.

        Two keys against capacity 1 makes every store an eviction, so the
        unlocked code's ``get``/``move_to_end`` window raises ``KeyError``
        when the looked-up entry is evicted mid-refresh, and the unlocked
        ``_HITS``/``_MISSES`` increments lose a measurable fraction of
        their updates (~5% at this contention on CPython 3.11).  With the
        lock both failure modes vanish: no exceptions, and the counters
        exactly conserve the number of lookups.
        """
        import sys as _sys

        from repro.core import compile_cache as cc
        from repro.core import set_compile_cache_capacity
        from repro.core.compile_cache import COMPILE_CACHE_CAPACITY

        sentinel = cc.CompiledArtifacts(
            compiled=None,
            gate_inputs={},
            packed=None,
            readback_net_ids=None,
            source_net_ids=None,
            estimated_path_delay=0,
        )
        keys = ("design-a", "design-b")
        lookups_per_worker = 40_000
        workers = 6
        old_interval = _sys.getswitchinterval()

        def worker(worker_index: int) -> int:
            for step in range(lookups_per_worker):
                key = keys[(worker_index + step) % 2]
                if cc.lookup(key) is None:
                    cc.store(key, sentinel)
            return lookups_per_worker

        try:
            _sys.setswitchinterval(1e-6)
            set_compile_cache_capacity(1)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                # ``result()`` re-raises the unlocked code's KeyError.
                total_lookups = sum(
                    pool.map(worker, range(workers))
                )
            info = cache_info()
            assert info["size"] <= 1
            assert info["hits"] + info["misses"] == total_lookups, (
                f"hit/miss counters lost "
                f"{total_lookups - info['hits'] - info['misses']} updates "
                f"under concurrency"
            )
        finally:
            _sys.setswitchinterval(old_interval)
            set_compile_cache_capacity(COMPILE_CACHE_CAPACITY)
            cc.clear_compile_cache()

    def test_lru_refresh_is_atomic_with_eviction(self, monkeypatch):
        """Deterministic injection of the exact pre-fix interleaving.

        A lookup's LRU refresh is a dict read followed by
        ``move_to_end``; a concurrent store at capacity evicts the
        least-recently-used entry.  Unlocked, the eviction can land
        between the two halves of the refresh and ``move_to_end`` raises
        ``KeyError`` — the LRU-corruption crash.  The instrumented cache
        holds the window open on an event so the interleaving is forced
        every run: with the cache lock the store must wait for the whole
        refresh, so the lookup completes and returns the entry.
        """
        import threading
        from collections import OrderedDict

        from repro.core import compile_cache as cc
        from repro.core import set_compile_cache_capacity
        from repro.core.compile_cache import COMPILE_CACHE_CAPACITY

        in_window = threading.Event()
        proceed = threading.Event()

        class InstrumentedCache(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                if key == "a" and value is not None and not in_window.is_set():
                    in_window.set()
                    proceed.wait(timeout=0.5)
                return value

        monkeypatch.setattr(cc, "_CACHE", InstrumentedCache())
        sentinel = cc.CompiledArtifacts(
            compiled=None,
            gate_inputs={},
            packed=None,
            readback_net_ids=None,
            source_net_ids=None,
            estimated_path_delay=0,
        )
        outcome = {}

        def refresher():
            try:
                outcome["value"] = cc.lookup("a")
            except KeyError as exc:  # the pre-fix crash
                outcome["error"] = exc

        try:
            set_compile_cache_capacity(1)
            cc.store("a", sentinel)
            thread = threading.Thread(target=refresher)
            thread.start()
            assert in_window.wait(timeout=1.0), "lookup never reached the cache"
            # At capacity 1 this store evicts "a".  Unlocked it runs inside
            # the open refresh window; locked it blocks until the refresh
            # is done.
            cc.store("b", sentinel)
            proceed.set()
            thread.join(timeout=2.0)
            assert not thread.is_alive()
            assert "error" not in outcome, (
                f"LRU refresh raced the eviction: {outcome['error']!r}"
            )
            assert outcome["value"] is sentinel
        finally:
            proceed.set()
            set_compile_cache_capacity(COMPILE_CACHE_CAPACITY)

    def test_concurrent_capacity_churn_and_prepare(self):
        """Shrinking/growing capacity while other threads prepare.

        The eviction loop in ``set_compile_cache_capacity`` iterates
        ``popitem(last=False)``; racing it against concurrent stores used
        to double-evict (``KeyError``) or leave the cache over capacity.
        """
        from repro.api import get_backend
        from repro.core import set_compile_cache_capacity
        from repro.core.compile_cache import COMPILE_CACHE_CAPACITY

        designs = [_design(seed=seed) for seed in range(5)]
        backend = get_backend("gatspi")

        def prepare_loop(index: int):
            for _ in range(4):
                netlist, annotation = designs[index % len(designs)]
                backend.prepare(netlist, annotation=annotation)

        def churn_loop(_):
            for capacity in (1, 4, 2, 5, 1, 3):
                set_compile_cache_capacity(capacity)

        try:
            with ThreadPoolExecutor(max_workers=10) as pool:
                workers = [pool.submit(prepare_loop, i) for i in range(8)]
                churners = [pool.submit(churn_loop, i) for i in range(2)]
                for future in workers + churners:
                    future.result()
            # The last capacity set by a churner is 3.
            assert cache_info()["size"] <= 3
        finally:
            set_compile_cache_capacity(COMPILE_CACHE_CAPACITY)
