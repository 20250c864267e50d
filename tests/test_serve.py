"""Tests for the concurrent serving front end (`repro.serve`).

Covers the subsystem's contract surface — admission, micro-batching,
session reuse, failure isolation, lifecycle — plus concurrency-marked
stress holding concurrent mixed-design traffic to the serial reference
results, through both plain ``gatspi`` and ``gatspi:workers=process:2``
(window groups on spawned workers).
"""

from __future__ import annotations

import queue
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    BackendCapabilities,
    SimBackend,
    UnknownBackendError,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.core import SimConfig, StimulusError, clear_compile_cache
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.serve import (
    ServeRequest,
    ServiceClosedError,
    ServiceOverloadedError,
    SimulationService,
)
from repro.serve.service import session_key
from repro.testing import build_random_netlist, build_random_stimulus

DURATION = 6_000
CONFIG = SimConfig(clock_period=500, cycle_parallelism=4)


@pytest.fixture(autouse=True)
def fresh_compile_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _design(seed: int, num_gates: int = 24):
    netlist = build_random_netlist(num_inputs=5, num_gates=num_gates, seed=seed)
    annotation = annotation_from_design_delays(
        netlist, SyntheticDelayModel(seed=seed).build(netlist)
    )
    stimulus = build_random_stimulus(netlist, DURATION, seed=seed + 100)
    return netlist, annotation, stimulus


def _request(seed: int, backend: str = "gatspi", tag=None) -> ServeRequest:
    netlist, annotation, stimulus = _design(seed)
    return ServeRequest(
        netlist=netlist,
        stimulus=stimulus,
        backend=backend,
        annotation=annotation,
        config=CONFIG,
        duration=DURATION,
        tag=tag,
    )


class TestRequestRoundTrip:
    def test_submit_resolves_to_response(self):
        request = _request(1)
        expected = (
            get_backend("gatspi")
            .prepare(request.netlist, annotation=request.annotation, config=CONFIG)
            .run(request.stimulus, duration=DURATION)
        )
        with SimulationService(max_workers=2) as service:
            response = service.submit(request).result(timeout=60)
        assert response.result.toggle_counts == expected.toggle_counts
        assert response.backend == "gatspi"
        assert response.queue_seconds >= 0
        assert response.run_seconds > 0
        assert response.batch_size >= 1
        assert not response.session_reused  # first request prepared it

    def test_run_is_synchronous_submit(self):
        request = _request(2, tag="sync")
        with SimulationService(max_workers=1) as service:
            response = service.run(request)
        assert response.tag == "sync"
        assert response.result.total_toggles() > 0

    def test_missing_horizon_rejected_at_submit(self):
        netlist, annotation, stimulus = _design(3)
        with SimulationService(max_workers=1) as service:
            with pytest.raises(ValueError):
                service.submit(
                    ServeRequest(
                        netlist=netlist, stimulus=stimulus, annotation=annotation
                    )
                )

    def test_sharded_backend_through_service_matches_single(self):
        request = _request(4, backend="gatspi:workers=process:2")
        expected = (
            get_backend("gatspi")
            .prepare(request.netlist, annotation=request.annotation, config=CONFIG)
            .run(request.stimulus, duration=DURATION)
        )
        with SimulationService(max_workers=2) as service:
            response = service.run(request)
        assert response.result.stats.shards == 2
        assert response.result.toggle_counts == expected.toggle_counts
        for net in expected.waveforms:
            assert response.result.waveforms[net] == expected.waveforms[net]


class TestMicroBatching:
    def test_same_design_burst_shares_one_session(self):
        request = _request(5)
        with SimulationService(max_workers=2) as service:
            futures = [service.submit(request) for _ in range(10)]
            responses = [f.result(timeout=120) for f in futures]
        stats = service.stats()
        # One prepare served the whole burst...
        assert stats["session_misses"] == 1
        assert stats["session_hits"] + stats["session_misses"] <= stats["batches"] * 2
        # ...and every response carries the same session identity.
        assert len({r.session_key for r in responses}) == 1
        assert any(r.batch_size > 1 for r in responses) or stats["batches"] > 1
        totals = {r.result.total_toggles() for r in responses}
        assert len(totals) == 1

    def test_structurally_identical_designs_share_a_fingerprint(self):
        """Two equal-content netlist objects batch onto one session."""
        a = _request(6)
        netlist, annotation, stimulus = _design(6)
        b = ServeRequest(
            netlist=netlist, stimulus=stimulus, annotation=annotation,
            config=CONFIG, duration=DURATION,
        )
        assert a.netlist is not b.netlist
        assert session_key(a) == session_key(b)
        with SimulationService(max_workers=2) as service:
            ra = service.submit(a).result(timeout=60)
            rb = service.submit(b).result(timeout=60)
        assert ra.session_key == rb.session_key
        assert service.stats()["session_misses"] == 1

    def test_same_design_burst_fuses_on_gatspi(self):
        """Micro-batches on gatspi run as one ``run_many`` column batch.

        A blocked worker guarantees the burst is still queued when the
        dispatcher groups it, so the batch reaches ``run_many`` together;
        every response must match the standalone run bit for bit.
        """
        netlist, annotation, _ = _design(9)
        # Distinct stimuli per request: identical in-flight requests
        # coalesce onto one run instead (their own test below).
        stimuli = [
            build_random_stimulus(netlist, DURATION, seed=900 + i)
            for i in range(6)
        ]
        reference = get_backend("gatspi").prepare(
            netlist, annotation=annotation, config=CONFIG
        )
        expected = [reference.run(s, duration=DURATION) for s in stimuli]

        def request_for(stimulus):
            return ServeRequest(
                netlist=netlist,
                stimulus=stimulus,
                annotation=annotation,
                config=CONFIG,
                duration=DURATION,
            )

        with SimulationService(max_workers=1, queue_size=32) as service:
            # Occupy the single worker so the burst accumulates.
            head = service.submit(request_for(stimuli[0]))
            burst = [service.submit(request_for(s)) for s in stimuli[1:]]
            responses = [head.result(timeout=120)] + [
                f.result(timeout=120) for f in burst
            ]
            stats = service.stats()
        assert any(r.fused for r in responses), "burst never fused"
        fused = [r for r in responses if r.fused]
        assert all(r.result.stats.fused_requests > 1 for r in fused)
        assert stats["fused_fallbacks"] == 0
        for response, reference_result in zip(responses, expected):
            assert response.result.toggle_counts == reference_result.toggle_counts
            for net in reference_result.waveforms:
                assert response.result.waveforms[net] == reference_result.waveforms[net]

    def test_identical_inflight_requests_coalesce_onto_one_run(self):
        request = _request(9, backend="gatspi")
        expected = (
            get_backend("gatspi")
            .prepare(request.netlist, annotation=request.annotation, config=CONFIG)
            .run(request.stimulus, duration=DURATION)
        )
        with SimulationService(max_workers=1, queue_size=32) as service:
            head = service.submit(request)
            burst = [service.submit(request) for _ in range(5)]
            responses = [head.result(timeout=120)] + [
                f.result(timeout=120) for f in burst
            ]
            stats = service.stats()
        assert any(r.coalesced for r in responses), "burst never coalesced"
        assert stats["coalesced"] >= 1
        # Coalesced responses share the leader's bit-identical result.
        for response in responses:
            assert response.result.toggle_counts == expected.toggle_counts
            for net in expected.waveforms:
                assert response.result.waveforms[net] == expected.waveforms[net]

    def test_different_designs_use_distinct_sessions(self):
        with SimulationService(max_workers=2) as service:
            first = service.submit(_request(7))
            second = service.submit(_request(8))
            responses = [first.result(timeout=60), second.result(timeout=60)]
        assert responses[0].session_key != responses[1].session_key
        assert service.stats()["session_misses"] == 2

    def test_session_cache_eviction_falls_back_to_compile_cache(self):
        requests = [_request(seed) for seed in (10, 11, 12)]
        with SimulationService(max_workers=1, session_cache_size=1) as service:
            for request in requests:
                service.run(request)
            # Every design was a service-session miss (cache size 1)...
            assert service.stats()["session_misses"] == 3
            # ...but re-serving the first only needs a cheap re-prepare.
            before = time.perf_counter()
            service.run(requests[0])
            assert time.perf_counter() - before < 30
        assert service.stats()["cached_sessions"] <= 1


class _Gate:
    """A registered backend whose runs block on an event (test rig)."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()


@pytest.fixture
def blocking_backend():
    gate = _Gate()

    class BlockingSession:
        backend_name = "blocking-test"

        def attach_analysis(self, report):
            pass

        def run(self, stimulus, cycles=None, duration=None):
            gate.entered.set()
            if not gate.release.wait(timeout=30):
                raise TimeoutError("test gate never released")
            from repro.core.results import SimulationResult

            return SimulationResult(duration=duration or 0)

    class BlockingBackend(SimBackend):
        name = "blocking-test"
        capabilities = BackendCapabilities(description="test rig")

        def _prepare(self, netlist, annotation=None, config=None, **options):
            return BlockingSession()

    register_backend("blocking-test", BlockingBackend)
    try:
        yield gate
    finally:
        gate.release.set()
        unregister_backend("blocking-test")


@pytest.fixture
def turnstile_backend():
    """A registered backend whose every run waits for its own permit.

    Yields ``(started, permits)``: ``started`` gets one entry as each run
    begins, and each ``permits.release()`` lets one run finish.
    """
    started: "queue.Queue[int]" = queue.Queue()
    permits = threading.Semaphore(0)

    class TurnstileSession:
        backend_name = "turnstile-test"

        def attach_analysis(self, report):
            pass

        def run(self, stimulus, cycles=None, duration=None):
            started.put(duration)
            if not permits.acquire(timeout=30):
                raise TimeoutError("test run never got its permit")
            from repro.core.results import SimulationResult

            return SimulationResult(duration=duration or 0)

    class TurnstileBackend(SimBackend):
        name = "turnstile-test"
        capabilities = BackendCapabilities(description="test rig")

        def _prepare(self, netlist, annotation=None, config=None, **options):
            return TurnstileSession()

    register_backend("turnstile-test", TurnstileBackend)
    try:
        yield started, permits
    finally:
        permits.release(16)
        unregister_backend("turnstile-test")


class TestAdmissionControl:
    def test_overload_fails_fast_when_queue_is_full(self, blocking_backend):
        netlist, annotation, stimulus = _design(13)

        def blocked_request():
            return ServeRequest(
                netlist=netlist, stimulus=stimulus, backend="blocking-test",
                annotation=annotation, duration=DURATION,
            )

        service = SimulationService(max_workers=1, queue_size=2)
        try:
            # Saturate the worker and the in-flight permits (2 * workers),
            # then fill the bounded queue behind them.
            inflight = [service.submit(blocked_request()) for _ in range(2)]
            assert blocking_backend.entered.wait(timeout=10)
            deadline = time.time() + 10
            queued = []
            overloaded = False
            while time.time() < deadline and not overloaded:
                try:
                    queued.append(
                        service.submit(blocked_request(), block=False)
                    )
                except ServiceOverloadedError:
                    overloaded = True
            assert overloaded, "bounded queue never pushed back"
            assert service.stats()["rejected"] >= 1
            # Releasing the gate drains everything that was admitted.
            blocking_backend.release.set()
            for future in inflight + queued:
                assert future.result(timeout=30) is not None
        finally:
            blocking_backend.release.set()
            service.close()

    def test_full_queue_blocks_submit_until_a_drain_takes_its_batch(
        self, blocking_backend
    ):
        """``queue_size`` bounds requests not yet taken by a drain.

        The running request does not count; the one waiting behind it
        fills a queue of one, so a blocking submit waits until the key's
        next drain takes that request, then is admitted.
        """
        netlist, annotation, stimulus = _design(19)

        def blocked_request():
            return ServeRequest(
                netlist=netlist, stimulus=stimulus, backend="blocking-test",
                annotation=annotation, duration=DURATION,
            )

        service = SimulationService(max_workers=1, queue_size=1)
        try:
            running = service.submit(blocked_request())
            assert blocking_backend.entered.wait(timeout=10)
            waiting = service.submit(blocked_request(), block=False)
            admitted = []
            blocked = threading.Thread(
                target=lambda: admitted.append(
                    service.submit(blocked_request(), timeout=30)
                )
            )
            blocked.start()
            blocked.join(timeout=0.2)
            assert blocked.is_alive(), "submit did not wait on the full queue"
            blocking_backend.release.set()
            blocked.join(timeout=30)
            assert not blocked.is_alive() and len(admitted) == 1
            for future in [running, waiting] + admitted:
                assert future.result(timeout=30) is not None
        finally:
            blocking_backend.release.set()
            service.close()

    @pytest.mark.concurrency
    def test_taking_a_batch_wakes_a_blocked_submit_while_it_runs(
        self, turnstile_backend
    ):
        """A drain that takes the queued request frees its queue slot at
        once: the submit blocked on the full queue returns while that
        request is still running, not after it finishes."""
        started, permits = turnstile_backend
        netlist, annotation, stimulus = _design(23)

        def request():
            return ServeRequest(
                netlist=netlist, stimulus=stimulus, backend="turnstile-test",
                annotation=annotation, duration=DURATION,
            )

        service = SimulationService(max_workers=1, queue_size=1)
        try:
            first = service.submit(request())
            started.get(timeout=10)
            second = service.submit(request(), block=False)
            admitted = []
            blocked = threading.Thread(
                target=lambda: admitted.append(service.submit(request(), timeout=20))
            )
            blocked.start()
            blocked.join(timeout=0.2)
            assert blocked.is_alive(), "submit did not wait on the full queue"
            permits.release()  # the first run finishes; a drain takes the second
            assert first.result(timeout=10) is not None
            started.get(timeout=10)
            blocked.join(timeout=10)
            assert not blocked.is_alive() and len(admitted) == 1, (
                "taking the queued request did not wake the blocked submit"
            )
            assert not second.done(), "the second request should still be running"
            permits.release(2)
            for future in [second] + admitted:
                assert future.result(timeout=10) is not None
        finally:
            permits.release(16)
            service.close()

    def test_per_client_quota_bounds_in_flight_requests(self, blocking_backend):
        """A client at its quota is rejected; other clients stay admitted.

        The quota counts *in-flight* requests (submitted, not yet done):
        with ``per_client_quota=1`` and the worker blocked on the first
        request, the same client's second submit must fail fast with
        ``QuotaExceededError`` while a differently named client's request
        is still admitted; completing the first request returns the
        permit.
        """
        from repro.serve import QuotaExceededError

        netlist, annotation, stimulus = _design(16)

        def request_for(client):
            return ServeRequest(
                netlist=netlist, stimulus=stimulus, backend="blocking-test",
                annotation=annotation, duration=DURATION, client=client,
            )

        service = SimulationService(
            max_workers=1, queue_size=8, per_client_quota=1
        )
        try:
            first = service.submit(request_for("alice"))
            assert blocking_backend.entered.wait(timeout=10)
            with pytest.raises(QuotaExceededError):
                service.submit(request_for("alice"))
            assert service.stats()["quota_rejected"] == 1
            other = service.submit(request_for("bob"))
            blocking_backend.release.set()
            assert first.result(timeout=30) is not None
            assert other.result(timeout=30) is not None
            # The permit came back with the completed request.
            again = service.submit(request_for("alice"))
            assert again.result(timeout=30) is not None
        finally:
            blocking_backend.release.set()
            service.close()

    def test_failed_submit_returns_its_quota_permit(self):
        """A submit that raises after analysis holds no quota permit.

        The annotation belongs to another design, so the session key's
        annotation fingerprint raises inside ``submit``; the client's next
        submit must still be admitted, not refused for a leaked permit.
        """
        netlist, _, stimulus = _design(1)
        other = build_random_netlist(num_inputs=5, num_gates=24, seed=2)
        foreign = annotation_from_design_delays(
            other, SyntheticDelayModel(seed=2).build(other)
        )
        off = SimConfig(analysis="off")
        with SimulationService(per_client_quota=1) as service:
            with pytest.raises(KeyError):
                service.submit(
                    ServeRequest(
                        netlist=netlist, stimulus=stimulus, annotation=foreign,
                        config=off, duration=DURATION, client="alice",
                    )
                )
            response = service.run(
                ServeRequest(
                    netlist=netlist, stimulus=stimulus, config=off,
                    duration=DURATION, client="alice",
                ),
                timeout=60,
            )
        assert response.result.total_toggles() > 0
        assert service.stats()["quota_rejected"] == 0

    def test_queued_request_can_be_cancelled(self, blocking_backend):
        netlist, annotation, stimulus = _design(14)
        request = ServeRequest(
            netlist=netlist, stimulus=stimulus, backend="blocking-test",
            annotation=annotation, duration=DURATION,
        )
        service = SimulationService(max_workers=1, queue_size=8)
        try:
            first = service.submit(request)
            assert blocking_backend.entered.wait(timeout=10)
            victim = service.submit(request)
            assert victim.cancel()
            blocking_backend.release.set()
            assert first.result(timeout=30) is not None
            assert victim.cancelled()
        finally:
            blocking_backend.release.set()
            service.close()


class TestFailureIsolationAndLifecycle:
    def test_bad_request_fails_only_its_own_future(self):
        """A bad request batched with a good one fails alone.

        The bad request lands in one batch with the head (dispatched
        together) or with the good request (accumulated while the head
        holds the design's session).  Inputs are checked per request
        before ``run_many``, so the bad stimulus fails only its own future
        and the batch runs without a serial fallback.
        """
        head = _request(15)
        netlist, annotation, _ = _design(15)
        good = ServeRequest(
            netlist=netlist,
            stimulus=build_random_stimulus(netlist, DURATION, seed=515),
            annotation=annotation, config=CONFIG, duration=DURATION,
        )
        bad = ServeRequest(
            netlist=netlist, stimulus={}, annotation=annotation,
            config=CONFIG, duration=DURATION,
        )
        with SimulationService(max_workers=1) as service:
            head_future = service.submit(head)
            bad_future = service.submit(bad)
            good_future = service.submit(good)
            with pytest.raises(StimulusError):
                bad_future.result(timeout=60)
            response = good_future.result(timeout=60)
            assert response.result.total_toggles() > 0
            assert head_future.result(timeout=60).result.total_toggles() > 0
        stats = service.stats()
        assert stats["batches"] <= 2, "the bad request never shared a batch"
        assert stats["failed"] == 1
        assert stats["completed"] == 2
        assert stats["fused_fallbacks"] == 0

    def test_unknown_backend_fails_the_future_not_the_service(self):
        request = _request(16, backend="no-such-backend")
        with SimulationService(max_workers=1) as service:
            future = service.submit(request)
            with pytest.raises(LookupError):
                future.result(timeout=60)
            # Prepare failures are not cached: the service stays usable.
            ok = service.run(_request(16))
            assert ok.result.total_toggles() > 0

    def test_retired_backend_spec_fails_only_its_own_future(self):
        """A request naming the retired ``gatspi-sharded`` fails with a
        message naming its replacement; the good request beside it runs."""
        retired = _request(18, backend="gatspi-sharded:shards=2")
        with SimulationService(max_workers=1) as service:
            retired_future = service.submit(retired)
            good_future = service.submit(_request(18))
            with pytest.raises(UnknownBackendError, match="workers=process:N"):
                retired_future.result(timeout=60)
            assert good_future.result(timeout=60).result.total_toggles() > 0
        stats = service.stats()
        assert stats["failed"] == 1
        assert stats["completed"] == 1

    def test_close_drains_queued_requests(self):
        request = _request(17)
        service = SimulationService(max_workers=1)
        futures = [service.submit(request) for _ in range(4)]
        service.close()
        for future in futures:
            assert future.result(timeout=60).result.total_toggles() > 0
        with pytest.raises(ServiceClosedError):
            service.submit(request)

    def test_close_is_idempotent(self):
        service = SimulationService(max_workers=1)
        service.close()
        service.close()


@pytest.mark.concurrency
class TestServiceConcurrency:
    """Mixed-design concurrent traffic stays consistent with serial runs."""

    def test_concurrent_clients_mixed_designs_and_backends(self):
        seeds = (20, 21, 22)
        designs = {seed: _design(seed) for seed in seeds}
        expected = {}
        for seed, (netlist, annotation, stimulus) in designs.items():
            expected[seed] = (
                get_backend("gatspi")
                .prepare(netlist, annotation=annotation, config=CONFIG)
                .run(stimulus, duration=DURATION)
                .toggle_counts
            )

        def client(index: int):
            seed = seeds[index % len(seeds)]
            netlist, annotation, stimulus = designs[seed]
            backend = "gatspi" if index % 2 == 0 else "gatspi:workers=process:2"
            response = service.run(
                ServeRequest(
                    netlist=netlist, stimulus=stimulus, backend=backend,
                    annotation=annotation, config=CONFIG, duration=DURATION,
                    tag=str(seed),
                )
            )
            return seed, response

        with SimulationService(max_workers=4, queue_size=64) as service:
            with ThreadPoolExecutor(max_workers=8) as clients:
                outcomes = list(clients.map(client, range(24)))

        for seed, response in outcomes:
            assert response.result.toggle_counts == expected[seed], (
                f"design seed={seed} diverged under concurrent serving"
            )
        stats = service.stats()
        assert stats["submitted"] == 24
        assert stats["completed"] == 24
        assert stats["failed"] == 0
        # Each backend spec needs one prepared session per design.
        assert stats["session_misses"] == len(seeds) * 2

    def test_close_racing_submit_leaves_no_request_or_thread_behind(self):
        """Clients keep submitting while ``close()`` runs.

        Every submit either raises ``ServiceClosedError`` or returns a
        future that resolves, and ``close()`` returns with no service
        worker thread left alive.
        """
        request = _request(24, backend="event")
        before = {t.ident for t in threading.enumerate()}
        service = SimulationService(max_workers=2, queue_size=4)
        outcomes = []
        started = threading.Barrier(5)

        def client():
            started.wait(timeout=30)
            while True:
                try:
                    future = service.submit(request)
                except ServiceClosedError:
                    return
                outcomes.append(future)

        clients = [threading.Thread(target=client) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in clients:
                thread.start()
            started.wait(timeout=30)
            time.sleep(0.05)
            service.close()
            for thread in clients:
                thread.join(timeout=30)
                assert not thread.is_alive(), "a client stayed blocked in submit"
        finally:
            sys.setswitchinterval(interval)
        assert outcomes, "no submit won the race"
        for future in outcomes:
            assert future.result(timeout=30).result.total_toggles() > 0
        leftover = [
            t for t in threading.enumerate()
            if t.ident not in before and t.name.startswith("repro-serve")
        ]
        assert leftover == []
        stats = service.stats()
        assert stats["completed"] == stats["submitted"] == len(outcomes)

    def test_counters_conserve_under_concurrent_submit(self):
        request = _request(23)
        with SimulationService(max_workers=4, queue_size=64) as service:
            with ThreadPoolExecutor(max_workers=8) as clients:
                futures = list(
                    clients.map(
                        lambda _: service.submit(request).result(timeout=120),
                        range(16),
                    )
                )
        assert len(futures) == 16
        stats = service.stats()
        assert stats["submitted"] == stats["completed"] + stats["failed"]
        assert stats["failed"] == 0
        assert stats["session_misses"] == 1


# ======================================================================
# Admission semantics (ISSUE 8 bugfixes)
# ======================================================================
def _error_but_runnable_design():
    """A design with an error-severity finding that still simulates fine.

    The dangling primary output ``z`` trips the ``unconnected-output``
    rule (ERROR severity), but it has no driver and no loads, so
    ``prepare()``/``run()`` simulate the rest of the design happily —
    exactly the shape the admission gate must not bounce under the
    default ``analysis="warn"``.
    """
    from repro.netlist import Netlist

    netlist = Netlist("floatout")
    netlist.add_input("a")
    netlist.add_output("y")
    netlist.add_output("z")
    netlist.add_instance("INV", "u0", {"A": "a", "Y": "y"})
    stimulus = build_random_stimulus(netlist, DURATION, seed=99)
    return netlist, stimulus


class TestAdmissionSemantics:
    def test_warn_mode_serves_error_design_with_report_attached(self):
        # Regression (pre-fix: _check_admission rejected for every mode
        # other than "off", contradicting SimConfig's documented "warn"
        # semantics of attach-report-and-proceed).
        netlist, stimulus = _error_but_runnable_design()
        with SimulationService(max_workers=1) as service:
            response = service.run(
                ServeRequest(netlist=netlist, stimulus=stimulus, duration=DURATION)
            )
        assert response.result.total_toggles() > 0
        assert response.analysis_report is not None
        assert response.analysis_report.has_errors
        assert response.analysis_report.findings_for("unconnected-output")

    def test_strict_mode_still_rejects_error_design(self):
        from repro.serve import DesignRejectedError

        netlist, stimulus = _error_but_runnable_design()
        with SimulationService(max_workers=1) as service:
            with pytest.raises(DesignRejectedError) as excinfo:
                service.submit(
                    ServeRequest(
                        netlist=netlist,
                        stimulus=stimulus,
                        duration=DURATION,
                        config=SimConfig(analysis="strict"),
                    )
                )
        assert excinfo.value.report.has_errors

    def test_warn_mode_attaches_report_on_clean_design_too(self):
        request = _request(31)
        assert (request.config or SimConfig()).analysis == "warn"
        with SimulationService(max_workers=1) as service:
            response = service.run(request)
        assert response.analysis_report is not None
        assert not response.analysis_report.has_errors

    def test_repeat_submission_evaluates_zero_rules(self):
        # The submit docstring promises fingerprint-cached admission
        # analysis: a second submission of a known design must be a pure
        # cache hit, with no additional rule evaluation.
        from repro.analysis import analysis_cache_info, clear_analysis_cache

        clear_analysis_cache()
        request = _request(32)
        with SimulationService(max_workers=1) as service:
            service.run(request)
            runs_after_first = analysis_cache_info()["runs"]
            hits_after_first = analysis_cache_info()["hits"]
            service.run(request)
            info = analysis_cache_info()
        assert info["runs"] == runs_after_first
        assert info["hits"] > hits_after_first


class TestSessionEvictionPinning:
    def test_base_session_with_queued_delta_work_survives_eviction(self):
        # Regression (pre-fix: the session-LRU eviction loop ignored the
        # keys with work in flight, so eviction pressure while a delta
        # batch was admitted-but-unfinished dropped the base session and
        # turned the delta into UnknownBaseDesignError).
        from repro.core.edits import SetPinDelay

        base_request = _request(41)
        with SimulationService(max_workers=1, session_cache_size=1) as service:
            base = service.run(base_request)
            base_key = base.session_key
            # Simulate an admitted-but-unfinished delta batch holding the
            # base key, exactly what the service's state under its one lock
            # records while a drain for the key is queued or running.
            with service._service_lock:
                service._active_keys.add(base_key)
            try:
                service.run(_request(42))  # eviction pressure (cache size 1)
                service.run(_request(43))
            finally:
                with service._service_lock:
                    service._active_keys.discard(base_key)
            gate = next(
                inst
                for inst in base_request.netlist.instances.values()
                if inst.cell.inputs
            )
            delta = service.run(
                ServeRequest(
                    base_key=base_key,
                    edits=(
                        SetPinDelay(
                            gate=gate.name,
                            pin=gate.cell.inputs[0],
                            rise=7.0,
                            fall=9.0,
                        ),
                    ),
                    stimulus=base_request.stimulus,
                    duration=DURATION,
                )
            )
        assert delta.session_key == base_key
        assert delta.result.total_toggles() > 0
