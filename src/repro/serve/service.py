"""The batched simulation serving front end: a queue over the prepared
session's batch calls (``run`` / ``run_many`` / ``rerun``).

Request lifecycle::

    client -> submit() -> pending requests of its session key
                               |  idle key: one drain task goes
                               v  straight to the worker pool
                 drain: all pending requests of the key, as one batch,
                 on the key's ONE prepared Session; resubmitted when
                 more arrived meanwhile
                               |
                               v
                 Future resolves to ServeResponse

One condition lock guards the pending requests per key, the keys with a
drain queued or running, the session LRU, the quotas and the counters; no
engine work runs under it.

* **Bounded admission.**  ``submit`` returns a
  :class:`concurrent.futures.Future` at once (``asyncio.wrap_future``
  works on it).  ``queue_size`` bounds the requests admitted but not yet
  taken by a drain; at the bound ``submit`` blocks — or, with
  ``block=False`` / a timeout, raises :class:`ServiceOverloadedError`.
* **Micro-batching.**  Requests group by *session key*: the netlist and
  annotation fingerprints the compile cache uses, plus backend spec and
  config.  Requests arriving while a key's drain runs form its next
  batch, so a burst for one design costs one ``prepare()``.  Identical
  full requests coalesce onto one run; two or more distinct ones run as
  one :meth:`~repro.api.session.Session.run_many` (columns of one level
  loop on ``gatspi``).  Inputs are checked per request first, so a bad
  request fails alone; a batch that raises falls back to per-request
  runs, counted in ``stats()["fused_fallbacks"]``.
* **Session reuse.**  Prepared sessions live in a bounded LRU; keys with
  work admitted or running are never evicted, and an evicted design
  re-prepares cheaply from the compile cache.
* **Failure isolation.**  A failing request resolves only its own future
  (and its coalesced followers'); the other requests keep flowing.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from ..analysis import analyze_design
from ..api import RunSpec, resolve_backend
from ..core.compile_cache import fingerprint_annotation, fingerprint_netlist
from ..core.config import SimConfig
from ..core.contract import normalize_horizon, validate_stimulus
from ..core.edits import Edit
from ..core.results import SimulationResult
from ..core.waveform import Waveform
from ..netlist import Netlist
from ..sdf.annotate import DelayAnnotation


class ServiceError(RuntimeError):
    """Base class for serving-layer failures."""


class ServiceClosedError(ServiceError):
    """Raised when submitting to a closed service."""


class ServiceOverloadedError(ServiceError):
    """Raised when the bounded request queue cannot admit a request."""


class QuotaExceededError(ServiceOverloadedError):
    """Raised when one client exceeds its per-client in-flight quota.

    Subclasses :class:`ServiceOverloadedError` because it is the same
    back-pressure contract, scoped to one misbehaving client instead of
    the whole queue: other clients keep being admitted.
    """


class UnknownBaseDesignError(ServiceError):
    """Raised when a delta request's ``base_key`` names no live session.

    After eviction (or for a key that never existed) the client must
    re-submit the full design once to re-establish the base.
    """


class DesignRejectedError(ServiceError):
    """Raised at ``submit`` when design-rule analysis finds error-severity
    problems; the :class:`~repro.analysis.AnalysisReport` is on ``report``.
    """

    def __init__(self, message: str, report: Any):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class ServeRequest:
    """One re-simulation request — full or delta.

    **Full request** (the default): provide ``netlist`` and ``stimulus``;
    ``backend`` is a registry spec (``"gatspi"``,
    ``"gatspi:workers=process:4"``, ``"event"``, ...); one of ``cycles`` /
    ``duration`` must be given, exactly as for :meth:`Session.run`.

    **Delta request**: provide ``base_key`` (the ``session_key`` echoed on
    a previous response) plus ``edits`` instead of a netlist.  The service
    applies the edits to the cached base session, re-simulates only their
    cone of influence (:meth:`Session.rerun`), and undoes them before the
    next request — the shared session always stays at the base design, so
    clients can probe independent what-if ECOs against one compile.
    ``stimulus``/``cycles``/``duration`` default to the base session's
    previous run when omitted.

    ``tag`` is opaque client bookkeeping echoed back on the response.
    """

    netlist: Optional[Netlist] = None
    stimulus: Mapping[str, Waveform] = field(default_factory=dict)
    backend: str = "gatspi"
    annotation: Optional[DelayAnnotation] = None
    config: Optional[SimConfig] = None
    cycles: Optional[int] = None
    duration: Optional[int] = None
    tag: Optional[str] = None
    #: Session key of the prepared base design a delta request targets.
    base_key: Optional[str] = None
    #: Edit batch of a delta request (applied, re-simulated, undone).
    edits: Tuple[Edit, ...] = ()
    #: Client identity for per-client admission quotas (the wire server
    #: stamps each connection's requests with its connection id when the
    #: client does not name itself).
    client: Optional[str] = None


@dataclass(frozen=True)
class ServeResponse:
    """A completed request: the simulation result plus serving telemetry."""

    result: SimulationResult
    backend: str
    session_key: str
    #: Seconds spent queued before a worker picked the request up.
    queue_seconds: float
    #: Seconds the session run itself took on the worker.
    run_seconds: float
    #: Requests in the micro-batch this one was dispatched with.
    batch_size: int
    #: Whether the prepared session came from the service's session cache.
    session_reused: bool
    #: Whether the request ran as columns of a multi-request batch
    #: (``Session.run_many`` on a ``gatspi`` session).
    fused: bool = False
    tag: Optional[str] = None
    #: Whether this request was coalesced onto another in-flight identical
    #: request's engine run (same design, stimulus, and config).
    coalesced: bool = False
    #: The admission analysis report (``analysis="warn"``/``"strict"``
    #: submissions; ``None`` when analysis was off or for delta requests).
    analysis_report: Optional[Any] = None


@dataclass
class _QueueItem:
    request: ServeRequest
    future: "Future[ServeResponse]"
    key: str
    enqueued_at: float
    batch_size: int = 1
    analysis_report: Optional[Any] = None


def stimulus_fingerprint(stimulus: Mapping[str, Waveform]) -> str:
    """Content hash of a stimulus set (net names + waveform arrays).

    Together with the session key (which already pins the design
    fingerprints, backend, and config) this identifies a request's entire
    input, so two in-flight requests with equal fingerprints are
    guaranteed to produce bit-identical results and can be coalesced onto
    one engine run.
    """
    digest = hashlib.sha256()
    for net in sorted(stimulus):
        digest.update(net.encode() + b"\x00" + stimulus[net].data.tobytes())
    return digest.hexdigest()


def session_key(
    request: ServeRequest, *, netlist_fingerprint: Optional[str] = None
) -> str:
    """Content-based identity of the prepared session a request needs.

    Built from the same netlist/annotation fingerprints the compile cache
    uses, so two structurally identical designs submitted as different
    objects batch onto one session; the backend spec and config are part
    of the key because they select the engine and its executors.  A delta
    request targets its base design's session directly: its key IS the
    ``base_key`` it carries.  ``netlist_fingerprint`` lets ``submit``
    reuse the hash its admission analysis already computed.
    """
    if request.base_key is not None:
        return request.base_key
    if request.netlist is None:
        raise ValueError("request provides neither netlist nor base_key")
    netlist_fp = netlist_fingerprint or fingerprint_netlist(request.netlist)
    annotation_fp = (
        fingerprint_annotation(request.annotation, request.netlist)
        if request.annotation is not None
        else "default"
    )
    # ``config=None`` means the backend's default config, so it must key
    # identically to an explicitly passed ``SimConfig()`` — otherwise
    # semantically identical requests would never batch together.
    config_fp = repr(request.config if request.config is not None else SimConfig())
    return "|".join((request.backend, netlist_fp, annotation_fp, config_fp))


class SimulationService:
    """Concurrent simulation serving over the backend registry.

    Parameters
    ----------
    max_workers:
        Worker threads running drains (distinct designs run in parallel
        up to this bound).
    queue_size:
        Admission bound: at most this many requests may be admitted and
        not yet taken by a drain; further ``submit`` calls block or fail
        fast.
    session_cache_size:
        Prepared sessions kept warm (LRU).  Eviction only drops the
        session object — compiled artifacts stay in the compile cache.
        Keys with admitted or running work are pinned and never evicted,
        so a delta stream's base session cannot vanish mid-stream under
        eviction pressure.
    per_client_quota:
        When set, at most this many requests per ``ServeRequest.client``
        may be in flight (submitted, not yet resolved) at once; the next
        submission from that client raises :class:`QuotaExceededError`
        while other clients keep being admitted.
    """

    def __init__(
        self,
        max_workers: int = 4,
        queue_size: int = 64,
        session_cache_size: int = 8,
        per_client_quota: Optional[int] = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if queue_size < 1:
            raise ValueError("queue_size must be at least 1")
        if session_cache_size < 1:
            raise ValueError("session_cache_size must be at least 1")
        if per_client_quota is not None and per_client_quota < 1:
            raise ValueError("per_client_quota must be at least 1")
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._queue_size = queue_size
        self._session_cache_size = session_cache_size
        self._per_client_quota = per_client_quota
        # The one lock guards every field below.  Its waiters: submits
        # blocked on a full queue, and close() waiting for idle keys.
        self._service_lock = threading.Condition()
        # key -> requests admitted, not yet taken by a drain (the key is
        # then also active).
        self._pending: Dict[str, List[_QueueItem]] = {}
        self._pending_count = 0
        # Keys with their one drain queued or running.
        self._active_keys: Set[str] = set()
        self._sessions: "OrderedDict[str, Any]" = OrderedDict()
        self._client_inflight: Dict[str, int] = {}
        counters = (
            "submitted", "completed", "failed", "rejected", "quota_rejected",
            "batches", "max_batch_size", "coalesced", "fused_fallbacks",
            "session_hits", "session_misses", "max_queue_depth",
        )
        self._stats: Dict[str, float] = {name: 0 for name in counters}
        # Per-phase latency accumulators (seconds); divide by
        # ``completed`` for the mean.
        self._stats.update(queue_seconds_total=0.0, run_seconds_total=0.0)
        self._closed = False

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self, request: ServeRequest, *, block: bool = True,
        timeout: Optional[float] = None,
    ) -> "Future[ServeResponse]":
        """Admit a request; returns a future resolving to a response.

        Blocks while the queue is full (back-pressure); a full queue
        raises :class:`ServiceOverloadedError` at once with
        ``block=False``, or after ``timeout`` seconds.  The future may be
        ``cancel()``-ed until a drain picks it up.

        Design-rule analysis runs here, eagerly and fingerprint-cached
        (the netlist hash is shared with the session key): under
        ``analysis="strict"`` an error finding raises
        :class:`DesignRejectedError` before the request takes a queue
        slot; the default ``"warn"`` attaches the report to the response.
        The client's quota permit is taken in the locked step that
        enqueues, after every step that can raise, so a failed submit
        holds none.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        if (request.netlist is None) == (request.base_key is None):
            raise ValueError(
                "exactly one of netlist (full request) or base_key "
                "(delta request) must be provided"
            )
        # Delta requests may omit the horizon (and stimulus): they default
        # to the base session's previous run.
        horizon = (request.cycles, request.duration)
        if request.base_key is None and horizon == (None, None):
            raise ValueError("one of cycles/duration must be provided")
        netlist_fp = None
        if request.netlist is not None:
            netlist_fp = fingerprint_netlist(request.netlist)
        report = self._check_admission(request, netlist_fp)
        item = _QueueItem(
            request=request,
            future=Future(),
            key=session_key(request, netlist_fingerprint=netlist_fp),
            enqueued_at=time.perf_counter(),
            analysis_report=report,
        )
        quota, client = self._per_client_quota, None
        if quota is not None:
            client = "<anonymous>" if request.client is None else request.client
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._service_lock:
            while True:
                if self._closed:
                    raise ServiceClosedError("service is closed")
                inflight = 0 if client is None else self._client_inflight.get(client, 0)
                if quota is not None and inflight >= quota:
                    self._stats["quota_rejected"] += 1
                    raise QuotaExceededError(
                        f"client {client!r} has {inflight} request(s) in flight "
                        f"(quota {quota})"
                    )
                if self._pending_count < self._queue_size:
                    break
                remaining = None if deadline is None else deadline - time.monotonic()
                if not block or (remaining is not None and remaining <= 0):
                    self._stats["rejected"] += 1
                    raise ServiceOverloadedError(
                        f"request queue is full ({self._queue_size} pending)"
                    )
                self._service_lock.wait(remaining)
            if client is not None:
                self._client_inflight[client] = inflight + 1
                item.future.add_done_callback(partial(self._release_quota, client))
            self._pending.setdefault(item.key, []).append(item)
            self._pending_count += 1
            self._stats["submitted"] += 1
            self._stats["max_queue_depth"] = max(
                self._stats["max_queue_depth"], self._pending_count
            )
            idle = item.key not in self._active_keys
            self._active_keys.add(item.key)
        if idle:
            self._executor.submit(self._drain, item.key)
        return item.future

    def _check_admission(
        self, request: ServeRequest, netlist_fingerprint: Optional[str]
    ) -> Optional[Any]:
        """Analyze a full request at the front door; maybe reject it.

        Only ``analysis="strict"`` rejects on error findings; ``"warn"``
        (the default) returns the report for the response and proceeds —
        the contract ``prepare()`` honors.  Returns ``None`` for delta
        requests and ``analysis="off"``.
        """
        if request.netlist is None:
            # Delta request: there is no netlist to analyze here; the
            # session's incremental analysis gate (``Session.rerun``) checks
            # the edited design and rolls the edits back on rejection.
            return None
        config = request.config if request.config is not None else SimConfig()
        if config.analysis == "off":
            return None
        report = analyze_design(
            request.netlist,
            annotation=request.annotation,
            netlist_fingerprint=netlist_fingerprint,
        )
        if config.analysis == "strict" and report.has_errors:
            with self._service_lock:
                self._stats["rejected"] += 1
            rule_ids = sorted({f.rule_id for f in report.errors})
            raise DesignRejectedError(
                f"design {request.netlist.name!r} rejected by analysis: "
                f"{len(report.errors)} error finding(s) "
                f"({', '.join(rule_ids)})",
                report,
            )
        return report

    def _release_quota(self, client: str, _future: object) -> None:
        with self._service_lock:
            remaining = self._client_inflight[client] - 1
            if remaining > 0:
                self._client_inflight[client] = remaining
            else:
                del self._client_inflight[client]

    def run(self, request: ServeRequest, timeout: Optional[float] = None) -> ServeResponse:
        """Synchronous convenience: ``submit`` and wait for the response."""
        return self.submit(request).result(timeout=timeout)

    def stats(self) -> Dict[str, float]:
        """Snapshot of the counters and per-phase latency accumulators
        (``queue_seconds_total`` / ``run_seconds_total``), plus
        ``queue_depth`` (admitted, not yet taken by a drain) and
        ``cached_sessions``; the wire ``stats`` op returns exactly this."""
        with self._service_lock:
            snapshot = dict(self._stats)
            snapshot["queue_depth"] = self._pending_count
            snapshot["cached_sessions"] = len(self._sessions)
        return snapshot

    def close(self) -> None:
        """Finish admitted work, then stop the service.

        Already-admitted requests are still executed; new (and blocked)
        ``submit`` calls fail with :class:`ServiceClosedError`.  Returns
        once every worker thread has exited.  Idempotent.
        """
        with self._service_lock:
            self._closed = True
            self._service_lock.notify_all()
            while self._active_keys:
                self._service_lock.wait()
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _drain(self, key: str) -> None:
        """Run every pending request of ``key`` as one batch; requests
        arriving meanwhile go to the next drain, resubmitted to the pool
        behind other keys' drains so keys take turns."""
        with self._service_lock:
            items = self._pending.pop(key)
            self._pending_count -= len(items)
            self._stats["batches"] += 1
            self._stats["max_batch_size"] = max(
                self._stats["max_batch_size"], len(items)
            )
            self._service_lock.notify_all()
        try:
            self._execute_batch(key, items)
        finally:
            with self._service_lock:
                more = key in self._pending
                if not more:
                    self._active_keys.discard(key)
                    self._service_lock.notify_all()
            if more:
                self._executor.submit(self._drain, key)

    def _session_for(self, key: str, request: ServeRequest) -> Tuple[Any, bool]:
        """The one prepared session for ``key`` (preparing it on a miss).

        Only the key's own drain calls this, so no key is prepared twice
        at once; ``prepare()`` runs outside the lock, so one slow compile
        never stalls other designs.  A failed prepare caches nothing.
        Returns ``(session, reused)``.
        """
        with self._service_lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                self._stats["session_hits"] += 1
                return session, True
            self._stats["session_misses"] += 1
        if request.netlist is None:
            raise UnknownBaseDesignError(
                f"base_key {key!r} names no live prepared session "
                "(evicted or never prepared); re-submit the full design"
            )
        backend, options = resolve_backend(request.backend)
        session = backend.prepare(
            request.netlist,
            annotation=request.annotation,
            config=request.config,
            **options,
        )
        with self._service_lock:
            self._sessions[key] = session
            # Active keys (this one included) are pinned: evicting them
            # would turn their admitted work — delta requests especially,
            # which cannot re-prepare — into UnknownBaseDesignError.  With
            # every resident key pinned the cache may transiently exceed
            # its bound; the next insert re-trims it.
            for stale in [k for k in self._sessions if k not in self._active_keys]:
                if len(self._sessions) <= self._session_cache_size:
                    break
                del self._sessions[stale]
        return session, False

    def _execute_batch(self, key: str, items: List[_QueueItem]) -> None:
        """Run one drained batch on the key's prepared session.

        Cancelled requests are dropped.  Identical full requests (equal
        stimulus fingerprint and horizon; the key pins the rest) coalesce
        onto one run.  A single distinct full request runs with
        ``session.run``, which keeps the rerun base that delta requests
        read; two or more run as one ``run_many``.  Deltas run last.
        """
        live = [q for q in items if q.future.set_running_or_notify_cancel()]
        for queued in live:
            queued.batch_size = len(items)
        if not live:
            return
        # Prepare (or fetch) the session from a full request when the batch
        # has one; an all-delta batch can only hit the cache.
        probe = next(
            (q.request for q in live if q.request.netlist is not None),
            live[0].request,
        )
        try:
            session, reused = self._session_for(key, probe)
        except BaseException as exc:
            self._fail(live, exc)
            return
        # Identity -> [leader, *coalesced followers].
        groups: Dict[Tuple[str, Optional[int], Optional[int]], List[_QueueItem]] = {}
        deltas: List[List[_QueueItem]] = []
        for queued in live:
            request = queued.request
            if request.netlist is None:
                deltas.append([queued])
                continue
            identity = (
                stimulus_fingerprint(request.stimulus),
                request.cycles,
                request.duration,
            )
            groups.setdefault(identity, []).append(queued)

        def run_full(request: ServeRequest) -> SimulationResult:
            return session.run(
                request.stimulus, cycles=request.cycles, duration=request.duration
            )

        def run_delta(request: ServeRequest) -> SimulationResult:
            # Apply -> rerun -> undo: the shared session always returns to
            # the base design, and the journal-chained compile cache makes
            # a repeated batch (and every undo) a cache hit, not a rebuild.
            result = session.rerun(
                list(request.edits),
                stimulus=request.stimulus or None,
                cycles=request.cycles,
                duration=request.duration,
            )
            receipt = session.last_edit_receipt
            if receipt is not None and receipt.edits:
                session.apply_edits(receipt.undo_edits)
            return result

        singles = list(groups.values())
        if len(singles) > 1:
            singles, reused = self._run_many(key, session, singles, reused)
        reused = self._run_each(key, singles, reused, run_full)
        self._run_each(key, deltas, reused, run_delta)

    def _run_many(
        self, key: str, session: Any, groups: List[List[_QueueItem]], reused: bool
    ) -> Tuple[List[List[_QueueItem]], bool]:
        """Run distinct full requests as one ``session.run_many`` call.

        A request whose horizon or stimulus is invalid fails alone before
        the batch runs.  Returns the groups left to run one by one — a
        lone valid request, or every valid one when the batch itself
        raised, so an engine failure resolves only the request that
        causes it — and whether the session is warm now.
        """
        batch: List[List[_QueueItem]] = []
        for group in groups:
            request = group[0].request
            try:
                normalize_horizon(
                    request.cycles, request.duration, session.clock_period
                )
                validate_stimulus(session.netlist, request.stimulus)
            except Exception as exc:
                self._fail(group, exc)
                continue
            batch.append(group)
        if len(batch) < 2:
            return batch, reused
        picked_up = time.perf_counter()
        try:
            results = session.run_many([
                RunSpec(request.stimulus, request.cycles, request.duration)
                for request in (group[0].request for group in batch)
            ])
        except Exception:
            # Counted so a systematically failing batch path is observable
            # in stats instead of degrading silently.
            with self._service_lock:
                self._stats["fused_fallbacks"] += 1
            return batch, reused
        # The batch executed jointly; attribute the wall time evenly,
        # matching the engine's stats attribution.
        run_seconds = (time.perf_counter() - picked_up) / len(batch)
        for group, result in zip(batch, results):
            self._complete(
                key, group, result, picked_up, run_seconds, reused,
                fused=result.stats.fused_requests > 1,
            )
        return [], True

    def _run_each(
        self, key: str, groups: List[List[_QueueItem]], reused: bool,
        call: Callable[[ServeRequest], SimulationResult],
    ) -> bool:
        """Run each group's leader alone; returns whether the session is
        warm afterwards (a request that ran warmed it for the next)."""
        for group in groups:
            picked_up = time.perf_counter()
            try:
                result = call(group[0].request)
            except BaseException as exc:
                self._fail(group, exc)
                continue
            self._complete(
                key, group, result, picked_up,
                time.perf_counter() - picked_up, reused,
            )
            reused = True
        return reused

    def _complete(
        self, key: str, group: List[_QueueItem], result: SimulationResult,
        picked_up: float, run_seconds: float, reused: bool, fused: bool = False,
    ) -> None:
        """Resolve a leader and its coalesced followers with ``result``.

        The leader records ``run_seconds``; a follower records no run time
        of its own, and its queue wait lasts until the leader finished.
        """
        finished = time.perf_counter()
        responses = [
            ServeResponse(
                result=result,
                backend=queued.request.backend,
                session_key=key,
                queue_seconds=(finished if index else picked_up) - queued.enqueued_at,
                run_seconds=run_seconds,
                batch_size=queued.batch_size,
                session_reused=reused or index > 0,
                fused=fused,
                coalesced=index > 0,
                analysis_report=queued.analysis_report,
                tag=queued.request.tag,
            )
            for index, queued in enumerate(group)
        ]
        # Counters first, so a client that sees its response also sees it
        # counted; futures resolve outside the lock (done callbacks take it).
        with self._service_lock:
            self._stats["completed"] += len(group)
            self._stats["coalesced"] += len(group) - 1
            self._stats["queue_seconds_total"] += sum(
                response.queue_seconds for response in responses
            )
            self._stats["run_seconds_total"] += run_seconds
        for queued, response in zip(group, responses):
            queued.future.set_result(response)

    def _fail(self, group: List[_QueueItem], error: BaseException) -> None:
        with self._service_lock:
            self._stats["failed"] += len(group)
        for queued in group:
            queued.future.set_exception(error)
