"""The batched simulation serving front end.

The ROADMAP's scale item asks for "an async/batched serving front end for
many concurrent sessions": this module is that subsystem, built directly
on the concurrency guarantees the rest of the stack now provides — the
locked process-wide compile cache (concurrent ``prepare()`` is safe and
shares one compile per design fingerprint) and the thread-safe ``Session``
layer (concurrent ``run()`` on one session serializes instead of racing).

Request lifecycle::

    client -> submit() -> bounded queue -> dispatcher thread
                                              |  drains + groups by
                                              |  compiled-design fingerprint
                                              v
                                   worker pool: one task per group,
                                   each group runs on ONE prepared Session
                                              |
                                              v
                              Future resolves to ServeResponse

* **Bounded admission.**  ``submit`` enqueues into a bounded queue and
  returns a :class:`concurrent.futures.Future` immediately (``asyncio``
  callers can ``asyncio.wrap_future`` it).  The dispatcher only pulls a
  request out of the queue when an in-flight permit is free (at most
  ``2 * max_workers`` requests dispatched-but-incomplete), so saturated
  workers back the queue up instead of growing an unbounded executor
  backlog.  When the queue is full the next ``submit`` blocks — or, with
  ``block=False`` / a timeout, fails fast with
  :class:`ServiceOverloadedError` — so a burst of clients degrades into
  back-pressure, not unbounded memory growth.
* **Micro-batching.**  The dispatcher drains whatever is queued and
  groups it by *session key*: the content fingerprints of the request's
  netlist and annotation (the same fingerprints the compile cache is
  keyed by) plus the backend spec and config.  Each group is executed as
  one worker task against one prepared session, so a burst of requests
  for the same design costs one ``prepare()`` and runs back to back on a
  warm session, while requests for different designs spread across the
  pool.  A group with more than one distinct full request executes as
  one :meth:`~repro.api.session.Session.run_many` call.  Requests are
  columns: on ``gatspi`` sessions the batch is one level loop over every
  request's own windows, paying the engine's per-level fixed costs once
  per batch, with results bit-identical to one run each; other backends
  run the batch one request after another.  Each request's inputs are
  checked first, so a bad request fails alone; an engine failure inside
  the batch falls back to per-request runs, counted in
  ``stats()["fused_fallbacks"]``.
* **Session reuse.**  Prepared sessions live in a bounded LRU keyed by
  session key.  Batches for one key are serialized (per-key active
  bookkeeping), so a new design is prepared exactly once — outside the
  cache lock, so one slow compile never stalls other designs; evicted
  sessions fall back to the compile cache, which still makes the next
  ``prepare()`` cheap.
* **Failure isolation.**  A failing request (bad stimulus, unknown
  backend, engine error) resolves only its own future with the exception;
  the queue, the dispatcher, and the other requests keep flowing.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

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

    Delta requests can only run against a prepared session still in the
    service's session cache; after eviction (or against a key that never
    existed) the client must re-submit the full design once to re-establish
    the base.
    """


class DesignRejectedError(ServiceError):
    """Raised when design-rule analysis finds error-severity problems.

    Carries the structured :class:`~repro.analysis.AnalysisReport` on
    ``report`` so the client can see exactly which rules fired and on which
    nets/instances — the serving front door rejects un-simulatable designs
    eagerly at ``submit`` time instead of failing the future later inside a
    worker's ``prepare()``.
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


@dataclass
class _Outcome:
    """What one executed leader produced, for coalesced fan-out."""

    result: Optional[SimulationResult] = None
    error: Optional[BaseException] = None
    run_seconds: float = 0.0
    fused: bool = False


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
        wave = stimulus[net]
        digest.update(net.encode())
        digest.update(b"\x00")
        digest.update(wave.data.tobytes())
    return digest.hexdigest()


_SHUTDOWN = object()


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
        Worker threads executing micro-batches (distinct designs run in
        parallel up to this bound).
    queue_size:
        Admission bound: at most this many requests may be queued and not
        yet dispatched; further ``submit`` calls block or fail fast.
    session_cache_size:
        Prepared sessions kept warm (LRU).  Eviction only drops the
        session object — compiled artifacts stay in the compile cache.
        Keys with dispatched-but-unfinished or pending work are pinned
        and never evicted, so a delta stream's base session cannot vanish
        mid-stream under eviction pressure.
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
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_size)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        # Caps requests that are dispatched but not yet finished, so the
        # bounded queue — not the executor's unbounded internal queue — is
        # where overload accumulates.  One permit per in-flight request,
        # released on completion/failure/cancellation.
        self._inflight = threading.Semaphore(2 * max_workers)
        # Per-key accumulation: while a batch for a session key executes,
        # later arrivals for that key collect in ``_pending_groups`` and
        # dispatch as ONE batch when the key frees up — this is what lets
        # steady concurrent traffic fuse instead of convoying one by one
        # on the session lock.
        self._group_lock = threading.Lock()
        self._pending_groups: Dict[str, List[_QueueItem]] = {}
        self._active_keys: set = set()
        # key -> prepared Session.  At most one batch per key executes at
        # a time (_run_group's active-key bookkeeping), so a key is never
        # prepared twice concurrently.
        self._sessions: "OrderedDict[str, Any]" = OrderedDict()
        self._session_cache_size = session_cache_size
        self._session_lock = threading.RLock()
        # Per-client in-flight accounting for admission quotas; a leaf
        # lock (never held while any other lock is taken).
        self._quota_lock = threading.Lock()
        self._per_client_quota = per_client_quota
        self._client_inflight: Dict[str, int] = {}
        self._stats_lock = threading.Lock()
        self._stats: Dict[str, float] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "quota_rejected": 0,
            "batches": 0,
            "max_batch_size": 0,
            "coalesced": 0,
            "fused_fallbacks": 0,
            "session_hits": 0,
            "session_misses": 0,
            "max_queue_depth": 0,
            # Per-phase latency accumulators (seconds); divide by
            # ``completed`` for the mean, the wire protocol's ``stats``
            # op surfaces them as-is.
            "queue_seconds_total": 0.0,
            "run_seconds_total": 0.0,
        }
        self._closed = False
        self._closed_lock = threading.Lock()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        request: ServeRequest,
        *,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> "Future[ServeResponse]":
        """Enqueue a request; returns a future resolving to a response.

        Blocks while the bounded queue is full (back-pressure) unless
        ``block=False`` or ``timeout`` is given, in which case a full
        queue raises :class:`ServiceOverloadedError`.  The returned
        future may be ``cancel()``-ed while the request is still queued.

        Admission runs design-rule analysis eagerly (unless the request's
        config says ``analysis="off"``): under ``analysis="strict"`` a
        design with error-severity findings is rejected here with
        :class:`DesignRejectedError` — before it consumes a queue slot or
        a worker — while the default ``"warn"`` attaches the report to
        the response and proceeds, matching ``prepare()`` semantics.
        Reports are fingerprint-cached (the netlist is hashed once per
        submit, shared between the analysis key and the session key), so
        repeat submissions of a known design pay a dictionary lookup and
        evaluate zero rules.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        if (request.netlist is None) == (request.base_key is None):
            raise ValueError(
                "exactly one of netlist (full request) or base_key "
                "(delta request) must be provided"
            )
        if request.base_key is None:
            # Delta requests may omit the horizon (and stimulus): they
            # default to the base session's previous run.
            if request.cycles is None and request.duration is None:
                raise ValueError("one of cycles/duration must be provided")
        netlist_fp = (
            fingerprint_netlist(request.netlist)
            if request.netlist is not None
            else None
        )
        report = self._check_admission(request, netlist_fp)
        quota_client = self._reserve_quota(request)
        item = _QueueItem(
            request=request,
            future=Future(),
            key=session_key(request, netlist_fingerprint=netlist_fp),
            enqueued_at=time.perf_counter(),
            analysis_report=report,
        )
        if quota_client is not None:
            client_id = quota_client
            item.future.add_done_callback(
                lambda _future: self._release_quota(client_id)
            )
        try:
            self._queue.put(item, block=block, timeout=timeout)
        except queue.Full:
            if quota_client is not None:
                # The done callback never fires for an item that was
                # never enqueued; undo the reservation here.
                item.future.cancel()
            self._bump("rejected")
            raise ServiceOverloadedError(
                f"request queue is full ({self._queue.maxsize} pending)"
            ) from None
        if self._closed and item.future.cancel():
            # close() raced past between the closed-check and the put; the
            # dispatcher may already be gone, so reclaim the item (a failed
            # cancel means some consumer owns it and will resolve it).
            self._bump("rejected")
            raise ServiceClosedError("service is closed")
        self._bump("submitted")
        with self._stats_lock:
            self._stats["max_queue_depth"] = max(
                self._stats["max_queue_depth"], self._queue.qsize()
            )
        return item.future

    def _check_admission(
        self, request: ServeRequest, netlist_fingerprint: Optional[str]
    ) -> Optional[Any]:
        """Analyze a full request at the front door; maybe reject it.

        Routes through the fingerprint-keyed analysis report cache
        (reusing the netlist hash ``submit`` computes for the session
        key), so the per-submit cost for an already-seen design is one
        cache lookup with zero rule evaluations.  Only the effective
        ``analysis="strict"`` mode rejects on error findings; ``"warn"``
        (the default) returns the report so it can be attached to the
        response, and the design proceeds — the same contract
        ``prepare()`` honors.  Returns the report (``None`` for delta
        requests and ``analysis="off"``).
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
            self._bump("rejected")
            rule_ids = sorted({f.rule_id for f in report.errors})
            raise DesignRejectedError(
                f"design {request.netlist.name!r} rejected by analysis: "
                f"{len(report.errors)} error finding(s) "
                f"({', '.join(rule_ids)})",
                report,
            )
        return report

    def _reserve_quota(self, request: ServeRequest) -> Optional[str]:
        """Claim one in-flight slot for the request's client (or raise).

        Returns the client id whose reservation must be released when the
        request's future resolves, or ``None`` when quotas are disabled.
        """
        if self._per_client_quota is None:
            return None
        client_id = request.client if request.client is not None else "<anonymous>"
        with self._quota_lock:
            inflight = self._client_inflight.get(client_id, 0)
            if inflight >= self._per_client_quota:
                over = True
            else:
                over = False
                self._client_inflight[client_id] = inflight + 1
        if over:
            self._bump("quota_rejected")
            raise QuotaExceededError(
                f"client {client_id!r} has {inflight} request(s) in flight "
                f"(quota {self._per_client_quota})"
            )
        return client_id

    def _release_quota(self, client_id: str) -> None:
        with self._quota_lock:
            remaining = self._client_inflight.get(client_id, 0) - 1
            if remaining > 0:
                self._client_inflight[client_id] = remaining
            else:
                self._client_inflight.pop(client_id, None)

    def run(self, request: ServeRequest, timeout: Optional[float] = None) -> ServeResponse:
        """Synchronous convenience: ``submit`` and wait for the response."""
        return self.submit(request).result(timeout=timeout)

    def stats(self) -> Dict[str, float]:
        """Snapshot of the service counters (plus current queue depth).

        Integer counters plus the per-phase latency accumulators
        (``queue_seconds_total`` / ``run_seconds_total``) and the
        coalesce/fusion counters; the wire protocol's ``stats`` op
        returns exactly this mapping.
        """
        with self._stats_lock:
            snapshot = dict(self._stats)
        snapshot["queue_depth"] = self._queue.qsize()
        with self._session_lock:
            snapshot["cached_sessions"] = len(self._sessions)
        return snapshot

    def close(self) -> None:
        """Drain the queue, finish in-flight work, and stop the service.

        Already-queued requests are still executed; new ``submit`` calls
        fail with :class:`ServiceClosedError`.  Idempotent.
        """
        with self._closed_lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_SHUTDOWN)
        self._dispatcher.join()
        # A submit that raced past the closed-check may have enqueued
        # behind the shutdown sentinel; the dispatcher is gone, so fail
        # those futures here instead of leaving them to hang forever.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                continue
            if item.future.set_running_or_notify_cancel():
                item.future.set_exception(
                    ServiceClosedError("service is closed")
                )
            self._bump("rejected")
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Pull queued requests, micro-batch by session key, dispatch.

        Each pulled request holds one in-flight permit (acquired before
        the queue ``get``, released when the request finishes), so with
        saturated workers the loop stalls here and overload surfaces as
        a full queue at ``submit`` time.
        """
        shutting_down = False
        while not shutting_down:
            self._inflight.acquire()
            item = self._queue.get()
            if item is _SHUTDOWN:
                self._inflight.release()
                break
            batch: List[_QueueItem] = [item]
            # Opportunistically widen the micro-batch with whatever is
            # both queued and admissible right now.
            while self._inflight.acquire(blocking=False):
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    self._inflight.release()
                    break
                if extra is _SHUTDOWN:
                    self._inflight.release()
                    shutting_down = True
                    break
                batch.append(extra)
            ready: "OrderedDict[str, List[_QueueItem]]" = OrderedDict()
            with self._group_lock:
                for queued in batch:
                    self._pending_groups.setdefault(queued.key, []).append(
                        queued
                    )
                for key in list(self._pending_groups):
                    if key not in self._active_keys:
                        self._active_keys.add(key)
                        ready[key] = self._pending_groups.pop(key)
            for key, items in ready.items():
                self._executor.submit(self._run_group, key, items)

    def _run_group(self, key: str, items: List[_QueueItem]) -> None:
        """Execute one batch for ``key``, then chain any accumulated work.

        The key stays marked active until its pending list is empty, so
        requests arriving during execution coalesce into the *next* batch
        instead of queueing individually behind the session lock.
        """
        for queued in items:
            queued.batch_size = len(items)
        with self._stats_lock:
            self._stats["batches"] += 1
            self._stats["max_batch_size"] = max(
                self._stats["max_batch_size"], len(items)
            )
        try:
            self._execute_batch(key, items)
        finally:
            with self._group_lock:
                more = self._pending_groups.pop(key, None)
                if more is None:
                    self._active_keys.discard(key)
            if more is not None:
                try:
                    self._executor.submit(self._run_group, key, more)
                except RuntimeError:
                    # Executor already shutting down (close() drains):
                    # run the chained batch inline on this worker.
                    self._run_group(key, more)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _session_for(self, key: str, request: ServeRequest) -> Tuple[Any, bool]:
        """The one prepared session for ``key`` (preparing it on a miss).

        Batches for one key are serialized by ``_run_group``'s active-key
        bookkeeping, so at most one thread ever prepares a given key; the
        ``prepare()`` itself runs outside the session lock, so a slow
        compile of one design never stalls lookups for the others.  A
        failed prepare caches nothing — the next request for the key
        retries.  Returns ``(session, reused)``.
        """
        with self._session_lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                self._bump("session_hits")
                return session, True
            self._bump("session_misses")
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
        # Keys with dispatched-but-unfinished batches or pending groups
        # are pinned: evicting them would turn the queued work (delta
        # requests especially, which cannot re-prepare) into spurious
        # UnknownBaseDesignError.  Snapshot under the group lock *before*
        # taking the session lock — same-rank locks are never nested.
        with self._group_lock:
            pinned = set(self._active_keys)
            pinned.update(self._pending_groups)
        with self._session_lock:
            self._sessions[key] = session
            self._sessions.move_to_end(key)
            if len(self._sessions) > self._session_cache_size:
                for stale in list(self._sessions):
                    if len(self._sessions) <= self._session_cache_size:
                        break
                    if stale == key or stale in pinned:
                        continue
                    del self._sessions[stale]
            # With every resident key pinned the cache may transiently
            # exceed its bound; the next unpinned insert re-trims it.
        return session, False

    def _execute_batch(self, key: str, items: List[_QueueItem]) -> None:
        """Run one micro-batch on its shared prepared session.

        Every item releases its in-flight permit exactly once, whatever
        its outcome (completed, failed, cancelled, prepare error).
        """
        # Prepare (or fetch) the session from a full request when the batch
        # has one; an all-delta batch can only hit the cache.
        probe = next(
            (q.request for q in items if q.request.netlist is not None),
            items[0].request,
        )
        try:
            session, reused = self._session_for(key, probe)
        except BaseException as exc:
            for queued in items:
                if queued.future.set_running_or_notify_cancel():
                    queued.future.set_exception(exc)
                self._bump("failed")
                self._inflight.release()
            return
        live: List[_QueueItem] = []
        for queued in items:
            if queued.future.set_running_or_notify_cancel():
                live.append(queued)
            else:  # cancelled while queued
                self._inflight.release()
        if not live:
            return
        # Coalesce in-flight identical full requests: the session key
        # already pins the design fingerprints, backend spec, and config,
        # so equal stimulus fingerprints and horizons guarantee
        # bit-identical results — one leader runs the engine, followers
        # fan its result out.  Delta requests are never coalesced (each
        # mutates the session apply -> rerun -> undo).
        followers: List[Tuple[_QueueItem, _QueueItem]] = []
        leaders_by_fp: Dict[Tuple[str, Optional[int], Optional[int]], _QueueItem] = {}
        runnable: List[_QueueItem] = []
        for queued in live:
            if queued.request.netlist is None:
                runnable.append(queued)
                continue
            identity = (
                stimulus_fingerprint(queued.request.stimulus),
                queued.request.cycles,
                queued.request.duration,
            )
            leader = leaders_by_fp.get(identity)
            if leader is None:
                leaders_by_fp[identity] = queued
                runnable.append(queued)
            else:
                followers.append((queued, leader))
        outcomes: Dict[int, _Outcome] = {}
        # Distinct full requests run as one batch; delta requests never
        # join it (each mutates the session apply -> rerun -> undo).
        full_items = [q for q in runnable if q.request.netlist is not None]
        if len(full_items) > 1:
            if self._execute_many(key, session, full_items, reused, outcomes):
                reused = True
            runnable = [q for q in runnable if id(q) not in outcomes]
        for queued in runnable:
            try:
                picked_up = time.perf_counter()
                request = queued.request
                try:
                    if request.netlist is None:
                        result = self._run_delta(session, request)
                    else:
                        result = session.run(
                            request.stimulus,
                            cycles=request.cycles,
                            duration=request.duration,
                        )
                except BaseException as exc:
                    outcomes[id(queued)] = self._fail(queued, exc)
                    continue
                outcomes[id(queued)] = self._complete(
                    key, queued, result, picked_up,
                    time.perf_counter() - picked_up, reused,
                )
                # Later requests of the batch ran on a session the batch
                # itself warmed up.
                reused = True
            finally:
                self._inflight.release()
        for queued, leader in followers:
            try:
                outcome = outcomes.get(id(leader))
                if outcome is not None and outcome.error is not None:
                    self._fail(queued, outcome.error)
                elif outcome is None or outcome.result is None:
                    # The leader never produced an outcome (defensive; it
                    # always should) — fail the follower loudly rather
                    # than hanging its future.
                    self._fail(
                        queued, ServiceError("coalesced leader produced no outcome")
                    )
                else:
                    self._complete(
                        key, queued, outcome.result, time.perf_counter(),
                        outcome.run_seconds, True, fused=outcome.fused,
                        coalesced=True,
                    )
            finally:
                self._inflight.release()

    def _run_delta(self, session: Any, request: ServeRequest) -> SimulationResult:
        """Evaluate one what-if edit batch against the base session.

        At most one batch per key executes at a time (the dispatcher's
        active-key bookkeeping), so apply -> rerun -> undo is race-free.
        The undo restores the shared session to the base design before
        the next request touches it; the journal-chained compile cache
        makes repeat evaluations of a seen batch (and every undo) cache
        hits instead of rebuilds.
        """
        result = session.rerun(
            list(request.edits),
            stimulus=request.stimulus or None,
            cycles=request.cycles,
            duration=request.duration,
        )
        receipt = getattr(session, "last_edit_receipt", None)
        if receipt is not None and receipt.edits:
            session.apply_edits(receipt.undo_edits)
        return result

    def _execute_many(
        self,
        key: str,
        session: Any,
        items: List[_QueueItem],
        reused: bool,
        outcomes: Dict[int, _Outcome],
    ) -> bool:
        """Execute distinct full requests as one ``session.run_many`` call.

        Every item given an outcome here is resolved (future set, permit
        released).  A request whose horizon or stimulus is invalid fails
        alone before the batch runs.  When the batched run itself raises,
        the valid items get no outcome and the caller runs them one by
        one, so an engine failure resolves only the request that causes
        it.  Returns whether the batch ran.
        """
        batch: List[_QueueItem] = []
        for queued in items:
            request = queued.request
            try:
                normalize_horizon(
                    request.cycles, request.duration, session.clock_period
                )
                validate_stimulus(session.netlist, request.stimulus)
            except Exception as exc:
                outcomes[id(queued)] = self._fail(queued, exc)
                self._inflight.release()
                continue
            batch.append(queued)
        if not batch:
            return False
        picked_up = time.perf_counter()
        try:
            results = session.run_many(
                [
                    RunSpec(
                        stimulus=queued.request.stimulus,
                        cycles=queued.request.cycles,
                        duration=queued.request.duration,
                    )
                    for queued in batch
                ]
            )
        except Exception:
            # Counted so a systematically failing batch path is observable
            # in stats instead of degrading silently.
            self._bump("fused_fallbacks")
            return False
        # The batch executed jointly; attribute the wall time evenly,
        # matching the engine's stats attribution.
        run_seconds = (time.perf_counter() - picked_up) / len(batch)
        for queued, result in zip(batch, results):
            outcomes[id(queued)] = self._complete(
                key, queued, result, picked_up, run_seconds, reused,
                fused=result.stats.fused_requests > 1,
            )
            self._inflight.release()
        return True

    def _complete(
        self,
        key: str,
        queued: _QueueItem,
        result: SimulationResult,
        picked_up: float,
        run_seconds: float,
        reused: bool,
        fused: bool = False,
        coalesced: bool = False,
    ) -> _Outcome:
        """Resolve ``queued`` with ``result`` (a coalesced follower's
        latency records no run time of its own)."""
        queue_seconds = picked_up - queued.enqueued_at
        queued.future.set_result(
            ServeResponse(
                result=result,
                backend=queued.request.backend,
                session_key=key,
                queue_seconds=queue_seconds,
                run_seconds=run_seconds,
                batch_size=queued.batch_size,
                session_reused=reused,
                fused=fused,
                coalesced=coalesced,
                analysis_report=queued.analysis_report,
                tag=queued.request.tag,
            )
        )
        self._record_latency(queue_seconds, 0.0 if coalesced else run_seconds)
        self._bump("completed")
        if coalesced:
            self._bump("coalesced")
        return _Outcome(result=result, run_seconds=run_seconds, fused=fused)

    def _fail(self, queued: _QueueItem, error: BaseException) -> _Outcome:
        queued.future.set_exception(error)
        self._bump("failed")
        return _Outcome(error=error)

    def _bump(self, counter: str) -> None:
        with self._stats_lock:
            self._stats[counter] += 1

    def _record_latency(self, queue_seconds: float, run_seconds: float) -> None:
        with self._stats_lock:
            self._stats["queue_seconds_total"] += queue_seconds
            self._stats["run_seconds_total"] += run_seconds
