"""Request coalescing for batched Monte-Carlo inference.

The batched MC engines (:meth:`repro.bayesian.BayesianCim.
forward_batched`, :meth:`repro.bayesian.SpinBayesNetwork.
forward_batched`) amortize the T-pass Monte-Carlo loop over one
stacked tensor; :class:`BatchScheduler` amortizes it over *requests*
as well.  Concurrent callers submit inputs of any size, the scheduler
concatenates them into one coalesced batch, runs a single batched MC
call, and hands each caller back its own slice of the predictive
distribution — the serving-side shape of the ROADMAP's "heavy
traffic" goal.

Coalescing changes nothing about a request's semantics: every MC pass
draws one mask bank shared across the whole coalesced batch, exactly
as a single ``mc_forward`` call over the concatenated inputs would
(and, under a fixed seed, exactly *bit-for-bit* that call).  Requests
may ask for their own sample count T; at flush time pending requests
are grouped by T and each group runs as one engine call, so the
invariant holds per group.

Flushes happen when the pending rows reach ``max_batch``, on an
explicit :meth:`BatchScheduler.flush` or ``result()`` call, or — when
``flush_interval`` is set — automatically once the oldest pending
request has waited that many seconds (the latency deadline of a
lightly-loaded service).

A deployed CIM fabric scales out by replicating the programmed
crossbars, so the scheduler serves a *replica set*: one engine or a
list of copies of one programmed fabric.  Each flush group is split
across the replicas request-granularly — one request's rows never
straddle two replicas, so all of its rows share every MC pass's mask
bank / component selection — balanced by row count with a greedy
assignment in arrival order.  Two or more occupied shards run
concurrently on a thread pool (numpy releases the GIL inside its BLAS
kernels).  A replica whose engine call raises fails only its own
shard's tickets; sibling shards resolve normally.  The replica set is
dynamic (:meth:`BatchScheduler.add_replica` /
:meth:`BatchScheduler.remove_replica`) — the lever the
:class:`~repro.serving.autoscale.Autoscaler` pulls.

:class:`BatchScheduler` is the one batching core under every
front-end.  Each request is one record in one queue, carrying the
:class:`concurrent.futures.Future` its flush resolves.  A flush
detaches the whole queue under the scheduler lock and runs the engine
outside it; a separate flush lock runs flushes one at a time, in
detach order, so ``submit()`` never waits for an engine call it did
not trigger.  The synchronous driver (this class's ``submit``, timer
thread and tickets) and the asyncio driver
(:class:`~repro.serving.async_frontend.AsyncBatchScheduler`) share
that queue, flush body and withdraw path, and differ only in what
triggers a flush.

An attached :class:`~repro.serving.controlplane.ControlPlane` makes
the scheduler SLO-aware: submits pass admission control (bounded
queue, distinct :class:`~repro.serving.controlplane.AdmissionRejected`
error), each flush group's T may be degraded under latency pressure
(adaptive-T; results carry ``served_samples``/``degraded``), and
every replica's shard outcomes feed its health record (quarantine).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import numbers
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bayesian.base import PredictiveResult
from repro.serving.errors import ResultTimeout
from repro.serving.metrics import LoadMetrics

__all__ = ["BatchScheduler", "PendingPrediction", "SchedulerStats"]

# A deadline timer thread with nothing armed for this long exits; the
# next request into an empty queue starts a new one.
_TIMER_IDLE_S = 1.0


def _check_n_samples(n_samples) -> None:
    """Reject a sample count T that is not a positive integer."""
    if (isinstance(n_samples, (bool, np.bool_))
            or not isinstance(n_samples, numbers.Integral)):
        raise ValueError(
            f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 1:
        raise ValueError("need at least one MC sample")


@dataclasses.dataclass
class SchedulerStats:
    """Operational counters of one :class:`BatchScheduler`."""

    requests: int = 0
    rows: int = 0
    flushes: int = 0             # engine calls (one per T-group per flush)
    coalesced_rows: int = 0      # rows that shared a flush with another request
    timer_flushes: int = 0       # flushes triggered by a deadline timer
    shard_calls: int = 0         # per-replica engine calls
    timeouts: int = 0            # requests withdrawn: expiry or async cancel
    degraded_flushes: int = 0    # groups served below their requested T

    @property
    def mean_rows_per_flush(self) -> float:
        return self.rows / self.flushes if self.flushes else 0.0


@dataclasses.dataclass(eq=False)
class _Request:
    """One submitted request and the future its flush resolves.

    ``model_id`` names a :class:`~repro.serving.registry.ModelRegistry`
    entry; ``None`` means the scheduler's own replica set.  The
    future is pending while the request is queued, running once a
    flush has detached it, and done once it is served, failed or
    withdrawn from the queue.
    """

    x: np.ndarray
    n_samples: int
    model_id: Optional[str] = None
    future: concurrent.futures.Future = dataclasses.field(
        default_factory=concurrent.futures.Future)
    withdrawn: bool = False

    @property
    def queued(self) -> bool:
        """Still waiting in the queue (not detached, not withdrawn)."""
        return not (self.future.done() or self.future.running())


class PendingPrediction:
    """Handle for a submitted request; resolves on flush.

    ``result()`` returns the request's own :class:`PredictiveResult`
    (predictive mean probabilities, per-pass samples, and therefore
    every uncertainty score).  Calling it while the request is still
    queued forces a flush of the current pending batch.  The ticket
    owns its request's future, so an unclaimed result is freed with
    the ticket.
    """

    def __init__(self, scheduler: "BatchScheduler", request: _Request,
                 deadline: Optional[float] = None):
        self._scheduler = scheduler
        self._request = request
        self.n_rows = request.x.shape[0]
        self.n_samples = request.n_samples
        # Absolute monotonic deadline from submit(deadline_s=...);
        # result() then defaults to waiting out the remaining budget.
        self._deadline = deadline

    def done(self) -> bool:
        """True once the request is served, failed or withdrawn."""
        return self._request.future.done()

    def result(self, timeout: Optional[float] = None) -> PredictiveResult:
        """Return this request's :class:`PredictiveResult`.

        With ``timeout=None`` (default) a still-queued request forces
        an immediate flush — unless the request was submitted with
        ``deadline_s=``, in which case the remaining deadline budget is
        used as the timeout.  A request already detached into a flush
        waits for that flush.  With a timeout, the call instead *waits*
        for another flush trigger (the deadline timer, ``max_batch``,
        or a concurrent ``flush()``) to resolve the request — the
        polite form for a caller that wants batching to happen — and
        on expiry withdraws the request and raises
        :class:`ResultTimeout`.  A queued request leaves the queue and
        never runs; one whose flush is already running is not recalled
        and its outcome is dropped.  Either way its admitted rows are
        released.

        ``result()`` may be called again and returns the same outcome.

        Raises
        ------
        ResultTimeout
            The timeout expired first (and on any retry of the same
            ticket).
        Exception
            If the engine call serving this request raised, the
            original exception is re-raised with its traceback.
        """
        if timeout is None and self._deadline is not None:
            timeout = max(self._deadline - time.monotonic(), 1e-9)
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        request, scheduler = self._request, self._scheduler
        if not request.withdrawn:
            if timeout is None:
                scheduler._flush_if_queued(request)
                return request.future.result()
            try:
                return request.future.result(timeout)
            except concurrent.futures.TimeoutError:
                scheduler._withdraw(request)
        raise ResultTimeout(
            "request was withdrawn by a result(timeout=...) expiry")


class BatchScheduler:
    """Coalesces concurrent inference requests into batched MC calls.

    Parameters
    ----------
    engines:
        One engine, or a list of engine replicas (copies of one
        programmed fabric); a single engine is a one-replica fleet.
        An engine is any object exposing ``mc_forward_batched(x,
        n_samples=...) -> PredictiveResult`` —
        normally a :class:`~repro.bayesian.BayesianCim`,
        :class:`~repro.bayesian.SpinBayesNetwork`, a
        :class:`~repro.serving.procpool.ProcReplica`, or (for
        per-pixel workloads) a :class:`~repro.bayesian.
        SegmenterEngine`, whose results carry H·W rows per input
        image; construct the scheduler with ``feature_shape=(C, H,
        W)`` and each request gets back exactly its own pixels.
        ``None`` requires a ``registry``.
    n_samples:
        Default Monte-Carlo passes per request (the T of the
        predictive distribution); individual requests may override it
        via ``submit(x, n_samples=...)``.  At flush time pending
        requests are grouped by T, one engine call per distinct T.
    max_batch:
        Flush automatically once the pending rows reach this count;
        the submit that fills the batch runs that flush.  Requests
        larger than ``max_batch`` are accepted and flushed immediately
        rather than split (a request's rows always share one flush, so
        its samples stay mutually consistent).
    feature_shape:
        Per-sample input shape, e.g. ``(256,)`` or ``(1, 16, 16)``.
        When omitted it is inferred from the first request, which must
        then be 1-D features or a *batched* ``(n, features)`` matrix —
        a first request with more than two axes is rejected as
        ambiguous (a single ``(C, H, W)`` image is indistinguishable
        from a batch of 2-D inputs); pass ``feature_shape`` explicitly
        to serve image engines.
    flush_interval:
        Optional deadline in seconds: when set, a daemon timer thread
        flushes the pending batch once the *oldest* pending request
        has waited this long, bounding tail latency under light
        traffic; requests that queued behind a running flush wait this
        long again after it ends.  The thread lives while requests
        keep arriving and exits after a second with nothing queued.
        Call :meth:`close` (or use the scheduler as a context manager)
        to stop it on shutdown.
    registry:
        Optional :class:`~repro.serving.registry.ModelRegistry`.  When
        set, requests may name a registered model via ``submit(x,
        model=...)`` and one scheduler fleet serves every tenant:
        pending requests group by ``(model, T)``, each group runs on
        its own (lazily loaded) engine, and every group's flush is
        recorded in that model's :class:`~repro.serving.metrics.
        LoadMetrics`.  ``engines`` may then be ``None``, making every
        request name a model explicitly.
    default_model:
        Registry model-id used for requests that do not name a model.
        Requires ``registry``; mutually exclusive with ``engines``.
    metrics:
        Optional :class:`~repro.serving.metrics.LoadMetrics` fed one
        record per flush group that served at least one request
        (counting only the served requests' rows) plus queue-depth
        observations.  Defaults to the control plane's collector when
        one is attached; an async front-end driving this scheduler
        shares it.
    admission:
        Optional bounded-queue policy applied on every ``submit()``:
        an :class:`~repro.serving.controlplane.AdmissionPolicy` (or a
        prepared :class:`~repro.serving.controlplane.
        AdmissionController`) that rejects with
        :class:`~repro.serving.controlplane.AdmissionRejected` once
        pending rows cross its watermarks, instead of letting the
        queue grow without bound.  Defaults to the control plane's
        admission controller when one is attached.
    controlplane:
        Optional :class:`~repro.serving.controlplane.ControlPlane`
        binding this scheduler to SLO machinery: admission control on
        submit, adaptive-T degradation per flush group, and replica
        health quarantine.
    """

    def __init__(self, engines=None, n_samples: int = 20,
                 max_batch: int = 64,
                 feature_shape: Optional[tuple] = None,
                 flush_interval: Optional[float] = None,
                 registry=None, default_model: Optional[str] = None,
                 metrics: Optional[LoadMetrics] = None,
                 admission=None, controlplane=None):
        _check_n_samples(n_samples)
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if flush_interval is not None and flush_interval <= 0:
            raise ValueError("flush_interval must be positive")
        if engines is None:
            if registry is None:
                raise ValueError(
                    "need an engine or a registry (or both) to serve from")
            engines = []
        else:
            engines = [engines] if hasattr(engines, "mc_forward_batched") \
                else list(engines)
            if not engines:
                raise ValueError("need at least one engine replica")
        if default_model is not None:
            if registry is None:
                raise ValueError("default_model requires a registry")
            if engines:
                raise ValueError(
                    "pass either a default engine or a default_model, "
                    "not both")
        self.engines = engines
        self.registry = registry
        self.default_model = default_model
        self.n_samples = n_samples
        self.max_batch = max_batch
        self.flush_interval = flush_interval
        self.controlplane = controlplane
        if controlplane is not None:
            controlplane.bind(self)
            if metrics is None:
                metrics = controlplane.metrics
            if admission is None:
                admission = controlplane.admission
        self.metrics = metrics
        if admission is not None:
            from repro.serving.controlplane import (
                AdmissionController,
                AdmissionPolicy,
            )
            if isinstance(admission, AdmissionPolicy):
                admission = AdmissionController(admission)
            elif not hasattr(admission, "admit"):
                raise ValueError(
                    "admission must be an AdmissionController or an "
                    "AdmissionPolicy")
        self.admission = admission
        self.stats = SchedulerStats()
        # Guards the queue, the timer and the shape table; never held
        # across an engine call.
        self._lock = threading.RLock()
        # Runs flushes one at a time; each detaches the queue after
        # taking it, so flushes run in detach order.
        self._flush_lock = threading.Lock()
        self._pending: List[_Request] = []
        self._pending_rows = 0
        # The shard pool: created once two replicas exist, replaced
        # (the old one retired) whenever the replica set outgrows it.
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_size = 0
        self._retired_pools: List[ThreadPoolExecutor] = []
        self._ensure_pool_locked()
        # Per-sample input shape, keyed by model-id (None = the
        # replica set / default_model route).  Shapes are pinned by
        # the constructor argument, by the registry entry, or inferred
        # from a route's first request.
        self._feature_shapes: Dict[Optional[str], tuple] = {}
        if feature_shape is not None:
            self._feature_shapes[None] = tuple(feature_shape)
        # The sync driver's deadline timer: the thread, and when the
        # oldest queued request is due (None while nothing is armed).
        self._timer: Optional[threading.Thread] = None
        self._flush_at: Optional[float] = None
        self._wake = threading.Condition(self._lock)
        self._closed = False

    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray,
               n_samples: Optional[int] = None,
               model: Optional[str] = None, *,
               feature_shape: Optional[tuple] = None,
               deadline_s: Optional[float] = None) -> PendingPrediction:
        """Enqueue a request: ``x`` is (n, …features) or (…features,).

        ``n_samples`` overrides the scheduler default for this request
        only.  ``model`` routes the request to a registered model
        (requires a ``registry``); omitted, it goes to the default
        engine or ``default_model``.  ``feature_shape`` pins the
        route's per-sample shape from the request (must agree with an
        already-pinned shape); ``deadline_s`` bounds how long the
        returned ticket's ``result()`` waits before withdrawing the
        request with :class:`~repro.serving.errors.ResultTimeout`.
        Returns a :class:`PendingPrediction` that resolves once the
        request's batch is flushed (automatically at ``max_batch``
        rows, after ``flush_interval`` seconds, or on :meth:`flush` /
        ``result()``).  Only the submit that fills ``max_batch`` waits
        for engine work: it runs that flush on its own thread.

        Raises
        ------
        ValueError
            For an empty request, a dtype other than bool, integer or
            real floating, a row holding NaN or inf, a feature-shape
            mismatch, an ambiguous multi-dimensional first request
            without ``feature_shape``, a ``model`` without a registry,
            a non-positive ``deadline_s``, or an ``n_samples`` that is
            not an integer (bools included) or is below 1.
        KeyError
            For a ``model`` the registry does not know.
        AdmissionRejected
            When an admission policy is attached and the request
            crosses its queue/latency watermarks (it is never
            enqueued).  Raised as :class:`~repro.serving.errors.
            QueueFull` or :class:`~repro.serving.errors.Overload`.
        """
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        with self._lock:
            x, n_samples, model_id = self._normalize_request(
                x, n_samples, model, feature_shape)
            if self.admission is not None:
                self.admission.admit(
                    x.shape[0], self._pending_rows, self._observed_p95)
            was_empty = not self._pending
            request = self._enqueue(x, n_samples, model_id)
            # Only the submit that crosses the threshold flushes; later
            # ones ride along until that flush detaches the queue.
            fills = (self._pending_rows >= self.max_batch
                     > self._pending_rows - request.x.shape[0])
            if was_empty and not fills and self.flush_interval is not None \
                    and not self._closed:
                self._flush_at = time.monotonic() + self.flush_interval
                if self._timer is None:
                    self._timer = threading.Thread(
                        target=self._timer_loop, name="batch-deadline",
                        daemon=True)
                    self._timer.start()
                else:
                    self._wake.notify()
        ticket = PendingPrediction(
            self, request,
            None if deadline_s is None else time.monotonic() + deadline_s)
        if fills:
            self._flush_if_queued(request)
        return ticket

    def _normalize_request(self, x: np.ndarray,
                           n_samples: Optional[int],
                           model: Optional[str] = None,
                           feature_shape: Optional[tuple] = None) -> tuple:
        """Validate one request; return its batched array, T, and
        model-id (``None`` for the default-engine route).

        Shared by the synchronous :meth:`submit` and the async
        front-end (:class:`~repro.serving.async_frontend.
        AsyncBatchScheduler`), so both enforce identical feature-shape
        inference, model routing, and per-request sample-count rules.
        Takes the scheduler lock (re-entrant) because it may fix a
        route's feature shape from its first accepted request.
        """
        if n_samples is None:
            n_samples = self.n_samples
        _check_n_samples(n_samples)
        if model is None:
            model = self.default_model
        if model is not None and self.registry is None:
            raise ValueError(
                f"request names model {model!r} but the scheduler has "
                f"no registry")
        x = np.asarray(x)
        if x.dtype.kind not in "biuf":
            # A float64 cast would drop a complex part, parse
            # strings, or read an object array of None as NaN.
            raise ValueError(
                f"request dtype {x.dtype} is not bool, integer or real "
                f"floating")
        x = x.astype(np.float64, copy=False)
        finite = bool(np.isfinite(x).all())
        with self._lock:
            # A route's shape is pinned (``pin``) only once the request
            # has passed every check, so a rejected first request
            # leaves the route unpinned.
            shape = self._feature_shapes.get(model)
            pin = None
            if feature_shape is not None:
                # A per-request pin (the normalized submit signature):
                # fixes the route's shape on first use, and must agree
                # with an already-pinned one afterwards.
                pinned = tuple(feature_shape)
                if shape is None:
                    shape = pin = pinned
                elif shape != pinned:
                    raise ValueError(
                        f"request pins feature_shape={pinned} but the "
                        f"route is already pinned to {shape}")
            if shape is None and model is not None:
                # Raises KeyError for an unknown model — reject it at
                # submit time rather than at flush.
                shape = pin = self.registry.feature_shape(model)
            if shape is None:
                if x.ndim > 2:
                    raise ValueError(
                        f"cannot infer the feature shape from a first "
                        f"request of shape {x.shape}: with multi-"
                        f"dimensional features a single (C, H, W) image "
                        f"is indistinguishable from a batch of 2-D "
                        f"inputs.  Construct the scheduler with "
                        f"feature_shape=, e.g. "
                        f"BatchScheduler(engine, feature_shape="
                        f"{tuple(x.shape[1:])}), or register the model "
                        f"with feature_shape=")
                if x.ndim < 2:
                    x = x[None]
                shape = pin = x.shape[1:]
            elif x.shape == shape:
                x = x[None]          # single unbatched sample
            if x.shape[1:] != shape:
                raise ValueError(
                    f"request features {x.shape[1:]} != "
                    f"{'model ' + repr(model) if model else 'scheduler'}"
                    f" features {shape}")
            if x.shape[0] == 0:
                raise ValueError("empty request")
            if not finite:
                rows = np.isfinite(x).reshape(x.shape[0], -1).all(axis=1)
                raise ValueError(
                    f"request row {int(np.argmin(rows))} holds a "
                    f"non-finite value (NaN or inf)")
            if pin is not None:
                self._feature_shapes[model] = pin
        return x, n_samples, model

    def _enqueue(self, x: np.ndarray, n_samples: int,
                 model_id: Optional[str]) -> _Request:
        """Append one validated, admitted request to the queue both
        drivers share."""
        request = _Request(x, n_samples, model_id)
        with self._lock:
            self._pending.append(request)
            self._pending_rows += request.x.shape[0]
            self.stats.requests += 1
            self.stats.rows += request.x.shape[0]
            if self.metrics is not None:
                self.metrics.observe_queue_depth(self._pending_rows)
        return request

    def flush(self) -> int:
        """Run batched MC over everything pending (one call per T).

        Waits for a flush already running, then flushes what is
        queued.  Returns the number of requests this call resolved (0
        if nothing was pending).
        """
        with self._flush_lock:
            return self._flush_locked()

    @property
    def pending_rows(self) -> int:
        with self._lock:
            return self._pending_rows

    @property
    def n_replicas(self) -> int:
        """Current number of engine replicas."""
        with self._lock:
            return len(self.engines)

    def add_replica(self, engine) -> int:
        """Append an engine replica; returns the new replica count.

        Safe to call at any time: flushes snapshot the replica list
        under the scheduler lock, so in-flight shard calls keep using
        the set they started with.  O(1) when the caller hands over a
        pre-built (warm) engine — the autoscaler's scale-up path.
        """
        with self._lock:
            self.engines.append(engine)
            self._ensure_pool_locked()
            return len(self.engines)

    def remove_replica(self, engine=None):
        """Drop and return a replica (the most recent by default).

        ``engine`` removes that *specific* replica instead — the
        control plane uses this to evict a quarantined engine, which,
        unlike a scale-down pop, may sit anywhere in the list.  The
        returned engine is no longer scheduled new shards (it may
        still be finishing one, which completes normally) and can be
        kept as a warm spare for a later :meth:`add_replica`.

        Raises
        ------
        ValueError
            When only one replica remains — a scheduler always keeps
            at least one engine — or when ``engine`` is not a current
            replica.
        """
        with self._lock:
            if len(self.engines) <= 1:
                raise ValueError(
                    "cannot remove the last engine replica")
            if engine is None:
                return self.engines.pop()
            for i, candidate in enumerate(self.engines):
                if candidate is engine:
                    return self.engines.pop(i)
            raise ValueError(
                "engine is not a replica of this scheduler")

    def close(self) -> None:
        """Flush any pending requests, stop the deadline timer and
        shut down the shard pools."""
        with self._lock:
            self._closed = True
            self._timer = self._flush_at = None
            self._wake.notify_all()
        with self._flush_lock:
            self._flush_locked()
            with self._lock:
                pools = [self._pool, *self._retired_pools]
                self._pool, self._retired_pools = None, []
                self._pool_size = 0
        for pool in pools:
            if pool is not None:
                pool.shutdown(wait=True)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _timer_loop(self) -> None:
        """The deadline timer thread: flush once the oldest queued
        request is due.

        A flush clears the deadline (or restarts it for requests that
        queued behind the flush) and the next request into an empty
        queue sets a new one and wakes this thread, so one thread
        serves every deadline while traffic flows (``submit`` then
        starts no thread); it exits after ``_TIMER_IDLE_S`` with no
        deadline armed.  A deadline found cleared or moved after the
        flush lock was taken means another flush got there first.
        """
        while True:
            with self._lock:
                while not self._closed:
                    idle = self._flush_at is None
                    wait_s = _TIMER_IDLE_S if idle \
                        else self._flush_at - time.monotonic()
                    if wait_s <= 0 or (not self._wake.wait(wait_s)
                                       and idle):
                        break
                if self._closed or self._flush_at is None:
                    self._timer = None
                    return
            with self._flush_lock:
                with self._lock:
                    due = self._flush_at is not None \
                        and self._flush_at <= time.monotonic()
                    if due and self._pending:
                        self.stats.timer_flushes += 1
                if due:
                    self._flush_locked()

    # ------------------------------------------------------------------
    def _observed_p95(self) -> float:
        """p95 flush latency for admission decisions (0 if untracked)."""
        return self.metrics.p95_latency_s() if self.metrics is not None \
            else 0.0

    def _flush_if_queued(self, request: _Request) -> None:
        """Flush the queue if ``request`` is still in it.

        The forced flush of a ``result()`` without timeout and the
        ``max_batch`` flush of the submit that filled the batch: a
        request that another flush already detached just waits for
        it, so unrelated requests are not flushed.
        """
        if request.queued:
            with self._flush_lock:
                if request.queued:
                    self._flush_locked()

    def _flush_locked(self) -> int:
        """Detach the queue and serve it; the caller holds the flush
        lock.  Returns the number of requests flushed."""
        with self._lock:
            batch = self._detach_locked()
        self._run_batch(batch)
        with self._lock:
            if self._flush_at is not None:
                # Requests that queued behind this flush get a fresh
                # deadline: flushing them the moment it ends would cut
                # the backlog of a busy engine into smaller batches.
                self._flush_at = time.monotonic() + self.flush_interval
        return len(batch)

    def _detach_locked(self) -> List[_Request]:
        """Take the whole queue as one batch (scheduler lock held).

        Each request's future moves to running, so it can no longer be
        cancelled; a request whose future an async cancel already
        cancelled is dropped here and never runs.
        """
        self._flush_at = None
        batch, self._pending = self._pending, []
        self._pending_rows = 0
        if batch and self.metrics is not None:
            self.metrics.observe_queue_depth(0)
        return [r for r in batch if r.future.set_running_or_notify_cancel()]

    def _run_batch(self, batch: List[_Request]) -> None:
        """The one flush body both drivers run (flush lock held).

        Serves each (model, T) group of a detached batch through
        :meth:`_serve_group`, which resolves the group's futures.  If
        the flush itself breaks, every request it has not resolved
        fails with that error instead of waiting forever.
        """
        try:
            for (model_id, n_samples), requests in \
                    self._group_requests(batch).items():
                # Counted before the group's tickets resolve, so a
                # caller woken by its result sees the flush counted.
                self.stats.flushes += 1
                if len(requests) > 1:
                    self.stats.coalesced_rows += sum(
                        r.x.shape[0] for r in requests)
                self._serve_group(requests, n_samples, model_id)
            if batch and self.controlplane is not None:
                self.controlplane.after_flush()
        except BaseException as exc:
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
            raise

    def _withdraw(self, request: _Request) -> None:
        """Withdraw a request whose caller stopped waiting.

        The one path behind a sync ``result(timeout=)`` expiry, an
        async cancel and an async deadline.  A queued request leaves
        the queue and never runs; a request whose flush is already
        running is not recalled, and its outcome is dropped.  Either
        way its admitted rows are released: the caller has already
        been told the request was withdrawn, even if its result lands
        a moment later.
        """
        with self._lock:
            if request.withdrawn:
                return
            request.withdrawn = True
            request.future.cancel()  # takes effect only while queued
            try:
                self._pending.remove(request)
            except ValueError:
                pass                 # detached: its flush is running
            else:
                self._pending_rows -= request.x.shape[0]
                if self.metrics is not None:
                    self.metrics.observe_queue_depth(self._pending_rows)
            self.stats.timeouts += 1
            if self.admission is not None:
                # Admitted but never served: reconcile the counters so
                # admitted totals don't drift.
                self.admission.release(request.x.shape[0])

    def _serve_group(self, requests: List[_Request], requested_t: int,
                     model_id: Optional[str] = None) -> None:
        """Run one (model, T)-group at its SLO-adjusted sample count,
        record it, and resolve its requests' futures.

        The control plane may shed MC passes under latency pressure
        (adaptive-T): the group then runs at ``served_t <
        requested_t`` and every resolved result is flagged
        ``degraded`` (``served_samples`` already carries the actual
        pass count).  Without a control plane — or with the p95 under
        target — the group runs exactly as requested, keeping results
        bit-identical to a plain scheduler.

        A failure fails exactly that group's (or shard's) requests — a
        poisoned engine must not wedge sibling groups.  This is the
        one place a group is recorded, and only what it served counts:
        the rows, requests and per-replica loads of the requests that
        got a result feed the scheduler's ``metrics`` collector (when
        attached) and, on a registry route, the model's own
        :class:`~repro.serving.metrics.LoadMetrics`.  A group that
        served nothing is not recorded.
        """
        served_t = requested_t
        if self.controlplane is not None:
            served_t = self.controlplane.served_t(requested_t)
        if served_t != requested_t:
            self.stats.degraded_flushes += 1
        t0 = time.perf_counter()
        try:
            outcomes, loads = self._run_group(requests, served_t, model_id)
        except Exception as exc:      # noqa: BLE001 — delivered to tickets
            outcomes, loads = [(r, exc) for r in requests], []
        latency_s = time.perf_counter() - t0
        served = sum(not isinstance(o, BaseException) for _, o in outcomes)
        if served:
            if self.metrics is not None:
                self.metrics.record_flush(
                    rows=sum(loads), n_requests=served,
                    latency_s=latency_s, replica_loads=loads)
            if model_id is not None:
                self.registry.record_flush(
                    model_id, rows=sum(loads), n_requests=served,
                    latency_s=latency_s)
        for request, outcome in outcomes:
            if isinstance(outcome, BaseException):
                request.future.set_exception(outcome)
            else:
                outcome.degraded = served_t != requested_t
                request.future.set_result(outcome)

    @staticmethod
    def _group_requests(batch: List[_Request]
                        ) -> Dict[Tuple[Optional[str], int],
                                  List[_Request]]:
        """Group a flush batch by ``(model, sample count)``.

        Each group is one engine call whose samples every member
        shares, exactly as a direct ``mc_forward_batched`` over the
        group's concatenated inputs — per-model T-grouping, so a
        mixed-tenant flush never blends two models' rows into one
        engine call.  Insertion-ordered (groups run in arrival order
        of their first member), so a seeded replay of the same
        submissions reproduces the engine-call sequence.
        """
        groups: Dict[Tuple[Optional[str], int], List[_Request]] = {}
        for request in batch:
            key = (request.model_id, request.n_samples)
            groups.setdefault(key, []).append(request)
        return groups

    def _ensure_pool_locked(self) -> None:
        """(Re)size the shard pool to the replica count (scheduler
        lock held, or construction).

        Growth replaces the executor; the old one is *retired*, not
        shut down, because an in-flight flush may have snapshotted it
        and still needs to submit shard calls (shutting it down here
        would fail that flush's whole T-group).  Retired pools hold
        only idle threads, are bounded by the number of scale-ups in
        the scheduler's lifetime, and are closed in :meth:`close`.
        Shrink keeps the larger pool, whose idle threads are free.
        """
        if len(self.engines) < 2 or self._pool_size >= len(self.engines):
            return
        if self._pool is not None:
            self._retired_pools.append(self._pool)
        self._pool_size = len(self.engines)
        self._pool = ThreadPoolExecutor(max_workers=self._pool_size,
                                        thread_name_prefix="shard")

    @staticmethod
    def _partition(requests: List[_Request], n_replicas: int
                   ) -> List[List[_Request]]:
        """Assign whole requests to replicas, balancing row counts.

        Greedy in arrival order: each request goes to the currently
        least-loaded replica.  Deterministic, so a given submission
        sequence always lands on the same replicas (for a fixed
        replica count).
        """
        shards: List[List[_Request]] = [[] for _ in range(n_replicas)]
        loads = [0] * n_replicas
        for request in requests:
            target = loads.index(min(loads))
            shards[target].append(request)
            loads[target] += request.x.shape[0]
        return shards

    def _run_group(self, requests: List[_Request], n_samples: int,
                   model_id: Optional[str] = None
                   ) -> Tuple[list, List[int]]:
        """Serve one same-(model, T) group; return its ``(request,
        outcome)`` pairs — an outcome is a result slice or the
        exception that failed it — and the rows each replica served.

        A default-route group is partitioned across the replica set
        (see :meth:`_partition`); with a control plane attached the
        replica snapshot is first filtered through its health state
        (quarantined replicas get no shards; an elapsed backoff turns
        this flush into the probe), and every shard call reports its
        outcome — success latency or failure — back to the plane.
        The report takes only the plane's own lock, so pool workers
        never touch the scheduler lock.  A registry-routed group runs
        as one shard on its model's (lazily loaded) engine, without
        health reporting.

        A shard whose engine call raises fails exactly its own
        requests and serves 0 rows; sibling shards resolve normally.
        Two or more occupied shards run concurrently on the shard
        pool.
        """
        controlplane = pool = None
        if model_id is not None:
            engines = [self.registry.engine(model_id)]
        else:
            with self._lock:
                engines, pool = list(self.engines), self._pool
            if not engines:
                raise ValueError(
                    "scheduler has no default engine; submit with model=")
            controlplane = self.controlplane
            if controlplane is not None:
                engines = controlplane.eligible_engines(engines)
        shards = self._partition(requests, len(engines))

        def run_shard(engine, shard: List[_Request]) -> Tuple[list, int]:
            if not shard:
                return [], 0
            rows = sum(r.x.shape[0] for r in shard)
            t0 = time.perf_counter()
            try:
                result = engine.mc_forward_batched(
                    np.concatenate([r.x for r in shard], axis=0),
                    n_samples=n_samples)
                outcomes = self._slice_group(shard, result)
            except Exception as exc:  # noqa: BLE001 — delivered per ticket
                if controlplane is not None:
                    controlplane.record_outcome(
                        engine, ok=False, rows=rows, error=exc)
                return [(r, exc) for r in shard], 0
            if controlplane is not None:
                controlplane.record_outcome(
                    engine, ok=True, rows=rows,
                    latency_s=time.perf_counter() - t0)
            return outcomes, rows

        occupied = sum(1 for shard in shards if shard)
        self.stats.shard_calls += occupied
        run = pool.map if pool is not None and occupied > 1 else map
        done = list(run(run_shard, engines, shards))
        return ([pair for outcomes, _ in done for pair in outcomes],
                [rows for _, rows in done])

    @staticmethod
    def _slice_group(requests: List[_Request], result: PredictiveResult
                     ) -> List[Tuple[_Request, PredictiveResult]]:
        """Hand each request its own slice of the stacked samples.

        Engines may return more result rows than input rows — a
        segmentation engine yields H·W per-pixel rows per image (see
        :class:`repro.bayesian.SegmenterEngine`).  The expansion
        factor is uniform per engine, so each request's slice is its
        row span scaled by ``result_rows / input_rows``.
        """
        total_rows = sum(r.x.shape[0] for r in requests)
        out_rows = result.samples.shape[1]
        if out_rows % total_rows:
            raise ValueError(
                f"engine returned {out_rows} result rows for "
                f"{total_rows} input rows — not an integer per-input "
                f"expansion, so per-request slices are ambiguous")
        scale = out_rows // total_rows
        sliced = []
        lo = 0
        for request in requests:
            hi = lo + request.x.shape[0]
            sliced.append((request, PredictiveResult.from_samples(
                result.samples[:, lo * scale:hi * scale])))
            lo = hi
        return sliced
