"""Async serving front-end over the batch schedulers.

:class:`AsyncBatchScheduler` is a thin :mod:`asyncio` driver over the
one batching core, a :class:`~repro.serving.scheduler.BatchScheduler`
over one engine or a replica set.  Requests go
into the core's queue, flushes run the core's flush body, and
cancellations go through the core's withdraw path; what this module
adds is the event-loop side:

- ``await submit(x)`` / ``await predict(x)`` coroutines replace the
  blocking ticket API; a ticket awaits the core's future through
  :func:`asyncio.wrap_future` — no polling, and no
  ``result()``-forced flushes.
- Deadline flushes are scheduled with ``loop.call_later`` instead of
  the synchronous scheduler's timer thread, so an idle service holds
  zero extra threads.
- Engine calls run on a worker thread (``run_in_executor``); the
  event loop never blocks on Monte-Carlo math.  Flushes are
  serialized in submission order, which keeps the engine-call
  sequence — and therefore every result — bit-for-bit identical to
  the synchronous scheduler fed the same requests.
- Backpressure: the queue is bounded by ``max_pending_rows`` rows
  (queued *plus* in-flight).  ``await submit`` suspends when the
  bound is hit and resumes as capacity frees; a cancelled request
  releases its rows immediately.
- Observability and scaling: the core records every flush group in
  one :class:`~repro.serving.metrics.LoadMetrics` collector shared
  with this front-end, and an optional
  :class:`~repro.serving.autoscale.Autoscaler` is stepped after each
  flush, growing/shrinking the core's replica set under load.

The core's own flush triggers (``max_batch`` in its ``submit`` and its
deadline timer thread) belong to the synchronous driver: a queue
filled through this front-end never arms them.  Drive one core from
one front-end at a time.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, List, Optional

from repro.bayesian.base import PredictiveResult
from repro.serving.autoscale import Autoscaler
from repro.serving.errors import ResultTimeout
from repro.serving.metrics import LoadMetrics
from repro.serving.scheduler import BatchScheduler, SchedulerStats, _Request


class AsyncPrediction:
    """Awaitable handle for one submitted async request.

    ``await ticket`` (or ``await ticket.result()``) yields the
    request's :class:`~repro.bayesian.base.PredictiveResult`, raising
    the engine's original exception if its flush failed.
    :meth:`cancel` abandons the request and frees its backpressure
    slot immediately.  A ``deadline_s`` passed at submit bounds
    :meth:`result`: past it the request is withdrawn and
    :class:`~repro.serving.errors.ResultTimeout` raised — the same
    error, under the same expiry rule, as the sync ticket.
    """

    __slots__ = ("_future", "n_rows", "n_samples", "_deadline",
                 "_expired")

    def __init__(self, future: "asyncio.Future", n_rows: int,
                 n_samples: int, deadline: Optional[float] = None):
        self._future = future
        self.n_rows = n_rows
        self.n_samples = n_samples
        self._deadline = deadline          # absolute loop time, or None
        self._expired = False

    def done(self) -> bool:
        """True once resolved (result, failure, or cancellation)."""
        return self._future.done()

    def cancel(self) -> bool:
        """Cancel the request; returns ``False`` if already resolved.

        A still-queued request is dropped from the pending batch and
        its rows are released to waiting submitters.  A request whose
        flush is already running cannot be recalled from the engine;
        its slot is released anyway and the computed slice discarded.
        """
        return self._future.cancel()

    async def result(self) -> PredictiveResult:
        """Wait for and return this request's predictive result.

        Raises
        ------
        ResultTimeout
            The submit-time ``deadline_s`` expired first (and on any
            retry); the request is withdrawn (its backpressure slot
            freed, its admission accounting reconciled).
        asyncio.CancelledError
            If the ticket was cancelled.
        Exception
            The original engine exception, if the flush serving this
            request failed.
        """
        if self._deadline is not None and not self._expired:
            remaining = self._deadline - asyncio.get_running_loop().time()
            try:
                return await asyncio.wait_for(
                    asyncio.shield(self._future), max(remaining, 1e-9))
            except asyncio.TimeoutError:
                self._expired = True
                self._future.cancel()
        if self._expired:
            raise ResultTimeout(
                "request missed its deadline_s and was withdrawn")
        return await self._future

    def __await__(self):
        return self._future.__await__()


class AsyncBatchScheduler:
    """Asyncio driver over one batching core.

    Parameters
    ----------
    scheduler:
        The batching core: a :class:`~repro.serving.scheduler.
        BatchScheduler`, whose replica set the autoscaler controls.
        Its ``max_batch``,
        ``feature_shape``, admission and per-request ``n_samples``
        semantics apply unchanged.
    flush_interval:
        Deadline in seconds for the oldest queued request, enforced
        with ``loop.call_later`` (no timer thread).  When ``None``
        (default), the front-end flushes on the *next loop tick*
        instead (``loop.call_soon``): every submit made in the
        current tick — e.g. a ``gather`` of concurrent ``predict``
        calls — still coalesces into one flush, and an awaited
        prediction can never hang waiting for traffic that isn't
        coming.  Set a real interval to trade latency for larger
        batches under staggered arrivals.
    max_pending_rows:
        Backpressure bound on queued + in-flight rows; ``await
        submit`` suspends beyond it.  Defaults to ``4 * max_batch``.
        A request larger than the bound is accepted when the queue is
        idle (mirroring the oversized-request rule of ``max_batch``).
    metrics:
        The load collector every flush feeds.  The core records each
        group once, so the front-end and the core share one
        collector: ``metrics`` when given, else the core's, else the
        autoscaler's, else a new one.  The core (and an autoscaler
        without a collector) adopt it.
    autoscaler:
        Optional replica policy, stepped after each flush with the
        live queue depth.
    executor:
        Worker pool for engine calls; defaults to a private
        single-thread pool (flushes are serialized anyway — see the
        bit-exactness note in the module docstring).

    Raises
    ------
    ValueError
        For a non-positive ``flush_interval`` or
        ``max_pending_rows``, or an autoscaler that reads a different
        collector than the one the flushes feed.
    """

    def __init__(self, scheduler: BatchScheduler, *,
                 flush_interval: Optional[float] = None,
                 max_pending_rows: Optional[int] = None,
                 metrics: Optional[LoadMetrics] = None,
                 autoscaler: Optional[Autoscaler] = None,
                 executor: Optional[ThreadPoolExecutor] = None):
        if flush_interval is not None and flush_interval <= 0:
            raise ValueError("flush_interval must be positive")
        if max_pending_rows is None:
            max_pending_rows = 4 * scheduler.max_batch
        if max_pending_rows < 1:
            raise ValueError("max_pending_rows must be positive")
        if metrics is None:
            metrics = scheduler.metrics
        if metrics is None and autoscaler is not None:
            metrics = autoscaler.metrics
        if metrics is None:
            metrics = LoadMetrics()
        if autoscaler is not None:
            if autoscaler.metrics not in (None, metrics):   # by identity
                raise ValueError(
                    "the autoscaler reads a different LoadMetrics than "
                    "the one this front-end's flushes feed; share one")
            autoscaler.metrics = metrics
        self.scheduler = scheduler
        self.max_batch = scheduler.max_batch
        self.flush_interval = flush_interval
        self.max_pending_rows = max_pending_rows
        self.metrics = scheduler.metrics = metrics
        self.autoscaler = autoscaler
        self._own_executor = executor is None
        self._executor = executor if executor is not None else \
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="mc-flush")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._flush_lock: Optional[asyncio.Lock] = None
        self._used_rows = 0                      # queued + in-flight
        self._waiters: Deque[asyncio.Future] = deque()
        self._flush_tasks: set = set()
        self._background: set = set()            # spare replenishment
        self._deadline_handle: Optional[asyncio.TimerHandle] = None
        self._idle_handle: Optional[asyncio.Handle] = None
        self._closed = False
        # A failing autoscaler policy (e.g. an engine factory that
        # raises) must not take serving down; the last error is kept
        # here for inspection instead.
        self.last_autoscale_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    @property
    def stats(self) -> SchedulerStats:
        """The core's counters (requests, flushes, timeouts, ...)."""
        return self.scheduler.stats

    @property
    def pending_rows(self) -> int:
        """Rows queued for the next flush."""
        return self.scheduler.pending_rows

    @property
    def in_flight_rows(self) -> int:
        """Rows admitted past backpressure but not yet resolved."""
        return self._used_rows - self.pending_rows

    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._flush_lock = asyncio.Lock()
        elif loop is not self._loop:
            raise RuntimeError(
                "AsyncBatchScheduler is bound to one event loop; create "
                "a new front-end per loop")
        return loop

    # ------------------------------------------------------------------
    async def submit(self, x, n_samples: Optional[int] = None,
                     model: Optional[str] = None, *,
                     feature_shape: Optional[tuple] = None,
                     deadline_s: Optional[float] = None) -> AsyncPrediction:
        """Enqueue a request; suspends under backpressure.

        ``x`` is ``(n, …features)`` or a single ``(…features,)``
        sample; ``n_samples`` overrides the scheduler default for
        this request only; ``model`` routes to a registered model of
        the core's registry (grouped by (model, T) at flush, like the
        sync front-ends); ``feature_shape`` pins the route's
        per-sample shape; ``deadline_s`` bounds the ticket's
        ``result()`` wait (expiry withdraws the request and raises
        :class:`~repro.serving.errors.ResultTimeout`).  Returns an
        awaitable :class:`AsyncPrediction`.

        Raises
        ------
        RuntimeError
            After :meth:`aclose`, or when called from a different
            event loop than the first call.
        ValueError
            For the same invalid requests :meth:`BatchScheduler.
            submit` rejects.
        AdmissionRejected
            When the core carries an admission controller and this
            request trips its queue bound or overload watermark.  The
            check runs *before* the backpressure wait: a rejected
            request fails fast instead of queueing behind the very
            backlog that triggered the rejection.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        loop = self._bind_loop()
        core = self.scheduler
        x, n_samples, model_id = core._normalize_request(
            x, n_samples, model, feature_shape)
        rows = x.shape[0]
        if core.admission is not None:
            core.admission.admit(rows, core.pending_rows,
                                 core._observed_p95)
        try:
            await self._acquire_rows(rows)
            if self._closed:             # closed while suspended
                self._release_rows(rows)
                raise RuntimeError("scheduler is closed")
        except BaseException:
            # Cancelled or closed while waiting on backpressure: the
            # admitted rows will never be served.
            if core.admission is not None:
                core.admission.release(rows)
            raise
        request = core._enqueue(x, n_samples, model_id)
        future = asyncio.wrap_future(request.future, loop=loop)
        future.add_done_callback(
            lambda f: self._on_request_done(f, request))
        if core.pending_rows >= self.max_batch:
            self._start_flush()
        elif self.flush_interval is not None:
            if self._deadline_handle is None:
                self._deadline_handle = loop.call_later(
                    self.flush_interval, self._deadline_fire)
        elif self._idle_handle is None:
            # No deadline configured: flush when the loop finishes
            # the current tick, after every concurrently-scheduled
            # submit has joined the batch.
            self._idle_handle = loop.call_soon(self._start_flush)
        deadline = (loop.time() + deadline_s if deadline_s is not None
                    else None)
        return AsyncPrediction(future, rows, n_samples, deadline)

    async def predict(self, x, n_samples: Optional[int] = None,
                      model: Optional[str] = None, *,
                      feature_shape: Optional[tuple] = None,
                      deadline_s: Optional[float] = None
                      ) -> PredictiveResult:
        """Submit one request and wait for its predictive result.

        Takes :meth:`submit`'s arguments and raises whatever
        :meth:`submit` or the ticket's ``result()`` would raise.

        The wait resolves when a flush runs — at ``max_batch`` rows,
        at the ``flush_interval`` deadline (or the next loop tick
        when no deadline is configured), or on an explicit
        :meth:`flush`.  Unlike the synchronous ticket's ``result()``,
        awaiting never *forces* a flush: concurrent ``predict`` calls
        coalesce instead of racing each other's batches.
        """
        ticket = await self.submit(x, n_samples, model,
                                   feature_shape=feature_shape,
                                   deadline_s=deadline_s)
        return await ticket.result()

    async def flush(self) -> int:
        """Flush everything pending and wait for it to resolve.

        Returns the number of requests flushed by *this* call.
        """
        self._bind_loop()
        task = self._start_flush()
        return await task if task is not None else 0

    async def drain(self) -> None:
        """Wait until every queued and in-flight request resolves.

        Requests submitted *while* draining are flushed and awaited
        too (the loop re-checks the queue), so under continuous
        traffic this only returns at a genuine gap.
        """
        self._bind_loop()
        while self.pending_rows or self._flush_tasks:
            self._start_flush()
            if self._flush_tasks:
                await asyncio.gather(*list(self._flush_tasks),
                                     return_exceptions=True)

    async def aclose(self) -> None:
        """Flush pending work, then release timers/executors.

        Safe to call twice.  Submitters still suspended on
        backpressure are woken and fail with ``RuntimeError``.
        """
        if self._closed:
            return
        self._closed = True
        if self._loop is not None:
            self._cancel_deadline()
            while self.pending_rows or self._flush_tasks \
                    or self._background:
                self._start_flush()
                await asyncio.gather(*list(self._flush_tasks),
                                     *list(self._background),
                                     return_exceptions=True)
            self._wake_waiters()
        if self._own_executor:
            self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncBatchScheduler":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    async def _acquire_rows(self, rows: int) -> None:
        """Suspend until ``rows`` fit under ``max_pending_rows``.

        An oversized request is admitted once the queue is completely
        idle, so it can never deadlock.  FIFO-fair: wakeups re-check
        in arrival order.
        """
        loop = self._bind_loop()
        while self._used_rows > 0 \
                and self._used_rows + rows > self.max_pending_rows:
            waiter: asyncio.Future = loop.create_future()
            self._waiters.append(waiter)
            try:
                await waiter
            finally:
                if not waiter.done():
                    waiter.cancel()
                try:
                    self._waiters.remove(waiter)
                except ValueError:
                    pass
        self._used_rows += rows

    def _release_rows(self, rows: int) -> None:
        self._used_rows -= rows
        self._wake_waiters()

    def _wake_waiters(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    def _on_request_done(self, future: "asyncio.Future",
                         request: _Request) -> None:
        """Done-callback of every ticket future (fires exactly once:
        result, failure, or cancellation) — the single place a
        request's backpressure slot is released.  A cancellation, or
        a deadline expiry, goes through the core's withdraw path."""
        if future.cancelled():
            self.scheduler._withdraw(request)
        self._release_rows(request.x.shape[0])

    # ------------------------------------------------------------------
    def _deadline_fire(self) -> None:
        if self._start_flush() is not None:
            self.stats.timer_flushes += 1

    def _cancel_deadline(self) -> None:
        for handle in (self._deadline_handle, self._idle_handle):
            if handle is not None:
                handle.cancel()
        self._deadline_handle = self._idle_handle = None

    def _start_flush(self) -> Optional["asyncio.Task"]:
        """Detach the core's queue into a serialized flush task."""
        self._cancel_deadline()
        with self.scheduler._lock:
            batch = self.scheduler._detach_locked()
        if not batch:
            return None
        task = self._loop.create_task(self._flush_task(batch))
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)
        return task

    async def _flush_task(self, batch: List[_Request]) -> int:
        """One flush: the core's flush body on the executor, then an
        autoscaler step.  Returns the number of requests flushed.

        The async lock serializes flushes in detach order — replica
        engines hold RNG state, and the sequential call order is what
        makes results bit-identical to the sync scheduler.
        """
        async with self._flush_lock:
            try:
                await self._loop.run_in_executor(
                    self._executor, self._run_flush, batch)
            except Exception:            # noqa: BLE001 — failed the tickets
                pass
            self._autoscale_step()
        return len(batch)

    def _run_flush(self, batch: List[_Request]) -> None:
        """Executor-side flush: the core's one flush body, under the
        core's flush lock.  It resolves the batch's futures, which
        wake the awaiting tickets on the loop."""
        with self.scheduler._flush_lock:
            self.scheduler._run_batch(batch)

    def _autoscale_step(self) -> None:
        """Step the autoscaler between flushes (loop thread, flush
        lock held — no engine call can race the replica mutation)."""
        if self.autoscaler is None or self._closed:
            return
        try:
            delta = self.autoscaler.step(queue_rows=self.pending_rows)
        except Exception as exc:         # noqa: BLE001 — see attribute
            self.last_autoscale_error = exc
            return
        if delta > 0 and self.autoscaler.spare_count == 0:
            # Rebuild the warm spare off the hot path: the default
            # executor, not the (serialized) flush worker.
            future = self._loop.run_in_executor(
                None, self.autoscaler.replenish_spares)
            self._background.add(future)
            future.add_done_callback(self._background.discard)
