"""One home for every serving-surface exception, and the ticket
lifecycle those exceptions punctuate.

Before this module each front-end raised its own spelling of the same
failures (:class:`AdmissionRejected` lived in ``controlplane``,
:class:`ResultTimeout` in ``scheduler``); clients handling both had to
import from two modules and switch on a string ``reason``.  Every
front-end — :class:`~repro.serving.scheduler.BatchScheduler`,
:class:`~repro.serving.sharded.ShardedScheduler`,
:class:`~repro.serving.async_frontend.AsyncBatchScheduler`, the
process pool, and the unified :func:`repro.serving.api.serve`
factory — now raises the types defined here.  ``controlplane`` still
re-exports the admission errors; import :class:`ResultTimeout` from
here or from :mod:`repro.serving`.

Ticket lifecycle
----------------
Every ``submit(x, ...)`` follows the same state machine on every
front-end:

1. **Admission** — with an admission policy attached, the request is
   checked against the queue watermarks *before* it is enqueued.  A
   hard-bound breach raises :class:`QueueFull`; a soft-watermark breach
   under latency pressure raises :class:`Overload` (both are
   :class:`AdmissionRejected`, so ``except AdmissionRejected`` catches
   either).  A rejected request holds no rows and needs no cleanup.
2. **Pending** — the request joins the coalescing batch and counts
   against ``max_batch`` (and, on the async front-end, the
   backpressure bound).  A ticket (:class:`~repro.serving.scheduler.
   PendingPrediction` / :class:`~repro.serving.async_frontend.
   AsyncPrediction`) is returned immediately.
3. **Flushed** — at ``max_batch`` rows, at the deadline, or on an
   explicit ``flush()``, the queue is detached and runs as one engine
   call per (model, T) group.  An engine failure fails only that
   group's tickets, which re-raise the original exception on
   resolution.
4. **Resolved / withdrawn** — the flush resolves the request's future
   and ``result()`` hands back its own
   :class:`~repro.bayesian.base.PredictiveResult`; calling it again
   returns the same outcome.  The ticket owns the future, so an
   unclaimed result is freed with its ticket.  A bounded wait that
   expires, an async ``deadline_s`` expiry and an async cancel all
   withdraw the request: a queued request leaves the queue and never
   runs, one whose flush is already running is not recalled (its
   outcome is dropped), and either way its admitted rows are released
   (see :meth:`~repro.serving.controlplane.AdmissionController.
   release`).  An expired ticket raises :class:`ResultTimeout` on
   every retry; a cancelled async ticket also frees its backpressure
   slot.
"""

from __future__ import annotations


class AdmissionRejected(RuntimeError):
    """A request refused by admission control (never enqueued).

    ``reason`` is ``"queue_full"`` (hard bound) or ``"overload"``
    (soft watermark + latency breach) — distinct from engine errors,
    so clients can back off instead of retrying into the same wall.
    Raised as one of the two subclasses below; catching this base
    type handles both.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class QueueFull(AdmissionRejected):
    """The hard queue bound was hit: pending rows + the request would
    exceed ``max_queue_rows``.  Back off and retry later."""

    def __init__(self, message: str, reason: str = "queue_full"):
        super().__init__(message, reason)


class Overload(AdmissionRejected):
    """The request was shed: the queue is past its soft watermark
    *while* the observed p95 flush latency is over target.  Reduce
    offered load (or request fewer MC passes) before retrying."""

    def __init__(self, message: str, reason: str = "overload"):
        super().__init__(message, reason)


class ResultTimeout(RuntimeError):
    """``result(timeout=...)`` expired before the request resolved.

    The request is withdrawn on the way out: a queued request leaves
    the batch (it will not run) and its rows no longer count against
    ``max_batch``; a request whose flush is already running is not
    recalled and its outcome is dropped.  Either way its admitted rows
    are released.  Retrying the same ticket re-raises this error.
    """


class WorkerDied(RuntimeError):
    """A process-pool replica's worker is gone (crash, kill, or OOM).

    Raised by :class:`~repro.serving.procpool.ProcReplica` calls after
    the worker process died mid-request or between requests.  Under a
    sharded scheduler this fails only the dead replica's own shard
    (sibling tickets resolve normally) and, with a control plane
    attached, flows through the ordinary failure path: the replica is
    quarantined and a warm spare promoted in its place.
    """


class RemoteEngineError(RuntimeError):
    """An engine call raised *inside* a process-pool worker.

    The worker survives (only the request failed); the remote
    traceback is carried in the message.  The original exception type
    cannot always cross the process boundary (exceptions are not
    required to pickle), so this wrapper is what the ticket re-raises.
    """


__all__ = [
    "AdmissionRejected",
    "Overload",
    "QueueFull",
    "RemoteEngineError",
    "ResultTimeout",
    "WorkerDied",
]
