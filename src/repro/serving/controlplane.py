"""SLO-driven control plane: quarantine, admission, adaptive-T.

The schedulers (:mod:`repro.serving.scheduler` and friends) make the
fleet *fast*; this module makes it *predictable when things break*.
A :class:`ControlPlane` attached to a scheduler closes three loops:

**Replica health** (:class:`HealthPolicy` / :class:`ReplicaHealth`).
Every shard call of a :class:`~repro.serving.scheduler.BatchScheduler`
on its replica set reports its outcome per replica.
``quarantine_after`` *consecutive* failures quarantine a replica: it
stops receiving shards, while an attached
:class:`~repro.serving.autoscale.Autoscaler` promotes a warm spare to
replace the lost capacity.  After an exponentially backed-off
probe delay the replica re-enters on *probation* — it serves traffic
again, a failure re-quarantines it with doubled backoff, and
``probation_successes`` clean flushes re-admit it as healthy.  If
every replica is quarantined the filter falls back to the full set:
availability beats hygiene.

**Admission control** (:class:`AdmissionPolicy`).  ``submit()`` is
checked against the pending queue before a request is enqueued: past
``max_queue_rows`` it is rejected with :class:`AdmissionRejected`
(reason ``queue_full``); past the soft ``shed_queue_rows`` watermark
*while* the p95 flush latency is above ``shed_p95_s`` it is shed
(reason ``overload``).  This replaces the sync path's previously
unbounded queue growth with a distinct, immediately-diagnosable error.

**Adaptive-T degradation** (:class:`SloPolicy`).  The system's
uncertainty-native twist: under overload it can legitimately serve
*fewer Monte-Carlo passes with a wider credible interval* instead of
dropping traffic.  At flush time each (model, T)-group's requested T
is scaled by ``target_p95_s / observed_p95`` (floored at ``t_min``,
ceilinged at the request's own T), so latency pressure degrades
uncertainty resolution, not availability.  Every result reports the
T actually served (``served_samples``) and a ``degraded`` flag; when
the p95 recovers under target the multiplier returns to 1 and results
are bit-identical to a control-plane-less scheduler.

All state transitions take an injectable monotonic clock, so every
loop is deterministic under test.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.serving.errors import (
    AdmissionRejected,
    Overload,
    QueueFull,
)
from repro.serving.metrics import LoadMetrics, _percentile


@dataclasses.dataclass
class AdmissionPolicy:
    """Bounded-queue policy evaluated on every ``submit()``.

    ``max_queue_rows``: hard cap on pending rows — a request that
    would push past it is rejected outright.  ``shed_queue_rows``:
    optional soft watermark; a request past it is shed only while the
    observed p95 flush latency exceeds ``shed_p95_s`` (or always, if
    ``shed_p95_s`` is ``None``) — queue depth alone is not overload
    when flushes are fast.
    """

    max_queue_rows: int = 1024
    shed_queue_rows: Optional[int] = None
    shed_p95_s: Optional[float] = None

    def __post_init__(self):
        if self.max_queue_rows < 1:
            raise ValueError("max_queue_rows must be positive")
        if self.shed_queue_rows is not None:
            if self.shed_queue_rows < 1:
                raise ValueError("shed_queue_rows must be positive")
            if self.shed_queue_rows > self.max_queue_rows:
                raise ValueError(
                    "shed_queue_rows (soft watermark) must not exceed "
                    "max_queue_rows (hard bound)")
        if self.shed_p95_s is not None and self.shed_p95_s <= 0:
            raise ValueError("shed_p95_s must be positive")


class AdmissionController:
    """Applies an :class:`AdmissionPolicy`; counts the outcomes.

    Thread-safe; shared by the sync and async submit paths.  The p95
    input is a zero-arg supplier so the (mildly costly) percentile is
    only computed when the soft watermark is actually crossed.
    """

    def __init__(self, policy: Optional[AdmissionPolicy] = None):
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._lock = threading.Lock()
        self.admitted_requests = 0
        self.admitted_rows = 0
        self.rejected_requests = 0
        self.shed_requests = 0
        self.cancelled_requests = 0
        self.cancelled_rows = 0

    def admit(self, rows: int, pending_rows: int,
              p95_supplier: Optional[Callable[[], float]] = None) -> None:
        """Admit ``rows`` against ``pending_rows`` already queued.

        Raises :class:`QueueFull` / :class:`Overload` (both
        :class:`AdmissionRejected`) instead of enqueueing when a
        watermark is crossed; otherwise records the admission.
        """
        policy = self.policy
        would_be = pending_rows + rows
        if would_be > policy.max_queue_rows:
            with self._lock:
                self.rejected_requests += 1
            raise QueueFull(
                f"queue full: {pending_rows} rows pending + {rows} "
                f"requested > max_queue_rows={policy.max_queue_rows}")
        if policy.shed_queue_rows is not None \
                and would_be > policy.shed_queue_rows:
            p95 = p95_supplier() if p95_supplier is not None else 0.0
            if policy.shed_p95_s is None or p95 > policy.shed_p95_s:
                with self._lock:
                    self.shed_requests += 1
                raise Overload(
                    f"overload shed: {pending_rows} rows pending past "
                    f"watermark {policy.shed_queue_rows} with p95 "
                    f"{p95 * 1e3:.1f} ms over "
                    f"{(policy.shed_p95_s or 0) * 1e3:.1f} ms")
        with self._lock:
            self.admitted_requests += 1
            self.admitted_rows += rows

    def release(self, rows: int) -> None:
        """Reconcile one admitted-then-cancelled request.

        An async submit that passed admission books its rows into
        ``admitted_rows`` — if the ticket is later cancelled (even
        after its flush started) those rows were never *served*, and
        without this hook the admitted counters drift from reality on
        every cancellation.  The front-ends call this from the
        cancellation path; ``served_rows`` is then the honest load
        figure for capacity planning.
        """
        with self._lock:
            self.cancelled_requests += 1
            self.cancelled_rows += rows

    @property
    def served_rows(self) -> int:
        """Admitted rows minus cancelled ones — the rows that actually
        reached (or will reach) an engine."""
        with self._lock:
            return self.admitted_rows - self.cancelled_rows


class SloPolicy:
    """Map observed p95 flush latency to a served-T multiplier.

    While p95 is at or under ``target_p95_s`` every group runs its
    requested T.  Over target, the group's T is scaled by
    ``target / p95`` — proportional control: a 2× latency breach
    halves the Monte-Carlo passes, halving flush cost — floored at
    ``t_min`` and ceilinged at the requested T (a request never gets
    *more* passes than it asked for).  ``max_degradation`` optionally
    floors the multiplier itself (e.g. 0.25 = never serve below a
    quarter of the requested passes, whatever the breach).

    Stateless apart from counters, so the same policy object can be
    shared across schedulers.
    """

    def __init__(self, target_p95_s: float, t_min: int = 1,
                 max_degradation: float = 0.0):
        if target_p95_s <= 0:
            raise ValueError("target_p95_s must be positive")
        if t_min < 1:
            raise ValueError("t_min must be at least 1")
        if not 0.0 <= max_degradation <= 1.0:
            raise ValueError("max_degradation must be in [0, 1]")
        self.target_p95_s = target_p95_s
        self.t_min = t_min
        self.max_degradation = max_degradation
        self._lock = threading.Lock()
        self.degraded_groups = 0
        self.shed_passes = 0

    def multiplier(self, p95_s: float) -> float:
        """The served-T fraction for an observed p95 (1.0 = full)."""
        if p95_s <= self.target_p95_s:
            return 1.0
        return max(self.target_p95_s / p95_s, self.max_degradation)

    def served_t(self, requested_t: int, p95_s: float) -> int:
        """MC passes to actually run for a group requesting
        ``requested_t`` under an observed p95 of ``p95_s``."""
        mult = self.multiplier(p95_s)
        if mult >= 1.0:
            return requested_t
        served = min(requested_t,
                     max(self.t_min, math.ceil(requested_t * mult)))
        if served < requested_t:
            with self._lock:
                self.degraded_groups += 1
                self.shed_passes += requested_t - served
        return served


@dataclasses.dataclass
class HealthPolicy:
    """Replica quarantine / re-admission knobs.

    ``quarantine_after``: consecutive failures that quarantine a
    replica.  ``probe_backoff_s``: delay before the first probation
    probe, doubled (``backoff_factor``) on every failed probe up to
    ``max_backoff_s``.  ``probation_successes``: clean flushes a
    probationary replica must serve to be re-admitted as healthy.
    ``latency_window``: per-replica latency ring size (p95 base).
    """

    quarantine_after: int = 3
    probe_backoff_s: float = 1.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 60.0
    probation_successes: int = 2
    latency_window: int = 64

    def __post_init__(self):
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be at least 1")
        if self.probe_backoff_s <= 0:
            raise ValueError("probe_backoff_s must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1")
        if self.max_backoff_s < self.probe_backoff_s:
            raise ValueError("max_backoff_s must be >= probe_backoff_s")
        if self.probation_successes < 1:
            raise ValueError("probation_successes must be at least 1")
        if self.latency_window < 1:
            raise ValueError("latency_window must be positive")


HEALTHY = "healthy"
PROBATION = "probation"
QUARANTINED = "quarantined"


class ReplicaHealth:
    """Rolling health record of one engine replica."""

    __slots__ = ("name", "state", "consecutive_failures", "failures",
                 "successes", "rows", "probes", "readmissions",
                 "quarantines", "backoff_s", "quarantined_at",
                 "probation_streak", "latencies", "last_error")

    def __init__(self, name: str, latency_window: int,
                 initial_backoff_s: float):
        self.name = name
        self.state = HEALTHY
        self.consecutive_failures = 0
        self.failures = 0
        self.successes = 0
        self.rows = 0
        self.probes = 0              # quarantine -> probation promotions
        self.readmissions = 0        # probation -> healthy promotions
        self.quarantines = 0
        self.backoff_s = initial_backoff_s
        self.quarantined_at: Optional[float] = None
        self.probation_streak = 0
        self.latencies: deque = deque(maxlen=latency_window)
        self.last_error: Optional[BaseException] = None

    @property
    def p95_latency_s(self) -> float:
        return _percentile(sorted(self.latencies), 0.95)

    def as_dict(self) -> dict:
        """Telemetry view (stable keys; for dashboards and tests)."""
        return {
            "name": self.name,
            "state": self.state,
            "failures": self.failures,
            "successes": self.successes,
            "consecutive_failures": self.consecutive_failures,
            "rows": self.rows,
            "probes": self.probes,
            "readmissions": self.readmissions,
            "quarantines": self.quarantines,
            "backoff_s": self.backoff_s,
            "p95_latency_s": self.p95_latency_s,
        }


class ControlPlane:
    """Ties health, admission, and adaptive-T to one scheduler.

    Construct it, then pass it to a scheduler
    (``BatchScheduler(engines, controlplane=cp)``); the scheduler binds
    itself and consults the plane on every submit (admission), every
    flush group (adaptive-T), and every shard call on its replica set
    (health).  All hooks are cheap and lock-local, so they
    can be called from shard worker threads without touching the
    scheduler lock (no lock-order inversion with an in-flight flush).

    Parameters
    ----------
    health:
        Quarantine policy; ``None`` keeps health tracking with default
        knobs.
    admission:
        :class:`AdmissionPolicy` (wrapped in a fresh controller) or a
        ready :class:`AdmissionController`; ``None`` disables
        admission control.
    slo:
        :class:`SloPolicy` driving adaptive-T; ``None`` disables
        degradation (every group runs its requested T).
    autoscaler:
        Optional :class:`~repro.serving.autoscale.Autoscaler`.  When a
        replica is quarantined, :meth:`after_flush` promotes one warm
        spare per quarantine through it to restore capacity.
    metrics:
        The :class:`~repro.serving.metrics.LoadMetrics` supplying the
        observed p95 (created when omitted; the binding scheduler
        adopts it so flush latencies flow in automatically).
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(self, *, health: Optional[HealthPolicy] = None,
                 admission=None, slo: Optional[SloPolicy] = None,
                 autoscaler=None, metrics: Optional[LoadMetrics] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.health_policy = health if health is not None else HealthPolicy()
        if isinstance(admission, AdmissionPolicy):
            admission = AdmissionController(admission)
        self.admission: Optional[AdmissionController] = admission
        self.slo = slo
        self.autoscaler = autoscaler
        self.metrics = metrics if metrics is not None else LoadMetrics()
        self._clock = clock
        self._lock = threading.Lock()
        self._health: Dict[int, ReplicaHealth] = {}    # id(engine) keyed
        self._engines: Dict[int, object] = {}
        self._pending_promotions = 0
        self.scheduler = None
        self.quarantines = 0
        self.promotions = 0

    # ------------------------------------------------------------------
    def bind(self, scheduler) -> None:
        """Called by the scheduler constructor taking this plane."""
        self.scheduler = scheduler

    def observed_p95(self) -> float:
        """The p95 flush latency driving admission and adaptive-T."""
        return self.metrics.p95_latency_s()

    # ------------------------------------------------------ flush path
    def served_t(self, requested_t: int) -> int:
        """Adaptive-T hook: passes to serve for a group's requested T."""
        if self.slo is None:
            return requested_t
        return self.slo.served_t(requested_t, self.observed_p95())

    # ----------------------------------------------------- health path
    def _record(self, engine) -> ReplicaHealth:
        """The engine's health record, created (and named in order of
        first sight) when missing; plane lock held."""
        key = id(engine)
        record = self._health.get(key)
        if record is None:
            record = ReplicaHealth(
                f"replica-{len(self._health)}",
                self.health_policy.latency_window,
                self.health_policy.probe_backoff_s)
            self._health[key] = record
            self._engines[key] = engine
        return record

    def record_outcome(self, engine, ok: bool, latency_s: float = 0.0,
                       rows: int = 0,
                       error: Optional[BaseException] = None) -> None:
        """One shard call's outcome for one replica.

        Called by the scheduler from its shard workers; only the
        control-plane lock is taken, never the scheduler's.
        """
        policy = self.health_policy
        with self._lock:
            record = self._record(engine)
            if ok:
                record.successes += 1
                record.rows += rows
                record.consecutive_failures = 0
                record.latencies.append(max(latency_s, 0.0))
                if record.state == PROBATION:
                    record.probation_streak += 1
                    if record.probation_streak >= policy.probation_successes:
                        record.state = HEALTHY
                        record.readmissions += 1
                        record.backoff_s = policy.probe_backoff_s
                return
            record.failures += 1
            record.consecutive_failures += 1
            record.last_error = error
            if record.state == PROBATION:
                # Failed its probe: back to quarantine, longer backoff.
                record.state = QUARANTINED
                record.quarantined_at = self._clock()
                record.backoff_s = min(
                    record.backoff_s * policy.backoff_factor,
                    policy.max_backoff_s)
                record.probation_streak = 0
                record.quarantines += 1
                self.quarantines += 1
            elif record.state == HEALTHY \
                    and record.consecutive_failures >= policy.quarantine_after:
                record.state = QUARANTINED
                record.quarantined_at = self._clock()
                record.backoff_s = policy.probe_backoff_s
                record.quarantines += 1
                self.quarantines += 1
                self._pending_promotions += 1

    def eligible_engines(self, engines: List[object]) -> List[object]:
        """Filter a flush's replica snapshot through health state.

        Replicas seen for the first time get their health record here,
        in replica-list order, so ``replica-{n}`` names follow the list
        rather than the order in which parallel shards complete.
        Quarantined replicas whose backoff has elapsed are promoted to
        probation here (this flush *is* their probe).  If every
        replica is quarantined the full set is returned — a degraded
        fleet still serves.
        """
        now = self._clock()
        eligible: List[object] = []
        with self._lock:
            for engine in engines:
                record = self._record(engine)
                if record.state != QUARANTINED:
                    eligible.append(engine)
                elif now - record.quarantined_at >= record.backoff_s:
                    record.state = PROBATION
                    record.probation_streak = 0
                    record.probes += 1
                    eligible.append(engine)
        return eligible if eligible else list(engines)

    def after_flush(self) -> None:
        """Post-flush housekeeping (same thread as the flush).

        Promotes one warm spare per quarantine recorded since the last
        call, through the attached autoscaler — capacity replacement,
        deliberately exempt from scaling patience/cooldown.
        """
        while True:
            with self._lock:
                if self._pending_promotions <= 0:
                    return
                self._pending_promotions -= 1
            if self.autoscaler is None:
                continue
            self.autoscaler.promote_spare()
            with self._lock:
                self.promotions += 1

    # --------------------------------------------------- introspection
    def health_of(self, engine) -> Optional[ReplicaHealth]:
        """The health record of one replica (``None`` if never seen)."""
        with self._lock:
            return self._health.get(id(engine))

    def states(self) -> Dict[str, str]:
        """``replica-name -> state`` for every replica ever seen."""
        with self._lock:
            return {r.name: r.state for r in self._health.values()}

    def quarantined_engines(self) -> List[object]:
        """The engines currently quarantined (not on probation)."""
        with self._lock:
            return [self._engines[key] for key, r in self._health.items()
                    if r.state == QUARANTINED]

    def remove_quarantined(self) -> List[object]:
        """Drop quarantined replicas from the bound scheduler.

        Operational escape hatch: quarantined replicas normally stay
        in the set (unscheduled) awaiting probation; this removes them
        entirely — e.g. before handing the engine back for
        re-programming.  The scheduler's last replica is never
        removed.  Removed engines stop being tracked (a later
        ``add_replica`` of the same object starts a fresh record) and
        are returned.
        """
        removed: List[object] = []
        for engine in self.quarantined_engines():
            try:
                self.scheduler.remove_replica(engine)
            except ValueError:
                continue             # last replica, or already gone
            with self._lock:
                self._health.pop(id(engine), None)
                self._engines.pop(id(engine), None)
            removed.append(engine)
        return removed


__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionRejected",     # re-exported from repro.serving.errors
    "ControlPlane",
    "HealthPolicy",
    "Overload",              # re-exported from repro.serving.errors
    "QueueFull",             # re-exported from repro.serving.errors
    "ReplicaHealth",
    "SloPolicy",
]
