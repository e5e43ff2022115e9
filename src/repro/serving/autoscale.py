"""Replica autoscaling policy for the batch scheduler.

:class:`Autoscaler` closes the serving control loop: it reads
:class:`~repro.serving.metrics.MetricsSnapshot` signals (EWMA
utilization and pending-queue depth) and grows or shrinks a
:class:`~repro.serving.scheduler.BatchScheduler`'s replica set
between ``min_replicas`` and ``max_replicas``.

Design points:

- **Hysteresis** — scale-up triggers at ``scale_up_utilization`` (or
  a per-replica queue high-watermark), scale-down only *below*
  ``scale_down_utilization`` with an empty-enough queue; the band in
  between holds the current size and resets both patience streaks, so
  load hovering around a threshold cannot make the replica count
  oscillate.
- **Patience + cooldown** — each direction needs its configured
  number of *consecutive* qualifying observations, and after any
  action the policy waits ``cooldown_s`` before acting again.
- **Warm spares** — scale-up pops a pre-built engine from the spare
  pool (O(1) list append on the scheduler) instead of constructing
  one mid-traffic, so growing the replica set never stalls an
  in-flight flush; replicas removed on scale-down refill the pool
  (up to ``warm_spares``), and :meth:`Autoscaler.replenish_spares`
  rebuilds the rest off the hot path.
- **SLO mode** — with a ``target_p95_s``, hot/cold is judged from
  the observed p95 flush latency against that target instead of the
  utilization EWMA: the policy scales to what the *user experiences*
  rather than to how busy the engines look.  The queue watermark
  still applies (a burst fills the queue before the latency window
  turns over).
- **Promotion** — :meth:`Autoscaler.promote_spare` adds a replica
  *outside* the policy loop: it is how the control plane replaces a
  quarantined replica's capacity, so it bypasses patience, cooldown,
  and the ``max_replicas`` check deliberately — replacing lost
  capacity is not a scale-up.

The policy is deliberately synchronous and side-effect free except
for the scheduler mutation: drive it by calling :meth:`Autoscaler.
step` after each flush (the async front-end does this automatically)
or from any periodic task.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.serving.metrics import LoadMetrics, MetricsSnapshot


class Autoscaler:
    """Grow/shrink a scheduler's replica set from load metrics.

    Parameters
    ----------
    scheduler:
        The :class:`~repro.serving.scheduler.BatchScheduler` whose
        replica set this policy controls (anything exposing
        ``n_replicas`` / ``add_replica`` / ``remove_replica``).
    engine_factory:
        Zero-argument callable building one fresh engine replica.
    metrics:
        The :class:`~repro.serving.metrics.LoadMetrics` feeding the
        policy; optional when every :meth:`step` call passes an
        explicit snapshot.
    min_replicas / max_replicas:
        Inclusive clamp on the replica count.
    scale_up_utilization / scale_down_utilization:
        EWMA-utilization thresholds; the gap between them is the
        hysteresis band (must be positive).
    scale_up_queue_rows:
        Per-replica pending-row high watermark that also triggers
        scale-up (a burst fills the queue long before the utilization
        EWMA catches up).  Defaults to ``2 * scheduler.max_batch``.
    up_patience / down_patience:
        Consecutive qualifying observations required per direction.
        Scale-down defaults to more patience than scale-up: adding
        capacity late drops requests, removing it late only wastes a
        replica.
    cooldown_s:
        Minimum seconds between scaling actions.
    warm_spares:
        Target size of the pre-built engine pool.
    target_p95_s:
        Optional latency SLO.  When set, :meth:`step` judges hot /
        cold from the snapshot's p95 flush latency against this
        target instead of the utilization EWMA (see
        ``scale_down_p95_fraction``); per-call ``step(...,
        target_p95_s=...)`` overrides it for one observation.
    scale_down_p95_fraction:
        In SLO mode, scale-down requires the p95 *below* this
        fraction of the target (with an empty-enough queue) — the
        hysteresis band of the latency loop.  Must be in (0, 1).
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(self, scheduler, engine_factory: Callable[[], object], *,
                 metrics: Optional[LoadMetrics] = None,
                 min_replicas: int = 1, max_replicas: int = 4,
                 scale_up_utilization: float = 0.75,
                 scale_down_utilization: float = 0.30,
                 scale_up_queue_rows: Optional[float] = None,
                 up_patience: int = 1, down_patience: int = 3,
                 cooldown_s: float = 0.0, warm_spares: int = 1,
                 target_p95_s: Optional[float] = None,
                 scale_down_p95_fraction: float = 0.5,
                 clock: Callable[[], float] = time.monotonic):
        if min_replicas < 1:
            raise ValueError("min_replicas must be at least 1")
        if max_replicas < min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if not scale_down_utilization < scale_up_utilization:
            raise ValueError(
                "need a hysteresis band: scale_down_utilization must be "
                "strictly below scale_up_utilization")
        if up_patience < 1 or down_patience < 1:
            raise ValueError("patience values must be at least 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        if warm_spares < 0:
            raise ValueError("warm_spares must be non-negative")
        if target_p95_s is not None and target_p95_s <= 0:
            raise ValueError("target_p95_s must be positive")
        if not 0.0 < scale_down_p95_fraction < 1.0:
            raise ValueError(
                "scale_down_p95_fraction must be in (0, 1)")
        self.scheduler = scheduler
        self.engine_factory = engine_factory
        self.metrics = metrics
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.scale_up_utilization = scale_up_utilization
        self.scale_down_utilization = scale_down_utilization
        if scale_up_queue_rows is None:
            scale_up_queue_rows = 2.0 * getattr(scheduler, "max_batch", 64)
        self.scale_up_queue_rows = scale_up_queue_rows
        self.up_patience = up_patience
        self.down_patience = down_patience
        self.cooldown_s = cooldown_s
        self.warm_spares = warm_spares
        self.target_p95_s = target_p95_s
        self.scale_down_p95_fraction = scale_down_p95_fraction
        self._clock = clock
        self._spares: List[object] = []
        self._up_streak = 0
        self._down_streak = 0
        self._last_action: Optional[float] = None
        self.scale_ups = 0
        self.scale_downs = 0
        self.promotions = 0
        self.replenish_spares()

    @classmethod
    def from_snapshot(cls, scheduler, snapshot_path: str,
                      **kwargs) -> "Autoscaler":
        """An autoscaler whose replicas rehydrate from a saved
        :class:`~repro.cim.snapshot.DeploymentSnapshot`.

        The artifact is loaded and verified once, up front; every
        replica spin-up then calls the snapshot's ``build`` — direct
        state installation, no retraining and no recompilation — which
        is what makes warm-spare replenishment cheap enough to run
        between flushes.
        """
        from repro.cim.snapshot import snapshot_engine_factory
        return cls(scheduler, snapshot_engine_factory(snapshot_path),
                   **kwargs)

    # ------------------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        """Current replica count of the controlled scheduler."""
        return self.scheduler.n_replicas

    @property
    def spare_count(self) -> int:
        """Warm engines ready for an O(1) scale-up."""
        return len(self._spares)

    def replenish_spares(self) -> int:
        """Build engines until the warm pool holds ``warm_spares``.

        Engine construction is the expensive part of scaling up
        (weight decode, crossbar programming); run this off the hot
        path — at start-up, or on a background executor after a
        scale-up consumed a spare.  Returns the number built.
        """
        built = 0
        while len(self._spares) < self.warm_spares:
            self._spares.append(self.engine_factory())
            built += 1
        return built

    def promote_spare(self) -> object:
        """Add one replica *now*, outside the policy loop.

        Pops a warm spare (or builds an engine if the pool is empty)
        and appends it to the scheduler.  This is the control plane's
        capacity-replacement path for a freshly quarantined replica,
        so it deliberately skips patience, cooldown, *and* the
        ``max_replicas`` clamp — the quarantined engine still sits in
        the replica list (unscheduled) until it re-admits or is
        removed, and the fleet's *serving* capacity is what must stay
        level.  It also leaves the policy's streaks and cooldown
        clock untouched: replacing lost capacity is not a scaling
        decision and must not delay the next real one.

        Returns the engine that was added.
        """
        engine = self._spares.pop() if self._spares else self.engine_factory()
        self.scheduler.add_replica(engine)
        self.promotions += 1
        return engine

    # ------------------------------------------------------------------
    def step(self, snapshot: Optional[MetricsSnapshot] = None,
             queue_rows: Optional[int] = None,
             target_p95_s: Optional[float] = None) -> int:
        """Run one policy observation; returns the replica delta.

        ``snapshot`` defaults to ``self.metrics.snapshot()``;
        ``queue_rows`` overrides the snapshot's queue depth (the
        async front-end passes its live pending-row count, which is
        fresher than the last recorded observation); ``target_p95_s``
        switches this observation to SLO mode (p95 against the
        target), overriding the constructor-level setting.

        Returns ``+1`` (scaled up), ``-1`` (scaled down), or ``0``.
        Out-of-clamp replica counts are corrected first, regardless of
        load, patience, or cooldown.
        """
        n = self.scheduler.n_replicas
        if n < self.min_replicas:
            return self._scale_up()
        if n > self.max_replicas:
            return self._scale_down()
        if snapshot is None:
            if self.metrics is None:
                return 0
            snapshot = self.metrics.snapshot()
        queue = (snapshot.queue_depth if queue_rows is None
                 else queue_rows)
        per_replica_queue = queue / max(n, 1)

        target = (self.target_p95_s if target_p95_s is None
                  else target_p95_s)
        if target is not None:
            if target <= 0:
                raise ValueError("target_p95_s must be positive")
            # SLO mode: scale to the latency the clients observe.  A
            # p95 of 0.0 means the window is empty (no flush yet) —
            # treat as neither hot nor cold.
            p95 = snapshot.p95_latency_s
            hot = (p95 > target
                   or per_replica_queue >= self.scale_up_queue_rows)
            cold = (0.0 < p95 < self.scale_down_p95_fraction * target
                    and per_replica_queue < 1.0)
        else:
            hot = (snapshot.utilization >= self.scale_up_utilization
                   or per_replica_queue >= self.scale_up_queue_rows)
            cold = (snapshot.utilization <= self.scale_down_utilization
                    and per_replica_queue < 1.0)

        if hot:
            self._down_streak = 0
            self._up_streak += 1
            if (self._up_streak >= self.up_patience
                    and n < self.max_replicas
                    and self._cooldown_over()):
                return self._scale_up()
        elif cold:
            self._up_streak = 0
            self._down_streak += 1
            if (self._down_streak >= self.down_patience
                    and n > self.min_replicas
                    and self._cooldown_over()):
                return self._scale_down()
        else:
            # Hysteresis band: hold, and require fresh streaks.
            self._up_streak = 0
            self._down_streak = 0
        return 0

    # ------------------------------------------------------------------
    def _cooldown_over(self) -> bool:
        return (self._last_action is None
                or self._clock() - self._last_action >= self.cooldown_s)

    def _scale_up(self) -> int:
        engine = self._spares.pop() if self._spares else self.engine_factory()
        self.scheduler.add_replica(engine)
        self._after_action()
        self.scale_ups += 1
        return 1

    def _scale_down(self) -> int:
        engine = self.scheduler.remove_replica()
        if len(self._spares) < self.warm_spares:
            self._spares.append(engine)
        self._after_action()
        self.scale_downs += 1
        return -1

    def _after_action(self) -> None:
        self._up_streak = 0
        self._down_streak = 0
        self._last_action = self._clock()
