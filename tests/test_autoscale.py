"""LoadMetrics collector and Autoscaler policy."""

import numpy as np
import pytest

from repro.bayesian import BayesianCim, make_spindrop_mlp
from repro.cim import CimConfig
from repro.serving import Autoscaler, BatchScheduler, LoadMetrics, MetricsSnapshot

RNG = np.random.default_rng(29)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class FakeScheduler:
    """Replica-count double for policy tests (no engines, no flushes)."""

    max_batch = 16

    def __init__(self, n=1):
        self._n = n

    @property
    def n_replicas(self):
        return self._n

    def add_replica(self, engine):
        self._n += 1
        return self._n

    def remove_replica(self):
        if self._n <= 1:
            raise ValueError("cannot remove the last engine replica")
        self._n -= 1
        return object()


def snap(utilization=0.0, queue_depth=0):
    return MetricsSnapshot(utilization=utilization, queue_depth=queue_depth)


def _engine(seed=9):
    model = make_spindrop_mlp(12, (8,), 3, p=0.3, seed=2)
    return BayesianCim(model, CimConfig(seed=4), seed=seed)


class TestLoadMetrics:
    def test_flush_records_and_percentiles(self):
        clock = FakeClock()
        metrics = LoadMetrics(clock=clock, throughput_window_s=10.0)
        for latency in (0.010, 0.020, 0.030, 0.040):
            clock.advance(0.1)
            metrics.record_flush(rows=8, n_requests=2, latency_s=latency)
        s = metrics.snapshot()
        assert s.flushes == 4
        assert s.requests == 8
        assert s.rows == 32
        assert s.mean_flush_rows == 8.0
        assert s.last_flush_rows == 8
        assert s.p50_latency_s == pytest.approx(0.025)
        assert s.p95_latency_s == pytest.approx(0.0385)
        assert s.rows_per_s == pytest.approx(3.2)

    def test_throughput_window_forgets_old_completions(self):
        clock = FakeClock()
        metrics = LoadMetrics(clock=clock, throughput_window_s=1.0)
        metrics.record_flush(rows=100, n_requests=1, latency_s=0.01)
        clock.advance(5.0)
        assert metrics.snapshot().rows_per_s == 0.0

    def test_utilization_rises_under_load_and_decays_idle(self):
        clock = FakeClock()
        metrics = LoadMetrics(clock=clock, ewma_alpha=0.5,
                              throughput_window_s=1.0)
        # Back-to-back: each 0.1 s flush fills the whole 0.1 s gap.
        for _ in range(6):
            clock.advance(0.1)
            metrics.record_flush(rows=4, n_requests=1, latency_s=0.1)
        busy = metrics.snapshot().utilization
        assert busy > 0.9
        # Long idle gap: utilization reads as drained.
        clock.advance(10.0)
        assert metrics.snapshot().utilization == 0.0

    def test_utilization_low_for_sparse_traffic(self):
        clock = FakeClock()
        metrics = LoadMetrics(clock=clock, ewma_alpha=0.5,
                              throughput_window_s=100.0)
        metrics.record_flush(rows=1, n_requests=1, latency_s=0.001)
        for _ in range(6):
            clock.advance(1.0)           # 1 ms busy per second
            metrics.record_flush(rows=1, n_requests=1, latency_s=0.001)
        assert metrics.snapshot().utilization < 0.05

    def test_first_flush_after_idle_restarts_from_drained(self):
        """Regression: the stored EWMA must reset after an idle gap —
        a lone request after a hot spell is not 'high utilization'."""
        clock = FakeClock()
        metrics = LoadMetrics(clock=clock, ewma_alpha=0.25,
                              throughput_window_s=1.0)
        for _ in range(10):
            clock.advance(0.1)
            metrics.record_flush(rows=4, n_requests=1, latency_s=0.1)
        assert metrics.snapshot().utilization > 0.8
        clock.advance(60.0)                  # long drained period
        metrics.record_flush(rows=1, n_requests=1, latency_s=0.001)
        assert metrics.snapshot().utilization < 0.05

    def test_queue_depth_and_replica_rows(self):
        metrics = LoadMetrics()
        metrics.observe_queue_depth(5)
        metrics.observe_queue_depth(12)
        metrics.observe_queue_depth(3)
        metrics.record_flush(rows=7, n_requests=2, latency_s=0.01,
                             replica_loads=[4, 3])
        metrics.record_flush(rows=6, n_requests=1, latency_s=0.01,
                             replica_loads=[2, 1, 3])
        s = metrics.snapshot()
        assert s.queue_depth == 3
        assert s.max_queue_depth == 12
        assert s.replica_rows == (6, 4, 3)
        assert s.per_replica_queue(3) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadMetrics(window=0)
        with pytest.raises(ValueError):
            LoadMetrics(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            LoadMetrics(throughput_window_s=0.0)


class TestAutoscalerPolicy:
    def _scaler(self, scheduler=None, **kwargs):
        kwargs.setdefault("warm_spares", 0)
        return Autoscaler(scheduler or FakeScheduler(),
                          engine_factory=object, **kwargs)

    def test_scale_up_under_burst_until_max_clamp(self):
        scaler = self._scaler(max_replicas=3, up_patience=1)
        hot = snap(utilization=0.95)
        assert scaler.step(hot) == 1
        assert scaler.step(hot) == 1
        assert scaler.n_replicas == 3
        assert scaler.step(hot) == 0          # clamped at max
        assert scaler.scale_ups == 2

    def test_queue_watermark_triggers_scale_up(self):
        scaler = self._scaler(max_replicas=2, scale_up_queue_rows=10)
        cold_but_backed_up = snap(utilization=0.1, queue_depth=50)
        assert scaler.step(cold_but_backed_up) == 1

    def test_scale_down_after_drain_until_min_clamp(self):
        scaler = self._scaler(FakeScheduler(n=3), max_replicas=3,
                              down_patience=2)
        drained = snap(utilization=0.05, queue_depth=0)
        assert scaler.step(drained) == 0      # patience not yet met
        assert scaler.step(drained) == -1
        assert scaler.step(drained) == 0
        assert scaler.step(drained) == -1
        assert scaler.n_replicas == 1
        for _ in range(3):
            assert scaler.step(drained) == 0  # clamped at min
        assert scaler.scale_downs == 2

    def test_hysteresis_band_holds_replica_count(self):
        scaler = self._scaler(FakeScheduler(n=2), max_replicas=4,
                              scale_up_utilization=0.75,
                              scale_down_utilization=0.30,
                              up_patience=2, down_patience=2)
        mid = snap(utilization=0.5)
        for _ in range(10):
            assert scaler.step(mid) == 0
        # The band also resets streaks: alternating hot/mid never
        # accumulates the patience needed to act.
        hot = snap(utilization=0.9)
        for _ in range(6):
            assert scaler.step(hot) == 0
            assert scaler.step(mid) == 0
        assert scaler.n_replicas == 2

    def test_busy_queue_blocks_scale_down(self):
        scaler = self._scaler(FakeScheduler(n=2), max_replicas=4,
                              down_patience=1)
        # Low utilization but rows still queued: not cold.
        assert scaler.step(snap(utilization=0.1, queue_depth=8)) == 0
        assert scaler.n_replicas == 2

    def test_cooldown_spaces_actions(self):
        clock = FakeClock()
        scaler = self._scaler(max_replicas=4, cooldown_s=10.0,
                              clock=clock)
        hot = snap(utilization=0.95)
        assert scaler.step(hot) == 1
        assert scaler.step(hot) == 0          # cooling down
        clock.advance(11.0)
        assert scaler.step(hot) == 1

    def test_live_queue_rows_override(self):
        scaler = self._scaler(max_replicas=2, scale_up_queue_rows=4)
        stale = snap(utilization=0.0, queue_depth=0)
        assert scaler.step(stale, queue_rows=40) == 1

    def test_out_of_clamp_counts_corrected_first(self):
        grow = self._scaler(FakeScheduler(n=1), min_replicas=2,
                            max_replicas=4)
        assert grow.step(snap()) == 1
        shrink = self._scaler(FakeScheduler(n=5), max_replicas=3)
        assert shrink.step(snap(utilization=0.99)) == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            self._scaler(min_replicas=0)
        with pytest.raises(ValueError):
            self._scaler(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            self._scaler(scale_up_utilization=0.3,
                         scale_down_utilization=0.3)
        with pytest.raises(ValueError):
            self._scaler(up_patience=0)
        with pytest.raises(ValueError):
            self._scaler(cooldown_s=-1.0)


class TestWarmSpares:
    def test_scale_up_consumes_prebuilt_spare(self):
        calls = []

        def factory():
            calls.append(1)
            return object()

        scaler = Autoscaler(FakeScheduler(), factory, max_replicas=3,
                            warm_spares=1)
        assert len(calls) == 1                # prebuilt at construction
        assert scaler.spare_count == 1
        assert scaler.step(snap(utilization=0.95)) == 1
        assert len(calls) == 1                # spare used, not the factory
        assert scaler.spare_count == 0
        assert scaler.step(snap(utilization=0.95)) == 1
        assert len(calls) == 2                # pool empty: built inline

    def test_scale_down_refills_the_spare_pool(self):
        scaler = Autoscaler(FakeScheduler(n=2), object, max_replicas=3,
                            warm_spares=1, down_patience=1)
        scaler._spares.clear()
        assert scaler.step(snap(utilization=0.01)) == -1
        assert scaler.spare_count == 1        # removed engine kept warm

    def test_replenish_builds_up_to_target(self):
        calls = []
        scaler = Autoscaler(FakeScheduler(), lambda: calls.append(1),
                            warm_spares=2)
        assert len(calls) == 2
        scaler._spares.clear()
        assert scaler.replenish_spares() == 2
        assert len(calls) == 4


class TestSchedulerIntegration:
    def test_pool_growth_retires_old_executor_until_close(self):
        """Regression: growing the replica set must not shut down a
        pool an in-flight flush may have snapshotted; retired pools
        close with the scheduler."""
        sharded = BatchScheduler([_engine(seed=5), _engine(seed=6)])
        old_pool = sharded._pool
        sharded.add_replica(_engine(seed=7))
        assert sharded._pool is not old_pool
        assert sharded._retired_pools == [old_pool]
        # The retired pool still accepts work (no mid-run shutdown).
        assert old_pool.submit(lambda: 42).result() == 42
        sharded.close()
        assert sharded._retired_pools == []
        with pytest.raises(RuntimeError):
            old_pool.submit(lambda: 0)       # now genuinely shut down

    def test_add_remove_replica_round_trip(self):
        sharded = BatchScheduler([_engine(seed=5)], n_samples=2)
        extra = _engine(seed=6)
        assert sharded.add_replica(extra) == 2
        assert sharded.n_replicas == 2
        # Two replicas now genuinely split a flush.
        for n in (2, 3):
            sharded.submit(RNG.standard_normal((n, 12)))
        sharded.flush()
        assert sharded.stats.shard_calls == 2
        assert sharded.remove_replica() is extra
        assert sharded.n_replicas == 1
        with pytest.raises(ValueError):
            sharded.remove_replica()

    def test_autoscaler_drives_real_scheduler(self):
        sharded = BatchScheduler([_engine(seed=5)], n_samples=2)
        scaler = Autoscaler(sharded, lambda: _engine(seed=7),
                            max_replicas=2, warm_spares=1)
        assert scaler.step(snap(utilization=0.9)) == 1
        assert sharded.n_replicas == 2
        tickets = [sharded.submit(RNG.standard_normal((2, 12)))
                   for _ in range(4)]
        sharded.flush()
        for ticket in tickets:
            assert ticket.result().probs.shape == (2, 3)
        drained = snap(utilization=0.0, queue_depth=0)
        deltas = [scaler.step(drained) for _ in range(3)]
        assert -1 in deltas
        assert sharded.n_replicas == 1


class TestPerModelMetrics:
    def test_p95_accessor_matches_snapshot(self):
        metrics = LoadMetrics()
        for latency in (0.01, 0.02, 0.03):
            metrics.record_flush(rows=1, n_requests=1, latency_s=latency)
        assert metrics.p95_latency_s() == pytest.approx(
            metrics.snapshot().p95_latency_s)


class TestSloModeScaling:
    def _scaler(self, scheduler=None, **kwargs):
        kwargs.setdefault("warm_spares", 0)
        return Autoscaler(scheduler or FakeScheduler(),
                          engine_factory=object, **kwargs)

    def _snap(self, p95, queue_depth=0):
        return MetricsSnapshot(p95_latency_s=p95, queue_depth=queue_depth)

    def test_p95_over_target_scales_up(self):
        scaler = self._scaler(max_replicas=3, target_p95_s=0.050)
        assert scaler.step(self._snap(p95=0.120)) == 1

    def test_p95_under_half_target_scales_down(self):
        scaler = self._scaler(FakeScheduler(n=3), max_replicas=3,
                              target_p95_s=0.050, down_patience=1)
        assert scaler.step(self._snap(p95=0.010)) == -1

    def test_band_between_holds(self):
        scaler = self._scaler(FakeScheduler(n=2), max_replicas=4,
                              target_p95_s=0.050, up_patience=1,
                              down_patience=1)
        for _ in range(5):
            assert scaler.step(self._snap(p95=0.040)) == 0
        assert scaler.n_replicas == 2

    def test_empty_latency_window_is_not_cold(self):
        scaler = self._scaler(FakeScheduler(n=2), max_replicas=4,
                              target_p95_s=0.050, down_patience=1)
        assert scaler.step(self._snap(p95=0.0)) == 0

    def test_per_step_target_overrides_utilization_mode(self):
        scaler = self._scaler(max_replicas=3)
        breached = MetricsSnapshot(p95_latency_s=0.2, utilization=0.1)
        assert scaler.step(breached) == 0                 # EWMA mode: cold-ish
        assert scaler.step(breached, target_p95_s=0.05) == 1

    def test_queue_watermark_still_applies_in_slo_mode(self):
        scaler = self._scaler(max_replicas=2, target_p95_s=1.0,
                              scale_up_queue_rows=10)
        assert scaler.step(self._snap(p95=0.001, queue_depth=50)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            self._scaler(target_p95_s=0.0)
        with pytest.raises(ValueError):
            self._scaler(scale_down_p95_fraction=1.0)
        scaler = self._scaler()
        with pytest.raises(ValueError):
            scaler.step(snap(), target_p95_s=-1.0)


class TestPromotion:
    def test_promote_spare_bypasses_patience_cooldown_and_clamp(self):
        clock = FakeClock()
        scheduler = FakeScheduler(n=2)
        scaler = Autoscaler(scheduler, object, max_replicas=2,
                            warm_spares=1, cooldown_s=100.0, clock=clock)
        engine = scaler.promote_spare()
        assert engine is not None
        assert scheduler.n_replicas == 3      # past max_replicas: the
        assert scaler.promotions == 1         # quarantined one still sits
        assert scaler.spare_count == 0        # in the list, unscheduled
        # Promotion is not a scaling action: no cooldown was started,
        # so the next genuine policy action fires immediately (here
        # the out-of-clamp correction back under max_replicas).
        assert scaler._last_action is None
        assert scaler.step(snap(utilization=0.0)) == -1
        assert scheduler.n_replicas == 2
        assert scaler.scale_ups == 0

    def test_promote_builds_when_pool_is_empty(self):
        calls = []

        def factory():
            calls.append(1)
            return object()

        scaler = Autoscaler(FakeScheduler(), factory, warm_spares=0)
        assert calls == []
        scaler.promote_spare()
        assert len(calls) == 1

    def test_replenish_after_quarantined_replica_removed_mid_cooldown(self):
        """A quarantined replica evicted while the policy is cooling
        down must still be replaceable: replenish_spares rebuilds the
        pool regardless of cooldown, and the next promotion uses it."""
        clock = FakeClock()
        sharded = BatchScheduler([_engine(seed=5), _engine(seed=6)])
        built = []

        def factory():
            built.append(1)
            return _engine(seed=7 + len(built))

        scaler = Autoscaler(sharded, factory, max_replicas=3,
                            warm_spares=1, cooldown_s=1000.0, clock=clock)
        assert len(built) == 1                # pool primed at construction
        # A scaling action starts the long cooldown window.
        assert scaler.step(snap(utilization=0.95)) == 1
        assert sharded.n_replicas == 3

        # Mid-cooldown, the control plane evicts a quarantined replica.
        bad = sharded.engines[1]
        sharded.remove_replica(bad)
        assert sharded.n_replicas == 2

        # Cooldown blocks the *policy*...
        assert scaler.step(snap(utilization=0.95)) == 0
        # ...but not spare replenishment or capacity replacement.
        assert scaler.replenish_spares() == 1
        assert scaler.spare_count == 1
        scaler.promote_spare()
        assert sharded.n_replicas == 3
        assert scaler.spare_count == 0
        # The restored fleet actually serves.
        tickets = [sharded.submit(RNG.standard_normal((2, 12)))
                   for _ in range(3)]
        sharded.flush()
        for ticket in tickets:
            assert ticket.result().probs.shape == (2, 3)
