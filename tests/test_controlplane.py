"""SLO control plane: quarantine, admission, adaptive-T, soak."""

import numpy as np
import pytest

from repro.bayesian import BayesianCim, make_spindrop_mlp
from repro.cim import CimConfig
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
    Autoscaler,
    BatchScheduler,
    ControlPlane,
    HealthPolicy,
    LoadMetrics,
    SloPolicy,
)
from repro.serving.controlplane import HEALTHY, PROBATION, QUARANTINED
from repro.serving.faults import (
    FailureSchedule,
    FlakyEngine,
    InjectedFault,
    PoisonEngine,
    SlowEngine,
)

RNG = np.random.default_rng(41)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _engine(seed=9):
    model = make_spindrop_mlp(12, (8,), 3, p=0.3, seed=2)
    return BayesianCim(model, CimConfig(seed=4), seed=seed)


class TestFaultInjection:
    def test_schedule_is_deterministic_and_order_independent(self):
        a = FailureSchedule.from_rate(0.3, seed=11)
        b = FailureSchedule.from_rate(0.3, seed=11)
        # Querying out of order must not change any answer.
        forward = [a.should_fail(i) for i in range(50)]
        backward = [b.should_fail(i) for i in reversed(range(50))]
        assert forward == list(reversed(backward))
        assert any(forward) and not all(forward)

    def test_explicit_fail_calls_take_precedence(self):
        schedule = FailureSchedule(fail_calls=(0, 3), rate=0.0)
        assert [schedule.should_fail(i) for i in range(5)] == \
            [True, False, False, True, False]

    def test_flaky_engine_raises_without_advancing_rng(self):
        x = RNG.standard_normal((2, 12))
        flaky = FlakyEngine(_engine(seed=5),
                            FailureSchedule(fail_calls=(0,)))
        with pytest.raises(InjectedFault):
            flaky.mc_forward_batched(x, n_samples=3)
        # The wrapped engine was never touched: its next successful
        # call matches a fresh engine's first call bit-for-bit.
        got = flaky.mc_forward_batched(x, n_samples=3)
        want = _engine(seed=5).mc_forward_batched(x, n_samples=3)
        np.testing.assert_array_equal(got.samples, want.samples)
        assert flaky.calls == 2 and flaky.failures == 1

    def test_slow_engine_delays_then_delegates(self):
        naps = []
        slow = SlowEngine(_engine(seed=5), delay_s=0.25,
                          sleep=naps.append)
        result = slow.mc_forward_batched(RNG.standard_normal((1, 12)),
                                         n_samples=2)
        assert naps == [0.25]
        assert result.probs.shape == (1, 3)

    def test_wrappers_forward_other_attributes(self):
        engine = _engine(seed=5)
        assert FlakyEngine(engine, 0.0).config is engine.config

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureSchedule(rate=1.5)
        with pytest.raises(ValueError):
            FailureSchedule(fail_calls=(-1,))
        with pytest.raises(ValueError):
            FailureSchedule().should_fail(-1)


class TestAdmission:
    def test_hard_bound_rejects_with_queue_full(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_rows=8))
        controller.admit(4, 0)
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(5, 4)
        assert excinfo.value.reason == "queue_full"
        assert controller.admitted_requests == 1
        assert controller.rejected_requests == 1

    def test_soft_watermark_sheds_only_when_p95_breached(self):
        controller = AdmissionController(AdmissionPolicy(
            max_queue_rows=100, shed_queue_rows=8, shed_p95_s=0.050))
        # Past the watermark with a healthy p95: still admitted.
        controller.admit(4, 6, p95_supplier=lambda: 0.010)
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit(4, 6, p95_supplier=lambda: 0.500)
        assert excinfo.value.reason == "overload"
        assert controller.shed_requests == 1

    def test_p95_supplier_only_called_past_the_watermark(self):
        calls = []

        def supplier():
            calls.append(1)
            return 0.0

        controller = AdmissionController(AdmissionPolicy(
            max_queue_rows=100, shed_queue_rows=50, shed_p95_s=0.05))
        controller.admit(1, 0, p95_supplier=supplier)
        assert calls == []                   # cheap path stayed cheap

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue_rows=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue_rows=10, shed_queue_rows=20)
        with pytest.raises(ValueError):
            AdmissionPolicy(shed_p95_s=0.0)

    def test_scheduler_submit_rejects_past_bound(self):
        scheduler = BatchScheduler(
            _engine(), n_samples=2, max_batch=1024,
            admission=AdmissionPolicy(max_queue_rows=8))
        scheduler.submit(RNG.standard_normal((6, 12)))
        with pytest.raises(AdmissionRejected, match="queue full"):
            scheduler.submit(RNG.standard_normal((3, 12)))
        # The rejected request was never enqueued.
        assert scheduler.pending_rows == 6
        assert scheduler.stats.requests == 1
        # Draining the queue restores admission.
        scheduler.flush()
        ticket = scheduler.submit(RNG.standard_normal((3, 12)))
        scheduler.flush()
        assert ticket.result().probs.shape == (3, 3)

    def test_async_submit_rejects_past_bound(self):
        import asyncio

        from repro.serving import AsyncBatchScheduler

        async def go():
            inner = BatchScheduler(
                _engine(), n_samples=2, max_batch=1024,
                admission=AdmissionPolicy(max_queue_rows=8))
            async with AsyncBatchScheduler(
                    inner, flush_interval=30.0,
                    max_pending_rows=1024) as frontend:
                ok = await frontend.submit(RNG.standard_normal((6, 12)))
                with pytest.raises(AdmissionRejected):
                    await frontend.submit(RNG.standard_normal((3, 12)))
                await frontend.flush()
                return await ok

        assert asyncio.run(go()).probs.shape == (6, 3)


class TestSloPolicy:
    def test_multiplier_is_identity_under_target(self):
        slo = SloPolicy(target_p95_s=0.100)
        assert slo.multiplier(0.050) == 1.0
        assert slo.multiplier(0.100) == 1.0
        assert slo.multiplier(0.200) == pytest.approx(0.5)

    def test_served_t_floors_and_ceilings(self):
        slo = SloPolicy(target_p95_s=0.100, t_min=4)
        assert slo.served_t(20, 0.050) == 20       # under target: full T
        assert slo.served_t(20, 0.200) == 10       # 2x breach: half T
        assert slo.served_t(20, 10.0) == 4         # floored at t_min
        assert slo.served_t(2, 10.0) == 2          # never above requested
        assert slo.degraded_groups == 2
        assert slo.shed_passes == (20 - 10) + (20 - 4)

    def test_max_degradation_floors_the_multiplier(self):
        slo = SloPolicy(target_p95_s=0.100, t_min=1, max_degradation=0.5)
        assert slo.served_t(20, 10.0) == 10        # never below half

    def test_validation(self):
        with pytest.raises(ValueError):
            SloPolicy(target_p95_s=0.0)
        with pytest.raises(ValueError):
            SloPolicy(target_p95_s=0.1, t_min=0)
        with pytest.raises(ValueError):
            SloPolicy(target_p95_s=0.1, max_degradation=1.5)


class TestHealthStateMachine:
    def _plane(self, clock=None, **policy):
        policy.setdefault("quarantine_after", 3)
        policy.setdefault("probe_backoff_s", 1.0)
        return ControlPlane(health=HealthPolicy(**policy),
                            clock=clock or FakeClock())

    def test_quarantines_after_consecutive_failures_only(self):
        plane = self._plane()
        engine = object()
        boom = RuntimeError("boom")
        for _ in range(2):
            plane.record_outcome(engine, ok=False, error=boom)
        plane.record_outcome(engine, ok=True, latency_s=0.01, rows=4)
        assert plane.health_of(engine).state == HEALTHY
        for _ in range(3):                  # success reset the streak
            plane.record_outcome(engine, ok=False, error=boom)
        record = plane.health_of(engine)
        assert record.state == QUARANTINED
        assert record.failures == 5
        assert record.last_error is boom
        assert plane.quarantines == 1

    def test_quarantined_replica_gets_no_shards_until_backoff(self):
        clock = FakeClock()
        plane = self._plane(clock=clock, probe_backoff_s=2.0)
        good, bad = object(), object()
        for _ in range(3):
            plane.record_outcome(bad, ok=False, error=RuntimeError())
        assert plane.eligible_engines([good, bad]) == [good]
        clock.advance(1.0)
        assert plane.eligible_engines([good, bad]) == [good]
        clock.advance(1.5)                  # backoff elapsed: probe time
        assert plane.eligible_engines([good, bad]) == [good, bad]
        record = plane.health_of(bad)
        assert record.state == PROBATION
        assert record.probes == 1

    def test_probation_success_streak_readmits(self):
        clock = FakeClock()
        plane = self._plane(clock=clock, probation_successes=2)
        engine = object()
        for _ in range(3):
            plane.record_outcome(engine, ok=False, error=RuntimeError())
        clock.advance(10.0)
        plane.eligible_engines([engine])    # -> probation
        plane.record_outcome(engine, ok=True, latency_s=0.01)
        assert plane.health_of(engine).state == PROBATION
        plane.record_outcome(engine, ok=True, latency_s=0.01)
        record = plane.health_of(engine)
        assert record.state == HEALTHY
        assert record.readmissions == 1
        # Backoff reset: a fresh quarantine starts from the base delay.
        assert record.backoff_s == plane.health_policy.probe_backoff_s

    def test_failed_probe_doubles_backoff_up_to_cap(self):
        clock = FakeClock()
        plane = self._plane(clock=clock, probe_backoff_s=1.0,
                            backoff_factor=2.0, max_backoff_s=3.0)
        engine = object()
        for _ in range(3):
            plane.record_outcome(engine, ok=False, error=RuntimeError())
        assert plane.health_of(engine).backoff_s == 1.0
        clock.advance(1.5)
        plane.eligible_engines([engine])              # probe...
        plane.record_outcome(engine, ok=False, error=RuntimeError())
        record = plane.health_of(engine)              # ...fails
        assert record.state == QUARANTINED
        assert record.backoff_s == 2.0
        clock.advance(2.5)
        plane.eligible_engines([engine])
        plane.record_outcome(engine, ok=False, error=RuntimeError())
        assert plane.health_of(engine).backoff_s == 3.0   # capped
        assert plane.health_of(engine).quarantines == 3

    def test_single_failure_on_probation_requarantines(self):
        clock = FakeClock()
        plane = self._plane(clock=clock, quarantine_after=3)
        engine = object()
        for _ in range(3):
            plane.record_outcome(engine, ok=False, error=RuntimeError())
        clock.advance(2.0)
        plane.eligible_engines([engine])
        # One failure is enough on probation — no fresh streak of 3.
        plane.record_outcome(engine, ok=False, error=RuntimeError())
        assert plane.health_of(engine).state == QUARANTINED

    def test_all_quarantined_falls_back_to_full_set(self):
        plane = self._plane()
        a, b = object(), object()
        for engine in (a, b):
            for _ in range(3):
                plane.record_outcome(engine, ok=False,
                                     error=RuntimeError())
        # Availability beats hygiene: a fully-quarantined fleet still
        # serves rather than dropping every request.
        assert plane.eligible_engines([a, b]) == [a, b]

    def test_states_and_as_dict_telemetry(self):
        plane = self._plane()
        engine = object()
        plane.record_outcome(engine, ok=True, latency_s=0.02, rows=8)
        assert plane.states() == {"replica-0": HEALTHY}
        view = plane.health_of(engine).as_dict()
        assert view["successes"] == 1 and view["rows"] == 8
        assert view["p95_latency_s"] == pytest.approx(0.02)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(quarantine_after=0)
        with pytest.raises(ValueError):
            HealthPolicy(probe_backoff_s=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            HealthPolicy(probe_backoff_s=2.0, max_backoff_s=1.0)
        with pytest.raises(ValueError):
            HealthPolicy(probation_successes=0)


class TestShardedQuarantine:
    """End-to-end: the sharded scheduler drives the health loop."""

    def _fleet(self, bad_engine, clock=None, autoscaler_factory=None,
               **policy):
        policy.setdefault("quarantine_after", 2)
        policy.setdefault("probe_backoff_s", 1.0)
        plane = ControlPlane(health=HealthPolicy(**policy),
                             clock=clock or FakeClock())
        sharded = BatchScheduler(
            [_engine(seed=5), bad_engine], n_samples=2,
            max_batch=1024, controlplane=plane)
        return plane, sharded

    def _two_request_flush(self, sharded):
        """Two requests -> one shard per replica (greedy balance)."""
        tickets = [sharded.submit(RNG.standard_normal((2, 12)))
                   for _ in range(2)]
        sharded.flush()
        return tickets

    def test_health_records_are_named_in_replica_order(self):
        """Names follow the replica list, not shard completion order:
        the slow first replica finishes last and is still replica-0."""
        slow = SlowEngine(_engine(seed=5), delay_s=0.05)
        fast = _engine(seed=6)
        plane = ControlPlane(clock=FakeClock())
        with BatchScheduler([slow, fast], n_samples=2, max_batch=1024,
                            controlplane=plane) as sharded:
            self._two_request_flush(sharded)
        assert plane.health_of(slow).name == "replica-0"
        assert plane.health_of(fast).name == "replica-1"

    def test_failing_replica_is_quarantined_and_unscheduled(self):
        bad = PoisonEngine()
        plane, sharded = self._fleet(bad, quarantine_after=2)
        for _ in range(2):                  # two failing flushes
            self._two_request_flush(sharded)
        assert plane.health_of(bad).state == QUARANTINED
        assert plane.quarantined_engines() == [bad]
        calls_when_quarantined = bad.calls
        # Subsequent flushes route everything to the healthy replica.
        tickets = self._two_request_flush(sharded)
        for ticket in tickets:
            assert ticket.result().probs.shape == (2, 3)
        assert bad.calls == calls_when_quarantined

    def test_quarantine_promotes_a_warm_spare(self):
        bad = PoisonEngine()
        plane, sharded = self._fleet(bad, quarantine_after=2)
        scaler = Autoscaler(sharded, lambda: _engine(seed=11),
                            max_replicas=2, warm_spares=1,
                            cooldown_s=1000.0)
        plane.autoscaler = scaler
        for _ in range(2):
            self._two_request_flush(sharded)
        # The quarantined replica's capacity was replaced in the same
        # flush that quarantined it — despite cooldown and the clamp.
        assert plane.health_of(bad).state == QUARANTINED
        assert scaler.promotions == 1
        assert plane.promotions == 1
        assert sharded.n_replicas == 3      # bad (parked) + 2 serving
        assert scaler.spare_count == 0

    def test_flaky_replica_requarantines_then_readmits(self):
        # Fails calls 0-1 (quarantine), fails its first probe (call 2,
        # re-quarantine with doubled backoff), then stays clean.
        flaky = FlakyEngine(_engine(seed=6),
                            FailureSchedule(fail_calls=(0, 1, 2)))
        clock = FakeClock()
        plane, sharded = self._fleet(
            flaky, clock=clock, quarantine_after=2, probe_backoff_s=1.0,
            backoff_factor=2.0, probation_successes=2)
        for _ in range(2):
            self._two_request_flush(sharded)
        assert plane.health_of(flaky).state == QUARANTINED

        clock.advance(1.5)                  # first probe: fails
        self._two_request_flush(sharded)
        record = plane.health_of(flaky)
        assert record.state == QUARANTINED
        assert record.backoff_s == 2.0

        clock.advance(1.5)                  # still inside the backoff
        self._two_request_flush(sharded)
        assert plane.health_of(flaky).state == QUARANTINED

        clock.advance(1.0)                  # second probe: succeeds
        self._two_request_flush(sharded)
        assert plane.health_of(flaky).state == PROBATION
        self._two_request_flush(sharded)    # second clean flush
        record = plane.health_of(flaky)
        assert record.state == HEALTHY
        assert record.readmissions == 1

    def test_remove_quarantined_evicts_from_the_scheduler(self):
        bad = PoisonEngine()
        plane, sharded = self._fleet(bad, quarantine_after=2)
        for _ in range(2):
            self._two_request_flush(sharded)
        removed = plane.remove_quarantined()
        assert removed == [bad]
        assert sharded.n_replicas == 1
        assert plane.health_of(bad) is None     # tracking dropped
        # The shrunk fleet keeps serving.
        ticket = sharded.submit(RNG.standard_normal((2, 12)))
        sharded.flush()
        assert ticket.result().probs.shape == (2, 3)

    def test_remove_quarantined_never_takes_the_last_replica(self):
        bad = PoisonEngine()
        plane = ControlPlane(health=HealthPolicy(quarantine_after=1,
                                                 probe_backoff_s=1.0),
                             clock=FakeClock())
        sharded = BatchScheduler([bad], n_samples=2,
                                 controlplane=plane)
        ticket = sharded.submit(RNG.standard_normal((2, 12)))
        sharded.flush()
        with pytest.raises(InjectedFault):
            ticket.result()
        assert plane.health_of(bad).state == QUARANTINED
        assert plane.remove_quarantined() == []
        assert sharded.n_replicas == 1


class TestAdaptiveT:
    def _primed_plane(self, target_p95_s, observed_p95, **slo_kwargs):
        """A plane whose metrics window already reads ``observed_p95``."""
        metrics = LoadMetrics()
        for _ in range(4):
            metrics.record_flush(rows=4, n_requests=1,
                                 latency_s=observed_p95)
        return ControlPlane(
            slo=SloPolicy(target_p95_s, **slo_kwargs), metrics=metrics,
            clock=FakeClock())

    def test_breached_p95_degrades_served_t(self):
        plane = self._primed_plane(target_p95_s=0.050, observed_p95=0.200,
                                   t_min=2)
        scheduler = BatchScheduler(_engine(), n_samples=8, max_batch=1024,
                                   controlplane=plane)
        ticket = scheduler.submit(RNG.standard_normal((3, 12)))
        scheduler.flush()
        result = ticket.result()
        # 4x breach: a quarter of the requested passes (8 -> 2).
        assert result.samples.shape[0] == 2
        assert result.served_samples == 2
        assert result.degraded is True
        assert scheduler.stats.degraded_flushes == 1
        assert plane.slo.degraded_groups == 1
        assert plane.slo.shed_passes == 6

    def test_requested_t_is_the_ceiling_per_group(self):
        plane = self._primed_plane(target_p95_s=0.050, observed_p95=0.100,
                                   t_min=1)
        scheduler = BatchScheduler(_engine(), n_samples=8, max_batch=1024,
                                   controlplane=plane)
        big = scheduler.submit(RNG.standard_normal((2, 12)), n_samples=8)
        small = scheduler.submit(RNG.standard_normal((2, 12)), n_samples=2)
        scheduler.flush()
        assert big.result().samples.shape[0] == 4      # halved
        assert small.result().samples.shape[0] == 1    # halved, not raised
        assert scheduler.stats.degraded_flushes == 2

    def test_recovery_restores_full_t(self):
        metrics = LoadMetrics(window=4)
        for _ in range(4):
            metrics.record_flush(rows=4, n_requests=1, latency_s=0.200)
        plane = ControlPlane(slo=SloPolicy(0.050), metrics=metrics,
                             clock=FakeClock())
        scheduler = BatchScheduler(_engine(), n_samples=8, max_batch=1024,
                                   controlplane=plane)
        degraded = scheduler.submit(RNG.standard_normal((2, 12)))
        scheduler.flush()
        assert degraded.result().degraded is True
        # The latency window turns over with fast flushes (the real
        # flushes above are micro-seconds); p95 drops under target.
        for _ in range(4):
            metrics.record_flush(rows=4, n_requests=1, latency_s=0.001)
        recovered = scheduler.submit(RNG.standard_normal((2, 12)))
        scheduler.flush()
        result = recovered.result()
        assert result.degraded is False
        assert result.samples.shape[0] == 8
        assert result.served_samples == 8

    def test_undegraded_trace_is_bit_identical_to_plain_scheduler(self):
        """With the p95 under target the control plane must be
        invisible: same seed, same submissions, identical samples."""
        xs = [RNG.standard_normal((n, 12)) for n in (3, 1, 2)]
        plain = BatchScheduler(_engine(seed=5), n_samples=4,
                               max_batch=1024)
        plain_tickets = [plain.submit(x) for x in xs]
        plain.flush()

        plane = ControlPlane(slo=SloPolicy(target_p95_s=1000.0),
                             admission=AdmissionPolicy(max_queue_rows=4096))
        governed = BatchScheduler(_engine(seed=5), n_samples=4,
                                  max_batch=1024, controlplane=plane)
        governed_tickets = [governed.submit(x) for x in xs]
        governed.flush()

        for want, got in zip(plain_tickets, governed_tickets):
            want_r, got_r = want.result(), got.result()
            np.testing.assert_array_equal(want_r.samples, got_r.samples)
            assert got_r.degraded is False
        assert governed.stats.degraded_flushes == 0

    def test_scheduler_adopts_plane_collector_and_admission(self):
        plane = ControlPlane(admission=AdmissionPolicy(max_queue_rows=64))
        scheduler = BatchScheduler(_engine(), n_samples=2,
                                   controlplane=plane)
        assert scheduler.metrics is plane.metrics
        assert scheduler.admission is plane.admission
        assert plane.scheduler is scheduler
        ticket = scheduler.submit(RNG.standard_normal((2, 12)))
        scheduler.flush()
        ticket.result()
        # Flush latencies flowed into the plane's own collector.
        assert plane.metrics.snapshot().flushes == 1


class TestSoak:
    def test_flaky_overloaded_fleet_recovers(self):
        """The acceptance scenario: a seeded flaky replica under an
        overload burst.  No request wedges, the flaky replica is
        quarantined and later re-admitted, adaptive-T keeps serving
        (degraded results say so), and after the burst full-T service
        resumes."""
        clock = FakeClock()
        # Seeded failure plan with a failure *streak* early on (i.i.d.
        # 10% almost never produces K consecutive failures in a short
        # soak; the explicit indices make the quarantine deterministic
        # while rate-draws keep the schedule honest afterwards).
        flaky = FlakyEngine(_engine(seed=6),
                            FailureSchedule(fail_calls=(0, 1), rate=0.0))
        metrics = LoadMetrics(window=8)
        plane = ControlPlane(
            health=HealthPolicy(quarantine_after=2, probe_backoff_s=5.0,
                                probation_successes=2),
            admission=AdmissionPolicy(max_queue_rows=256),
            slo=SloPolicy(target_p95_s=0.050, t_min=2),
            metrics=metrics, clock=clock)
        sharded = BatchScheduler(
            [_engine(seed=5), flaky], n_samples=8,
            max_batch=1024, controlplane=plane)
        scaler = Autoscaler(sharded, lambda: _engine(seed=21),
                            max_replicas=2, warm_spares=1,
                            cooldown_s=1000.0)
        plane.autoscaler = scaler

        rng = np.random.default_rng(77)
        outcomes = {"ok": 0, "failed": 0, "rejected": 0}
        degraded_seen = 0

        def drive(n_flushes, arrivals_lam):
            nonlocal degraded_seen
            for _ in range(n_flushes):
                tickets = []
                for _ in range(max(1, rng.poisson(arrivals_lam))):
                    try:
                        tickets.append(sharded.submit(
                            rng.standard_normal((2, 12))))
                    except AdmissionRejected:
                        outcomes["rejected"] += 1
                sharded.flush()
                clock.advance(0.1)
                for ticket in tickets:
                    try:
                        result = ticket.result()
                    except InjectedFault:
                        outcomes["failed"] += 1
                        continue
                    outcomes["ok"] += 1
                    assert result.served_samples == \
                        result.samples.shape[0]
                    if result.degraded:
                        degraded_seen += 1
                        assert result.samples.shape[0] < 8

        # Phase 1 — the flaky replica fails its first flushes and is
        # quarantined; its capacity is replaced by the warm spare.
        drive(3, arrivals_lam=2)
        assert plane.health_of(flaky).state == QUARANTINED
        assert scaler.promotions == 1

        # Phase 2 — overload burst: prime the latency window over
        # target; adaptive-T must degrade instead of refusing traffic.
        for _ in range(8):
            metrics.record_flush(rows=8, n_requests=2, latency_s=0.400)
        drive(4, arrivals_lam=6)
        assert degraded_seen > 0
        assert sharded.stats.degraded_flushes > 0

        # Phase 3 — burst over: the window refills with real (fast)
        # flush latencies, p95 recovers under target, T returns to
        # full, and the flaky replica re-admits after its backoff.
        clock.advance(10.0)                 # backoff elapsed
        drive(8, arrivals_lam=2)
        assert plane.observed_p95() < 0.050
        assert plane.health_of(flaky).state == HEALTHY
        assert plane.health_of(flaky).readmissions == 1

        final = sharded.submit(rng.standard_normal((2, 12)))
        sharded.flush()
        result = final.result()
        assert result.degraded is False
        assert result.samples.shape[0] == 8

        # Nothing wedged: every submitted request resolved one way or
        # another, and both failure modes actually occurred.
        assert outcomes["failed"] >= 2      # the injected faults
        assert outcomes["ok"] > 10
        # (the final request above is the one not in `outcomes`)
        assert outcomes["ok"] + outcomes["failed"] == \
            sharded.stats.requests - 1
