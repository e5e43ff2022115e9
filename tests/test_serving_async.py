"""AsyncBatchScheduler: asyncio front-end over the batch schedulers."""

import asyncio

import numpy as np
import pytest

from repro.bayesian import BayesianCim, make_spindrop_mlp
from repro.cim import CimConfig
from repro.serving import (
    AsyncBatchScheduler,
    Autoscaler,
    BatchScheduler,
    LoadMetrics,
    ResultTimeout,
)
from repro.serving.faults import PoisonEngine

RNG = np.random.default_rng(23)


def _engine(seed=9):
    model = make_spindrop_mlp(12, (8,), 3, p=0.3, seed=2)
    return BayesianCim(model, CimConfig(seed=4), seed=seed)


def run(coro):
    return asyncio.run(coro)


class TestEquivalence:
    def test_bit_identical_to_sync_scheduler(self):
        """Same submissions, same seed: async == sync, bit for bit —
        including per-request sample counts (T-grouping)."""
        xs = [RNG.standard_normal((n, 12)) for n in (3, 1, 2, 4)]
        ts = [4, 7, 4, 7]

        sync = BatchScheduler(_engine(seed=5), n_samples=4, max_batch=64)
        sync_tickets = [sync.submit(x, n_samples=t)
                        for x, t in zip(xs, ts)]
        sync.flush()
        expected = [t.result().samples for t in sync_tickets]

        async def go():
            inner = BatchScheduler(_engine(seed=5), n_samples=4,
                                   max_batch=64)
            async with AsyncBatchScheduler(inner) as frontend:
                tickets = [await frontend.submit(x, n_samples=t)
                           for x, t in zip(xs, ts)]
                await frontend.flush()
                return [(await t).samples for t in tickets]

        for got, want in zip(run(go()), expected):
            np.testing.assert_array_equal(got, want)

    def test_bit_identical_over_sharded_inner(self):
        xs = [RNG.standard_normal((n, 12)) for n in (2, 3, 1)]
        sync = BatchScheduler([_engine(seed=5), _engine(seed=6)],
                              n_samples=3)
        sync_tickets = [sync.submit(x) for x in xs]
        sync.flush()
        expected = [t.result().samples for t in sync_tickets]

        async def go():
            inner = BatchScheduler([_engine(seed=5), _engine(seed=6)],
                                   n_samples=3)
            async with AsyncBatchScheduler(inner) as frontend:
                tickets = [await frontend.submit(x) for x in xs]
                await frontend.flush()
                return [(await t).samples for t in tickets]

        for got, want in zip(run(go()), expected):
            np.testing.assert_array_equal(got, want)


class TestSubmitPredict:
    def test_predict_returns_predictive_result(self):
        async def go():
            async with AsyncBatchScheduler(
                    BatchScheduler(_engine(), n_samples=5)) as frontend:
                return await frontend.predict(RNG.standard_normal((3, 12)))

        result = run(go())
        assert result.probs.shape == (3, 3)
        assert result.samples.shape == (5, 3, 3)
        np.testing.assert_allclose(result.probs.sum(axis=-1), 1.0,
                                   rtol=1e-9)

    def test_predict_takes_submit_keywords(self):
        async def go():
            async with AsyncBatchScheduler(
                    BatchScheduler(_engine(), n_samples=2)) as frontend:
                return await frontend.predict(
                    RNG.standard_normal(12), n_samples=3,
                    feature_shape=(12,), deadline_s=5.0)

        assert run(go()).samples.shape == (3, 1, 3)

    def test_deadline_expiry_withdraws_and_reraises(self):
        """The sync ticket's expiry rule: the request leaves the
        queue, and every retry raises ResultTimeout again."""
        async def go():
            inner = BatchScheduler(_engine(), n_samples=2, max_batch=64)
            async with AsyncBatchScheduler(
                    inner, flush_interval=30.0) as frontend:
                ticket = await frontend.submit(
                    RNG.standard_normal((2, 12)), deadline_s=0.02)
                for _ in range(2):
                    with pytest.raises(ResultTimeout):
                        await ticket.result()
                await asyncio.sleep(0)     # let the done-callback run
                assert frontend.pending_rows == 0
                assert frontend.in_flight_rows == 0
                assert await frontend.flush() == 0

        run(go())

    def test_max_batch_triggers_flush(self):
        async def go():
            inner = BatchScheduler(_engine(), n_samples=2, max_batch=4)
            async with AsyncBatchScheduler(inner) as frontend:
                a = await frontend.submit(RNG.standard_normal((2, 12)))
                assert not a.done()
                b = await frontend.submit(RNG.standard_normal((2, 12)))
                ra, rb = await a, await b
                assert frontend.stats.flushes == 1
                assert frontend.stats.coalesced_rows == 4
                return ra, rb

        ra, rb = run(go())
        assert ra.probs.shape == (2, 3) and rb.probs.shape == (2, 3)

    def test_deadline_flush_uses_call_later(self):
        """With flush_interval set, a lone request resolves without
        any explicit flush — and without a timer thread."""
        async def go():
            inner = BatchScheduler(_engine(), n_samples=2, max_batch=64)
            async with AsyncBatchScheduler(
                    inner, flush_interval=0.02) as frontend:
                ticket = await frontend.submit(
                    RNG.standard_normal((2, 12)))
                result = await asyncio.wait_for(ticket.result(),
                                                timeout=5.0)
                assert frontend.stats.timer_flushes == 1
                return result

        assert run(go()).probs.shape == (2, 3)

    def test_submit_after_close_raises(self):
        async def go():
            frontend = AsyncBatchScheduler(
                BatchScheduler(_engine(), n_samples=2))
            await frontend.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await frontend.submit(RNG.standard_normal((1, 12)))

        run(go())

    def test_aclose_flushes_pending(self):
        async def go():
            frontend = AsyncBatchScheduler(
                BatchScheduler(_engine(), n_samples=2, max_batch=64))
            ticket = await frontend.submit(RNG.standard_normal((2, 12)))
            await frontend.aclose()
            return await ticket

        assert run(go()).probs.shape == (2, 3)

    def test_drain_resolves_requests_queued_behind_a_far_deadline(self):
        """Regression: drain() must flush requests that joined the
        queue while it was waiting, not just the first batch."""
        async def go():
            inner = BatchScheduler(_engine(), n_samples=2, max_batch=64)
            async with AsyncBatchScheduler(
                    inner, flush_interval=30.0) as frontend:
                first = await frontend.submit(
                    RNG.standard_normal((1, 12)))

                late = []

                async def late_submit():
                    # Runs while drain is awaiting the first flush.
                    late.append(await frontend.submit(
                        RNG.standard_normal((2, 12))))

                task = asyncio.ensure_future(late_submit())
                await frontend.drain()
                await task
                assert frontend.pending_rows == 0
                assert late[0].done()        # not parked on the timer
                return await first, await late[0]

        r1, r2 = run(go())
        assert r1.probs.shape == (1, 3) and r2.probs.shape == (2, 3)

    def test_validation_matches_sync_front_end(self):
        async def go():
            async with AsyncBatchScheduler(
                    BatchScheduler(_engine(), n_samples=2)) as frontend:
                with pytest.raises(ValueError):
                    await frontend.submit(np.zeros((0, 12)))
                with pytest.raises(ValueError):
                    await frontend.submit(RNG.standard_normal((2, 12)),
                                          n_samples=0)
                await frontend.submit(RNG.standard_normal((2, 12)))
                with pytest.raises(ValueError):
                    await frontend.submit(RNG.standard_normal((2, 7)))

        run(go())


class TestBackpressure:
    def test_submit_suspends_at_bound_and_resumes(self):
        async def go():
            inner = BatchScheduler(_engine(), n_samples=2, max_batch=64)
            # A far-off deadline: flushes happen only when the test
            # says so, keeping the suspension assertions deterministic.
            async with AsyncBatchScheduler(
                    inner, max_pending_rows=4,
                    flush_interval=30.0) as frontend:
                first = await frontend.submit(
                    RNG.standard_normal((4, 12)))
                blocked = asyncio.ensure_future(
                    frontend.submit(RNG.standard_normal((2, 12))))
                for _ in range(5):
                    await asyncio.sleep(0)
                assert not blocked.done()       # suspended at the bound
                await frontend.flush()          # frees the 4 rows
                ticket = await asyncio.wait_for(blocked, timeout=5.0)
                await frontend.flush()
                return await first, await ticket

        r1, r2 = run(go())
        assert r1.probs.shape == (4, 3) and r2.probs.shape == (2, 3)

    def test_oversized_request_admitted_when_idle(self):
        async def go():
            inner = BatchScheduler(_engine(), n_samples=2, max_batch=64)
            async with AsyncBatchScheduler(
                    inner, max_pending_rows=4) as frontend:
                ticket = await frontend.submit(
                    RNG.standard_normal((9, 12)))
                await frontend.flush()
                return await ticket

        assert run(go()).probs.shape == (9, 3)

    def test_cancelled_request_frees_its_queue_slot(self):
        """The satellite regression: a cancelled await-predict must
        release its backpressure rows and leave the flush batch."""
        async def go():
            inner = BatchScheduler(_engine(), n_samples=2, max_batch=64)
            async with AsyncBatchScheduler(
                    inner, max_pending_rows=4,
                    flush_interval=30.0) as frontend:
                doomed = await frontend.submit(
                    RNG.standard_normal((3, 12)))
                blocked = asyncio.ensure_future(
                    frontend.submit(RNG.standard_normal((3, 12))))
                for _ in range(5):
                    await asyncio.sleep(0)
                assert not blocked.done()
                assert doomed.cancel()
                # The slot frees without any flush running.
                ticket = await asyncio.wait_for(blocked, timeout=5.0)
                assert frontend.pending_rows == 3   # doomed left the queue
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                await frontend.flush()
                assert frontend.stats.flushes == 1  # doomed never ran
                return await ticket

        assert run(go()).probs.shape == (3, 3)

    def test_cancel_after_resolution_returns_false(self):
        async def go():
            async with AsyncBatchScheduler(
                    BatchScheduler(_engine(), n_samples=2)) as frontend:
                ticket = await frontend.submit(
                    RNG.standard_normal((1, 12)))
                await frontend.flush()
                await ticket
                assert not ticket.cancel()

        run(go())


class TestFailureIsolation:
    def test_poisoned_replica_fails_only_its_shard(self):
        """Async view of the sharded error-isolation fix: the poisoned
        replica's ticket raises the original error, siblings resolve."""
        async def go():
            inner = BatchScheduler([_engine(seed=5), PoisonEngine()],
                                   n_samples=3)
            async with AsyncBatchScheduler(inner) as frontend:
                # Greedy row balance: req0 (2 rows) -> replica0,
                # req1 (3 rows) -> poisoned replica1, req2 -> replica0.
                ok1 = await frontend.submit(RNG.standard_normal((2, 12)))
                bad = await frontend.submit(RNG.standard_normal((3, 12)))
                ok2 = await frontend.submit(RNG.standard_normal((1, 12)))
                await frontend.flush()
                with pytest.raises(RuntimeError, match="boom"):
                    await bad
                return await ok1, await ok2

        r1, r2 = run(go())
        assert r1.probs.shape == (2, 3) and r2.probs.shape == (1, 3)

    def test_whole_flush_failure_rejects_every_ticket(self):
        async def go():
            inner = BatchScheduler(PoisonEngine(), n_samples=3,
                                   feature_shape=(12,))
            async with AsyncBatchScheduler(inner) as frontend:
                t1 = await frontend.submit(RNG.standard_normal((2, 12)))
                t2 = await frontend.submit(RNG.standard_normal((1, 12)))
                await frontend.flush()
                with pytest.raises(RuntimeError, match="boom"):
                    await t1
                with pytest.raises(RuntimeError, match="boom"):
                    await t2

        run(go())


class TestMetricsAndScaling:
    def test_metrics_record_flushes_and_queue(self):
        async def go():
            metrics = LoadMetrics()
            inner = BatchScheduler(_engine(), n_samples=2, max_batch=64)
            async with AsyncBatchScheduler(
                    inner, metrics=metrics) as frontend:
                for _ in range(3):
                    await frontend.submit(RNG.standard_normal((2, 12)))
                await frontend.flush()
            return metrics.snapshot()

        snap = run(go())
        assert snap.flushes == 1
        assert snap.requests == 3
        assert snap.rows == 6
        assert snap.max_queue_depth == 6
        assert snap.p95_latency_s >= snap.p50_latency_s > 0.0
        assert snap.replica_rows == (6,)

    def test_autoscaler_grows_replicas_under_sustained_load(self):
        """Back-to-back flush rounds push the utilization EWMA over a
        (deliberately low) threshold; the autoscaler must scale the
        sharded inner up and keep results flowing."""
        async def go():
            sharded = BatchScheduler([_engine(seed=5)], n_samples=6,
                                     max_batch=64)
            scaler = Autoscaler(
                sharded, lambda: _engine(seed=11), min_replicas=1,
                max_replicas=2, scale_up_utilization=0.2,
                scale_down_utilization=0.05, up_patience=1,
                warm_spares=1)
            async with AsyncBatchScheduler(
                    sharded, flush_interval=0.02,
                    autoscaler=scaler) as frontend:
                rounds = 0
                while scaler.scale_ups == 0 and rounds < 25:
                    for _ in range(4):
                        await frontend.submit(
                            RNG.standard_normal((3, 12)))
                    await frontend.flush()
                    rounds += 1
                # Service keeps working after the replica set grew.
                result = await frontend.predict(
                    RNG.standard_normal((2, 12)))
                return scaler.scale_ups, sharded.n_replicas, result

        ups, replicas, result = run(go())
        assert ups >= 1
        assert replicas == 2
        assert result.probs.shape == (2, 3)


    def test_autoscaler_failure_does_not_break_serving(self):
        """A raising policy step is recorded, not propagated into the
        flush path — requests keep resolving."""
        async def go():
            sharded = BatchScheduler([_engine(seed=5)], n_samples=2)
            scaler = Autoscaler(sharded, lambda: _engine(seed=7),
                                max_replicas=2, warm_spares=0)

            def poisoned_step(**kwargs):
                raise RuntimeError("policy exploded")

            scaler.step = poisoned_step
            async with AsyncBatchScheduler(
                    sharded, autoscaler=scaler) as frontend:
                result = await frontend.predict(
                    RNG.standard_normal((2, 12)))
                # A ticket resolves as soon as its group is served;
                # the policy step follows once the whole flush is done.
                await frontend.drain()
                assert isinstance(frontend.last_autoscale_error,
                                  RuntimeError)
                return result

        assert run(go()).probs.shape == (2, 3)


class TestLoopDiscipline:
    def test_front_end_is_bound_to_one_loop(self):
        frontend = AsyncBatchScheduler(
            BatchScheduler(_engine(), n_samples=2))

        async def first():
            await frontend.submit(RNG.standard_normal((1, 12)))
            await frontend.flush()

        run(first())

        async def second():
            with pytest.raises(RuntimeError, match="event loop"):
                await frontend.submit(RNG.standard_normal((1, 12)))

        run(second())
