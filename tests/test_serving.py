"""BatchScheduler: request coalescing over the batched MC engine."""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.bayesian import BayesianCim, make_spindrop_mlp
from repro.cim import CimConfig
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    BatchScheduler,
    ResultTimeout,
)

RNG = np.random.default_rng(7)


def _engine(seed=9):
    model = make_spindrop_mlp(12, (8,), 3, p=0.3, seed=2)
    return BayesianCim(model, CimConfig(seed=4), seed=seed)


@pytest.fixture
def engine():
    return _engine()


class TestSubmitAndResolve:
    def test_result_has_predictive_distribution(self, engine):
        scheduler = BatchScheduler(engine, n_samples=5, max_batch=16)
        ticket = scheduler.submit(RNG.standard_normal((3, 12)))
        result = ticket.result()
        assert result.probs.shape == (3, 3)
        assert result.samples.shape == (5, 3, 3)
        np.testing.assert_allclose(result.probs.sum(axis=-1), 1.0,
                                   rtol=1e-9)
        assert result.mutual_information.shape == (3,)

    def test_unbatched_sample_after_first_request(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3, max_batch=16)
        scheduler.submit(RNG.standard_normal((2, 12)))
        single = scheduler.submit(RNG.standard_normal(12))
        assert single.result().probs.shape == (1, 3)

    def test_feature_mismatch_rejected(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3, max_batch=16)
        scheduler.submit(RNG.standard_normal((2, 12)))
        with pytest.raises(ValueError):
            scheduler.submit(RNG.standard_normal((2, 7)))

    def test_auto_flush_at_max_batch(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3, max_batch=4)
        a = scheduler.submit(RNG.standard_normal((2, 12)))
        assert not a.done()
        b = scheduler.submit(RNG.standard_normal((2, 12)))
        assert a.done() and b.done()
        assert scheduler.pending_rows == 0
        assert scheduler.stats.flushes == 1
        assert scheduler.stats.coalesced_rows == 4

    def test_result_forces_flush(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3, max_batch=64)
        ticket = scheduler.submit(RNG.standard_normal((2, 12)))
        assert not ticket.done()
        assert ticket.result().probs.shape == (2, 3)
        assert scheduler.stats.flushes == 1

    def test_flush_empty_is_noop(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3)
        assert scheduler.flush() == 0
        assert scheduler.stats.flushes == 0


class TestCoalescingSemantics:
    def test_coalesced_equals_one_direct_batched_call(self):
        """Coalescing is invisible: slices of one mc_forward_batched."""
        x1 = RNG.standard_normal((3, 12))
        x2 = RNG.standard_normal((5, 12))

        scheduler = BatchScheduler(_engine(seed=21), n_samples=4,
                                   max_batch=64)
        t1 = scheduler.submit(x1)
        t2 = scheduler.submit(x2)
        scheduler.flush()

        direct = _engine(seed=21).mc_forward_batched(
            np.concatenate([x1, x2]), n_samples=4)
        np.testing.assert_array_equal(t1.result().samples,
                                      direct.samples[:, :3])
        np.testing.assert_array_equal(t2.result().samples,
                                      direct.samples[:, 3:])

    def test_oversized_request_accepted_whole(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3, max_batch=4)
        ticket = scheduler.submit(RNG.standard_normal((9, 12)))
        assert ticket.done()            # flushed immediately, unsplit
        assert ticket.result().probs.shape == (9, 3)

    def test_stats_track_requests_and_rows(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3, max_batch=64)
        scheduler.submit(RNG.standard_normal((2, 12)))
        scheduler.submit(RNG.standard_normal((3, 12)))
        scheduler.flush()
        assert scheduler.stats.requests == 2
        assert scheduler.stats.rows == 5
        assert scheduler.stats.mean_rows_per_flush == 5.0


class TestConcurrency:
    def test_threaded_submits_all_resolve(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3, max_batch=8)
        tickets = []
        lock = threading.Lock()

        def worker(i):
            x = np.random.default_rng(i).standard_normal((2, 12))
            ticket = scheduler.submit(x)
            with lock:
                tickets.append(ticket)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        scheduler.flush()
        assert len(tickets) == 10
        for ticket in tickets:
            assert ticket.result().probs.shape == (2, 3)
        assert scheduler.stats.rows == 20


class TestValidation:
    def test_bad_params_rejected(self, engine):
        with pytest.raises(ValueError):
            BatchScheduler(engine, n_samples=0)
        with pytest.raises(ValueError):
            BatchScheduler(engine, max_batch=0)

    def test_empty_request_rejected(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3)
        with pytest.raises(ValueError):
            scheduler.submit(np.zeros((0, 12)))

    def test_double_result_returns_the_same_outcome(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3)
        ticket = scheduler.submit(RNG.standard_normal((2, 12)))
        first = ticket.result()
        assert ticket.result() is first
        assert scheduler.stats.flushes == 1

    def test_unclaimed_results_are_freed(self, engine):
        """A ticket owns its future: a flushed result nobody claims is
        freed with its ticket, so no retention cap is needed."""
        scheduler = BatchScheduler(engine, n_samples=2, max_batch=64)
        ticket = scheduler.submit(RNG.standard_normal((1, 12)))
        scheduler.flush()
        assert ticket.done()
        future = weakref.ref(ticket._request.future)
        result = weakref.ref(ticket._request.future.result())
        del ticket
        gc.collect()
        assert future() is None and result() is None


class TestPerRequestSamples:
    def test_groups_by_n_samples_at_flush(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3, max_batch=64)
        t_default = scheduler.submit(RNG.standard_normal((2, 12)))
        t_deep = scheduler.submit(RNG.standard_normal((3, 12)), n_samples=7)
        t_default2 = scheduler.submit(RNG.standard_normal((1, 12)))
        assert scheduler.flush() == 3
        # One engine call per distinct T.
        assert scheduler.stats.flushes == 2
        assert t_default.result().samples.shape == (3, 2, 3)
        assert t_deep.result().samples.shape == (7, 3, 3)
        assert t_default2.result().samples.shape == (3, 1, 3)

    def test_same_t_group_equals_direct_batched_call(self):
        """Grouping preserves coalescing semantics within a T-group.

        Groups run in arrival order of their first member, so a seeded
        replay of the same engine-call sequence must reproduce every
        request's slices bit-for-bit.
        """
        x_odd = RNG.standard_normal((1, 12))
        x1 = RNG.standard_normal((2, 12))
        x2 = RNG.standard_normal((3, 12))
        scheduler = BatchScheduler(_engine(seed=31), n_samples=2,
                                   max_batch=64)
        t_odd = scheduler.submit(x_odd, n_samples=5)
        t1 = scheduler.submit(x1, n_samples=4)
        t2 = scheduler.submit(x2, n_samples=4)
        scheduler.flush()

        replay = _engine(seed=31)
        direct_odd = replay.mc_forward_batched(x_odd, n_samples=5)
        direct_four = replay.mc_forward_batched(
            np.concatenate([x1, x2]), n_samples=4)
        np.testing.assert_array_equal(t_odd.result().samples,
                                      direct_odd.samples)
        np.testing.assert_array_equal(t1.result().samples,
                                      direct_four.samples[:, :2])
        np.testing.assert_array_equal(t2.result().samples,
                                      direct_four.samples[:, 2:])

    def test_ticket_carries_its_sample_count(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3)
        ticket = scheduler.submit(RNG.standard_normal((2, 12)), n_samples=9)
        assert ticket.n_samples == 9

    def test_invalid_per_request_samples_rejected(self, engine):
        scheduler = BatchScheduler(engine, n_samples=3)
        with pytest.raises(ValueError):
            scheduler.submit(RNG.standard_normal((2, 12)), n_samples=0)


class TestTimerFlush:
    def test_deadline_flushes_pending(self, engine):
        with BatchScheduler(engine, n_samples=2, max_batch=64,
                            flush_interval=0.05) as scheduler:
            ticket = scheduler.submit(RNG.standard_normal((2, 12)))
            assert not ticket.done()
            deadline = time.monotonic() + 5.0
            while not ticket.done() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ticket.done()
            assert scheduler.stats.timer_flushes == 1
            assert ticket.result().probs.shape == (2, 3)

    def test_manual_flush_cancels_timer(self, engine):
        with BatchScheduler(engine, n_samples=2, max_batch=64,
                            flush_interval=0.05) as scheduler:
            scheduler.submit(RNG.standard_normal((2, 12)))
            scheduler.flush()
            time.sleep(0.12)
            assert scheduler.stats.timer_flushes == 0

    def test_close_flushes_and_stops_timer(self, engine):
        scheduler = BatchScheduler(engine, n_samples=2, max_batch=64,
                                   flush_interval=30.0)
        ticket = scheduler.submit(RNG.standard_normal((2, 12)))
        scheduler.close()
        assert ticket.done()
        assert scheduler._timer is None

    def test_invalid_interval_rejected(self, engine):
        with pytest.raises(ValueError):
            BatchScheduler(engine, flush_interval=0.0)


class TestResolveBugfixes:
    def test_consumed_ticket_does_not_flush_unrelated_requests(self, engine):
        """Regression: resolving an already-resolved ticket used to
        force-flush every unrelated pending request."""
        scheduler = BatchScheduler(engine, n_samples=2, max_batch=64)
        first = scheduler.submit(RNG.standard_normal((1, 12)))
        result = first.result()              # forces one flush
        pending = scheduler.submit(RNG.standard_normal((2, 12)))
        assert first.result() is result
        assert not pending.done()            # still pending, untouched
        assert scheduler.pending_rows == 2
        assert scheduler.stats.flushes == 1


class TestConcurrencyStress:
    def test_multithreaded_submit_result_flush(self, engine):
        """Hammer submit/result/flush from many threads at once."""
        scheduler = BatchScheduler(engine, n_samples=2, max_batch=8)
        n_workers, per_worker = 8, 6
        errors = []

        def worker(wid):
            rng = np.random.default_rng(wid)
            try:
                for i in range(per_worker):
                    n_rows = 1 + (wid + i) % 3
                    ticket = scheduler.submit(
                        rng.standard_normal((n_rows, 12)),
                        n_samples=2 + (i % 2))
                    if i % 3 == 0:
                        scheduler.flush()
                    result = ticket.result()
                    assert result.probs.shape == (n_rows, 3)
                    assert result.samples.shape[0] == 2 + (i % 2)
            except Exception as exc:         # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(n_workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert scheduler.stats.requests == n_workers * per_worker
        assert scheduler.pending_rows == 0

    def test_timer_timeouts_and_flushes_reconcile_admission(self, engine):
        """Submits, forced and timed waits, explicit flushes and the
        deadline timer from more threads than cores, under a short
        switch interval: every ticket settles to one outcome, and the
        admission counters account for exactly the rows handed back."""
        admission = AdmissionController(AdmissionPolicy(max_queue_rows=4096))
        scheduler = BatchScheduler(engine, n_samples=2, max_batch=8,
                                   flush_interval=0.001,
                                   admission=admission)
        served, errors = [], []
        lock = threading.Lock()

        def worker(wid):
            rng = np.random.default_rng(wid)
            try:
                for i in range(12):
                    n_rows = 1 + (wid + i) % 3
                    ticket = scheduler.submit(
                        rng.standard_normal((n_rows, 12)))
                    if i % 4 == 0:
                        scheduler.flush()
                    try:
                        result = ticket.result(timeout=1e-4) \
                            if i % 3 == 0 else ticket.result()
                    except ResultTimeout:
                        with pytest.raises(ResultTimeout):
                            ticket.result()
                        continue
                    assert ticket.result() is result
                    assert result.probs.shape == (n_rows, 3)
                    with lock:
                        served.append(n_rows)
            except Exception as exc:         # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        scheduler.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert scheduler.stats.requests == 8 * 12
        assert scheduler.pending_rows == 0
        assert admission.served_rows == sum(served)
        assert admission.cancelled_requests == scheduler.stats.timeouts


class TestGroupFailureIsolation:
    """An engine failure fails exactly the requests of that engine
    call (one T-group), never the sibling groups in the same flush."""

    class _TSelectivePoison:
        def __init__(self, engine, poisoned_t):
            self._engine = engine
            self._poisoned_t = poisoned_t

        def mc_forward_batched(self, x, n_samples=10, chunk_passes=None):
            if n_samples == self._poisoned_t:
                raise RuntimeError("boom: poisoned T-group")
            return self._engine.mc_forward_batched(
                x, n_samples=n_samples, chunk_passes=chunk_passes)

    def test_poisoned_t_group_leaves_siblings_resolved(self):
        scheduler = BatchScheduler(
            self._TSelectivePoison(_engine(), poisoned_t=7), n_samples=3)
        good = scheduler.submit(RNG.standard_normal((2, 12)))
        bad = scheduler.submit(RNG.standard_normal((1, 12)), n_samples=7)
        scheduler.flush()
        assert good.done() and bad.done()
        assert good.result().probs.shape == (2, 3)
        with pytest.raises(RuntimeError, match="boom"):
            bad.result()
        # The failure is the ticket's outcome: a retry re-raises it.
        with pytest.raises(RuntimeError, match="boom"):
            bad.result()


class TestMultiDimFeatures:
    """Image engines: feature shapes with more than one axis."""

    def _cnn_engine(self):
        from repro.bayesian import make_spatial_spindrop_cnn

        model = make_spatial_spindrop_cnn(1, 12, 4, widths=(4, 8), seed=3)
        return BayesianCim(model, CimConfig(seed=5), seed=6)

    def test_explicit_feature_shape_allows_unbatched_image(self):
        scheduler = BatchScheduler(self._cnn_engine(), n_samples=2,
                                   feature_shape=(1, 12, 12))
        single = scheduler.submit(RNG.standard_normal((1, 12, 12)))
        batch = scheduler.submit(RNG.standard_normal((3, 1, 12, 12)))
        scheduler.flush()
        assert single.result().probs.shape == (1, 4)
        assert batch.result().probs.shape == (3, 4)

    def test_multi_dim_first_request_without_feature_shape_rejected(self):
        # A first request with more than two axes is ambiguous (is
        # (2, 1, 12, 12) a batch of two images or one 4-D sample?);
        # the scheduler must refuse to guess rather than silently
        # slice a wrong shape.
        scheduler = BatchScheduler(self._cnn_engine(), n_samples=2)
        with pytest.raises(ValueError, match="feature_shape"):
            scheduler.submit(RNG.standard_normal((2, 1, 12, 12)))
        with pytest.raises(ValueError, match="feature_shape"):
            scheduler.submit(RNG.standard_normal((1, 12, 12)))

    def test_explicit_feature_shape_serves_batched_images(self):
        scheduler = BatchScheduler(self._cnn_engine(), n_samples=2,
                                   feature_shape=(1, 12, 12))
        first = scheduler.submit(RNG.standard_normal((2, 1, 12, 12)))
        single = scheduler.submit(RNG.standard_normal((1, 12, 12)))
        scheduler.flush()
        assert first.result().probs.shape == (2, 4)
        assert single.result().probs.shape == (1, 4)


class TestResultTimeout:
    """result(timeout=...) waits politely, then withdraws the request."""

    def test_timeout_resolves_when_another_trigger_flushes(self, engine):
        scheduler = BatchScheduler(engine, n_samples=2, max_batch=64)
        ticket = scheduler.submit(RNG.standard_normal((2, 12)))

        flusher = threading.Timer(0.05, scheduler.flush)
        flusher.start()
        try:
            result = ticket.result(timeout=5.0)
        finally:
            flusher.cancel()
        assert result.probs.shape == (2, 3)
        assert scheduler.stats.timeouts == 0

    def test_expiry_raises_and_frees_the_queue_slot(self, engine):
        scheduler = BatchScheduler(engine, n_samples=2, max_batch=64)
        abandoned = scheduler.submit(RNG.standard_normal((3, 12)))
        assert scheduler.pending_rows == 3
        with pytest.raises(ResultTimeout):
            abandoned.result(timeout=0.01)
        # Withdrawn entirely: its rows no longer count toward the
        # batch, and it will never run.
        assert scheduler.pending_rows == 0
        assert scheduler.stats.timeouts == 1

        # Retrying the same ticket re-raises (no silent hang).
        with pytest.raises(ResultTimeout):
            abandoned.result(timeout=0.01)
        with pytest.raises(ResultTimeout):
            abandoned.result()               # even without a timeout

        # The scheduler keeps serving; the withdrawn rows are gone.
        later = scheduler.submit(RNG.standard_normal((2, 12)))
        scheduler.flush()
        assert later.result().probs.shape == (2, 3)
        assert scheduler.stats.flushes == 1  # only the later request ran

    def test_timeout_does_not_force_a_flush(self, engine):
        scheduler = BatchScheduler(engine, n_samples=2, max_batch=64)
        waiting = scheduler.submit(RNG.standard_normal((2, 12)))
        sibling = scheduler.submit(RNG.standard_normal((1, 12)))
        with pytest.raises(ResultTimeout):
            waiting.result(timeout=0.02)
        # The sibling stayed queued — a timed wait never flushes.
        assert scheduler.stats.flushes == 0
        assert scheduler.pending_rows == 1
        scheduler.flush()
        assert sibling.result().probs.shape == (1, 3)

    def test_deadline_timer_still_serves_timed_waiters(self, engine):
        scheduler = BatchScheduler(engine, n_samples=2, max_batch=64,
                                   flush_interval=0.02)
        with scheduler:
            ticket = scheduler.submit(RNG.standard_normal((2, 12)))
            result = ticket.result(timeout=5.0)
        assert result.probs.shape == (2, 3)
        assert scheduler.stats.timer_flushes == 1

    def test_invalid_timeout_rejected(self, engine):
        scheduler = BatchScheduler(engine, n_samples=2)
        ticket = scheduler.submit(RNG.standard_normal((1, 12)))
        with pytest.raises(ValueError):
            ticket.result(timeout=0.0)
        with pytest.raises(ValueError):
            ticket.result(timeout=-1.0)
        scheduler.flush()
        assert ticket.result().probs.shape == (1, 3)


class _GatedEngine:
    """Engine that blocks inside its call until released — holds a
    flush in flight so a test can act while it runs."""

    def __init__(self, engine):
        self.engine = engine
        self.entered = threading.Event()
        self.release = threading.Event()

    def mc_forward_batched(self, x, n_samples=10, chunk_passes=None):
        self.entered.set()
        assert self.release.wait(timeout=5.0)
        return self.engine.mc_forward_batched(
            x, n_samples=n_samples, chunk_passes=chunk_passes)


class TestFlushOutsideTheLock:
    """The engine runs outside the scheduler lock: the queue stays
    open while a flush is in flight."""

    def test_submit_returns_while_a_flush_runs(self, engine):
        gate = _GatedEngine(engine)
        scheduler = BatchScheduler(gate, n_samples=2, max_batch=64)
        first = scheduler.submit(RNG.standard_normal((2, 12)))
        flusher = threading.Thread(target=scheduler.flush)
        flusher.start()
        submitted = []
        try:
            assert gate.entered.wait(timeout=5.0)
            submitter = threading.Thread(target=lambda: submitted.append(
                scheduler.submit(RNG.standard_normal((1, 12)))))
            submitter.start()
            submitter.join(timeout=2.0)
            assert not submitter.is_alive()  # did not wait for the flush
            assert not first.done()
            assert scheduler.pending_rows == 1
        finally:
            gate.release.set()
            flusher.join(timeout=10.0)
        assert first.result().probs.shape == (2, 3)
        assert scheduler.flush() == 1
        assert submitted[0].result().probs.shape == (1, 3)

    def test_expiry_mid_flush_raises_and_releases_rows(self, engine):
        """A request whose flush is running is not recalled: its
        ticket raises ResultTimeout on every retry, and its admitted
        rows are released, exactly as an async cancel does."""
        gate = _GatedEngine(engine)
        admission = AdmissionController(AdmissionPolicy(max_queue_rows=64))
        scheduler = BatchScheduler(gate, n_samples=2, admission=admission)
        ticket = scheduler.submit(RNG.standard_normal((3, 12)))
        flusher = threading.Thread(target=scheduler.flush)
        flusher.start()
        try:
            assert gate.entered.wait(timeout=5.0)
            with pytest.raises(ResultTimeout):
                ticket.result(timeout=0.02)
            with pytest.raises(ResultTimeout):
                ticket.result(timeout=0.02)
            assert admission.cancelled_rows == 3
        finally:
            gate.release.set()
            flusher.join(timeout=10.0)
        assert ticket.done()                 # the flush still ran it
        with pytest.raises(ResultTimeout):
            ticket.result()                  # its outcome is dropped
        assert admission.served_rows == 0
        assert scheduler.stats.timeouts == 1
        assert scheduler.stats.flushes == 1
