"""BatchScheduler replica sets: one coalesced batch across engine replicas."""

import numpy as np
import pytest

from repro.bayesian import BayesianCim, make_spindrop_mlp
from repro.cim import CimConfig
from repro.serving import BatchScheduler, LoadMetrics, ModelRegistry
from repro.serving.faults import PoisonEngine

RNG = np.random.default_rng(17)


def _engine(seed=9):
    model = make_spindrop_mlp(12, (8,), 3, p=0.3, seed=2)
    return BayesianCim(model, CimConfig(seed=4), seed=seed)


class TestSharding:
    def test_requires_at_least_one_replica(self):
        with pytest.raises(ValueError):
            BatchScheduler([])

    def test_single_replica_equals_plain_scheduler(self):
        """With one replica sharding is the identity."""
        x1 = RNG.standard_normal((2, 12))
        x2 = RNG.standard_normal((3, 12))
        sharded = BatchScheduler([_engine(seed=5)], n_samples=4)
        plain = BatchScheduler(_engine(seed=5), n_samples=4)
        s1, s2 = sharded.submit(x1), sharded.submit(x2)
        p1, p2 = plain.submit(x1), plain.submit(x2)
        sharded.flush()
        plain.flush()
        np.testing.assert_array_equal(s1.result().samples,
                                      p1.result().samples)
        np.testing.assert_array_equal(s2.result().samples,
                                      p2.result().samples)

    def test_requests_never_straddle_replicas(self):
        """Each request's slice comes from exactly one replica: a
        seeded per-replica replay reproduces it bit-for-bit."""
        xs = [RNG.standard_normal((n, 12)) for n in (2, 3, 1, 2)]
        sharded = BatchScheduler([_engine(seed=5), _engine(seed=6)],
                                 n_samples=3)
        tickets = [sharded.submit(x) for x in xs]
        sharded.flush()
        assert sharded.stats.shard_calls == 2

        # Greedy row-balancing in arrival order: req0 (2 rows) -> r0,
        # req1 (3 rows) -> r1, req2 (1 row) -> r0, req3 (2 rows) -> r0.
        replica0 = _engine(seed=5).mc_forward_batched(
            np.concatenate([xs[0], xs[2], xs[3]]), n_samples=3)
        replica1 = _engine(seed=6).mc_forward_batched(
            xs[1], n_samples=3)
        np.testing.assert_array_equal(tickets[0].result().samples,
                                      replica0.samples[:, :2])
        np.testing.assert_array_equal(tickets[2].result().samples,
                                      replica0.samples[:, 2:3])
        np.testing.assert_array_equal(tickets[3].result().samples,
                                      replica0.samples[:, 3:])
        np.testing.assert_array_equal(tickets[1].result().samples,
                                      replica1.samples)

    def test_parallel_pool_resolves_all_requests(self):
        engines = [_engine(seed=s) for s in (5, 6, 7)]
        with BatchScheduler(engines, n_samples=2, max_batch=64) \
                as sharded:
            tickets = [sharded.submit(RNG.standard_normal((2, 12)))
                       for _ in range(9)]
            sharded.flush()
            for ticket in tickets:
                result = ticket.result()
                assert result.probs.shape == (2, 3)
                np.testing.assert_allclose(result.probs.sum(axis=-1), 1.0,
                                           rtol=1e-9)
        assert sharded.stats.shard_calls == 3
        assert sharded._pool is None          # closed with the scheduler

    def test_per_request_samples_compose_with_sharding(self):
        sharded = BatchScheduler([_engine(seed=5), _engine(seed=6)],
                                 n_samples=2)
        shallow = sharded.submit(RNG.standard_normal((2, 12)))
        deep = sharded.submit(RNG.standard_normal((2, 12)), n_samples=6)
        sharded.flush()
        assert shallow.result().samples.shape[0] == 2
        assert deep.result().samples.shape[0] == 6

    def test_row_balancing_spreads_load(self):
        sharded = BatchScheduler([_engine(seed=5), _engine(seed=6)],
                                 n_samples=2)
        for n in (4, 1, 1, 1, 1):
            sharded.submit(RNG.standard_normal((n, 12)))
        shards = sharded._partition(sharded._pending, sharded.n_replicas)
        rows = sorted(sum(r.x.shape[0] for r in shard) for shard in shards)
        assert rows == [4, 4]


class TestShardFailureIsolation:
    """Regression: a replica failure used to abort the whole flush,
    leaving *sibling* shards' tickets pending forever."""

    def test_poisoned_replica_fails_only_its_own_tickets(self):
        sharded = BatchScheduler([_engine(seed=5), PoisonEngine()],
                                 n_samples=3)
        # Greedy row balance: req0 (2 rows) -> replica0, req1 (3 rows)
        # -> poisoned replica1, req2 (1 row) -> replica0.
        ok1 = sharded.submit(RNG.standard_normal((2, 12)))
        bad = sharded.submit(RNG.standard_normal((3, 12)))
        ok2 = sharded.submit(RNG.standard_normal((1, 12)))
        sharded.flush()
        # Every ticket resolved — none left pending.
        assert ok1.done() and bad.done() and ok2.done()
        assert ok1.result().probs.shape == (2, 3)
        assert ok2.result().probs.shape == (1, 3)
        with pytest.raises(RuntimeError, match="boom"):
            bad.result()

    def test_failure_carries_the_original_traceback(self):
        sharded = BatchScheduler([_engine(seed=5), PoisonEngine()],
                                 n_samples=3)
        sharded.submit(RNG.standard_normal((2, 12)))
        bad = sharded.submit(RNG.standard_normal((3, 12)))
        sharded.submit(RNG.standard_normal((1, 12)))
        sharded.flush()
        with pytest.raises(RuntimeError) as excinfo:
            bad.result()
        frames = [f.name for f in excinfo.traceback]
        assert "mc_forward_batched" in frames    # the engine frame

    def test_scheduler_keeps_serving_after_a_shard_failure(self):
        sharded = BatchScheduler([_engine(seed=5), PoisonEngine()],
                                 n_samples=2)
        sharded.submit(RNG.standard_normal((2, 12)))
        bad = sharded.submit(RNG.standard_normal((3, 12)))
        sharded.flush()
        with pytest.raises(RuntimeError, match="boom"):
            bad.result()
        # Replace the poisoned replica; traffic resumes.
        assert sharded.remove_replica().__class__ is PoisonEngine
        sharded.add_replica(_engine(seed=6))
        later = sharded.submit(RNG.standard_normal((2, 12)))
        sharded.flush()
        assert later.result().probs.shape == (2, 3)


class TestServedLoadMetrics:
    """Load metrics book only what a flush group actually served."""

    def test_failed_shard_rows_are_not_booked(self):
        metrics = LoadMetrics()
        sharded = BatchScheduler([_engine(seed=5), PoisonEngine()],
                                 n_samples=3, metrics=metrics)
        # One 2-row request per replica; the poisoned replica's fails.
        ok = sharded.submit(RNG.standard_normal((2, 12)))
        bad = sharded.submit(RNG.standard_normal((2, 12)))
        sharded.flush()
        assert ok.result().probs.shape == (2, 3)
        with pytest.raises(RuntimeError, match="boom"):
            bad.result()
        snap = metrics.snapshot()
        assert (snap.flushes, snap.requests, snap.rows) == (1, 1, 2)
        assert snap.replica_rows == (2, 0)

    def test_group_that_served_nothing_is_not_recorded(self):
        metrics = LoadMetrics()
        registry = ModelRegistry()
        registry.register("bad", engine=PoisonEngine())
        sharded = BatchScheduler([PoisonEngine()], n_samples=3,
                                 registry=registry, metrics=metrics)
        tickets = [sharded.submit(RNG.standard_normal((2, 12))),
                   sharded.submit(RNG.standard_normal((2, 12)),
                                  model="bad")]
        sharded.flush()
        for ticket in tickets:
            with pytest.raises(RuntimeError, match="boom"):
                ticket.result()
        assert sharded.stats.flushes == 2
        assert metrics.snapshot().flushes == 0
        assert registry.metrics("bad").snapshot().flushes == 0
