"""Plan-cache lifecycle under live serving.

``clear_conv_plan_cache()`` is a public maintenance hook (exported in
``repro.tensor.functional.__all__``): an operator may drop the
memoized im2col plans on a *running* service — e.g. after a workload
shift — while sharded replicas are mid-flush on their own threads.
Plans handed to in-flight forwards are immutable and stay referenced,
so clearing must never corrupt results: every flush concurrent with a
clear storm must stay bit-identical to an undisturbed run.
"""

import threading

import numpy as np

from repro.bayesian import SegmenterEngine, make_bayesian_segmenter
from repro.serving import BatchScheduler
from repro.tensor import functional as F
from repro.tensor.functional import (
    clear_conv_plan_cache,
    conv_plan_cache_stats,
)

RNG = np.random.default_rng(91)


def _requests(n=12, size=16):
    return [RNG.standard_normal((1, 1, size, size)) for _ in range(n)]


def _serve(xs, hammer_clears):
    """Serve ``xs`` through threaded sharded replicas; optionally run
    a concurrent thread that clears the conv-plan cache in a loop."""
    engines = [SegmenterEngine(make_bayesian_segmenter(width=4, seed=s))
               for s in (3, 4)]
    scheduler = BatchScheduler(engines, n_samples=3,
                               feature_shape=(1, 16, 16))
    stop = threading.Event()
    hammer = None
    if hammer_clears:
        def spin():
            while not stop.is_set():
                clear_conv_plan_cache()
        hammer = threading.Thread(target=spin)
        hammer.start()
    results = []
    try:
        for start in range(0, len(xs), 2):
            tickets = [scheduler.submit(x) for x in xs[start:start + 2]]
            scheduler.flush()
            results.extend(t.result().samples for t in tickets)
    finally:
        stop.set()
        if hammer is not None:
            hammer.join()
        scheduler.close()
    return results


class TestClearDuringServing:
    def test_clear_storm_does_not_corrupt_flushes(self):
        xs = _requests()
        clean = _serve(xs, hammer_clears=False)
        stormed = _serve(xs, hammer_clears=True)
        assert len(clean) == len(stormed) == len(xs)
        for a, b in zip(clean, stormed):
            np.testing.assert_array_equal(a, b)

    def test_cleared_cache_rebuilds_and_stays_consistent(self):
        x = RNG.standard_normal((1, 1, 16, 16))
        engine = SegmenterEngine(make_bayesian_segmenter(width=4, seed=6))
        warm = engine.mc_forward_batched(x, n_samples=2)
        clear_conv_plan_cache()
        assert conv_plan_cache_stats()["plans"] == 0
        engine2 = SegmenterEngine(make_bayesian_segmenter(width=4, seed=6))
        rebuilt = engine2.mc_forward_batched(x, n_samples=2)
        np.testing.assert_array_equal(warm.samples, rebuilt.samples)
        assert conv_plan_cache_stats()["builds"] > 0

    def test_concurrent_builders_share_one_cache(self):
        """Many threads racing cold lookups of the same geometry end
        with a usable cache and correct plans (no torn state)."""
        clear_conv_plan_cache()
        errors = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed)
                x = rng.standard_normal((1, 2, 9, 9))
                w = rng.standard_normal((3, 2, 3, 3))
                from repro.tensor import Tensor, no_grad
                with no_grad():
                    out = F.conv2d(Tensor(x), Tensor(w), padding=1,
                                   dilation=2).data
                # The training path gathers through the shared plans.
                ref = F.conv2d(Tensor(x), Tensor(w, requires_grad=True),
                               padding=1, dilation=2).data
                np.testing.assert_allclose(out, ref, atol=1e-8)
            except Exception as exc:       # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert conv_plan_cache_stats()["plans"] > 0
