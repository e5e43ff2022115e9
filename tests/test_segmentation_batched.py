"""Pass-stacked segmentation engine ≡ sequential loop, bit-for-bit.

The acceptance contract of the stacked engine: `mc_segment` must
reproduce the sequential per-pass loop exactly (probs and per-pass samples) for
every T/width/p; the im2col plan cache must serve warm engines with
zero index-plan rebuilds and never serve stale plans after a shape
change; the inference fast paths (conv, pooling, upsampling, sign,
batch-norm) must match the gradient path's forward bit-for-bit; the
schedulers must hand per-pixel results back per request; and
DropConnect — the last sequential-only stochastic layer — must now
run stacked, bit-identically.
"""

import numpy as np
import pytest

from repro import nn
from repro.bayesian import (
    SegmenterEngine,
    make_bayesian_segmenter,
    make_dropconnect_mlp,
    mc_predict,
    mc_segment,
    pixel_maps,
)
from repro.bayesian.spatial import SpatialSpinDropout
from repro.serving import BatchScheduler
from repro.tensor import Tensor, functional as F, no_grad
from repro.tensor.functional import (
    clear_conv_plan_cache,
    conv_plan_cache_stats,
)

RNG = np.random.default_rng(31)


def _pair(width=8, p=0.15, seed=5):
    """Two independently built but identically seeded segmenters."""
    return (make_bayesian_segmenter(width=width, p=p, seed=seed),
            make_bayesian_segmenter(width=width, p=p, seed=seed))


class TestBitExactEquivalence:
    @pytest.mark.parametrize("n_samples", [1, 4, 7])
    @pytest.mark.parametrize("width,p", [(4, 0.15), (8, 0.15), (8, 0.5)])
    def test_batched_matches_sequential(self, n_samples, width, p):
        a, b = _pair(width=width, p=p)
        x = RNG.standard_normal((2, 1, 16, 16))
        seq = mc_segment(a, x, n_samples=n_samples, batched=False)
        bat = mc_segment(b, x, n_samples=n_samples)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        np.testing.assert_array_equal(seq.probs, bat.probs)
        assert seq.served_samples == bat.served_samples == n_samples

    @pytest.mark.parametrize("batch", [1, 3])
    def test_batch_sizes(self, batch):
        a, b = _pair()
        x = RNG.standard_normal((batch, 1, 16, 16))
        seq = mc_segment(a, x, n_samples=5, batched=False)
        bat = mc_segment(b, x, n_samples=5)
        np.testing.assert_array_equal(seq.samples, bat.samples)

    def test_passes_vary(self):
        model = make_bayesian_segmenter(width=4, p=0.5, seed=0)
        x = RNG.standard_normal((2, 1, 16, 16))
        result = mc_segment(model, x, n_samples=6)
        assert result.samples.std(axis=0).max() > 0

    def test_vectorized_mask_draw_matches_sequential_stream(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        a = SpatialSpinDropout(8, p=0.3, ideal=True, rng=rng_a)
        b = SpatialSpinDropout(8, p=0.3, ideal=True, rng=rng_b)
        loop = np.stack([a.mc_draw_pass(3) for _ in range(5)])
        vec = b.mc_draw_passes(3, 5)
        np.testing.assert_array_equal(loop, vec)

    def test_vectorized_mask_draw_hardware_bank(self):
        a = SpatialSpinDropout(4, p=0.3, ideal=False,
                               rng=np.random.default_rng(9))
        b = SpatialSpinDropout(4, p=0.3, ideal=False,
                               rng=np.random.default_rng(9))
        loop = np.stack([a.mc_draw_pass(2) for _ in range(4)])
        vec = b.mc_draw_passes(2, 4)
        np.testing.assert_array_equal(loop, vec)
        assert a.modules_bank.total_ops == b.modules_bank.total_ops


class TestModeRestore:
    def test_mc_segment_restores_train_mode(self):
        model = make_bayesian_segmenter(width=4, seed=0)
        x = RNG.standard_normal((1, 1, 16, 16))
        model.train()
        mc_segment(model, x, n_samples=2)
        assert model.training and all(m.training for m in model.modules())
        model.eval()
        mc_segment(model, x, n_samples=2, batched=False)
        assert not model.training
        assert not any(m.training for m in model.modules())

    def test_mc_segment_leaves_mc_mode_off(self):
        model = make_bayesian_segmenter(width=4, seed=0)
        x = RNG.standard_normal((1, 1, 16, 16))
        mc_segment(model, x, n_samples=2)
        drop = [m for m in model.modules()
                if isinstance(m, SpatialSpinDropout)][0]
        assert not drop.mc_mode and drop._mc_bank is None

    def test_mc_predict_restores_train_mode(self):
        model = make_dropconnect_mlp(12, (8,), 3, seed=1)
        model.train()
        mc_predict(model, RNG.standard_normal((2, 12)), n_samples=2)
        assert model.training

    def test_restore_preserves_heterogeneous_modes(self):
        # A submodule deliberately pinned to eval (frozen BatchNorm
        # during fine-tuning) must come back frozen, not inherit the
        # root's training flag.
        model = make_bayesian_segmenter(width=4, seed=0)
        model.train()
        model[1].eval()                      # freeze first BatchNorm
        mc_segment(model, RNG.standard_normal((1, 1, 16, 16)),
                   n_samples=2)
        assert model.training
        assert not model[1].training


class TestPlanCache:
    def test_warm_engine_performs_zero_rebuilds(self):
        model = make_bayesian_segmenter(width=4, seed=0)
        x = RNG.standard_normal((2, 1, 16, 16))
        mc_segment(model, x, n_samples=3)     # warm
        before = conv_plan_cache_stats()["builds"]
        mc_segment(model, x, n_samples=3)
        stats = conv_plan_cache_stats()
        assert stats["builds"] == before
        assert stats["hits"] > 0

    def test_new_shape_builds_new_plan_and_stays_correct(self):
        # The training path gathers through index plans (the no_grad
        # conv kernel uses strided slices and builds none).
        clear_conv_plan_cache()
        w = Tensor(np.sign(RNG.standard_normal((3, 2, 3, 3))),
                   requires_grad=True)
        x_small = Tensor(RNG.standard_normal((1, 2, 8, 8)))
        x_large = Tensor(RNG.standard_normal((1, 2, 12, 12)))
        out_small = F.conv2d(x_small, w, padding=1).data
        builds_after_small = conv_plan_cache_stats()["builds"]
        out_large = F.conv2d(x_large, w, padding=1).data
        assert conv_plan_cache_stats()["builds"] > builds_after_small
        # No stale plans: recompute both against a cold cache.
        clear_conv_plan_cache()
        np.testing.assert_array_equal(
            F.conv2d(x_small, w, padding=1).data, out_small)
        np.testing.assert_array_equal(
            F.conv2d(x_large, w, padding=1).data, out_large)

    def test_cache_is_bounded(self):
        clear_conv_plan_cache()
        from repro.tensor.functional import _conv_plans
        with no_grad():
            for size in range(6, 6 + _conv_plans.max_plans + 8):
                x = Tensor(np.ones((1, 1, size, size)))
                F.max_pool2d(x, 2)
        assert conv_plan_cache_stats()["plans"] <= _conv_plans.max_plans
        assert conv_plan_cache_stats()["evictions"] > 0


class TestInferenceFastPaths:
    """no_grad fast paths must match the gradient path bit-for-bit."""

    def _grad_forward(self, fn, x):
        xt = Tensor(x, requires_grad=True)
        return fn(xt).data

    def test_max_pool_matches(self):
        x = RNG.standard_normal((2, 3, 8, 8))
        with no_grad():
            fast = F.max_pool2d(Tensor(x), 2).data
        np.testing.assert_array_equal(
            fast, self._grad_forward(lambda t: F.max_pool2d(t, 2), x))

    def test_max_pool_matches_on_sign_values(self):
        x = np.sign(RNG.standard_normal((2, 3, 8, 8)))
        with no_grad():
            fast = F.max_pool2d(Tensor(x), 2).data
        np.testing.assert_array_equal(
            fast, self._grad_forward(lambda t: F.max_pool2d(t, 2), x))

    def test_upsample_matches(self):
        x = RNG.standard_normal((2, 3, 5, 5))
        with no_grad():
            fast = F.upsample2d(Tensor(x), 2).data
        np.testing.assert_array_equal(
            fast, self._grad_forward(lambda t: F.upsample2d(t, 2), x))

    def test_conv_binary_route_is_bit_exact(self):
        # ±1 kernel on {−1, 0, 1} activations: integer-exact sums, so
        # the float32 inference route matches the training path
        # bit-for-bit.
        x = np.sign(RNG.standard_normal((2, 3, 9, 9)))
        x[0, 0, 0, 0] = 0.0
        w = np.sign(RNG.standard_normal((4, 3, 3, 3)))
        with no_grad():
            fast = F.conv2d(Tensor(x), Tensor(w), padding=1).data
        ref = self._grad_forward(
            lambda t: F.conv2d(t, Tensor(w, requires_grad=True),
                               padding=1), x)
        np.testing.assert_array_equal(fast, ref)

    def test_conv_float_route_matches_to_rounding(self):
        # Real-valued data keeps float64 GEMMs; the single-GEMM
        # inference layout may regroup the reduction, so agreement
        # with the einsum training path is to rounding (1–2 ulp), not
        # bitwise.  Sequential-vs-batched MC parity is unaffected:
        # both run this same kernel.
        x = RNG.standard_normal((2, 3, 9, 9))
        w = RNG.standard_normal((4, 3, 3, 3))
        with no_grad():
            fast = F.conv2d(Tensor(x), Tensor(w), padding=1).data
        ref = self._grad_forward(
            lambda t: F.conv2d(t, Tensor(w, requires_grad=True),
                               padding=1), x)
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-12)

    def test_conv_strided_no_padding(self):
        x = np.sign(RNG.standard_normal((2, 2, 10, 10)))
        w = np.sign(RNG.standard_normal((3, 2, 3, 3)))
        with no_grad():
            fast = F.conv2d(Tensor(x), Tensor(w), stride=2).data
        ref = self._grad_forward(
            lambda t: F.conv2d(t, Tensor(w, requires_grad=True), stride=2),
            x)
        np.testing.assert_array_equal(fast, ref)

    def test_batchnorm_eval_matches(self):
        bn = nn.BatchNorm2d(3)
        bn.update_buffer("running_mean", RNG.standard_normal(3))
        bn.update_buffer("running_var", RNG.random(3) + 0.5)
        bn.gamma.data = RNG.standard_normal(3)
        bn.beta.data = RNG.standard_normal(3)
        bn.eval()
        x = RNG.standard_normal((2, 3, 4, 4))
        with no_grad():
            fast = bn(Tensor(x)).data
        ref = bn(Tensor(x, requires_grad=True)).data
        np.testing.assert_array_equal(fast, ref)

    def test_sign_matches(self):
        x = RNG.standard_normal((5, 7))
        with no_grad():
            fast = F.sign_ste(Tensor(x)).data
        np.testing.assert_array_equal(
            fast, self._grad_forward(F.sign_ste, x))

    def test_binary_conv_layer_matches(self):
        conv = nn.BinaryConv2d(3, 4, 3, padding=1,
                               rng=np.random.default_rng(2))
        conv.eval()
        x = RNG.standard_normal((2, 3, 8, 8))
        with no_grad():
            fast = conv(Tensor(x)).data
        ref = conv(Tensor(x, requires_grad=True)).data
        np.testing.assert_array_equal(fast, ref)

    def test_gradients_still_flow(self):
        conv = nn.BinaryConv2d(2, 3, 3, padding=1,
                               rng=np.random.default_rng(3))
        out = conv(Tensor(RNG.standard_normal((1, 2, 6, 6)),
                          requires_grad=True))
        out.sum().backward()
        assert conv.weight.grad is not None


class TestPerPixelServing:
    def _engine(self, seed=7):
        return SegmenterEngine(make_bayesian_segmenter(width=4, seed=seed))

    def test_round_trip_shapes(self):
        scheduler = BatchScheduler(self._engine(), n_samples=4,
                                   feature_shape=(1, 16, 16))
        ticket = scheduler.submit(RNG.standard_normal((2, 1, 16, 16)))
        result = ticket.result()
        assert result.samples.shape == (4, 2 * 256, 3)
        assert result.probs.shape == (2 * 256, 3)
        pred, entropy = pixel_maps(result, (2, 16, 16))
        assert pred.shape == entropy.shape == (2, 16, 16)

    def test_coalesced_equals_direct_slices(self):
        x1 = RNG.standard_normal((2, 1, 16, 16))
        x2 = RNG.standard_normal((3, 1, 16, 16))
        scheduler = BatchScheduler(self._engine(seed=9), n_samples=4,
                                   feature_shape=(1, 16, 16))
        t1, t2 = scheduler.submit(x1), scheduler.submit(x2)
        scheduler.flush()
        direct = self._engine(seed=9).mc_forward_batched(
            np.concatenate([x1, x2]), n_samples=4)
        np.testing.assert_array_equal(t1.result().samples,
                                      direct.samples[:, :2 * 256])
        np.testing.assert_array_equal(t2.result().samples,
                                      direct.samples[:, 2 * 256:])

    def test_single_unbatched_image(self):
        scheduler = BatchScheduler(self._engine(), n_samples=3,
                                   feature_shape=(1, 16, 16))
        ticket = scheduler.submit(RNG.standard_normal((1, 16, 16)))
        assert ticket.result().probs.shape == (256, 3)

    def test_sharded_per_pixel(self):
        engines = [self._engine(seed=s) for s in (1, 2)]
        scheduler = BatchScheduler(engines, n_samples=3,
                                   feature_shape=(1, 16, 16))
        a = scheduler.submit(RNG.standard_normal((2, 1, 16, 16)))
        b = scheduler.submit(RNG.standard_normal((1, 1, 16, 16)))
        scheduler.flush()
        assert a.result().probs.shape == (2 * 256, 3)
        assert b.result().probs.shape == (256, 3)
        assert scheduler.stats.shard_calls == 2

    def test_no_grad_is_thread_local(self):
        # A serving thread inside no_grad must not disable (or
        # re-enable) gradient tracking for a concurrently training
        # thread — the flag is per-thread.
        import threading
        from repro.tensor import is_grad_enabled

        seen = {}
        release = threading.Event()

        def worker():
            with no_grad():
                seen["worker"] = is_grad_enabled()
                release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            while "worker" not in seen:
                pass
            assert is_grad_enabled()          # main thread unaffected
            out = F.mul(Tensor(np.ones(3), requires_grad=True), 2.0)
            assert out.requires_grad
        finally:
            release.set()
            thread.join()
        assert seen["worker"] is False

    def test_sharded_parallel_threads(self):
        # Replica calls run on a thread pool; the conv scratch arenas
        # are thread-local, so concurrent stacked forwards never share
        # a buffer.
        engines = [self._engine(seed=s) for s in (1, 2, 3)]
        with BatchScheduler(engines, n_samples=3,
                            feature_shape=(1, 16, 16)) as scheduler:
            tickets = [scheduler.submit(RNG.standard_normal((2, 1, 16, 16)))
                       for _ in range(3)]
            scheduler.flush()
            for ticket in tickets:
                result = ticket.result()
                assert result.probs.shape == (2 * 256, 3)
                np.testing.assert_allclose(
                    result.probs.sum(axis=-1), 1.0, rtol=1e-9)


class TestDropConnectStacked:
    @pytest.mark.parametrize("ideal", [True, False])
    def test_batched_matches_sequential(self, ideal):
        x = RNG.standard_normal((4, 12))
        a = make_dropconnect_mlp(12, (8, 6), 3, p=0.2, ideal_rng=ideal,
                                 seed=4)
        b = make_dropconnect_mlp(12, (8, 6), 3, p=0.2, ideal_rng=ideal,
                                 seed=4)
        seq = mc_predict(a, x, n_samples=5, batched=False)
        bat = mc_predict(b, x, n_samples=5, batched=True)
        np.testing.assert_array_equal(seq.samples, bat.samples)

    def test_banks_cleared_after_run(self):
        from repro.bayesian.dropconnect import DropConnectLinear
        model = make_dropconnect_mlp(12, (8,), 3, seed=2)
        mc_predict(model, RNG.standard_normal((2, 12)), n_samples=3)
        for layer in model.modules():
            if isinstance(layer, DropConnectLinear):
                assert layer._mc_bank is None

    def test_bank_row_mismatch_raises(self):
        from repro.bayesian.dropconnect import DropConnectLinear
        layer = DropConnectLinear(4, 3, p=0.2,
                                  rng=np.random.default_rng(0))
        layer.eval()
        layer.enable_mc(True)
        layer.mc_install_bank(np.ones((2, 3, 4)), rows_per_pass=2)
        with pytest.raises(ValueError):
            with no_grad():
                layer(Tensor(RNG.standard_normal((3, 4))))
        layer.mc_clear_bank()


class TestGroupedDropoutConvFusion:
    """The dropout→conv partial-sum fusion generalized to groups > 1."""

    @staticmethod
    def _grouped_pair(groups, width=8, n_classes=3, p=0.2, seed=7):
        from repro.bayesian import Upsample2d

        def make():
            rng = np.random.default_rng(seed)
            return nn.Sequential(
                nn.BinaryConv2d(1, width, 3, padding=1, rng=rng,
                                binarize_input=True),
                nn.BatchNorm2d(width),
                nn.SignActivation(),
                nn.MaxPool2d(2),
                SpatialSpinDropout(width, p=p, ideal=True, rng=rng),
                nn.BinaryConv2d(width, 2 * width, 3, padding=1, rng=rng,
                                groups=groups),
                nn.BatchNorm2d(2 * width),
                nn.SignActivation(),
                Upsample2d(2),
                nn.BinaryConv2d(2 * width, n_classes, 3, padding=1,
                                rng=rng),
            )

        a, b = make(), make()
        a.eval()
        b.eval()
        return a, b

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_grouped_fusion_is_bit_exact(self, groups):
        a, b = self._grouped_pair(groups)
        x = np.random.default_rng(0).standard_normal((3, 1, 16, 16))
        bat = mc_segment(a, x, n_samples=6, batched=True)
        seq = mc_segment(b, x, n_samples=6, batched=False)
        np.testing.assert_array_equal(bat.samples, seq.samples)
        np.testing.assert_array_equal(bat.probs, seq.probs)

    def test_grouped_plan_engages(self, monkeypatch):
        # The grouped model must take the fused mask×partials route,
        # not silently fall back to per-pass convolution.
        from repro.bayesian import segmentation as seg

        calls = []
        orig = seg._channel_gated_conv

        def counting(suffix, modules, banks, base):
            out = orig(suffix, modules, banks, base)
            calls.append(out is not None)
            return out

        monkeypatch.setattr(seg, "_channel_gated_conv", counting)
        a, _ = self._grouped_pair(groups=4)
        mc_segment(a, np.random.default_rng(1).standard_normal(
            (2, 1, 16, 16)), n_samples=4, batched=True)
        assert calls == [True]

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_fused_conv_matches_masked_stack(self, groups):
        # Each group's partials contracted with its own mask slice give
        # the dropout layer's masked pass-stack through the conv, bit
        # for bit.
        from repro.bayesian.segmentation import _channel_gated_conv

        a, _ = self._grouped_pair(groups=groups, width=8)
        layers = list(a)
        idx = next(i for i, layer in enumerate(layers)
                   if isinstance(layer, SpatialSpinDropout))
        drop, conv = layers[idx], layers[idx + 1]
        rng = np.random.default_rng(2)
        base = np.sign(rng.standard_normal((2, 8, 8, 8)))
        base[0, 3, 2, 2] = 0.0
        bank = (rng.random((5, 2, 8)) < 0.7).astype(np.float64)
        fused = _channel_gated_conv(layers[idx:], [drop], [bank], base)
        drop.enable_mc(True)
        drop.mc_install_bank(bank, 2)
        try:
            with no_grad():
                stacked = np.broadcast_to(base[None], (5,) + base.shape)
                expected = conv(drop(Tensor(
                    stacked.reshape((10,) + base.shape[1:])))).data
        finally:
            drop.mc_clear_bank()
            drop.enable_mc(False)
        assert fused.shape == (10, 16, 8, 8)
        np.testing.assert_array_equal(fused, expected)


class TestSegmenterEngineApi:
    def test_engine_exposes_both_paths(self):
        engine = SegmenterEngine(make_bayesian_segmenter(width=4, seed=3))
        x = RNG.standard_normal((1, 1, 16, 16))
        bat = engine.mc_forward_batched(x, n_samples=3)
        assert bat.samples.shape == (3, 256, 3)
        engine2 = SegmenterEngine(make_bayesian_segmenter(width=4, seed=3))
        seq = engine2.mc_forward(x, n_samples=3, batched=False)
        np.testing.assert_array_equal(seq.samples, bat.samples)

    def test_rejects_non_image_input(self):
        engine = SegmenterEngine(make_bayesian_segmenter(width=4, seed=3))
        with pytest.raises(ValueError):
            engine.mc_forward_batched(RNG.standard_normal((2, 16)),
                                      n_samples=2)
