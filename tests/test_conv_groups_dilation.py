"""``conv2d`` groups/dilation vs a naive nested-loop reference.

The grouped/dilated geometry feeds three consumers — the autograd
training path (through the memoized index plans), the ``no_grad``
inference kernel and the deployed :class:`repro.cim.CimConv2d` (both
through the strided-slice gather) — so the equivalence here is what
certifies all of them against one independent implementation.
"""

import numpy as np
import pytest

import repro.tensor.functional as F_mod
from repro import nn
from repro.tensor import Tensor, gradcheck, no_grad
from repro.tensor import functional as F

RNG = np.random.default_rng(77)


def naive_conv2d(x, w, stride=1, padding=0, dilation=1, groups=1):
    """Reference convolution: explicit loops, no im2col, no BLAS."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, _, h, wd = xp.shape
    c_out, c_in_pg, kh, kw = w.shape
    out_h = (h - (kh - 1) * dilation - 1) // stride + 1
    out_w = (wd - (kw - 1) * dilation - 1) // stride + 1
    cog = c_out // groups
    out = np.zeros((n, c_out, out_h, out_w))
    for nn_ in range(n):
        for o in range(c_out):
            g = o // cog
            for i in range(out_h):
                for j in range(out_w):
                    acc = 0.0
                    for ci in range(c_in_pg):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (xp[nn_, g * c_in_pg + ci,
                                           i * stride + u * dilation,
                                           j * stride + v * dilation]
                                        * w[o, ci, u, v])
                    out[nn_, o, i, j] = acc
    return out


# (stride, padding, dilation, groups, c_in, c_out, k, h, w) — odd
# shapes, grouped+dilated combined, depthwise, rectangular images.
CASES = [
    (1, 0, 1, 1, 3, 4, 3, 7, 7),
    (1, 1, 2, 1, 3, 4, 3, 9, 9),          # dilated
    (2, 1, 1, 2, 4, 6, 3, 8, 8),          # grouped, strided
    (1, 2, 2, 2, 4, 4, 3, 10, 10),        # grouped + dilated
    (1, 0, 3, 4, 4, 8, 2, 11, 9),         # heavy dilation, odd/rect
    (2, 2, 2, 3, 6, 9, 3, 13, 13),        # everything at once
    (1, 0, 1, 5, 5, 5, 3, 7, 7),          # depthwise (groups == C_in)
]


class TestAgainstNaive:
    @pytest.mark.parametrize(
        "stride,padding,dilation,groups,c_in,c_out,k,h,w", CASES)
    def test_train_path(self, stride, padding, dilation, groups,
                        c_in, c_out, k, h, w):
        x = RNG.standard_normal((2, c_in, h, w))
        wt = RNG.standard_normal((c_out, c_in // groups, k, k))
        ref = naive_conv2d(x, wt, stride, padding, dilation, groups)
        out = F.conv2d(Tensor(x, requires_grad=True), Tensor(wt),
                       stride=stride, padding=padding,
                       dilation=dilation, groups=groups)
        np.testing.assert_allclose(out.data, ref, atol=1e-10)

    @pytest.mark.parametrize(
        "stride,padding,dilation,groups,c_in,c_out,k,h,w", CASES)
    def test_no_grad_fast_path(self, stride, padding, dilation, groups,
                               c_in, c_out, k, h, w):
        x = RNG.standard_normal((2, c_in, h, w))
        wt = RNG.standard_normal((c_out, c_in // groups, k, k))
        ref = naive_conv2d(x, wt, stride, padding, dilation, groups)
        with no_grad():
            out = F.conv2d(Tensor(x), Tensor(wt), stride=stride,
                           padding=padding, dilation=dilation,
                           groups=groups)
        assert not out.requires_grad
        np.testing.assert_allclose(out.data, ref, atol=1e-8)

    def test_bias_applies_per_output_channel(self):
        x = RNG.standard_normal((2, 4, 6, 6))
        wt = RNG.standard_normal((6, 2, 3, 3))
        b = RNG.standard_normal(6)
        ref = naive_conv2d(x, wt, padding=1, groups=2) \
            + b.reshape(1, -1, 1, 1)
        out = F.conv2d(Tensor(x), Tensor(wt), Tensor(b), padding=1,
                       groups=2)
        np.testing.assert_allclose(out.data, ref, atol=1e-10)

    def test_exact_integer_route_grouped(self):
        """±1 kernels on ternary activations: the float32 inference
        route must equal the float64 training path bit-for-bit."""
        x = np.sign(RNG.standard_normal((3, 4, 9, 9)))
        x[RNG.random(x.shape) < 0.2] = 0.0      # dropout-style gating
        wt = np.sign(RNG.standard_normal((6, 2, 3, 3)))
        wt[wt == 0] = 1.0
        grad_out = F.conv2d(Tensor(x, requires_grad=True), Tensor(wt),
                            padding=1, dilation=2, groups=2)
        with no_grad():
            fast = F.conv2d(Tensor(x), Tensor(wt), padding=1,
                            dilation=2, groups=2)
        np.testing.assert_array_equal(fast.data, grad_out.data)


class TestGradients:
    @pytest.mark.parametrize("dilation,groups", [(2, 1), (1, 2), (2, 2)])
    def test_gradcheck(self, dilation, groups):
        x = Tensor(RNG.standard_normal((1, 2 * groups, 7, 7)),
                   requires_grad=True)
        w = Tensor(RNG.standard_normal((2 * groups, 2, 2, 2)),
                   requires_grad=True)
        b = Tensor(RNG.standard_normal(2 * groups), requires_grad=True)
        gradcheck(lambda xx, ww, bb: F.conv2d(
            xx, ww, bb, stride=1, padding=1, dilation=dilation,
            groups=groups), [x, w, b])

    def test_grouped_grads_match_per_group_convs(self):
        """Grouped backward equals running each group as its own conv."""
        x = RNG.standard_normal((2, 4, 8, 8))
        wt = RNG.standard_normal((6, 2, 3, 3))
        xt = Tensor(x, requires_grad=True)
        wtt = Tensor(wt, requires_grad=True)
        F.conv2d(xt, wtt, padding=1, groups=2).sum().backward()

        grads_x, grads_w = [], []
        for g in range(2):
            xg = Tensor(x[:, 2 * g:2 * (g + 1)], requires_grad=True)
            wg = Tensor(wt[3 * g:3 * (g + 1)], requires_grad=True)
            F.conv2d(xg, wg, padding=1).sum().backward()
            grads_x.append(xg.grad)
            grads_w.append(wg.grad)
        np.testing.assert_allclose(xt.grad, np.concatenate(grads_x, axis=1),
                                   atol=1e-10)
        np.testing.assert_allclose(wtt.grad, np.concatenate(grads_w, axis=0),
                                   atol=1e-10)


class TestValidation:
    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 3, 5, 5))),
                     Tensor(np.zeros((4, 2, 3, 3))), groups=2)

    def test_out_channels_not_divisible_rejected(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 4, 5, 5))),
                     Tensor(np.zeros((3, 2, 3, 3))), groups=2)

    def test_oversized_dilated_kernel_rejected(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 1, 4, 4))),
                     Tensor(np.zeros((1, 1, 3, 3))), dilation=2)


class TestLayerPlumbing:
    @pytest.mark.parametrize("layer_cls", [nn.Conv2d, nn.BinaryConv2d])
    def test_layer_forwards_groups_and_dilation(self, layer_cls):
        layer = layer_cls(4, 6, 3, padding=2, dilation=2, groups=2,
                          rng=np.random.default_rng(0))
        assert layer.weight.data.shape == (6, 2, 3, 3)
        out = layer(Tensor(RNG.standard_normal((2, 4, 10, 10))))
        assert out.shape == (2, 6, 10, 10)

    @pytest.mark.parametrize("layer_cls", [nn.Conv2d, nn.BinaryConv2d])
    def test_layer_rejects_indivisible_groups(self, layer_cls):
        with pytest.raises(ValueError):
            layer_cls(3, 4, 3, groups=2)

    def test_binary_infer_matches_train_path(self):
        layer = nn.BinaryConv2d(4, 4, 3, padding=1, dilation=2, groups=2,
                                binarize_input=True,
                                rng=np.random.default_rng(1))
        x = RNG.standard_normal((2, 4, 9, 9))
        train_out = layer(Tensor(x))
        with no_grad():
            infer_out = layer(Tensor(x))
        np.testing.assert_array_equal(infer_out.data, train_out.data)


class TestPlanCacheApi:
    def test_cache_helpers_are_public(self):
        assert "conv_plan_cache_stats" in F_mod.__all__
        assert "clear_conv_plan_cache" in F_mod.__all__
        stats = F.conv_plan_cache_stats()
        assert set(stats) == {"plans", "hits", "builds", "evictions"}

    def test_dilation_is_part_of_the_plan_key(self):
        # The training path gathers through index plans; the no_grad
        # kernel gathers by strided slices and builds none.
        F.clear_conv_plan_cache()
        x = Tensor(RNG.standard_normal((1, 1, 9, 9)))
        w = Tensor(RNG.standard_normal((1, 1, 3, 3)), requires_grad=True)
        F.conv2d(x, w)
        builds_plain = F.conv_plan_cache_stats()["builds"]
        F.conv2d(x, w, dilation=2)
        assert F.conv_plan_cache_stats()["builds"] > builds_plain
        # Warm re-runs of both geometries build nothing new.
        before = F.conv_plan_cache_stats()["builds"]
        F.conv2d(x, w)
        F.conv2d(x, w, dilation=2)
        with no_grad():
            F.conv2d(x, w)
            F.conv2d(x, w, dilation=2)
        assert F.conv_plan_cache_stats()["builds"] == before


def _take_gather(x, kh, kw, stride, padding, dilation):
    """The flat-index-plan ``np.take`` im2col gather: the reference
    layout for the strided-slice gather."""
    n, c, h0, w0 = x.shape
    h, w = h0 + 2 * padding, w0 + 2 * padding
    padded = np.zeros((c, h, w, n))
    padded[:, padding:h - padding, padding:w - padding] = x.transpose(
        1, 2, 3, 0)
    flat_idx = F_mod._flat_gather_indices(h, w, kh, kw, stride, dilation)
    return np.take(padded.reshape(c, h * w, n), flat_idx, axis=1)


class TestStridedGather:
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_slices_match_flat_plan_take(self, kernel, stride):
        checked = 0
        for padding in (0, 1, 2):
            for dilation in (1, 2, 3):
                span = (kernel - 1) * dilation + 1
                if span > 9 + 2 * padding:
                    with pytest.raises(ValueError):
                        F_mod._gather_padded_patches(
                            RNG.standard_normal((2, 3, 9, 11)), kernel,
                            kernel, stride, padding, dilation,
                            np.dtype(np.float64), tag="test")
                    continue
                # Twice per geometry: the second call reuses the
                # scratch slab and pad buffer.
                for _ in range(2):
                    x = RNG.standard_normal((2, 3, 9, 11))
                    slab, out_h, out_w = F_mod._gather_padded_patches(
                        x, kernel, kernel, stride, padding, dilation,
                        np.dtype(np.float64), tag="test")
                    ref = _take_gather(x, kernel, kernel, stride, padding,
                                       dilation)
                    assert out_h == (9 + 2 * padding - span) // stride + 1
                    assert out_w == (11 + 2 * padding - span) // stride + 1
                    np.testing.assert_array_equal(slab, ref)
                checked += 1
        assert checked

    def test_rectangular_kernel_and_float32(self):
        x = np.sign(RNG.standard_normal((3, 2, 7, 10)))
        slab, _, _ = F_mod._gather_padded_patches(
            x, 2, 4, 2, 1, 2, np.dtype(np.float32), tag="test")
        assert slab.dtype == np.float32
        np.testing.assert_array_equal(slab, _take_gather(x, 2, 4, 2, 1, 2))
