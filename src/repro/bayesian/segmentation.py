"""Bayesian semantic segmentation (the §III-B.2 segmentation tasks).

A compact binary encoder–decoder: two conv blocks downsample, two
upsample stages restore resolution, and a 1×1 binary conv head emits
per-pixel class logits.  Spatial-SpinDrop between the encoder blocks
makes it Bayesian — T forward passes give a per-pixel predictive
distribution whose entropy is the uncertainty *map* the safety-
critical applications consume (flagging unknown objects pixel-wise).

Inference runs through the **pass-stacked engine** by default:
:func:`mc_segment` pre-draws every stochastic layer's T per-pass
spatial mask banks in sequential RNG order and evaluates all passes as
one ``(T·N, C, H, W)`` tensor, so one prediction costs a handful of
ndarray ops instead of T Python-level decoder walks — and every
conv/pool forward inside it reuses the memoized im2col index plans in
:mod:`repro.tensor.functional`.  Outputs are bit-for-bit identical to
the sequential loop (``batched=False``).

Training uses per-pixel cross-entropy; see
:func:`segmentation_loss` / :func:`repro.uncertainty.metrics.mean_iou`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.bayesian.base import (
    PredictiveResult,
    _enter_mc_eval,
    _exit_mc_eval,
    _mc_draw_banks,
    _run_layers,
    _stacked_plan,
)
from repro.bayesian.spatial import SpatialSpinDropout
from repro.nn.layers import Upsample2d
from repro.tensor import Tensor, functional as F, no_grad
from repro.tensor.functional import (
    _im2col_indices,
    _is_exact_ternary,
    _softmax_np,
)

__all__ = [
    "Upsample2d",
    "SegmenterEngine",
    "make_bayesian_segmenter",
    "mc_segment",
    "pixel_maps",
    "segmentation_loss",
]


def make_bayesian_segmenter(in_channels: int = 1, n_classes: int = 3,
                            width: int = 8, p: float = 0.15,
                            seed: Optional[int] = None) -> nn.Sequential:
    """Binary Bayesian encoder–decoder for per-pixel classification.

    enc: conv(→w) → BN → sign → pool → [SpatialSpinDrop] →
         conv(→2w) → BN → sign → pool
    dec: up ×2 → conv(→w) → BN → sign → up ×2 → conv(→classes)
    """
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.BinaryConv2d(in_channels, width, 3, padding=1, rng=rng,
                        binarize_input=True),
        nn.BatchNorm2d(width),
        nn.SignActivation(),
        nn.MaxPool2d(2),
        SpatialSpinDropout(width, p=p, ideal=True, rng=rng),
        nn.BinaryConv2d(width, 2 * width, 3, padding=1, rng=rng),
        nn.BatchNorm2d(2 * width),
        nn.SignActivation(),
        nn.MaxPool2d(2),
        Upsample2d(2),
        nn.BinaryConv2d(2 * width, width, 3, padding=1, rng=rng),
        nn.BatchNorm2d(width),
        nn.SignActivation(),
        Upsample2d(2),
        nn.BinaryConv2d(width, n_classes, 3, padding=1, rng=rng),
    )


def segmentation_loss(logits: Tensor, masks: np.ndarray) -> Tensor:
    """Mean per-pixel cross-entropy.

    ``logits`` (N, C, H, W), ``masks`` (N, H, W) integer labels.
    """
    n, c, h, w = logits.shape
    flat = F.reshape(F.transpose(logits, (0, 2, 3, 1)), (n * h * w, c))
    return F.softmax_cross_entropy(flat, np.asarray(masks).reshape(-1))


def mc_segment(model: nn.Module, images: np.ndarray,
               n_samples: int = 10, batched: bool = True) -> PredictiveResult:
    """Monte-Carlo per-pixel predictive distribution.

    Returns a :class:`PredictiveResult` whose ``probs`` has shape
    (N·H·W, C) — reshape with :func:`pixel_maps` for visualization.

    ``batched=True`` (default) is the pass-stacked engine: it pre-draws
    every stochastic layer's T per-pass mask banks in sequential RNG
    order (pass-major across the model's layers — the order T
    sequential forwards would draw in), installs them as per-row banks,
    and pushes one ``(T·N, C, H, W)`` pass-stack through the model,
    paying the Python-level layer walk and im2col plan lookups once
    instead of T times.  Models containing a stochastic layer without
    per-row bank support — and ``batched=False`` — run the sequential
    per-pass loop.  Both strategies draw the per-pass randomness in the
    same stream order, so the outputs (probs and per-pass samples) are
    bit-for-bit identical either way.  The model's train/eval mode is
    restored on return.
    """
    state = _enter_mc_eval(model)
    try:
        if batched:
            result = _mc_segment_stacked(model, images, n_samples)
            if result is not None:
                return result
        samples = []
        with no_grad():
            for _ in range(n_samples):
                logits = model(Tensor(images)).data      # (N, C, H, W)
                n, c, h, w = logits.shape
                probs = _softmax_np(
                    logits.transpose(0, 2, 3, 1).reshape(-1, c), axis=-1)
                samples.append(probs)
        return PredictiveResult.from_samples(np.stack(samples))
    finally:
        _exit_mc_eval(model, state)


def _mc_segment_stacked(model: nn.Module, images: np.ndarray,
                        n_samples: int) -> Optional[PredictiveResult]:
    """Stacked evaluation of all T segmentation passes; None if
    unsupported.

    Mirrors :func:`repro.bayesian.base._mc_predict_stacked`, with the
    segmentation-specific output handling: per-pass ``(N, C, H, W)``
    logits flatten to ``(N·H·W, C)`` pixel rows before the softmax,
    exactly as the sequential loop does per pass.
    """
    x = np.asarray(images, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"mc_segment expects (N, C, H, W) images; "
                         f"got shape {x.shape}")
    n = x.shape[0]
    # Decide support BEFORE consuming any randomness, so an aborted
    # stacked attempt leaves the RNG streams untouched for the
    # sequential fallback (bit-for-bit parity).
    _, modules, supported, prefix, suffix = _stacked_plan(model)
    if not supported:
        return None
    banks = _mc_draw_banks(modules, n, n_samples)
    try:
        with no_grad():
            # The encoder stage before the first Spatial-SpinDrop is
            # pass-invariant: evaluate it once on the raw images and
            # broadcast across the pass-stack.
            base = _run_layers(prefix, x)
            for module, bank in zip(modules, banks):
                module.mc_install_bank(bank, n)
            stacked = _channel_gated_conv(suffix, modules, banks, base)
            if stacked is None:
                stacked = np.broadcast_to(
                    base[None], (n_samples,) + base.shape).reshape(
                        (n_samples * n,) + base.shape[1:])
            else:
                suffix = suffix[2:]
            logits = _run_layers(suffix, stacked)      # (T·N, C, H, W)
            _, c, h, w = logits.shape
            pixel_rows = logits.reshape(n_samples, n, c, h, w).transpose(
                0, 1, 3, 4, 2).reshape(n_samples, n * h * w, c)
            # In-place softmax on the fresh pixel-row copy: the same
            # sub/exp/div sequence as _softmax_np, without its three
            # temporaries.
            pixel_rows -= pixel_rows.max(axis=-1, keepdims=True)
            np.exp(pixel_rows, out=pixel_rows)
            pixel_rows /= pixel_rows.sum(axis=-1, keepdims=True)
    finally:
        for module in modules:
            module.mc_clear_bank()
    return PredictiveResult.from_samples(pixel_rows)


def _channel_gated_conv(suffix, modules, banks, base: np.ndarray
                        ) -> Optional[np.ndarray]:
    """Run a leading [SpatialSpinDrop → BinaryConv2d] pair of
    ``suffix`` as per-channel partial convolutions.

    Spatial dropout gates whole input feature maps, and convolution is
    linear over them: ``conv(x ⊙ m) = Σ_c m[c] · conv(x_c)``.  The
    per-channel partials ``conv(x_c)`` are pass-invariant, so they are
    computed once from ``base`` and every MC pass reduces to a
    mask-weighted sum over the dropout layer's ``(T, N, C)`` bank — the
    software mirror of the paper's wordline gating, where a dropped
    feature map's crossbar rows simply never fire.  Grouped kernels
    decompose the same way *within* each group (output-channel block g
    sums only its own group's input maps), so each group's mask slice
    is contracted against its own partials.  Exactness: with ±1 kernels
    and {−1, 0, +1} activations all partial sums are small integers, so
    the regrouped summation (and its float32 storage) is bit-identical
    to the fused GEMM the sequential loop runs.

    Returns the conv's ``(T·N, C_out, H', W')`` output, scaled and
    biased exactly as its inference forward does, or None when the
    suffix does not start with the gated pair (or the activations are
    not exact-integer, where regrouping could round differently).
    """
    from repro.nn.binary import BinaryConv2d

    if len(suffix) < 2:
        return None
    drop, conv = suffix[0], suffix[1]
    if not isinstance(drop, SpatialSpinDropout) or drop not in modules:
        return None
    if not isinstance(conv, BinaryConv2d) or conv.binarize_input:
        return None
    if not _is_exact_ternary(base):
        return None
    bank = banks[modules.index(drop)]
    passes = bank.shape[0]
    n, c, h0, w0 = base.shape
    groups = conv.groups
    c_per = c // groups
    o_per = conv.out_channels // groups
    kh = kw = conv.kernel_size
    pad = conv.padding
    h, w = h0 + 2 * pad, w0 + 2 * pad
    padded = np.zeros((n, c, h, w), dtype=np.float32)
    padded[:, :, pad:h - pad, pad:w - pad] = base
    rows, cols_idx, out_h, out_w = _im2col_indices(h, w, kh, kw, conv.stride,
                                                   conv.dilation)
    w_bin = np.where(conv.weight.data >= 0, np.float32(1), np.float32(-1))
    w_bin = w_bin.reshape(conv.out_channels, c_per, kh * kw)
    blocks = []
    for g in range(groups):
        maps = slice(g * c_per, (g + 1) * c_per)
        # (N, C/G, KH·KW, L) patches of this group's input maps ×
        # (C/G, O/G, KH·KW) kernels → (N, C/G, O/G, L) partials.
        patches = padded[:, maps, rows, cols_idx]
        w_g = np.ascontiguousarray(
            w_bin[g * o_per:(g + 1) * o_per].transpose(1, 0, 2))
        partials = np.matmul(w_g[None], patches)
        masks = bank[:, :, maps].reshape(
            passes, n, 1, c_per).astype(np.float32)
        out_g = np.matmul(masks, partials.reshape(n, c_per, -1))
        blocks.append(out_g.reshape(passes, n, o_per, out_h, out_w))
    out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=2)
    out = out.astype(np.float64).reshape(
        passes * n, conv.out_channels, out_h, out_w)
    if conv.scale is not None:
        out *= conv.scale.data.reshape(1, -1, 1, 1)
    if conv.bias is not None:
        out += conv.bias.data.reshape(1, -1, 1, 1)
    return out


class SegmenterEngine:
    """Serving adapter: a Bayesian segmenter as a batched MC engine.

    Exposes the ``mc_forward_batched(x, n_samples=...)`` contract the
    schedulers expect, returning the *per-pixel* predictive
    distribution — ``samples`` has shape (T, N·H·W, C), so each input
    image contributes H·W result rows.  The schedulers detect that
    expansion and hand every request back exactly its own pixels;
    construct them with ``feature_shape=(C, H, W)`` so image-shaped
    requests coalesce:

    >>> engine = SegmenterEngine(make_bayesian_segmenter(seed=0))
    >>> scheduler = BatchScheduler(engine, feature_shape=(1, 16, 16))
    >>> maps = pixel_maps(scheduler.submit(images).result(),
    ...                   (len(images), 16, 16))
    """

    def __init__(self, model: nn.Module):
        self.model = model

    def mc_forward_batched(self, x: np.ndarray, n_samples: int = 10
                           ) -> PredictiveResult:
        """Pass-stacked MC segmentation in the scheduler contract.

        Parameters
        ----------
        x:
            Images, shape ``(N, C, H, W)``.
        n_samples:
            Monte-Carlo passes T.

        Returns
        -------
        PredictiveResult
            Per-*pixel* distribution: ``samples`` is
            ``(T, N·H·W, C)``, i.e. H·W result rows per input image.
        """
        return mc_segment(self.model, x, n_samples=n_samples)

    def mc_forward(self, x: np.ndarray, n_samples: int = 10,
                   batched: bool = True) -> PredictiveResult:
        """Like :meth:`mc_forward_batched`, with an escape hatch.

        ``batched=False`` runs the sequential per-pass loop instead
        of the stacked engine — same results bit for bit, useful for
        cross-checking.  Arguments and return shape otherwise match
        :meth:`mc_forward_batched`.
        """
        return mc_segment(self.model, x, n_samples=n_samples,
                          batched=batched)


def pixel_maps(result: PredictiveResult, image_shape: tuple):
    """Reshape a per-pixel result into per-image maps.

    Parameters
    ----------
    result:
        A segmentation :class:`PredictiveResult` whose rows are
        pixels (as produced by :func:`mc_segment` or a scheduler
        serving a :class:`SegmenterEngine`).
    image_shape:
        ``(N, H, W)`` — the batch and spatial dims to restore.

    Returns
    -------
    (predictions, entropy):
        ``(N, H, W)`` integer class map and ``(N, H, W)`` predictive
        entropy map (the paper's unknown-object detector).
    """
    n, h, w = image_shape
    predictions = result.predictions.reshape(n, h, w)
    entropy = result.predictive_entropy.reshape(n, h, w)
    return predictions, entropy
