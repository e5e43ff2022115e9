"""Binary (±1-weight) layers for spintronic deployment.

The NeuSpin methods are built on binary Bayesian NNs (BinBayNN,
Sec. III-A.1): MTJs have exactly two stable states (P/AP), so the
weights stored in the crossbar must be ±1 and the MAC becomes an XNOR/
popcount.  Training keeps latent full-precision weights and binarizes
through a straight-through estimator on each forward pass; a learned
per-layer (or per-output-channel) *scale* restores dynamic range —
that scale vector is exactly the object SpinScaleDrop and Bayesian
subset-parameter inference make stochastic.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.tensor import Tensor, functional as F, is_grad_enabled
from repro.tensor.functional import _conv2d_infer
from repro.nn.module import Module, Parameter


class BinaryLinear(Module):
    """Linear layer with sign-binarized weights and a learnable scale.

    Forward: ``y = (x · sign(W)^T) * alpha + b`` where ``alpha`` is a
    per-output-feature positive scale.  ``sign`` uses the hard-tanh STE
    (see :func:`repro.tensor.functional.sign_ste`).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 scale: bool = True, binarize_input: bool = False,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.binarize_input = binarize_input
        bound = math.sqrt(6.0 / in_features)
        self.weight = Parameter(
            rng.uniform(-bound, bound, size=(out_features, in_features)))
        self.scale = Parameter(np.ones(out_features)) if scale else None
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def binary_weight(self) -> Tensor:
        return F.sign_ste(self.weight)

    def forward(self, x: Tensor) -> Tensor:
        if self.binarize_input:
            x = F.sign_ste(x)
        out = F.matmul(x, F.transpose(self.binary_weight()))
        if self.scale is not None:
            out = out * self.scale
        if self.bias is not None:
            out = out + self.bias
        return out


class BinaryConv2d(Module):
    """Convolution with sign-binarized kernels and per-channel scale.

    Supports ``groups`` / ``dilation`` like :class:`repro.nn.Conv2d`;
    the deployed :class:`repro.cim.CimConv2d` mirrors both (grouped
    kernels map to independent crossbar grids, dilation only changes
    the im2col plan feeding the wordlines).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 scale: bool = True, binarize_input: bool = False,
                 dilation: int = 1, groups: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        if in_channels % groups or out_channels % groups:
            raise ValueError("in_channels and out_channels must be "
                             "divisible by groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.groups = groups
        self.binarize_input = binarize_input
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        bound = math.sqrt(6.0 / fan_in)
        self.weight = Parameter(rng.uniform(
            -bound, bound,
            size=(out_channels, in_channels // groups,
                  kernel_size, kernel_size)))
        self.scale = Parameter(np.ones(out_channels)) if scale else None
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def binary_weight(self) -> Tensor:
        return F.sign_ste(self.weight)

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            return Tensor(self._forward_infer(x.data))
        if self.binarize_input:
            x = F.sign_ste(x)
        out = F.conv2d(x, self.binary_weight(), bias=None,
                       stride=self.stride, padding=self.padding,
                       dilation=self.dilation, groups=self.groups)
        if self.scale is not None:
            out = out * F.reshape(self.scale, (1, -1, 1, 1))
        if self.bias is not None:
            out = out + F.reshape(self.bias, (1, -1, 1, 1))
        return out

    def _forward_infer(self, x: np.ndarray) -> np.ndarray:
        """No-tape forward: same op sequence on raw ndarrays (scale
        and bias applied in place on the fresh conv output), feeding
        the inference conv kernel directly — bit-identical to the
        Tensor path, minus its allocations."""
        if self.binarize_input:
            x = np.where(x >= 0, 1.0, -1.0)
        w = np.where(self.weight.data >= 0, 1.0, -1.0)
        out = _conv2d_infer(x, w, None, self.stride, self.padding,
                            self.dilation, self.groups)
        if self.scale is not None:
            out *= self.scale.data.reshape(1, -1, 1, 1)
        if self.bias is not None:
            out += self.bias.data.reshape(1, -1, 1, 1)
        return out


def clip_latent_weights(module: Module, bound: float = 1.0) -> None:
    """Clamp latent weights of all binary layers into [-bound, bound].

    Standard BinaryNet trick: keeps latent weights inside the STE
    window so gradients never die permanently.  Call after each
    optimizer step.
    """
    for sub in module.modules():
        if isinstance(sub, (BinaryLinear, BinaryConv2d)):
            np.clip(sub.weight.data, -bound, bound, out=sub.weight.data)
