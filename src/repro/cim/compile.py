"""Compile a trained :mod:`repro.nn` model to a deployed CIM network.

``compile_to_cim`` walks a :class:`~repro.nn.Sequential` model,
converting every layer into its deployed equivalent:

=====================  =========================================
trained layer          deployed stage
=====================  =========================================
BinaryLinear           CimLinear (XNOR crossbars + ADC + scale)
BinaryConv2d           CimConv2d (mapping plan per Fig. 1)
BatchNorm1d/2d         FrozenNorm (running statistics, digital)
InvertedNorm           FrozenNorm (inverted order)
ReLU / HardTanh        DigitalReLU / DigitalSign
Tanh                   DigitalSign (binary regime)
MaxPool2d              DigitalMaxPool
Flatten                DigitalFlatten
Dropout (any kind)     skipped — stochastic masks are re-applied
                       by the Bayesian wrapper at inference time
=====================  =========================================

Deployment is where non-idealities enter: the config's variability,
defects and ADC resolution are applied when each crossbar is
programmed.  Compiling the same trained model twice with different
configs is how the fault-injection / self-healing experiments (C4)
compare ideal vs. faulty deployments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.cim.layers import (
    CimConfig,
    CimConv2d,
    CimLayer,
    CimLinear,
    CimNetwork,
    DigitalFlatten,
    DigitalMaxPool,
    DigitalReLU,
    DigitalScale,
    DigitalSign,
    DropoutGate,
    FrozenNorm,
    SpinBayesMvm,
)
from repro.cim.ledger import OpLedger

# The state/wiring split: every deployed stage knows how to capture its
# own (meta, arrays) state and rebuild itself from it; this table maps
# the manifest type tag back to the class.  ``repro.cim.snapshot``
# drives both directions.
STAGE_TYPES = {
    "cim_linear": CimLinear,
    "cim_conv2d": CimConv2d,
    "spinbayes_mvm": SpinBayesMvm,
    "frozen_norm": FrozenNorm,
    "dropout_gate": DropoutGate,
    "digital_scale": DigitalScale,
    "digital_sign": DigitalSign,
    "digital_relu": DigitalReLU,
    "digital_maxpool": DigitalMaxPool,
    "digital_flatten": DigitalFlatten,
    # SpinBayes snapshots saved their flatten stage under this tag.
    "flatten": DigitalFlatten,
}


def stage_state(stage: CimLayer):
    """Capture one deployed stage as ``(meta, arrays)``."""
    state = getattr(stage, "state_dict", None)
    if state is None:
        raise TypeError(
            f"{type(stage).__name__} does not support state capture")
    return state()


def stage_from_state(meta: dict, arrays: dict, config: CimConfig,
                     ledger: OpLedger) -> CimLayer:
    """Rebuild one deployed stage from captured state (no programming)."""
    try:
        cls = STAGE_TYPES[meta["type"]]
    except KeyError:
        raise ValueError(f"unknown deployed stage type {meta.get('type')!r}")
    return cls.from_state(meta, arrays, config, ledger)


def _deploy_binary_linear(layer: nn.BinaryLinear, config: CimConfig,
                          ledger: OpLedger) -> CimLinear:
    weights = np.where(layer.weight.data >= 0, 1.0, -1.0)
    scale = None if layer.scale is None else layer.scale.data
    bias = None if layer.bias is None else layer.bias.data
    return CimLinear(weights, scale, bias, config, ledger)


def _deploy_binary_conv(layer: nn.BinaryConv2d, config: CimConfig,
                        ledger: OpLedger) -> CimConv2d:
    weights = np.where(layer.weight.data >= 0, 1.0, -1.0)
    scale = None if layer.scale is None else layer.scale.data
    bias = None if layer.bias is None else layer.bias.data
    return CimConv2d(weights, scale, bias, layer.stride, layer.padding,
                     config, ledger,
                     dilation=layer.dilation, groups=layer.groups)


def compile_to_cim(model: nn.Sequential,
                   config: Optional[CimConfig] = None) -> CimNetwork:
    """Deploy a trained Sequential model onto the CIM fabric.

    Raises ``TypeError`` for layers with no deployed equivalent (e.g.
    full-precision ``Linear`` — spintronic CIM stores binary weights
    only, paper Sec. II-D).

    Crossbars are not bit-packed here: a crossbar packs its weight
    planes on its first packed MVM (the route policy picks that
    route per call), and reprogramming drops them again.
    """
    config = config or CimConfig()
    ledger = OpLedger()
    stages: list[CimLayer] = []
    for layer in model:
        stage = _deploy_layer(layer, config, ledger)
        if stage is not None:
            stages.append(stage)
    return CimNetwork(stages, ledger, config)


def _deploy_layer(layer: nn.Module, config: CimConfig,
                  ledger: OpLedger) -> Optional[CimLayer]:
    # Local import: the Bayesian layers subclass/wrap standard ones and
    # are deployed by their own wrappers, but plain compile() must
    # recognize the stochastic layers it encounters and deploy their
    # deterministic (eval-mode) equivalents.
    from repro.bayesian.affine import AffineDropout
    from repro.bayesian.scale_dropout import ScaleDropout
    from repro.bayesian.spatial import SpatialSpinDropout
    from repro.bayesian.spindrop import SpinDropout
    from repro.bayesian.subset_vi import BayesianScale
    from repro.cim.layers import DigitalScale, DropoutGate

    if isinstance(layer, nn.BinaryLinear):
        return _deploy_binary_linear(layer, config, ledger)
    if isinstance(layer, nn.BinaryConv2d):
        return _deploy_binary_conv(layer, config, ledger)
    if isinstance(layer, (nn.BatchNorm1d, nn.BatchNorm2d)):
        gamma = layer.gamma.data if layer.affine else None
        beta = layer.beta.data if layer.affine else None
        return FrozenNorm(layer.running_mean, layer.running_var,
                          gamma, beta, layer.eps,
                          spatial=isinstance(layer, nn.BatchNorm2d),
                          inverted=False, ledger=ledger)
    if isinstance(layer, nn.InvertedNorm):
        return FrozenNorm(layer.running_mean, layer.running_var,
                          layer.gamma.data, layer.beta.data, layer.eps,
                          spatial=layer.spatial, inverted=True,
                          ledger=ledger)
    if isinstance(layer, nn.ReLU):
        return DigitalReLU(ledger)
    if isinstance(layer, (nn.SignActivation, nn.HardTanh, nn.Tanh)):
        return DigitalSign(ledger)
    if isinstance(layer, nn.MaxPool2d):
        return DigitalMaxPool(layer.kernel_size, ledger)
    if isinstance(layer, nn.Flatten):
        return DigitalFlatten(ledger)
    if isinstance(layer, nn.Dropout):
        return None  # identity in eval mode
    if isinstance(layer, SpinDropout):
        # Mask stays None (deterministic) until a Bayesian wrapper
        # binds an RNG bank to this gate.
        return DropoutGate(layer.p, channelwise=False, ledger=ledger)
    if isinstance(layer, SpatialSpinDropout):
        return DropoutGate(layer.p, channelwise=True, ledger=ledger)
    if isinstance(layer, ScaleDropout):
        # The learned scale vector survives deployment (SRAM multiply);
        # only the stochastic modulation is added back by the wrapper.
        return DigitalScale(layer.scale.data, layer.spatial, ledger)
    if isinstance(layer, BayesianScale):
        # Deterministic deployment uses the posterior mean.
        return DigitalScale(layer.mu.data, layer.spatial, ledger)
    if isinstance(layer, AffineDropout):
        norm = layer.norm
        return FrozenNorm(norm.running_mean, norm.running_var,
                          norm.gamma.data, norm.beta.data, norm.eps,
                          spatial=norm.spatial, inverted=True, ledger=ledger)
    if isinstance(layer, nn.Linear):
        raise TypeError(
            "full-precision Linear cannot be deployed to binary CIM; "
            "train with BinaryLinear instead")
    raise TypeError(f"no CIM deployment rule for {type(layer).__name__}")
