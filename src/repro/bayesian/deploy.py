"""Deployed Bayesian inference on the CIM fabric.

:class:`BayesianCim` compiles a trained stochastic model into a
:class:`~repro.cim.layers.CimNetwork` and re-creates its stochastic
behaviour at the *hardware* level: dropout masks come from
:class:`~repro.devices.rng.SpintronicRNG` banks and gate crossbar
wordlines / enables; scale-dropout modulates the SRAM scale path;
affine-dropout masks the frozen inverted-norm parameters; Bayesian
scales are re-sampled per pass.

This is the object the Table-I benchmark measures: ``mc_forward``
runs T passes through the accounted analog chain, and the ledger
afterwards holds every crossbar access, ADC conversion and RNG cycle
the method consumed.

Two execution strategies produce those T passes:

* **sequential** (``mc_forward(..., batched=False)``) — the original
  per-pass Python loop: re-draw hardware randomness, walk the stage
  list, repeat T times;
* **batched** (default) — :meth:`BayesianCim.forward_batched`
  pre-draws all T per-pass mask banks (one ``random`` call per RNG
  stream, consuming each stream in exactly the sequential order),
  installs them as per-row banks on the stochastic stages, and pushes
  one flattened ``(T·N, …)`` tensor through the analog chain as
  stacked ndarray ops.  Ledger totals are identical by construction,
  and with no cycle-to-cycle read noise the outputs are bit-for-bit
  identical to the sequential path.

Underneath, the analog chain runs on the shared kernel substrate of
:mod:`repro.tensor.functional`: :class:`~repro.cim.layers.CimConv2d`
gathers its im2col patches by strided-slice copies into per-thread
scratch arenas and, on an ideal chain, takes the exact-integer float32
crossbar route, whose ADC also quantizes in float32; the digital
stages work in place on the arrays they allocate.  Both strategies
share these kernels and stay bit-for-bit comparable.  The batched
strategy also runs a Spatial-SpinDrop gate and the conv it feeds as
one gated conv, which computes each input channel's partial MACs once
per call instead of once per pass, and each normalize→sign readout
(with the max-pool after it) as one :class:`~repro.cim.layers.SignFold`:
a per-channel threshold compare, on thresholds derived from the norm's
own arithmetic, and a pool on bits.  The stage plan comes from
:func:`~repro.cim.layers.plan_steps`, which the SpinBayes engine
shares.  The sequential loop keeps the arithmetic stages, the oracle
the fold is pinned to.  The ``cim_conv`` entry of
``scripts/bench_ci.py`` gates all of that in CI.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro import nn
from repro.bayesian.affine import AffineDropout
from repro.bayesian.base import (
    PredictiveResult,
    mc_predict_batched,
    mc_predict_fn,
)
from repro.bayesian.scale_dropout import ScaleDropout
from repro.bayesian.spatial import SpatialSpinDropout
from repro.bayesian.spindrop import SpinDropout
from repro.bayesian.subset_vi import BayesianScale
from repro.cim.compile import _deploy_layer
from repro.cim.layers import (
    CimConfig,
    CimConv2d,
    CimNetwork,
    DigitalScale,
    DropoutGate,
    FrozenNorm,
    has_read_noise,
    plan_steps,
)
from repro.cim.ledger import OpLedger
from repro.devices.rng import SpintronicRNG
from repro.devices.variability import DeviceVariability


@dataclasses.dataclass
class _MaskBinding:
    """Links one trained stochastic layer to its deployed mechanism."""

    kind: str                      # neuron | channel | scale | affine | vi
    p: float
    rng_bank: Optional[SpintronicRNG]
    target: object                 # the CIM stage driven by the mask
    source: object                 # the trained stochastic layer
    software_rng: np.random.Generator


class BayesianCim:
    """A trained Bayesian model deployed to spintronic CIM hardware.

    Parameters
    ----------
    model:
        Trained :class:`~repro.nn.Sequential` containing stochastic
        layers (SpinDropout / SpatialSpinDropout / ScaleDropout /
        AffineDropout / BayesianScale).
    config:
        CIM deployment configuration (variability, defects, ADC bits,
        array size, mapping strategy).
    rng_variability:
        Separate variability model for the *dropout modules* (their Δ
        spread shifts realized dropout rates); defaults to the
        config's variability.
    """

    def __init__(self, model: nn.Sequential,
                 config: Optional[CimConfig] = None,
                 rng_variability: Optional[DeviceVariability] = None,
                 seed: Optional[int] = None):
        self.config = config or CimConfig(seed=seed)
        self.ledger = OpLedger()
        self._rng = np.random.default_rng(seed)
        rng_var = rng_variability or self.config.variability

        stages: list = []
        self.bindings: List[_MaskBinding] = []

        for layer in model:
            stage = _deploy_layer(layer, self.config, self.ledger)
            if stage is None:
                continue
            stages.append(stage)
            if isinstance(stage, DropoutGate) and isinstance(
                    layer, (SpinDropout, SpatialSpinDropout)):
                self._bind_mask(layer, stage, rng_var)
            if isinstance(stage, DigitalScale) and isinstance(
                    layer, (ScaleDropout, BayesianScale)):
                self._bind_scale(layer, stage, rng_var)
            if isinstance(stage, FrozenNorm) and isinstance(layer, AffineDropout):
                self._bind_affine(layer, stage, rng_var)
        self.network = CimNetwork(stages, self.ledger, self.config)
        self._plan_stacking()

    # ------------------------------------------------------------------
    @classmethod
    def from_parts(cls, network: CimNetwork,
                   bindings: List[_MaskBinding],
                   rng: np.random.Generator) -> "BayesianCim":
        """Wire a deployment from pre-built parts (snapshot restore).

        ``network`` carries the already-installed crossbar state and
        the shared ledger; ``bindings`` link rebuilt RNG banks and
        stand-in sources to the network's stages.  Nothing is
        programmed or drawn here — :mod:`repro.cim.snapshot` restores
        every generator's bit state afterwards, so the first MC pass
        continues the captured streams exactly.
        """
        self = cls.__new__(cls)
        self.config = network.config
        self.ledger = network.ledger
        self._rng = rng
        self.bindings = list(bindings)
        self.network = network
        self._plan_stacking()
        return self

    # ------------------------------------------------------------------
    def _bind_mask(self, layer, gate: DropoutGate, rng_var) -> None:
        if isinstance(layer, SpinDropout):
            kind, n_modules = "neuron", layer.n_features
        else:
            kind, n_modules = "channel", layer.n_channels
        bank = SpintronicRNG(n_modules, p=layer.p,
                             mtj_params=self.config.mtj_params,
                             variability=rng_var, rng=self._rng)
        self.bindings.append(_MaskBinding(
            kind=kind, p=layer.p, rng_bank=bank, target=gate,
            source=layer, software_rng=self._rng))

    def _bind_scale(self, layer, stage, rng_var) -> None:
        if isinstance(layer, ScaleDropout):
            bank = SpintronicRNG(1, p=layer.p,
                                 mtj_params=self.config.mtj_params,
                                 variability=rng_var, rng=self._rng)
            self.bindings.append(_MaskBinding(
                kind="scale", p=layer.p, rng_bank=bank, target=stage,
                source=layer, software_rng=self._rng))
        else:  # BayesianScale: posterior sampling per pass
            self.bindings.append(_MaskBinding(
                kind="vi", p=0.0, rng_bank=None, target=stage,
                source=layer, software_rng=self._rng))

    def _bind_affine(self, layer, stage, rng_var) -> None:
        bank = SpintronicRNG(2, p=layer.p,
                             mtj_params=self.config.mtj_params,
                             variability=rng_var, rng=self._rng)
        self.bindings.append(_MaskBinding(
            kind="affine", p=layer.p, rng_bank=bank, target=stage,
            source=layer, software_rng=self._rng))

    # ------------------------------------------------------------------
    def _resample(self, batch: int) -> None:
        """Draw fresh hardware randomness for one forward pass."""
        for binding in self.bindings:
            drawn = self._draw_pass(binding)
            if binding.kind in ("neuron", "channel"):
                binding.target.mask = drawn
            elif binding.kind == "affine":
                (binding.target.gamma_multiplier,
                 binding.target.beta_multiplier) = drawn
            else:  # scale, vi
                binding.target.multiplier = drawn

    @staticmethod
    def _draw_pass(binding: _MaskBinding):
        """One pass of a binding's randomness, as :meth:`_resample`
        installs it: a keep-mask (neuron, channel), a scalar multiplier
        (scale), a (gamma, beta) multiplier pair (affine) or a
        per-feature multiplier vector (VI)."""
        if binding.kind in ("neuron", "channel"):
            bits = binding.rng_bank.generate(binding.rng_bank.n_modules)
            return (bits < 0.5).astype(np.float64)
        if binding.kind == "scale":
            bit = binding.rng_bank.generate(1)[0]
            layer: ScaleDropout = binding.source
            return layer.drop_scale if bit > 0.5 else 1.0
        if binding.kind == "affine":
            bits = binding.rng_bank.generate(2)
            return (0.0 if bits[0] > 0.5 else 1.0,
                    0.0 if bits[1] > 0.5 else 1.0)
        layer: BayesianScale = binding.source
        sample = layer.posterior_sample_np()
        return sample / np.where(layer.mu.data == 0, 1.0, layer.mu.data)

    def _clear(self) -> None:
        for binding in self.bindings:
            if binding.kind in ("neuron", "channel"):
                binding.target.mask = None
            elif binding.kind in ("scale", "vi"):
                binding.target.multiplier = 1.0
            elif binding.kind == "affine":
                binding.target.gamma_multiplier = 1.0
                binding.target.beta_multiplier = 1.0

    # ------------------------------------------------------------------
    # Batched Monte-Carlo engine
    # ------------------------------------------------------------------
    def _draw_sample_banks(self, n_samples: int) -> List[np.ndarray]:
        """Pre-draw T passes of hardware randomness, one bank per binding.

        Every RNG stream is consumed in exactly the order T sequential
        :meth:`_resample` calls would consume it (pass-major, then
        binding order), so a seeded batched run reproduces the
        sequential masks bit-for-bit.  Streams are independent, so the
        bindings are grouped by the generator they draw from:

        * a generator that feeds only mask banks (neuron, channel,
          scale, affine) is drawn once, as ``random((T, bits per
          pass))``: the same doubles, in the same order, that T ×
          bindings :meth:`SpintronicRNG.generate` calls would return.
          They are compared with the banks' concatenated per-bit
          probabilities and split by binding, and each bank books its
          SET/read/RESET cycles as ``generate`` would;
        * a generator that any VI binding samples keeps the pass-major
          loop, because a Gaussian posterior sample consumes no fixed
          count of doubles.

        Returns one ``(T, …)`` array per binding: keep-masks for
        neuron/channel, scalar multipliers for scale, (gamma, beta)
        multiplier pairs for affine, per-feature multiplier vectors for
        VI.
        """
        streams: Dict[int, List[int]] = {}
        for idx, binding in enumerate(self.bindings):
            rng = (binding.source.rng if binding.kind == "vi"
                   else binding.rng_bank.rng)
            streams.setdefault(id(rng.bit_generator), []).append(idx)
        banks: List[Optional[np.ndarray]] = [None] * len(self.bindings)
        for members in streams.values():
            group = [self.bindings[idx] for idx in members]
            if any(binding.kind == "vi" for binding in group):
                drawn = self._draw_pass_major(group, n_samples)
            else:
                drawn = self._draw_stream(group, n_samples)
            for idx, bank in zip(members, drawn):
                banks[idx] = bank
        return banks

    def _draw_stream(self, group: List[_MaskBinding],
                     n_samples: int) -> List[np.ndarray]:
        """All T passes of mask banks sharing one generator, in one draw."""
        widths = [self._rng_bits_per_image(binding) for binding in group]
        probs = np.concatenate([binding.rng_bank.bit_probabilities(width)
                                for binding, width in zip(group, widths)])
        drop = group[0].rng_bank.rng.random((n_samples, probs.size)) < probs
        banks = []
        start = 0
        for binding, width in zip(group, widths):
            cols = drop[:, start:start + width]
            start += width
            binding.rng_bank.book_cycles(n_samples * width)
            if binding.kind in ("neuron", "channel"):
                banks.append((~cols).astype(np.float64))
            elif binding.kind == "scale":
                layer: ScaleDropout = binding.source
                banks.append(np.where(cols[:, 0], float(layer.drop_scale),
                                      1.0))
            else:  # affine: (gamma, beta) multipliers
                banks.append(np.where(cols, 0.0, 1.0))
        return banks

    @classmethod
    def _draw_pass_major(cls, group: List[_MaskBinding],
                         n_samples: int) -> List[np.ndarray]:
        """T passes of a generator's bindings, one :meth:`_draw_pass`
        per binding and pass, in sequential order."""
        draws: List[list] = [[] for _ in group]
        for _ in range(n_samples):
            for slot, binding in zip(draws, group):
                slot.append(cls._draw_pass(binding))
        return [np.asarray(slot, dtype=np.float64) for slot in draws]

    def _install_banks(self, banks: List[np.ndarray], t0: int, t1: int,
                       batch: int) -> None:
        """Expand pass-level banks [t0, t1) into per-row stage state.

        Every per-pass draw is repeated ``batch`` times so row
        ``t * batch + i`` of the flattened tensor sees pass ``t``'s
        mask — the same sharing the sequential path applies within one
        pass.
        """
        for binding, bank in zip(self.bindings, banks):
            rows = bank[t0:t1]
            if binding.kind in ("neuron", "channel"):
                binding.target.mask = np.repeat(rows, batch, axis=0)
            elif binding.kind == "scale":
                binding.target.multiplier = np.repeat(rows, batch)[:, None]
            elif binding.kind == "affine":
                binding.target.gamma_multiplier = np.repeat(rows[:, 0], batch)
                binding.target.beta_multiplier = np.repeat(rows[:, 1], batch)
            else:  # vi
                binding.target.multiplier = np.repeat(rows, batch, axis=0)

    def _set_passes_per_call(self, passes: int) -> None:
        for stage in self.network.stages:
            if isinstance(stage, DigitalScale):
                stage.passes_per_call = passes

    def _rng_bits_per_image(self, binding: _MaskBinding) -> int:
        """RNG cycles one image's mask generation costs for a binding."""
        if binding.kind in ("neuron", "channel"):
            return binding.rng_bank.n_modules
        if binding.kind == "scale":
            return 1
        if binding.kind == "affine":
            return 2
        return binding.source.n_features  # vi: one draw per scale element

    def _plan_stacking(self) -> None:
        """Fix the batched engine's structure; bindings and stages do
        not change after the build.

        ``_split`` is the index of the first stage a mask binding
        drives.  Stages before it are pass-invariant: they see the same
        input on every MC pass and (absent read noise) compute the same
        output, so the batched engine evaluates them once and
        broadcasts.  ``_gated_pair`` is ``(binding index, conv)`` when
        that stage is a channel-wise :class:`DropoutGate` feeding a
        :class:`CimConv2d`, which the engine may run as one gated conv.

        ``_steps`` is the stage list as the engine runs it
        (:func:`~repro.cim.layers.plan_steps`): each norm→sign(→pool)
        readout whose norm no binding drives runs as one
        :class:`~repro.cim.layers.SignFold`, in the prefix and the
        stacked part alike.  No run crosses ``_split``: its stages are
        not bound.
        """
        bound = {id(binding.target): idx
                 for idx, binding in enumerate(self.bindings)}
        stages = self.network.stages
        self._split = next((idx for idx, stage in enumerate(stages)
                            if id(stage) in bound), len(stages))
        self._gated_pair = None
        pair = stages[self._split:self._split + 2]
        if (len(pair) == 2 and isinstance(pair[0], DropoutGate)
                and pair[0].channelwise and isinstance(pair[1], CimConv2d)):
            self._gated_pair = (bound[id(pair[0])], pair[1])
        self._steps = plan_steps(stages, bound)

    def forward_batched(self, x: np.ndarray, n_samples: int = 20
                        ) -> np.ndarray:
        """All T MC passes as stacked ndarray ops; logits (T, N, C).

        Bit-for-bit identical to T calls of ``forward(x,
        stochastic=True)`` under the same seed, with identical ledger
        totals (crossbar accesses, ADC conversions, RNG cycles, SRAM
        reads).  Mask banks are pre-drawn in sequential RNG order
        (:meth:`_draw_sample_banks`), then the passes run as one
        flattened ``(T·N, …)`` tensor.  Four refinements keep that
        equivalence exact while going fast:

        * the *pass-invariant prefix* — every stage before the first
          stochastic stage — is evaluated once and broadcast across
          passes, its ledger delta multiplied by T (the hardware still
          performs T passes; the simulator memoizes deterministic
          recomputation);
        * when that first stochastic stage is a channel-wise
          :class:`DropoutGate` feeding a :class:`CimConv2d` whose grids
          are all exact, and the prefix output is finite, the pair runs
          as one *gated conv*: the conv reads the gate's keep bank and
          computes every input channel's partial MAC once from the N
          pass-invariant images, and each pass's crossbar MAC is the
          kept channels' sum (:meth:`CimConv2d.forward` with ``keep``),
          instead of gathering and multiplying T·N gated images;
        * each ``FrozenNorm → DigitalSign (→ DigitalMaxPool)`` run of
          stages fixed by :meth:`_plan_stacking`, in the prefix and the
          stacked part alike, runs as one
          :class:`~repro.cim.layers.SignFold`: ``x >= lo`` (``x <= hi``
          where γ < 0) per channel, an OR over each pool window of the
          bits, and the ±1 output built at the pooled size, booking what
          the three stages book.  The thresholds come from the norm's
          own arithmetic (:meth:`FrozenNorm.sign_thresholds`), in one
          search for every fold of the engine at its first call;
        * when cycle-to-cycle read noise is enabled the chain is no
          longer pass-deterministic, so the engine runs one pass per
          stacked call, with no prefix memoization and no gated conv —
          the noise stream is then consumed draw-for-draw in sequential
          order.
        """
        if n_samples < 1:
            raise ValueError("need at least one MC sample")
        x = np.asarray(x, dtype=np.float64)
        batch = x.shape[0]
        banks = self._draw_sample_banks(n_samples)
        # Per-image RNG-cycle accounting, identical to the sequential
        # path's per-pass booking.
        for binding in self.bindings:
            self.ledger.add(
                "rng_cycle",
                self._rng_bits_per_image(binding) * batch * n_samples)

        passes, split, gated = n_samples, self._split, self._gated_pair
        if has_read_noise(self.config.variability):
            passes, split, gated = 1, 0, None

        # Pass-invariant prefix: run once, book T-fold.
        h = x
        if split > 0:
            with self.ledger.amortized(n_samples):
                for idx, step in self._steps:
                    if idx < split:
                        h = step(h)
        # With a NaN or inf input the stacked gate's 0·NaN still drives
        # a wordline; only the stacked path models that.
        if gated is not None and not (gated[1].exact
                                      and np.isfinite(h).all()):
            gated = None
        start = split if gated is None else split + 2
        rest = [step for idx, step in self._steps if idx >= start]

        outs = []
        self._set_passes_per_call(passes)
        try:
            for t0 in range(0, n_samples, passes):
                self._install_banks(banks, t0, t0 + passes, batch)
                if gated is not None:
                    gated_bank, conv = gated
                    keep = banks[gated_bank][t0:t0 + passes]
                    # The gate's own ops, as it books them on the
                    # stacked batch: one per (image, channel).
                    self.ledger.add("digital_op", keep.size * batch)
                    flat = conv.forward(h, keep=keep)
                else:
                    flat = np.broadcast_to(
                        h[None], (passes,) + h.shape).reshape(
                            (passes * batch,) + h.shape[1:])
                for step in rest:
                    flat = step(flat)
                outs.append(flat.reshape((passes, batch) + flat.shape[1:]))
        finally:
            self._clear()
            self._set_passes_per_call(1)
        if len(outs) == 1:
            return outs[0]
        return np.concatenate(outs, axis=0)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, stochastic: bool = True) -> np.ndarray:
        """One pass through the analog chain; raw logits."""
        batch = x.shape[0]
        if stochastic:
            self._resample(batch)
            # Book the RNG cycles each image's mask generation costs.
            # In hardware every image draws fresh bits; the behavioural
            # model shares one mask per pass but accounts per image.
            for binding in self.bindings:
                self.ledger.add(
                    "rng_cycle", self._rng_bits_per_image(binding) * batch)
        else:
            self._clear()
        return self.network.forward(x)

    __call__ = forward

    def mc_forward(self, x: np.ndarray, n_samples: int = 20,
                   batched: bool = True) -> PredictiveResult:
        """Monte-Carlo Bayesian inference on hardware: T passes.

        ``batched=True`` (default) evaluates all passes through the
        vectorized engine; ``batched=False`` keeps the original
        per-pass loop (the reference implementation the equivalence
        tests pin the batched engine against).
        """
        if batched:
            return self.mc_forward_batched(x, n_samples=n_samples)
        return mc_predict_fn(lambda inp: self.forward(inp, stochastic=True),
                             x, n_samples=n_samples)

    def mc_forward_batched(self, x: np.ndarray, n_samples: int = 20
                           ) -> PredictiveResult:
        """Batched MC inference: one stacked evaluation of all T passes."""
        return mc_predict_batched(self.forward_batched, x,
                                  n_samples=n_samples)

    def deterministic_forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, stochastic=False)

    # ------------------------------------------------------------------
    @property
    def n_dropout_modules(self) -> int:
        """Physical RNG module count of the deployment."""
        total = 0
        for binding in self.bindings:
            if binding.rng_bank is not None:
                total += binding.rng_bank.n_modules
        return total
