"""SpinBayes: Bayesian in-memory approximation (Sec. III-B.2, Fig. 3).

The idea: convert a trained posterior into a *memory-friendly*
distribution — a finite set of ``N`` quantized parameter realizations
mapped onto ``N`` crossbars per layer — so that sampling at inference
time reduces to a spintronic arbiter picking one crossbar per forward
pass ("the spintronic stochastic Arbiter is implemented at the
periphery of crossbars, selecting specific crossbars for Bayesian
inference in each forward pass. The Arbiter generates a random binary
one-hot vector to determine the selection").

Pipeline implemented here:

1. Take a trained VI teacher (:mod:`repro.bayesian.subset_vi` model).
2. Draw ``n_components`` posterior samples; fold each sampled scale
   into the binary weights to get per-component effective weight
   matrices (the Bayesian in-memory approximation).
3. CIM-aware post-training quantization: quantize each component to
   the multi-level-cell grid (``n_levels`` conductance states built
   from parallel MTJs — the "design-time exploration to optimize
   bit-precision" sweeps this knob, benchmark F3).
4. Program each component into its own
   :class:`~repro.cim.crossbar.AnalogCrossbar`; attach one
   :class:`~repro.devices.arbiter.SpintronicArbiter` per layer.  The
   crossbars and the arbiter form one
   :class:`~repro.cim.layers.SpinBayesMvm` stage; the teacher's norm,
   sign and flatten layers deploy by the
   :func:`~repro.cim.compile.compile_to_cim` rules, so the model is an
   ordinary :class:`~repro.cim.layers.CimNetwork` and snapshots like
   one.

Inference: every forward pass asks each layer's arbiter for a one-hot
selection, runs the MVM on the chosen crossbar, and proceeds through
shared digital periphery (frozen norm, sign).  T passes → Monte-Carlo
predictive distribution, with randomness costing only
``ceil(log2 N)`` device cycles per layer per pass.  The batched engine
pre-draws all T selections, installs them on the MVM stages and runs
the stage plan of :func:`~repro.cim.layers.plan_steps`, which it shares
with :class:`~repro.bayesian.deploy.BayesianCim`: each norm→sign
readout runs as one sign fold.  :meth:`SpinBayesNetwork.forward`, the
sequential oracle, keeps the arithmetic stages.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import nn
from repro.bayesian.base import PredictiveResult, mc_predict_batched, mc_predict_fn
from repro.bayesian.subset_vi import BayesianScale
from repro.cim.compile import _deploy_layer
from repro.cim.layers import (
    CimConfig,
    CimNetwork,
    SpinBayesMvm,
    has_read_noise,
    plan_steps,
)
from repro.cim.ledger import OpLedger
from repro.devices.arbiter import SpintronicArbiter

# The teacher's deterministic periphery, deployed by the compile rules.
_PERIPHERY = (nn.BatchNorm1d, nn.BatchNorm2d, nn.SignActivation,
              nn.HardTanh, nn.Tanh, nn.Flatten)


class SpinBayesNetwork:
    """Deployed SpinBayes model (MLP topologies).

    A :class:`~repro.cim.layers.CimNetwork` whose crossbar stages are
    :class:`~repro.cim.layers.SpinBayesMvm` layers.  Built via
    :meth:`from_subset_vi`; inference-only, numpy-level, fully
    op-accounted.
    """

    def __init__(self, network: CimNetwork, n_components: int,
                 n_levels: int):
        self.network = network
        self.ledger = network.ledger
        self.config = network.config
        self.n_components = n_components
        self.n_levels = n_levels
        self._plan_stacking()

    # ------------------------------------------------------------------
    @classmethod
    def from_subset_vi(cls, teacher: nn.Sequential, n_components: int = 8,
                       n_levels: int = 16,
                       config: Optional[CimConfig] = None,
                       seed: Optional[int] = None) -> "SpinBayesNetwork":
        """Approximate a subset-VI posterior with N quantized crossbars.

        Walks the teacher Sequential; for every BinaryLinear [+
        following BayesianScale] pair it draws ``n_components``
        posterior scale samples, folds each into the binary weights,
        and programs one crossbar per sample.  Norm, sign and flatten
        layers are deterministic in the teacher and deploy as
        :func:`~repro.cim.compile.compile_to_cim` deploys them; any
        other layer raises ``TypeError``.
        """
        config = config or CimConfig(seed=seed)
        ledger = OpLedger()
        stages: list = []
        layers = list(teacher)
        i = 0
        while i < len(layers):
            layer = layers[i]
            i += 1
            if isinstance(layer, _PERIPHERY):
                stages.append(_deploy_layer(layer, config, ledger))
                continue
            if not isinstance(layer, nn.BinaryLinear):
                raise TypeError(
                    "SpinBayes deployment does not support "
                    f"{type(layer).__name__}")
            scale_layer = None
            if i < len(layers) and isinstance(layers[i], BayesianScale):
                scale_layer = layers[i]
                i += 1
            binary = np.where(layer.weight.data >= 0, 1.0, -1.0)
            components = []
            for _ in range(n_components):
                if scale_layer is not None:
                    s = scale_layer.posterior_sample_np()
                elif layer.scale is not None:
                    s = layer.scale.data
                else:
                    s = np.ones(binary.shape[0])
                components.append(binary * s[:, None])
            bias = None if layer.bias is None else layer.bias.data.copy()
            stages.append(SpinBayesMvm(
                components, bias, n_levels, config, ledger,
                binarize_input=layer.binarize_input))
        return cls(CimNetwork(stages, ledger, config), n_components,
                   n_levels)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray,
                components: Optional[List[int]] = None) -> np.ndarray:
        """One stochastic pass; ``components`` pins per-layer selection."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        if components is None:
            return self.network.forward(x)
        picks = iter(components)
        for stage in self.network.stages:
            if isinstance(stage, SpinBayesMvm):
                x = stage.forward(x, component=next(picks))
            else:
                x = stage(x)
        return x

    __call__ = forward

    # ------------------------------------------------------------------
    # Batched Monte-Carlo engine
    # ------------------------------------------------------------------
    def _plan_stacking(self) -> None:
        """Fix the batched engine's structure; the stages and their
        arbiters do not change after the build.

        ``_split`` is the index of the first arbiter-driven stage.
        Stages before it — digital periphery and single-component MVM
        layers — see the same input on every MC pass and (absent read
        noise) compute the same output, so the batched engine evaluates
        them once and the stage at ``_split`` reads their N output rows
        for every pass.  ``_steps`` is the stage list as the engine
        runs it (:func:`~repro.cim.layers.plan_steps`): each norm→sign
        readout runs as one :class:`~repro.cim.layers.SignFold`, in the
        prefix and the stacked part alike.  ``_upper_p`` holds each
        arbiter's node table (:meth:`_node_upper_p`) when the selections
        can be drawn as one block (:meth:`_fast_selection_draw`), and
        is None otherwise.
        """
        stages = self.network.stages
        self._split = next(
            (idx for idx, stage in enumerate(stages)
             if isinstance(stage, SpinBayesMvm) and stage.arbiter is not None),
            len(stages))
        self._steps = plan_steps(stages)
        arbiters = [layer.arbiter for layer in self.mvm_layers()
                    if layer.arbiter is not None]
        self._upper_p = None
        if arbiters and self._fast_selection_draw(arbiters):
            self._upper_p = [self._node_upper_p(a) for a in arbiters]

    @staticmethod
    def _fast_selection_draw(arbiters: List[SpintronicArbiter]) -> bool:
        """Whether the selection block can be drawn in one RNG call;
        decided once per engine, in :meth:`_plan_stacking`.

        Requires every arbiter to (a) have a power-of-two choice count,
        so the binary search consumes a fixed two doubles per stage
        (one burned ``generate``, one ``take_upper`` comparison), never
        resolves its interval early and walks a complete binary tree,
        and (b) share one software generator, so a single flat draw
        covers the pass-major interleaved stream.
        """
        rng = arbiters[0]._stage_rng.rng
        return all(
            (a.n_choices & (a.n_choices - 1)) == 0
            and a._stage_rng.rng is rng
            for a in arbiters)

    @staticmethod
    def _node_upper_p(arbiter: SpintronicArbiter) -> np.ndarray:
        """Take-upper probability of every node of a power-of-two
        arbiter's binary search, heap-indexed: the root is node 1, node
        ``k``'s children are ``2k`` and ``2k + 1``, slot 0 is unused.

        Node ``2**d + i`` holds the candidates ``[i·w, (i + 1)·w)``,
        ``w = n_choices >> d``; its entry is the upper half's share of
        their mass, or 0.5 for a massless interval — the formula and
        float64 arithmetic of :meth:`SpintronicArbiter.select`.
        """
        n, cdf = arbiter.n_choices, arbiter._cdf
        upper = np.zeros(n)
        for depth in range(arbiter.n_stages):
            width = n >> depth
            lo = np.arange(0, n, width)
            mass_total = cdf[lo + width] - cdf[lo]
            mass_upper = cdf[lo + width] - cdf[lo + width // 2]
            massive = mass_total > 0
            upper[1 << depth:2 << depth] = np.where(
                massive, mass_upper / np.where(massive, mass_total, 1.0),
                0.5)
        return upper

    def _draw_selections(self, n_samples: int) -> np.ndarray:
        """Pre-draw all T per-layer component selections, (T, L).

        Consumes the arbiter RNG streams in exactly the order T
        sequential :meth:`forward` calls would (pass-major, then layer
        order — the MVMs between two selects draw from different
        generators, so interleaving does not shift the streams), and
        books the same ``rng_cycle`` count per selection.  A seeded
        batched run therefore reproduces the sequential selections
        bit-for-bit.

        When the engine planned node tables (``_upper_p``: every
        arbiter has a power-of-two choice count and they share one
        generator, the :class:`CimConfig` default), the whole block
        comes from a single flat ``random()`` call and each binary
        search is replayed over the pass axis, one table lookup, one
        compare and one add per stage — same doubles, same
        probabilities, same selections.  Otherwise it falls back to
        per-select draws (:meth:`SpintronicArbiter.select`, the
        oracle).
        """
        layers = self.mvm_layers()
        selections = np.zeros((n_samples, len(layers)), dtype=np.int64)
        active = [(j, layer.arbiter) for j, layer in enumerate(layers)
                  if layer.arbiter is not None]
        if not active:
            return selections
        if self._upper_p is None:
            for t in range(n_samples):
                for j, arbiter in active:
                    selections[t, j] = arbiter.select()
                    self.ledger.add("rng_cycle",
                                    arbiter.cycles_per_selection)
            return selections

        doubles_per_pass = 2 * sum(a.n_stages for _, a in active)
        block = active[0][1]._stage_rng.rng.random(
            n_samples * doubles_per_pass).reshape(n_samples, doubles_per_pass)
        offset = 0
        for (j, arbiter), upper in zip(active, self._upper_p):
            n_stages = arbiter.n_stages
            node = np.ones(n_samples, dtype=np.int64)
            # Odd slots are the take_upper comparisons; even slots are
            # the burned stage-device bits.
            for u in block[:, offset + 1:offset + 2 * n_stages:2].T:
                node += node + (u < upper[node])
            selections[:, j] = node - arbiter.n_choices
            offset += 2 * n_stages
            arbiter._stage_rng.book_cycles(n_samples * n_stages)
            arbiter.selections += n_samples
            self.ledger.add(
                "rng_cycle", n_samples * arbiter.cycles_per_selection)
        return selections

    def forward_batched(self, x: np.ndarray, n_samples: int = 20
                        ) -> np.ndarray:
        """All T MC passes as stacked ndarray ops; logits (T, N, C).

        Bit-for-bit identical to T calls of :meth:`forward` under the
        same seed, with identical :class:`OpLedger` totals.  Component
        selections are pre-drawn in sequential RNG order and installed
        on the MVM stages, then the passes run as one flattened
        ``(T·N, …)`` tensor through the steps fixed by
        :meth:`_plan_stacking`.  The pass-invariant prefix — the stages
        before the first arbiter — is evaluated once, its ledger delta
        booked T-fold, and the first arbiter stage takes its N output
        rows and multiplies them once per selected component
        (:meth:`~repro.cim.layers.SpinBayesMvm.forward_banked` on
        shared rows), filling the stack; each later MVM stage reads
        every pass's selected crossbar, and each norm→sign readout runs
        as one :class:`~repro.cim.layers.SignFold`.  A network without
        an arbiter broadcasts its prefix output to every pass.

        When cycle-to-cycle read noise is enabled the crossbars are no
        longer pass-deterministic, so the engine runs one pass per
        stacked call and disables prefix memoization — the noise stream
        is then consumed draw-for-draw in sequential order.
        """
        if n_samples < 1:
            raise ValueError("need at least one MC sample")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        batch = x.shape[0]
        selections = self._draw_selections(n_samples)

        passes, split = n_samples, self._split
        if has_read_noise(self.config.variability):
            passes, split = 1, 0

        # Pass-invariant prefix: run once, book T-fold.
        h = x
        if split > 0:
            with self.ledger.amortized(n_samples):
                for idx, step in self._steps:
                    if idx < split:
                        h = step(h)
        rest = [step for idx, step in self._steps if idx >= split]
        # The first arbiter stage reads the prefix rows itself.
        first = rest.pop(0) if rest and split == self._split else None

        layers = self.mvm_layers()
        outs = []
        try:
            for t0 in range(0, n_samples, passes):
                for j, layer in enumerate(layers):
                    layer.selections = selections[t0:t0 + passes, j]
                if first is None:
                    flat = np.broadcast_to(
                        h[None], (passes,) + h.shape).reshape(
                            (passes * batch,) + h.shape[1:])
                else:
                    flat = first.forward_banked(h, first.selections, batch)
                for step in rest:
                    flat = step(flat)
                outs.append(flat.reshape((passes, batch) + flat.shape[1:]))
        finally:
            for layer in layers:
                layer.selections = None
        if len(outs) == 1:
            return outs[0]
        return np.concatenate(outs, axis=0)

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
        return mc_predict_fn(self.forward, x, n_samples=n_samples)

    def mc_forward_batched(self, x: np.ndarray, n_samples: int = 20
                           ) -> PredictiveResult:
        """Batched MC inference: one stacked evaluation of all T passes."""
        return mc_predict_batched(self.forward_batched, x,
                                  n_samples=n_samples)

    def mvm_layers(self) -> List[SpinBayesMvm]:
        return self.network.mvm_layers()

    @property
    def n_crossbars(self) -> int:
        return self.network.n_crossbars

    def quantization_error(self) -> float:
        """Mean |stored − intended| over all components (PTQ fidelity).

        Decodes each crossbar's programmed conductances back to the
        value scale and compares against the pre-quantization effective
        weights; shrinks as ``n_levels`` grows (the F3 bit-precision
        exploration).
        """
        errors = []
        for layer in self.mvm_layers():
            for bar, intended in zip(layer.crossbars, layer.intended):
                stored = bar.stored_values().T  # back to (out, in)
                errors.append(np.abs(stored - intended).mean())
        return float(np.mean(errors))
