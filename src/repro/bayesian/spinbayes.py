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
   :class:`~repro.devices.arbiter.SpintronicArbiter` per layer.

Inference: every forward pass asks each layer's arbiter for a one-hot
selection, runs the MVM on the chosen crossbar, and proceeds through
shared digital periphery (frozen norm, sign).  T passes → Monte-Carlo
predictive distribution, with randomness costing only
``ceil(log2 N)`` device cycles per layer per pass.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import nn
from repro.bayesian.base import PredictiveResult, mc_predict_batched, mc_predict_fn
from repro.bayesian.subset_vi import BayesianScale
from repro.cim.crossbar import AnalogCrossbar
from repro.cim.layers import CimConfig, DigitalSign, FrozenNorm
from repro.cim.ledger import OpLedger
from repro.devices.arbiter import SpintronicArbiter


class _SpinBayesMvmLayer:
    """One Fig.-3 layer: N analog crossbars + a stochastic arbiter."""

    def __init__(self, components: List[np.ndarray], bias: Optional[np.ndarray],
                 n_levels: int, config: CimConfig, ledger: OpLedger,
                 binarize_input: bool = False):
        if not components:
            raise ValueError("need at least one component")
        self.n_components = len(components)
        self.out_features = components[0].shape[0]
        self.bias = bias
        self.ledger = ledger
        self.intended = [c.copy() for c in components]
        self.binarize_input = binarize_input
        v_min = float(min(c.min() for c in components))
        v_max = float(max(c.max() for c in components))
        self.crossbars: List[AnalogCrossbar] = []
        for weights in components:
            in_features = weights.shape[1]
            out_features = weights.shape[0]
            bar = AnalogCrossbar(
                in_features, out_features, n_levels=n_levels,
                mtj_params=config.mtj_params,
                variability=config.variability,
                defects=config.defects,
                rng=config.rng, ledger=ledger)
            bar.program(weights.T, v_min=v_min, v_max=v_max)
            self.crossbars.append(bar)
        if self.n_components > 1:
            self.arbiter = SpintronicArbiter(
                self.n_components, mtj_params=config.mtj_params,
                variability=config.variability, rng=config.rng)
        else:
            self.arbiter = None
        self.last_selected = 0
        self._values_stack: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def state_dict(self):
        """Capture the layer as ``(meta, arrays)`` — the snapshot format.

        Everything stochastic (quantization noise, arbiter device
        realization) is already baked into the captured arrays, so
        :meth:`from_state` rebuilds the layer without consuming any RNG
        or booking ``mtj_write``.  The arbiter's *shared* software
        generator (``config.rng``) is not part of this state; the
        deployment snapshot owns the sharing topology.
        """
        meta = {
            "type": "spinbayes_mvm",
            "n_components": self.n_components,
            "out_features": self.out_features,
            "in_features": self.crossbars[0].n_rows,
            "n_levels": self.crossbars[0].n_levels,
            "binarize_input": self.binarize_input,
            "last_selected": self.last_selected,
            "v_min": [bar._v_min for bar in self.crossbars],
            "v_max": [bar._v_max for bar in self.crossbars],
        }
        arrays = {
            "g": np.stack([bar.state_dict()["g"] for bar in self.crossbars]),
            "intended": np.stack(self.intended),
        }
        if self.bias is not None:
            arrays["bias"] = self.bias
        if self.arbiter is not None:
            arb = self.arbiter.state_dict()
            bank = arb["stage_rng"]
            meta["arbiter"] = {
                "selections": arb["selections"],
                "stage_rng": {k: bank[k] for k in
                              ("n_modules", "target_p", "current",
                               "set_ops", "read_ops", "reset_ops")},
            }
            arrays["arbiter_weights"] = arb["weights"]
            arrays["arbiter_deltas"] = bank["deltas"]
            arrays["arbiter_effective_p"] = bank["effective_p"]
        return meta, arrays

    @classmethod
    def from_state(cls, meta: dict, arrays: dict, config: CimConfig,
                   ledger: OpLedger) -> "_SpinBayesMvmLayer":
        """Rebuild from captured state: no programming, no RNG draws."""
        self = cls.__new__(cls)
        self.n_components = int(meta["n_components"])
        self.out_features = int(meta["out_features"])
        self.bias = arrays.get("bias")
        self.ledger = ledger
        self.intended = [np.asarray(c) for c in arrays["intended"]]
        self.binarize_input = bool(meta["binarize_input"])
        in_features = int(meta["in_features"])
        n_levels = int(meta["n_levels"])
        self.crossbars = []
        for k in range(self.n_components):
            bar = AnalogCrossbar(
                in_features, self.out_features, n_levels=n_levels,
                mtj_params=config.mtj_params,
                variability=config.variability,
                defects=config.defects,
                rng=config.rng, ledger=ledger)
            bar.load_state({"g": arrays["g"][k],
                            "v_min": meta["v_min"][k],
                            "v_max": meta["v_max"][k]})
            self.crossbars.append(bar)
        if self.n_components > 1:
            # variability=None skips the constructor's delta draws; the
            # captured realization is installed right after.
            self.arbiter = SpintronicArbiter(
                self.n_components, mtj_params=config.mtj_params,
                variability=None, rng=config.rng)
            arb_meta = meta["arbiter"]
            bank = dict(arb_meta["stage_rng"])
            bank["deltas"] = arrays["arbiter_deltas"]
            bank["effective_p"] = arrays["arbiter_effective_p"]
            self.arbiter.load_state({
                "weights": arrays["arbiter_weights"],
                "selections": arb_meta["selections"],
                "stage_rng": bank,
            })
            self.arbiter._stage_rng.variability = config.variability
        else:
            self.arbiter = None
        self.last_selected = int(meta["last_selected"])
        self._values_stack = None
        return self

    def _has_read_noise(self) -> bool:
        var = self.crossbars[0].variability
        return var is not None and var.params.sigma_read > 0.0

    def _component_values(self) -> np.ndarray:
        """Cached (n_components, in, out) stack of decoded MVM operands."""
        if self._values_stack is None:
            self._values_stack = np.stack(
                [bar.mvm_values() for bar in self.crossbars])
        return self._values_stack

    def forward(self, x: np.ndarray, component: Optional[int] = None
                ) -> np.ndarray:
        if component is None:
            if self.arbiter is not None:
                component = self.arbiter.select()
                self.ledger.add("rng_cycle", self.arbiter.cycles_per_selection)
            else:
                component = 0
        self.last_selected = component
        if self.binarize_input:
            x = np.sign(x)
        out = self.crossbars[component].matvec(x)
        self.ledger.add("adc_conversion", out.size)
        if self.bias is not None:
            out = out + self.bias
            self.ledger.add("digital_op", out.size)
        return out

    def forward_banked(self, x: np.ndarray, selections: np.ndarray,
                       rows_per_pass: int) -> np.ndarray:
        """Stacked forward: ``x`` is (P·N, F) pass-major, one pre-drawn
        component selection per pass.

        Without read noise the decoded MVM operand of every component
        is deterministic and cached, so each pass is one plain
        ``(N, F) @ (F, C)`` product against its selected component's
        pre-decoded matrix — the *same shapes and operand values* the
        sequential loop feeds BLAS, hence bit-for-bit equal output
        (grouping passes into taller matmuls is faster still, but GEMM
        summation order — and therefore the last ulp — depends on the
        row count, and the downstream sign activation amplifies that
        ulp into a different network output).  Cell accesses and DAC
        drives are booked exactly as the hardware's P readouts cost.
        With read noise each pass must re-draw the conductance
        fluctuation, so the layer falls back to one
        :meth:`AnalogCrossbar.matvec` call per distinct component
        (the engine also chunks to one pass per call in that case,
        preserving the noise stream draw-for-draw).  Ledger totals
        equal P sequential :meth:`forward` calls either way because
        every booking is proportional to the rows processed; the
        arbiter's RNG cycles are booked at selection-draw time by the
        network.
        """
        selections = np.asarray(selections, dtype=np.int64)
        n_passes = selections.size
        if n_passes * rows_per_pass != x.shape[0]:
            raise ValueError(
                f"stacked batch {x.shape[0]} != "
                f"{n_passes} passes x {rows_per_pass} rows")
        if self.binarize_input:
            x = np.sign(x)
        if not self._has_read_noise():
            values = self._component_values()
            in_features = values.shape[1]
            stacked = x.reshape(n_passes, rows_per_pass, in_features)
            out3 = np.empty(
                (n_passes, rows_per_pass, self.out_features),
                dtype=np.float64)
            for t in range(n_passes):
                np.matmul(stacked[t], values[selections[t]], out=out3[t])
            out = out3.reshape(x.shape[0], self.out_features)
            self.ledger.add("crossbar_cell_access",
                            in_features * self.out_features * x.shape[0])
            self.ledger.add("dac_drive", in_features * x.shape[0])
        else:
            out = np.empty((x.shape[0], self.out_features), dtype=np.float64)
            offsets = np.arange(rows_per_pass)
            for component in np.unique(selections):
                passes = np.nonzero(selections == component)[0]
                rows = (passes[:, None] * rows_per_pass
                        + offsets[None, :]).ravel()
                out[rows] = self.crossbars[component].matvec(x[rows])
        self.last_selected = int(selections[-1])
        self.ledger.add("adc_conversion", out.size)
        if self.bias is not None:
            out = out + self.bias
            self.ledger.add("digital_op", out.size)
        return out


class SpinBayesNetwork:
    """Deployed SpinBayes model (MLP topologies).

    Built via :meth:`from_subset_vi`; inference-only, numpy-level,
    fully op-accounted.
    """

    def __init__(self, stages: list, ledger: OpLedger, config: CimConfig,
                 n_components: int, n_levels: int):
        self.stages = stages
        self.ledger = ledger
        self.config = config
        self.n_components = n_components
        self.n_levels = n_levels

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
        and programs one crossbar per sample.  Norm/sign stages are
        shared (they are deterministic in the teacher).
        """
        config = config or CimConfig(seed=seed)
        ledger = OpLedger()
        rng = np.random.default_rng(seed)
        stages: list = []
        layers = list(teacher)
        i = 0
        while i < len(layers):
            layer = layers[i]
            if isinstance(layer, nn.BinaryLinear):
                binary = np.where(layer.weight.data >= 0, 1.0, -1.0)
                scale_layer = None
                if i + 1 < len(layers) and isinstance(layers[i + 1], BayesianScale):
                    scale_layer = layers[i + 1]
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
                stages.append(_SpinBayesMvmLayer(
                    components, bias, n_levels, config, ledger,
                    binarize_input=layer.binarize_input))
                i += 2 if scale_layer is not None else 1
                continue
            if isinstance(layer, (nn.BatchNorm1d, nn.BatchNorm2d)):
                gamma = layer.gamma.data if layer.affine else None
                beta = layer.beta.data if layer.affine else None
                stages.append(FrozenNorm(
                    layer.running_mean, layer.running_var, gamma, beta,
                    layer.eps, spatial=isinstance(layer, nn.BatchNorm2d),
                    inverted=False, ledger=ledger))
                i += 1
                continue
            if isinstance(layer, (nn.SignActivation, nn.HardTanh, nn.Tanh)):
                stages.append(DigitalSign(ledger))
                i += 1
                continue
            if isinstance(layer, nn.Flatten):
                stages.append("flatten")
                i += 1
                continue
            if isinstance(layer, BayesianScale):
                # Orphan scale (no preceding BinaryLinear) — fold as a
                # digital multiply by the posterior mean.
                stages.append(("static_scale", layer.mu.data.copy()))
                i += 1
                continue
            raise TypeError(
                f"SpinBayes deployment does not support {type(layer).__name__}")
        return cls(stages, ledger, config, n_components, n_levels)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray,
                components: Optional[List[int]] = None) -> np.ndarray:
        """One stochastic pass; ``components`` pins per-layer selection."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        mvm_idx = 0
        for stage in self.stages:
            if isinstance(stage, _SpinBayesMvmLayer):
                pick = None if components is None else components[mvm_idx]
                x = stage.forward(x, component=pick)
                mvm_idx += 1
            else:
                x = self._apply_static(stage, x)
        return x

    __call__ = forward

    # ------------------------------------------------------------------
    # Batched Monte-Carlo engine
    # ------------------------------------------------------------------
    @staticmethod
    def _apply_static(stage, x: np.ndarray) -> np.ndarray:
        """Evaluate one non-MVM (pass-invariant) stage."""
        if stage == "flatten":
            return x.reshape(x.shape[0], -1)
        if isinstance(stage, tuple) and stage[0] == "static_scale":
            return x * stage[1]
        return stage.forward(x)

    def _has_read_noise(self) -> bool:
        """Whether the crossbars draw fresh randomness per readout."""
        var = self.config.variability
        return var is not None and var.params.sigma_read > 0.0

    def _stochastic_split(self) -> int:
        """Index of the first arbiter-driven MVM stage.

        Stages before it — digital periphery and single-component MVM
        layers — see the same input on every MC pass and (absent read
        noise) compute the same output, so the batched engine evaluates
        them once and broadcasts.
        """
        for idx, stage in enumerate(self.stages):
            if isinstance(stage, _SpinBayesMvmLayer) and stage.arbiter is not None:
                return idx
        return len(self.stages)

    @staticmethod
    def _fast_selection_draw(arbiters: List[SpintronicArbiter]) -> bool:
        """Whether the selection block can be drawn in one RNG call.

        Requires every arbiter to (a) have a power-of-two choice count,
        so the binary search consumes a fixed two doubles per stage
        (one burned ``generate``, one ``take_upper`` comparison) and
        never resolves its interval early, and (b) share one software
        generator, so a single flat draw covers the pass-major
        interleaved stream.
        """
        rng = arbiters[0]._stage_rng.rng
        return all(
            (a.n_choices & (a.n_choices - 1)) == 0
            and a._stage_rng.rng is rng
            for a in arbiters)

    def _draw_selections(self, n_samples: int) -> np.ndarray:
        """Pre-draw all T per-layer component selections, (T, L).

        Consumes the arbiter RNG streams in exactly the order T
        sequential :meth:`forward` calls would (pass-major, then layer
        order — the MVMs between two selects draw from different
        generators, so interleaving does not shift the streams), and
        books the same ``rng_cycle`` count per selection.  A seeded
        batched run therefore reproduces the sequential selections
        bit-for-bit.

        When every arbiter has a power-of-two choice count and they
        share one generator (the :class:`CimConfig` default), the whole
        block comes from a single flat ``random()`` call and the binary
        searches are replayed vectorized over the pass axis — same
        doubles, same arithmetic, same selections, ~L·T fewer numpy
        round-trips.  Otherwise it falls back to per-select draws.
        """
        layers = self.mvm_layers()
        selections = np.zeros((n_samples, len(layers)), dtype=np.int64)
        active = [(j, layer.arbiter) for j, layer in enumerate(layers)
                  if layer.arbiter is not None]
        if not active:
            return selections
        arbiters = [a for _, a in active]
        if not self._fast_selection_draw(arbiters):
            for t in range(n_samples):
                for j, arbiter in active:
                    selections[t, j] = arbiter.select()
                    self.ledger.add("rng_cycle",
                                    arbiter.cycles_per_selection)
            return selections

        doubles_per_pass = 2 * sum(a.n_stages for a in arbiters)
        block = arbiters[0]._stage_rng.rng.random(
            n_samples * doubles_per_pass).reshape(n_samples, doubles_per_pass)
        offset = 0
        for j, arbiter in active:
            n_stages = arbiter.n_stages
            cdf = arbiter._cdf
            lo = np.zeros(n_samples, dtype=np.int64)
            hi = np.full(n_samples, arbiter.n_choices, dtype=np.int64)
            for stage in range(n_stages):
                mid = (lo + hi) // 2
                mass_total = cdf[hi] - cdf[lo]
                mass_upper = cdf[hi] - cdf[mid]
                p_upper = np.where(mass_total > 0,
                                   mass_upper / np.where(mass_total > 0,
                                                         mass_total, 1.0),
                                   0.5)
                # Odd slots are the take_upper comparisons; even slots
                # are the burned stage-device bits.
                take = block[:, offset + 2 * stage + 1] < p_upper
                lo = np.where(take, mid, lo)
                hi = np.where(take, hi, mid)
            selections[:, j] = lo
            offset += 2 * n_stages
            arbiter._stage_rng.book_cycles(n_samples * n_stages)
            arbiter.selections += n_samples
            self.ledger.add(
                "rng_cycle", n_samples * arbiter.cycles_per_selection)
        return selections

    def forward_batched(self, x: np.ndarray, n_samples: int = 20,
                        chunk_passes: Optional[int] = None) -> np.ndarray:
        """All T MC passes as stacked ndarray ops; logits (T, N, C).

        Bit-for-bit identical to T calls of :meth:`forward` under the
        same seed, with identical :class:`OpLedger` totals.  Component
        selections are pre-drawn in sequential RNG order, then the
        passes run as one flattened ``(T·N, …)`` tensor: MVM stages
        gather rows per selected component
        (:meth:`_SpinBayesMvmLayer.forward_banked`), while the
        pass-invariant prefix — FrozenNorm / DigitalSign / static-scale
        / flatten stages and single-component MVM layers before the
        first arbiter — is evaluated once and broadcast, its ledger
        delta booked T-fold.

        When cycle-to-cycle read noise is enabled the crossbars are no
        longer pass-deterministic, so the engine drops to one pass per
        stacked call and disables prefix memoization — the noise stream
        is then consumed draw-for-draw in sequential order.

        ``chunk_passes`` bounds peak memory by evaluating at most that
        many passes per stacked call (default: all at once).
        """
        if n_samples < 1:
            raise ValueError("need at least one MC sample")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        batch = x.shape[0]
        selections = self._draw_selections(n_samples)

        chunk = n_samples if chunk_passes is None else max(1, int(chunk_passes))
        split = self._stochastic_split()
        if self._has_read_noise():
            chunk = 1
            split = 0
        n_prefix_mvms = sum(
            isinstance(s, _SpinBayesMvmLayer) for s in self.stages[:split])

        # Pass-invariant prefix: run once, book T-fold.
        h = x
        if split > 0:
            with self.ledger.amortized(n_samples):
                for stage in self.stages[:split]:
                    if isinstance(stage, _SpinBayesMvmLayer):
                        h = stage.forward(h, component=0)
                    else:
                        h = self._apply_static(stage, h)

        outs = []
        for t0 in range(0, n_samples, chunk):
            t1 = min(t0 + chunk, n_samples)
            flat = np.broadcast_to(
                h[None], (t1 - t0,) + h.shape).reshape(
                    ((t1 - t0) * batch,) + h.shape[1:])
            mvm_idx = n_prefix_mvms
            for stage in self.stages[split:]:
                if isinstance(stage, _SpinBayesMvmLayer):
                    flat = stage.forward_banked(
                        flat, selections[t0:t1, mvm_idx], batch)
                    mvm_idx += 1
                else:
                    flat = self._apply_static(stage, flat)
            outs.append(flat.reshape((t1 - t0, batch) + flat.shape[1:]))
        if len(outs) == 1:
            return outs[0]
        return np.concatenate(outs, axis=0)

    def mc_forward(self, x: np.ndarray, n_samples: int = 20,
                   batched: bool = True,
                   chunk_passes: Optional[int] = None) -> PredictiveResult:
        """Monte-Carlo Bayesian inference on hardware: T passes.

        ``batched=True`` (default) evaluates all passes through the
        vectorized engine; ``batched=False`` keeps the original
        per-pass loop (the reference implementation the equivalence
        tests pin the batched engine against).
        """
        if batched:
            return self.mc_forward_batched(x, n_samples=n_samples,
                                           chunk_passes=chunk_passes)
        return mc_predict_fn(self.forward, x, n_samples=n_samples)

    def mc_forward_batched(self, x: np.ndarray, n_samples: int = 20,
                           chunk_passes: Optional[int] = None
                           ) -> PredictiveResult:
        """Batched MC inference: one stacked evaluation of all T passes."""
        return mc_predict_batched(
            lambda inp, t: self.forward_batched(inp, t,
                                                chunk_passes=chunk_passes),
            x, n_samples=n_samples)

    def mvm_layers(self) -> List[_SpinBayesMvmLayer]:
        return [s for s in self.stages if isinstance(s, _SpinBayesMvmLayer)]

    @property
    def n_crossbars(self) -> int:
        return sum(layer.n_components for layer in self.mvm_layers())

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
