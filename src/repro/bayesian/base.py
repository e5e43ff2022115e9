"""Shared Bayesian-inference machinery.

All six NeuSpin methods produce predictions the same way: ``T``
stochastic forward passes (each drawing fresh dropout masks / scale
samples / crossbar selections) whose softmax outputs are averaged into
the predictive distribution; the spread across passes carries the
epistemic uncertainty (Sec. II-C).  This module implements that Monte
Carlo loop for training-side models and leaves the deployed (CIM) loop
to :mod:`repro.bayesian.deploy`.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Callable, Optional

import numpy as np

from repro import nn
from repro.tensor import Tensor, no_grad
from repro.tensor.functional import _softmax_np


@dataclasses.dataclass
class PredictiveResult:
    """Output of Monte-Carlo Bayesian inference.

    ``probs``: (N, C) predictive mean probabilities.
    ``samples``: (T, N, C) per-pass probabilities (uncertainty source).

    ``served_samples``/``degraded`` are serving-side provenance: the
    number of MC passes actually run, and whether an SLO control
    plane shed passes below the request's asked-for T (adaptive-T
    degradation trades credible-interval width for latency — see
    :mod:`repro.serving.controlplane`).  Direct engine calls always
    serve the full requested T (``degraded`` stays ``False``).
    """

    probs: np.ndarray
    samples: np.ndarray
    served_samples: Optional[int] = None    # MC passes actually run
    degraded: bool = False                  # True when passes were shed

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "PredictiveResult":
        """Build a result from a stacked (T, N, C) probability tensor."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim < 3:
            # A 2-D (T, N) array (class axis missing) must not slip
            # through: entropy/std/argmax would silently reduce over
            # the wrong axis.
            raise ValueError(
                "samples must be (T, N, C): MC axis, batch axis, class "
                f"axis — got shape {samples.shape}; add the class axis "
                "(e.g. probs[:, :, None] for a binary/regression head)")
        return cls(probs=samples.mean(axis=0), samples=samples,
                   served_samples=int(samples.shape[0]))

    @classmethod
    def from_logits(cls, logits: np.ndarray) -> "PredictiveResult":
        """Build a result from stacked (T, N, C) raw logits."""
        return cls.from_samples(_softmax_np(
            np.asarray(logits, dtype=np.float64), axis=-1))

    @property
    def predictions(self) -> np.ndarray:
        return self.probs.argmax(axis=-1)

    @property
    def predictive_entropy(self) -> np.ndarray:
        p = np.clip(self.probs, 1e-12, 1.0)
        return -(p * np.log(p)).sum(axis=-1)

    @property
    def expected_entropy(self) -> np.ndarray:
        p = np.clip(self.samples, 1e-12, 1.0)
        return -(p * np.log(p)).sum(axis=-1).mean(axis=0)

    @property
    def mutual_information(self) -> np.ndarray:
        """BALD epistemic-uncertainty score (total − aleatoric)."""
        return np.maximum(self.predictive_entropy - self.expected_entropy, 0.0)

    @property
    def predictive_std(self) -> np.ndarray:
        """Mean per-class std-dev across passes (alternative score)."""
        return self.samples.std(axis=0).mean(axis=-1)


class StochasticModule(nn.Module):
    """Marker base for layers that stay stochastic during inference.

    ``mc_mode`` switches the layer into Monte-Carlo inference: it keeps
    sampling even when the surrounding model is in ``eval()`` mode
    (the defining trick of MC-Dropout, ref [5] of the paper).

    Batched Monte-Carlo support: :func:`mc_predict` (``batched=True``)
    evaluates all T passes as one stacked ``(T·N, …)`` tensor.  For
    that, each stochastic layer pre-draws its per-pass randomness
    through :meth:`mc_draw_pass` (called T times, pass-major across the
    model's layers — the sequential draw order) and applies the
    installed bank in ``forward`` — row-wise for activation masks,
    pass-blocked (one GEMM per pass) for weight masks like
    DropConnect.  Layers that override neither simply don't implement
    :meth:`mc_draw_pass`; :func:`mc_predict` then falls back to the
    sequential loop.
    """

    def __init__(self) -> None:
        super().__init__()
        self.mc_mode = False
        self._mc_bank: Optional[np.ndarray] = None
        self._mc_rows: int = 0

    def enable_mc(self, enabled: bool = True) -> None:
        self.mc_mode = enabled

    @property
    def stochastic_active(self) -> bool:
        return self.training or self.mc_mode

    # -------------------------------------------------- batched MC
    def mc_draw_pass(self, batch: int):
        """Draw ONE MC pass's randomness (same stream as a forward).

        Returns whatever per-pass state the layer needs (a mask, a
        scalar keep bit, a posterior sample…); :func:`mc_predict`
        stacks T of these into the layer's bank.  Default: the layer
        does not support stacked evaluation.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no batched-MC support")

    def mc_draw_passes(self, batch: int, n_passes: int):
        """Draw ``n_passes`` consecutive passes' randomness in one
        vectorized call, consuming the RNG stream exactly as
        ``n_passes`` :meth:`mc_draw_pass` calls would.  Only valid
        when the draw order permits it — the stacked engines use it
        solely for models with a single stochastic layer, where
        pass-major and module-major order coincide.  Default: not
        supported (the engines fall back to the per-pass loop).
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no vectorized pass drawing")

    def mc_install_bank(self, bank: np.ndarray, rows_per_pass: int) -> None:
        """Install a (P, …) stack of pre-drawn passes; ``forward`` then
        treats its input as P passes of ``rows_per_pass`` rows each."""
        self._mc_bank = bank
        self._mc_rows = rows_per_pass

    def mc_clear_bank(self) -> None:
        self._mc_bank = None
        self._mc_rows = 0


def set_mc_mode(model: nn.Module, enabled: bool = True) -> None:
    """Enable/disable MC sampling on every stochastic layer of a model."""
    for module in model.modules():
        if isinstance(module, StochasticModule):
            module.enable_mc(enabled)


# Auto-dispatch bound for the stacked software path: below this many
# total rows (T·N) the per-pass Python overhead dominates and stacking
# wins (measured 1.3–8x on the Table-I MLP); above it the working set
# falls out of cache and the sequential loop is faster, so mc_predict
# picks it instead.
_MC_STACK_AUTO_ROWS = 4096


def mc_predict(model: nn.Module, x: np.ndarray, n_samples: int = 20,
               batch_size: Optional[int] = None,
               batched: bool = True) -> PredictiveResult:
    """Monte-Carlo predictive distribution of a training-side model.

    Runs ``n_samples`` forward passes in eval mode with stochastic
    layers forced on, collecting softmax probabilities.  Per-pass
    randomness is drawn in the same stream order whichever execution
    strategy runs them, so the strategies agree draw-for-draw; the
    equivalence tests additionally pin them bit-for-bit on the
    supported BLAS builds (stacked matmuls can in principle differ in
    the last ulp from per-pass ones on exotic kernels).

    ``batched=True`` (default) may evaluate the passes as stacked
    ``(T·N, …)`` tensors: every stochastic layer pre-draws its T
    per-pass randomness (pass-major, the sequential draw order) and
    applies it row-wise, so the whole prediction costs a handful of
    ndarray ops instead of T Python-level forward walks.  The stacked
    strategy is chosen when the pass-stack is small enough to stay
    cache-resident (``T·N`` under ~4k rows — the serving regime, where
    it is 1.3–8x faster); larger requests keep the sequential loop,
    which wins there.  Models containing a stochastic layer without
    bank support always fall back to the sequential loop (every
    bundled layer — including DropConnect, whose per-pass *weight*
    masks apply as a batched matmul — now supports banks).
    ``batch_size`` bounds row count in the sequential path.  The
    model's train/eval mode is restored on return.
    """
    state = _enter_mc_eval(model)
    try:
        if batched and np.shape(x)[0] * n_samples <= _MC_STACK_AUTO_ROWS:
            result = _mc_predict_stacked(model, x, n_samples)
            if result is not None:
                return result
        samples = []
        with no_grad():
            for _ in range(n_samples):
                samples.append(_forward_probs(model, x, batch_size))
        return PredictiveResult.from_samples(np.stack(samples))
    finally:
        _exit_mc_eval(model, state)


def split_pass_invariant_prefix(model: nn.Module):
    """Split a model into (pass-invariant prefix, stochastic suffix).

    For :class:`~repro.nn.Sequential` models, every layer before the
    first one containing a :class:`StochasticModule` is deterministic
    in eval mode and therefore identical across MC passes — the
    stacked engines evaluate that prefix ONCE on the raw batch and
    broadcast its output across the pass-stack, instead of recomputing
    it per pass (the train-side counterpart of the deployed engines'
    prefix memoization).  Non-sequential models get an empty prefix.
    """
    if not isinstance(model, nn.Sequential):
        return [], [model]
    layers = list(model)
    for i, layer in enumerate(layers):
        if any(isinstance(m, StochasticModule) for m in layer.modules()):
            return layers[:i], layers[i:]
    return layers, []


def _mc_predict_stacked(model: nn.Module, x: np.ndarray, n_samples: int
                        ) -> Optional[PredictiveResult]:
    """Stacked evaluation of all T passes; None if unsupported.

    Pre-draws every stochastic layer's per-pass randomness in
    pass-major order (the order T sequential forwards would draw in),
    installs the banks, and pushes one ``(T·N, …)`` pass-stack through
    the model — the pass-invariant prefix evaluated once and broadcast.
    Layers raising ``NotImplementedError`` from
    :meth:`StochasticModule.mc_draw_pass` abort the stacked path before
    any randomness is consumed beyond the first failing layer — the
    caller then falls back to the sequential loop.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    # Decide support BEFORE consuming any randomness: bailing out
    # halfway through the draws would hand the sequential fallback a
    # shifted RNG stream and break bit-for-bit parity with
    # ``batched=False``.
    _, modules, supported, prefix, suffix = _stacked_plan(model)
    if not supported:
        return None
    banks = _mc_draw_banks(modules, n, n_samples)
    try:
        with no_grad():
            base = _run_layers(prefix, x)
            for module, bank in zip(modules, banks):
                module.mc_install_bank(bank, n)
            stacked = np.broadcast_to(
                base[None], (n_samples,) + base.shape).reshape(
                    (n_samples * n,) + base.shape[1:])
            probs = _softmax_np(_run_layers(suffix, stacked), axis=-1)
    finally:
        for module in modules:
            module.mc_clear_bank()
    return PredictiveResult.from_samples(
        probs.reshape((n_samples, n) + probs.shape[1:]))


def _mc_draw_banks(modules, n_rows: int, n_samples: int):
    """Pre-draw T passes of per-layer randomness, pass-major (the
    sequential draw order), stacked into one bank per layer.

    With a single stochastic layer pass-major and module-major order
    coincide, so a vectorized :meth:`StochasticModule.mc_draw_passes`
    (when the layer provides one) replaces the T-iteration Python
    loop — same RNG stream, one draw call.
    """
    if len(modules) == 1 and (
            type(modules[0]).mc_draw_passes
            is not StochasticModule.mc_draw_passes):
        bank = modules[0].mc_draw_passes(n_rows, n_samples)
        return [np.asarray(bank, dtype=np.float64)]
    draws: list = [[] for _ in modules]
    for _ in range(n_samples):
        for slot, module in zip(draws, modules):
            slot.append(module.mc_draw_pass(n_rows))
    return [np.asarray(slot, dtype=np.float64) for slot in draws]


# Memoized per-model stacked-execution plan: the module lists, the
# batched-support verdict, and the pass-invariant prefix split.
# Keyed weakly so models die normally; rebuilt only when a new model
# object appears.  (A model whose *structure* is mutated in place
# after first use would need the cache entry dropped — none of the
# repo's models do that.)
_model_stacked_plans: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _module_lists(model: nn.Module):
    """Cached (all modules, stochastic modules) of a model — the
    recursive ``modules()`` walk is surprisingly expensive to repeat
    on every engine call."""
    return _stacked_plan(model)[:2]


def _stacked_plan(model: nn.Module):
    plan = _model_stacked_plans.get(model)
    if plan is None:
        all_modules = list(model.modules())
        modules = [m for m in all_modules
                   if isinstance(m, StochasticModule)]
        supported = not any(
            type(m).mc_draw_pass is StochasticModule.mc_draw_pass
            for m in modules)
        prefix, suffix = split_pass_invariant_prefix(model)
        plan = (all_modules, modules, supported, prefix, suffix)
        _model_stacked_plans[model] = plan
    return plan


def _enter_mc_eval(model: nn.Module, mc: bool = True):
    """Flip the model into inference mode (eval, with MC sampling on
    or off) using the cached module lists instead of four recursive
    walks.  Returns the state needed by :func:`_exit_mc_eval`."""
    all_modules, stochastic = _module_lists(model)
    # Per-module snapshot: a deliberately frozen submodule (e.g. a
    # BatchNorm pinned to eval during fine-tuning) must come back
    # frozen, not inherit the root's mode.
    prior_modes = [module.training for module in all_modules]
    for module in all_modules:
        object.__setattr__(module, "training", False)
    for module in stochastic:
        module.mc_mode = mc
    return all_modules, stochastic, prior_modes


def _exit_mc_eval(model: nn.Module, state) -> None:
    all_modules, stochastic, prior_modes = state
    for module in stochastic:
        module.mc_mode = False
    for module, mode in zip(all_modules, prior_modes):
        object.__setattr__(module, "training", mode)


def _run_layers(layers, x: np.ndarray) -> np.ndarray:
    out = Tensor(x)
    for layer in layers:
        out = layer(out)
    return out.data


def deterministic_predict(model: nn.Module, x: np.ndarray,
                          batch_size: Optional[int] = None) -> np.ndarray:
    """Single deterministic forward pass (stochastic layers off).

    The model's train/eval mode is restored on return (MC mode is
    deliberately left off — this is the explicit "turn sampling off"
    entry point).
    """
    state = _enter_mc_eval(model, mc=False)
    try:
        with no_grad():
            return _forward_probs(model, x, batch_size)
    finally:
        _exit_mc_eval(model, state)


def _forward_probs(model: nn.Module, x: np.ndarray,
                   batch_size: Optional[int]) -> np.ndarray:
    if batch_size is None or len(x) <= batch_size:
        return _softmax_np(model(Tensor(x)).data, axis=-1)
    chunks = [
        _softmax_np(model(Tensor(x[i:i + batch_size])).data, axis=-1)
        for i in range(0, len(x), batch_size)
    ]
    return np.concatenate(chunks, axis=0)


def mc_predict_fn(forward: Callable[[np.ndarray], np.ndarray],
                  x: np.ndarray, n_samples: int = 20) -> PredictiveResult:
    """MC prediction over an arbitrary stochastic forward function.

    Used by the deployed (CIM) path where ``forward`` returns raw
    logits from numpy-level inference.
    """
    samples = []
    for _ in range(n_samples):
        samples.append(_softmax_np(forward(x), axis=-1))
    return PredictiveResult.from_samples(np.stack(samples))


def mc_predict_batched(forward_batched: Callable[[np.ndarray, int], np.ndarray],
                       x: np.ndarray, n_samples: int = 20) -> PredictiveResult:
    """MC prediction over a *vectorized* stochastic forward function.

    ``forward_batched(x, n_samples)`` must evaluate every Monte-Carlo
    pass in one call and return logits with a leading sample axis,
    shape ``(n_samples, N, C)`` — the batched counterpart of
    :func:`mc_predict_fn`'s T sequential calls.  Used by the deployed
    (CIM) path, where :meth:`repro.bayesian.BayesianCim.forward_batched`
    threads the sample axis through the whole analog chain as stacked
    ndarray ops.
    """
    logits = np.asarray(forward_batched(x, n_samples), dtype=np.float64)
    if logits.ndim < 3 or logits.shape[0] != n_samples:
        raise ValueError(
            f"forward_batched must return (n_samples, N, C) logits; "
            f"got shape {logits.shape} for n_samples={n_samples}")
    return PredictiveResult.from_logits(logits)
