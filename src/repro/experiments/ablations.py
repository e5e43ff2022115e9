"""Experiment A1 — ablations over the design choices DESIGN.md calls out.

* RNG-count scaling versus model width for every dropout flavour
  (the Sec. II-D scalability argument in numbers).
* Quantization error / accuracy versus cell bit-precision (the
  SpinBayes design-time exploration).
* Robustness of each Bayesian method versus stuck-at defect rate
  (key takeaway #8: inherent robustness / self-healing).
* STE clip-width ablation for binary training.
* Mapping strategy ① vs ② crossbar utilization across kernel shapes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from repro import nn
from repro.bayesian import (
    BayesianCim,
    make_affine_mlp,
    make_binary_mlp,
    make_scaledrop_mlp,
    make_spindrop_mlp,
    mc_predict,
)
from repro.cim import CimConfig, ConvShape, MappingStrategy, plan_conv_mapping
from repro.data import batches
from repro.devices import DefectModel, DefectRates
from repro.energy import mlp_spec, method_rng_bits
from repro.experiments.common import (
    TrainConfig,
    digits_dataset,
    mc_accuracy,
    train_classifier,
)
from repro.tensor import Tensor, functional as F


# ----------------------------------------------------------------------
# RNG-count scaling
# ----------------------------------------------------------------------
def rng_scaling(widths: Tuple[int, ...] = (64, 128, 256, 512, 1024),
                in_features: int = 256, n_classes: int = 10
                ) -> Dict[str, List[int]]:
    """Dropout-module count versus hidden width, per method.

    Shows the scalability wall of MC-Dropout / DropConnect versus the
    constant-per-layer cost of Scale/Affine dropout (Sec. III intro).
    """
    out: Dict[str, List[int]] = {m: [] for m in (
        "spindrop", "mc_dropconnect", "spatial", "scaledrop", "affine")}
    for width in widths:
        spec = mlp_spec(in_features, (width, width // 2), n_classes)
        for method in out:
            out[method].append(method_rng_bits(spec, method))
    return out


# ----------------------------------------------------------------------
# Defect robustness
# ----------------------------------------------------------------------
@dataclasses.dataclass
class DefectPoint:
    method: str
    fault_rate: float
    accuracy: float


def defect_robustness(fast: bool = True, seed: int = 0,
                      fault_rates: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.1)
                      ) -> List[DefectPoint]:
    """Deployed accuracy versus stuck-at rate for three methods.

    Expected shape (key takeaway #8): Bayesian methods degrade more
    gracefully than the deterministic baseline, and the affine
    (self-healing) model degrades least.
    """
    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1500 if fast else 4000, seed=seed)
    hidden = (128, 64) if fast else (256, 128)
    n_eval = 200 if fast else 600
    x_eval, y_eval = data.x_test[:n_eval], data.y_test[:n_eval]

    models = {
        "deterministic": train_classifier(
            make_binary_mlp(data.n_features, hidden, data.n_classes,
                            seed=seed), data, config),
        "spindrop": train_classifier(
            make_spindrop_mlp(data.n_features, hidden, data.n_classes,
                              p=0.1, seed=seed), data, config),
        "affine": train_classifier(
            make_affine_mlp(data.n_features, hidden, data.n_classes,
                            p=0.15, seed=seed), data, config),
    }

    points: List[DefectPoint] = []
    for rate in fault_rates:
        rates = DefectRates(stuck_at_p=rate / 2, stuck_at_ap=rate / 2)
        for name, model in models.items():
            cim_config = CimConfig(
                defects=DefectModel(rates,
                                    rng=np.random.default_rng(seed + 13))
                if rate > 0 else None,
                seed=seed + 17)
            deployed = BayesianCim(model, cim_config, seed=seed + 17)
            if name == "deterministic":
                logits = deployed.deterministic_forward(x_eval)
                acc = float((logits.argmax(-1) == y_eval).mean())
            else:
                acc = mc_accuracy(
                    deployed.mc_forward(x_eval, config.mc_samples), y_eval)
            points.append(DefectPoint(name, rate, acc))
    return points


# ----------------------------------------------------------------------
# STE clip ablation
# ----------------------------------------------------------------------
def ste_clip_ablation(clips: Tuple[float, ...] = (0.05, 0.25, 1.0),
                      seed: int = 0, epochs: int = 6) -> Dict[float, float]:
    """Training accuracy versus the STE pass-through window width.

    Note: with Kaiming-scale latent weights (|w| ≈ 0.15 at init) and
    short budgets, windows ≥ 0.5 never bind and results coincide; the
    grid therefore reaches down to 0.05 where the clip actively
    constrains training.
    """
    data = digits_dataset(n_samples=1200, seed=seed)
    results: Dict[float, float] = {}
    for clip in clips:
        rng = np.random.default_rng(seed)

        class _ClippedBinary(nn.BinaryLinear):
            def binary_weight(self):
                return F.sign_ste(self.weight, clip=clip)

        model = nn.Sequential(
            _ClippedBinary(data.n_features, 128, rng=rng,
                           binarize_input=True),
            nn.BatchNorm1d(128),
            nn.SignActivation(),
            _ClippedBinary(128, data.n_classes, rng=rng),
        )
        opt = nn.Adam(model.parameters(), lr=1e-2)
        for epoch in range(epochs):
            model.train()
            for xb, yb in batches(data.x_train, data.y_train, 64,
                                  seed=epoch):
                loss = nn.cross_entropy(model(Tensor(xb)), yb)
                opt.zero_grad()
                loss.backward()
                opt.step()
                nn.clip_latent_weights(model, bound=clip)
        model.eval()
        from repro.tensor import no_grad
        with no_grad():
            logits = model(Tensor(data.x_test)).data
        results[clip] = float((logits.argmax(-1) == data.y_test).mean())
    return results


# ----------------------------------------------------------------------
# Mapping utilization sweep
# ----------------------------------------------------------------------
def mapping_utilization(kernel_sizes: Tuple[int, ...] = (3, 5, 7),
                        channels: Tuple[Tuple[int, int], ...] = (
                            (8, 16), (16, 32), (32, 64))
                        ) -> List[dict]:
    """Crossbar utilization of both strategies across layer shapes."""
    rows = []
    for k in kernel_sizes:
        for c_in, c_out in channels:
            shape = ConvShape(c_in, c_out, k)
            p1 = plan_conv_mapping(shape, MappingStrategy.UNFOLDED_COLUMN)
            p2 = plan_conv_mapping(shape, MappingStrategy.TILED_KXK)
            rows.append({
                "kernel": k, "c_in": c_in, "c_out": c_out,
                "s1_crossbars": p1.n_crossbars,
                "s1_utilization": p1.utilization,
                "s2_crossbars": p2.n_crossbars,
                "s2_utilization": p2.utilization,
            })
    return rows


# ----------------------------------------------------------------------
# Operating-temperature sweep (device model, key takeaway #4)
# ----------------------------------------------------------------------
def temperature_sweep(temperatures: Tuple[float, ...] = (250.0, 300.0,
                                                         350.0, 400.0),
                      target_p: float = 0.25, n_modules: int = 256,
                      seed: int = 0) -> List[dict]:
    """Realized dropout probability versus operating temperature.

    Higher temperature lowers the thermal stability factor Δ, so a
    module programmed at 300 K fires more often when hot — the drift
    the Scale-Dropout Gaussian-p model absorbs and the calibration
    loop can trim out.
    """
    from repro.devices import (
        DeviceVariability,
        SpintronicRNG,
        VariabilityParams,
    )

    rows = []
    for temp in temperatures:
        var = DeviceVariability(
            VariabilityParams(sigma_delta=0.03), temperature=temp,
            rng=np.random.default_rng(seed))
        bank = SpintronicRNG(n_modules, p=target_p,
                             variability=var,
                             rng=np.random.default_rng(seed))
        raw_mu, raw_sigma = bank.fitted_probability()
        calibrated = bank.calibrate(n_samples=4000, tolerance=0.02)
        rows.append({
            "temperature_k": temp,
            "target_p": target_p,
            "raw_p_mu": raw_mu,
            "raw_p_sigma": raw_sigma,
            "calibrated_p": calibrated,
        })
    return rows


# ----------------------------------------------------------------------
# ADC-resolution and wire-resistance sweeps (CIM non-idealities)
# ----------------------------------------------------------------------
def adc_resolution_sweep(fast: bool = True, seed: int = 0,
                         bit_grid: Tuple[int, ...] = (2, 4, 6, 10)
                         ) -> Dict[int, float]:
    """Deployed accuracy versus ADC bit width (quantization error)."""
    from repro.bayesian import BayesianCim, make_spindrop_mlp, mc_predict
    from repro.cim import CimConfig

    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1200 if fast else 4000, seed=seed)
    model = train_classifier(
        make_spindrop_mlp(data.n_features, (64,) if fast else (256, 128),
                          data.n_classes, p=0.15, seed=seed),
        data, config)
    n_eval = 150 if fast else 500
    x, y = data.x_test[:n_eval], data.y_test[:n_eval]
    out: Dict[int, float] = {}
    for bits in bit_grid:
        deployed = BayesianCim(model, CimConfig(adc_bits=bits, seed=seed),
                               seed=seed)
        result = deployed.mc_forward(x, config.mc_samples)
        out[bits] = mc_accuracy(result, y)
    return out


def wire_resistance_sweep(fast: bool = True, seed: int = 0,
                          resistances: Tuple[float, ...] = (0.0, 1.0, 5.0)
                          ) -> Dict[float, float]:
    """Deployed accuracy versus wordline wire resistance (IR drop)."""
    from repro.bayesian import BayesianCim, make_spindrop_mlp
    from repro.cim import CimConfig

    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1200 if fast else 4000, seed=seed)
    model = train_classifier(
        make_spindrop_mlp(data.n_features, (64,) if fast else (256, 128),
                          data.n_classes, p=0.15, seed=seed),
        data, config)
    n_eval = 150 if fast else 500
    x, y = data.x_test[:n_eval], data.y_test[:n_eval]
    out: Dict[float, float] = {}
    for r_wire in resistances:
        deployed = BayesianCim(model, CimConfig(wire_resistance=r_wire,
                                                seed=seed), seed=seed)
        result = deployed.mc_forward(x, config.mc_samples)
        out[r_wire] = mc_accuracy(result, y)
    return out


# ----------------------------------------------------------------------
# Retention aging (deployment-lifetime reliability)
# ----------------------------------------------------------------------
def retention_aging(fast: bool = True, seed: int = 0,
                    ages_years: Tuple[float, ...] = (0.0, 1.0, 5.0, 10.0),
                    storage_delta: float = 50.0,
                    delta_sigma: float = 0.1) -> List[dict]:
    """Deployed accuracy versus time since programming.

    Ages every crossbar cell with the Néel–Brown retention law using
    per-device Δ realizations.  Storage cells are engineered for
    retention (Δ ≈ 50–60, unlike the Δ ≈ 40 write-friendly RNG
    devices), so the nominal device never flips on a deployment
    timescale — the failures come from the low-Δ manufacturing tail,
    which is exactly the in-field reliability concern of key
    takeaway #4.
    """
    from repro.bayesian import make_spindrop_mlp, mc_predict
    from repro.devices import DeviceVariability, VariabilityParams
    from repro.tensor import Tensor, no_grad

    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1200 if fast else 4000, seed=seed)
    model = train_classifier(
        make_spindrop_mlp(data.n_features, (64,) if fast else (256, 128),
                          data.n_classes, p=0.15, seed=seed),
        data, config)
    n_eval = 200 if fast else 600
    x, y = data.x_test[:n_eval], data.y_test[:n_eval]

    variability = DeviceVariability(
        VariabilityParams(sigma_delta=delta_sigma),
        rng=np.random.default_rng(seed + 3))
    defects = DefectModel(rng=np.random.default_rng(seed + 5))

    # Snapshot trained binary weights; age copies per time point.
    binary_layers = [m for m in model.modules()
                     if isinstance(m, nn.BinaryLinear)]
    originals = [np.where(m.weight.data >= 0, 1.0, -1.0)
                 for m in binary_layers]
    deltas = [variability.sample_deltas(storage_delta, w.shape)
              for w in originals]

    results = []
    year = 365.25 * 24 * 3600
    for age in ages_years:
        for layer, w0, d in zip(binary_layers, originals, deltas):
            aged = defects.age_binary_weights(w0, age * year, deltas=d)
            layer.weight.data = aged.copy()
        result = mc_predict(model, x, n_samples=config.mc_samples)
        flipped = float(np.mean([
            (np.where(layer.weight.data >= 0, 1, -1) != w0).mean()
            for layer, w0 in zip(binary_layers, originals)]))
        results.append({
            "age_years": age,
            "accuracy": mc_accuracy(result, y),
            "flipped_fraction": flipped,
        })
    # Restore the un-aged weights.
    for layer, w0 in zip(binary_layers, originals):
        layer.weight.data = w0.copy()
    return results


# ----------------------------------------------------------------------
# Calibration quality across methods (uncertainty-quality claim)
# ----------------------------------------------------------------------
def calibration_comparison(fast: bool = True, seed: int = 0
                           ) -> Dict[str, Dict[str, float]]:
    """ECE and NLL of Bayesian methods vs the deterministic baseline.

    The paper claims uncertainty-estimation improvements (SpinBayes:
    "up to 20.16%"); proper scoring rules on the predictive
    distribution are the measurable form of that claim.
    """
    from repro.bayesian import (
        deterministic_predict,
        make_scaledrop_mlp,
        make_spindrop_mlp,
        make_subset_vi_mlp,
        mc_predict,
    )
    from repro.bayesian.spindrop import make_binary_mlp
    from repro.uncertainty import expected_calibration_error, nll

    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1500 if fast else 4000, seed=seed)
    hidden = (128, 64) if fast else (256, 128)

    out: Dict[str, Dict[str, float]] = {}

    det = train_classifier(
        make_binary_mlp(data.n_features, hidden, data.n_classes,
                        seed=seed), data, config)
    probs = deterministic_predict(det, data.x_test)
    out["deterministic"] = {
        "accuracy": float((probs.argmax(-1) == data.y_test).mean()),
        "ece": expected_calibration_error(probs, data.y_test),
        "nll": nll(probs, data.y_test),
    }

    factories = {
        "spindrop": lambda: make_spindrop_mlp(
            data.n_features, hidden, data.n_classes, p=0.15, seed=seed),
        "scaledrop": lambda: make_scaledrop_mlp(
            data.n_features, hidden, data.n_classes, seed=seed),
        "subset_vi": lambda: make_subset_vi_mlp(
            data.n_features, hidden, data.n_classes, seed=seed),
    }
    for name, factory in factories.items():
        model = train_classifier(
            factory(), data, config,
            loss_kind="elbo" if name == "subset_vi" else "ce",
            scale_reg_strength=1e-3 if name == "scaledrop" else 0.0)
        result = mc_predict(model, data.x_test,
                            n_samples=config.mc_samples)
        out[name] = {
            "accuracy": mc_accuracy(result, data.y_test),
            "ece": expected_calibration_error(result.probs, data.y_test),
            "nll": nll(result.probs, data.y_test),
        }
    return out


# ----------------------------------------------------------------------
# Scalar vs vector dropout masks (ScaleDrop design choice)
# ----------------------------------------------------------------------
def scalar_vs_vector_masks(fast: bool = True, seed: int = 0
                           ) -> Dict[str, float]:
    """Accuracy of scalar-mask ScaleDrop vs element-wise SpinDrop.

    The RNG-count difference is orders of magnitude (1 vs #neurons per
    layer); the claim is that predictive performance stays comparable.
    """
    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1500 if fast else 4000, seed=seed)
    hidden = (128, 64) if fast else (256, 128)
    scale = train_classifier(
        make_scaledrop_mlp(data.n_features, hidden, data.n_classes,
                           seed=seed),
        data, config, scale_reg_strength=1e-3)
    spin = train_classifier(
        make_spindrop_mlp(data.n_features, hidden, data.n_classes,
                          p=0.1, seed=seed),
        data, config)
    return {
        "scalar_mask_accuracy": mc_accuracy(
            mc_predict(scale, data.x_test, n_samples=config.mc_samples),
            data.y_test),
        "vector_mask_accuracy": mc_accuracy(
            mc_predict(spin, data.x_test, n_samples=config.mc_samples),
            data.y_test),
    }
