"""Experiments C1–C6 — the paper's per-method headline claims.

Each ``run_*`` function trains/evaluates what the corresponding claim
needs and returns a structured result; the benchmarks assert the
claim's *shape* (orderings, bands) and EXPERIMENTS.md records
paper-vs-measured values.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro import nn
from repro.bayesian import (
    BayesianCim,
    SpinBayesNetwork,
    conventional_vi_footprint_bits,
    count_dropout_modules,
    make_affine_mlp,
    make_affine_regressor,
    make_binary_mlp,
    make_scaledrop_mlp,
    make_spindrop_mlp,
    make_subset_vi_mlp,
    mc_predict,
    memory_footprint_bits,
    deterministic_predict,
    set_mc_mode,
)
from repro.cim import CimConfig, compile_to_cim
from repro.data import corrupt, forecast_dataset, ood
from repro.devices import DefectModel, DefectRates
from repro.energy import (
    dropout_subsystem_energy,
    lenet_like,
    method_energy_per_image,
    method_rng_bits,
)
from repro.experiments.common import (
    TrainConfig,
    digits_dataset,
    mc_accuracy,
    rmse,
    train_classifier,
    train_regressor,
)
from repro.tensor import Tensor, no_grad
from repro.uncertainty import detect, nll


# ----------------------------------------------------------------------
# C1 — SpinDrop: OOD detection, accuracy gain, corruption robustness
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SpinDropClaims:
    accuracy_bayesian: float
    accuracy_deterministic: float
    ood_detection_letters: float
    ood_detection_noise: float
    ood_auroc_letters: float
    corrupted_bayesian: Dict[str, float]
    corrupted_deterministic: Dict[str, float]

    @property
    def accuracy_gain(self) -> float:
        return self.accuracy_bayesian - self.accuracy_deterministic

    @property
    def mean_corruption_gain(self) -> float:
        gains = [self.corrupted_bayesian[k] - self.corrupted_deterministic[k]
                 for k in self.corrupted_bayesian]
        return float(np.mean(gains))


def run_c1_spindrop(fast: bool = True, seed: int = 0) -> SpinDropClaims:
    """SpinDrop vs deterministic binary NN (Sec. III-A.1 claims).

    Uses the low-jitter dataset variant: the paper's OOD protocol
    assumes a model near its accuracy ceiling (MNIST-like regime), and
    detection rates collapse when the in-distribution entropy tail is
    fat (see EXPERIMENTS.md).
    """
    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1500 if fast else 4000, jitter=0.4,
                          seed=seed)
    hidden = (128, 64) if fast else (256, 128)

    bayes = make_spindrop_mlp(data.n_features, hidden, data.n_classes,
                              p=0.2, seed=seed)
    train_classifier(bayes, data, config)
    det = make_binary_mlp(data.n_features, hidden, data.n_classes, seed=seed)
    train_classifier(det, data, config)

    result = mc_predict(bayes, data.x_test, n_samples=config.mc_samples)
    det_probs = deterministic_predict(det, data.x_test)
    acc_bayes = mc_accuracy(result, data.y_test)
    acc_det = float((det_probs.argmax(-1) == data.y_test).mean())

    # OOD detection via predictive entropy at 95 % ID keep rate.
    id_scores = result.predictive_entropy
    n_ood = 300 if fast else 1000
    letters = ood.letters(n_ood, size=data.image_size, seed=seed + 7)
    noise = ood.uniform_noise(n_ood, data.n_features, seed=seed + 8)
    letters_result = mc_predict(bayes, letters, n_samples=config.mc_samples)
    noise_result = mc_predict(bayes, noise, n_samples=config.mc_samples)
    det_letters = detect(id_scores, letters_result.predictive_entropy)
    det_noise = detect(id_scores, noise_result.predictive_entropy)

    # Corruption robustness (severity 3) for both models.
    rng = np.random.default_rng(seed + 9)
    corrupted_b: Dict[str, float] = {}
    corrupted_d: Dict[str, float] = {}
    names = ("gaussian_noise", "salt_and_pepper", "occlusion")
    n_corr = 300 if fast else 800
    for name in names:
        x_corr = corrupt(data.x_test[:n_corr], name, severity=3, rng=rng)
        y_corr = data.y_test[:n_corr]
        rb = mc_predict(bayes, x_corr, n_samples=config.mc_samples)
        corrupted_b[name] = mc_accuracy(rb, y_corr)
        pd = deterministic_predict(det, x_corr)
        corrupted_d[name] = float((pd.argmax(-1) == y_corr).mean())

    return SpinDropClaims(
        accuracy_bayesian=acc_bayes,
        accuracy_deterministic=acc_det,
        ood_detection_letters=det_letters.detection_rate,
        ood_detection_noise=det_noise.detection_rate,
        ood_auroc_letters=det_letters.auroc,
        corrupted_bayesian=corrupted_b,
        corrupted_deterministic=corrupted_d,
    )


# ----------------------------------------------------------------------
# C2 — Spatial-SpinDrop: module & energy reductions
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SpatialClaims:
    spindrop_modules: int
    spatial_modules: int
    dropout_energy_ratio: float    # SpinDrop / Spatial (dropout subsystem)
    total_energy_ratio: float      # SpinDrop / Spatial (whole inference)

    @property
    def module_reduction(self) -> float:
        return self.spindrop_modules / max(self.spatial_modules, 1)


def run_c2_spatial(seed: int = 0) -> SpatialClaims:
    """Module-count and energy ratios on the paper-scale reference CNN.

    Pure op-count arithmetic — no training needed; the ratios are
    structural (paper: 9× modules, 94.11× dropout energy, 2.94× total
    vs SpinDrop).
    """
    spec = lenet_like()
    spindrop_modules = method_rng_bits(spec, "spindrop")
    spatial_modules = method_rng_bits(spec, "spatial")
    e_drop_spin = dropout_subsystem_energy(spec, "spindrop")
    e_drop_spatial = dropout_subsystem_energy(spec, "spatial")
    e_spin, _ = method_energy_per_image(spec, "spindrop")
    e_spatial, _ = method_energy_per_image(spec, "spatial")
    return SpatialClaims(
        spindrop_modules=spindrop_modules,
        spatial_modules=spatial_modules,
        dropout_energy_ratio=e_drop_spin / e_drop_spatial,
        total_energy_ratio=e_spin / e_spatial,
    )


# ----------------------------------------------------------------------
# C3 — SpinScaleDrop: 1 RNG/layer, >100× dropout-energy saving
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ScaleDropClaims:
    accuracy_scaledrop: float
    accuracy_spindrop: float
    rng_modules_scaledrop: int
    rng_modules_spindrop: int
    dropout_energy_saving: float   # SpinDrop dropout E / ScaleDrop dropout E
    stochastic_p_mu: float
    stochastic_p_sigma: float


def run_c3_scaledrop(fast: bool = True, seed: int = 0) -> ScaleDropClaims:
    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1500 if fast else 4000, seed=seed)
    hidden = (128, 64) if fast else (256, 128)

    scale_model = make_scaledrop_mlp(data.n_features, hidden,
                                     data.n_classes, seed=seed)
    train_classifier(scale_model, data, config, scale_reg_strength=1e-3)
    spin_model = make_spindrop_mlp(data.n_features, hidden, data.n_classes,
                                   p=0.1, seed=seed)
    train_classifier(spin_model, data, config)

    acc_scale = mc_accuracy(
        mc_predict(scale_model, data.x_test, n_samples=config.mc_samples),
        data.y_test)
    acc_spin = mc_accuracy(
        mc_predict(spin_model, data.x_test, n_samples=config.mc_samples),
        data.y_test)

    spec = lenet_like()
    e_spin = dropout_subsystem_energy(spec, "spindrop")
    e_scale = dropout_subsystem_energy(spec, "scaledrop")

    # Device-variability-fitted dropout probability (Gaussian model).
    from repro.devices import (
        DeviceVariability,
        MTJParams,
        effective_dropout_probabilities,
        fit_gaussian,
    )
    probs = effective_dropout_probabilities(
        0.2, MTJParams(),
        DeviceVariability(rng=np.random.default_rng(seed)), 256)
    mu, sigma = fit_gaussian(probs)

    return ScaleDropClaims(
        accuracy_scaledrop=acc_scale,
        accuracy_spindrop=acc_spin,
        rng_modules_scaledrop=count_dropout_modules(scale_model),
        rng_modules_spindrop=count_dropout_modules(spin_model),
        dropout_energy_saving=e_spin / e_scale,
        stochastic_p_mu=mu,
        stochastic_p_sigma=sigma,
    )


# ----------------------------------------------------------------------
# C4 — Inverted normalization + affine dropout: self-healing & RMSE
# ----------------------------------------------------------------------
@dataclasses.dataclass
class AffineClaims:
    clean_affine: float
    clean_baseline: float
    faulty_affine: float           # accuracy under CIM defects
    faulty_baseline: float
    ood_detection_noise: float
    ood_detection_rotation: float
    rmse_affine: float
    rmse_baseline: float

    @property
    def fault_recovery(self) -> float:
        """Accuracy advantage under faults (the self-healing headline)."""
        return self.faulty_affine - self.faulty_baseline

    @property
    def rmse_reduction(self) -> float:
        return 1.0 - self.rmse_affine / self.rmse_baseline


def run_c4_affine(fast: bool = True, seed: int = 0) -> AffineClaims:
    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1500 if fast else 4000, jitter=0.4,
                          seed=seed)
    hidden = (128, 64) if fast else (256, 128)

    affine = make_affine_mlp(data.n_features, hidden, data.n_classes,
                             p=0.15, seed=seed)
    train_classifier(affine, data, config)
    baseline = make_binary_mlp(data.n_features, hidden, data.n_classes,
                               seed=seed)
    train_classifier(baseline, data, config)

    n_eval = 200 if fast else 600
    x_eval, y_eval = data.x_test[:n_eval], data.y_test[:n_eval]

    result = mc_predict(affine, data.x_test, n_samples=config.mc_samples)
    clean_affine = mc_accuracy(result, data.y_test)
    clean_base = float(
        (deterministic_predict(baseline, data.x_test).argmax(-1)
         == data.y_test).mean())

    # Fault injection: deploy both to CIM with aggressive stuck-at
    # defects; the affine model keeps sampling (self-healing MC mode).
    rates = DefectRates(stuck_at_p=0.05, stuck_at_ap=0.05)
    def _faulty_config(s):
        return CimConfig(
            defects=DefectModel(rates, rng=np.random.default_rng(s)),
            seed=s)
    dep_affine = BayesianCim(affine, _faulty_config(seed + 1),
                             seed=seed + 1)
    faulty_affine = mc_accuracy(
        dep_affine.mc_forward(x_eval, config.mc_samples), y_eval)
    dep_base = compile_to_cim(baseline, _faulty_config(seed + 1))
    logits = dep_base.forward(x_eval)
    faulty_base = float((logits.argmax(-1) == y_eval).mean())

    # OOD detection: uniform noise vs random rotation.
    id_scores = result.predictive_entropy
    n_ood = 300 if fast else 1000
    noise = ood.uniform_noise(n_ood, data.n_features, seed=seed + 2)
    rotated = ood.random_rotation(data.x_test[:n_ood], seed=seed + 3)
    det_noise = detect(id_scores, mc_predict(
        affine, noise, n_samples=config.mc_samples).predictive_entropy)
    det_rot = detect(id_scores, mc_predict(
        affine, rotated, n_samples=config.mc_samples).predictive_entropy)

    # Time-series RMSE: GRU + affine dropout vs plain GRU.  Note:
    # this is the one claim our substitute does NOT reproduce — the
    # affine masks on a small GRU's final hidden state are too violent
    # a perturbation and the MC mean trails the plain baseline (see
    # EXPERIMENTS.md C4 for the analysis).  We keep p low here to
    # bound the damage and record the measured ratio honestly.
    (xtr, ytr), (xte, yte) = forecast_dataset(
        n_points=600 if fast else 2000, seed=seed + 4, noise=0.08)
    epochs = 8 if fast else 30
    reg_affine = make_affine_regressor(1, hidden_size=16 if fast else 32,
                                       p=0.05, seed=seed)
    train_regressor(reg_affine, xtr, ytr, epochs=epochs, seed=seed)
    reg_base = nn.SequenceRegressor(1, hidden_size=16 if fast else 32,
                                    cell="gru",
                                    rng=np.random.default_rng(seed))
    train_regressor(reg_base, xtr, ytr, epochs=epochs, seed=seed)

    set_mc_mode(reg_affine, True)
    with no_grad():
        preds = np.mean([reg_affine(Tensor(xte)).data
                         for _ in range(config.mc_samples)], axis=0)
    set_mc_mode(reg_affine, False)
    rmse_affine = rmse(preds, yte)
    with no_grad():
        rmse_base = rmse(reg_base(Tensor(xte)).data, yte)

    return AffineClaims(
        clean_affine=clean_affine,
        clean_baseline=clean_base,
        faulty_affine=faulty_affine,
        faulty_baseline=faulty_base,
        ood_detection_noise=det_noise.detection_rate,
        ood_detection_rotation=det_rot.detection_rate,
        rmse_affine=rmse_affine,
        rmse_baseline=rmse_base,
    )


# ----------------------------------------------------------------------
# C5 — Subset-VI: NLL under shift, 70× power, 158.7× memory
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SubsetViClaims:
    accuracy: float
    nll_in_distribution: float
    nll_shifted: float
    memory_ratio: float            # conventional VI / subset VI
    power_ratio: float             # conventional-VI-style energy / subset
    bayesian_fraction: float       # Bayesian params / total params


def run_c5_subset_vi(fast: bool = True, seed: int = 0) -> SubsetViClaims:
    from repro.bayesian import bayesian_parameter_count

    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1500 if fast else 4000, seed=seed)
    hidden = (128, 64) if fast else (256, 128)
    model = make_subset_vi_mlp(data.n_features, hidden, data.n_classes,
                               seed=seed)
    train_classifier(model, data, config, loss_kind="elbo")

    result = mc_predict(model, data.x_test, n_samples=config.mc_samples)
    accuracy = mc_accuracy(result, data.y_test)
    nll_id = nll(result.probs, data.y_test)

    shifted = ood.amplitude_shift(data.x_test)
    nll_shift = nll(mc_predict(model, shifted,
                               n_samples=config.mc_samples).probs,
                    data.y_test)

    mem_subset = memory_footprint_bits(model)
    mem_conventional = conventional_vi_footprint_bits(model)

    # Power: conventional VI needs a Gaussian draw per *weight* per
    # pass; subset VI per scale element.  Use the analytic spec.
    spec = lenet_like()
    e_subset, _ = method_energy_per_image(spec, "subset_vi")
    conventional_bits = spec.total_weights   # one draw per weight per pass
    from repro.energy import DEFAULT_ENERGY, forward_pass_ledger, price_ledger
    per_pass = forward_pass_ledger(spec)
    per_pass.add("rng_cycle", conventional_bits)
    e_conventional, _ = price_ledger(per_pass.scaled(25), DEFAULT_ENERGY)

    return SubsetViClaims(
        accuracy=accuracy,
        nll_in_distribution=nll_id,
        nll_shifted=nll_shift,
        memory_ratio=mem_conventional / mem_subset,
        power_ratio=e_conventional / e_subset,
        bayesian_fraction=bayesian_parameter_count(model)
        / model.num_parameters(),
    )


# ----------------------------------------------------------------------
# C6 — SpinBayes: teacher-fidelity accuracy + OOD detection
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SpinBayesClaims:
    teacher_accuracy: float
    spinbayes_accuracy: float
    ood_detection_letters: float
    ood_detection_noise: float
    uncertainty_ratio: float   # mean OOD entropy / mean ID entropy

    @property
    def accuracy_delta(self) -> float:
        return self.spinbayes_accuracy - self.teacher_accuracy


def run_c6_spinbayes(fast: bool = True, seed: int = 0) -> SpinBayesClaims:
    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1500 if fast else 4000, jitter=0.4,
                          seed=seed)
    hidden = (128, 64) if fast else (256, 128)
    teacher = make_subset_vi_mlp(data.n_features, hidden, data.n_classes,
                                 seed=seed)
    train_classifier(teacher, data, config, loss_kind="elbo")

    n_eval = 300 if fast else 1000
    x_eval, y_eval = data.x_test[:n_eval], data.y_test[:n_eval]
    teacher_result = mc_predict(teacher, x_eval,
                                n_samples=config.mc_samples)

    net = SpinBayesNetwork.from_subset_vi(
        teacher, n_components=8, n_levels=16,
        config=CimConfig(seed=seed + 1), seed=seed + 1)
    result = net.mc_forward(x_eval, n_samples=config.mc_samples)

    id_scores = result.predictive_entropy
    letters = ood.letters(n_eval, size=data.image_size, seed=seed + 2)
    noise = ood.uniform_noise(n_eval, data.n_features, seed=seed + 3)
    letters_scores = net.mc_forward(
        letters, n_samples=config.mc_samples).predictive_entropy
    noise_scores = net.mc_forward(
        noise, n_samples=config.mc_samples).predictive_entropy

    return SpinBayesClaims(
        teacher_accuracy=mc_accuracy(teacher_result, y_eval),
        spinbayes_accuracy=mc_accuracy(result, y_eval),
        ood_detection_letters=detect(id_scores, letters_scores).detection_rate,
        ood_detection_noise=detect(id_scores, noise_scores).detection_rate,
        uncertainty_ratio=float(
            np.mean(np.concatenate([letters_scores, noise_scores]))
            / max(np.mean(id_scores), 1e-9)),
    )
