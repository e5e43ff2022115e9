"""Experiments F1–F3 — regenerate the paper's figures.

The paper's figures are architecture diagrams; "regenerating" them
computationally means exercising the architecture each figure shows
and reporting its characteristic quantities:

* **F1 (Fig. 1)** — the two conv-mapping strategies: crossbar count,
  utilization, ADC conversions per output, dropout-module count and
  per-image energy under each strategy, plus functional equivalence of
  the two mappings.
* **F2 (Fig. 2)** — the Scale-Dropout inference architecture:
  component-wise energy breakdown (crossbar array, SA, ADC,
  accumulator/adder, scale SRAM, dropout module) for one deployed
  inference.
* **F3 (Fig. 3)** — the SpinBayes layer architecture: arbiter one-hot
  selection statistics, and accuracy / energy / quantization-error
  versus the number of crossbars N and the cell bit-precision.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from repro.bayesian import (
    BayesianCim,
    SpinBayesNetwork,
    make_scaledrop_mlp,
    make_subset_vi_mlp,
)
from repro.cim import (
    CimConfig,
    ConvShape,
    MappingStrategy,
    plan_conv_mapping,
)
from repro.devices import SpintronicArbiter
from repro.energy import (
    DEFAULT_ENERGY,
    price_ledger,
)
from repro.experiments.common import (
    TrainConfig,
    digits_dataset,
    mc_accuracy,
    train_classifier,
)


# ----------------------------------------------------------------------
# F1 — mapping strategies
# ----------------------------------------------------------------------
@dataclasses.dataclass
class MappingReport:
    """Characteristics of one conv layer under one mapping strategy."""

    strategy: str
    n_crossbars: int
    crossbar_shape: tuple
    utilization: float
    adc_per_output: int
    dropout_modules: int


def run_fig1_mapping(conv_shapes: List[ConvShape] | None = None,
                     max_rows: int = 128,
                     max_cols: int = 128) -> Dict[str, List[MappingReport]]:
    """Compare strategy ① and ② across representative conv layers."""
    if conv_shapes is None:
        conv_shapes = [
            ConvShape(8, 16, 3),      # small CNN block
            ConvShape(16, 32, 3),
            ConvShape(6, 16, 5),      # LeNet-style
        ]
    out: Dict[str, List[MappingReport]] = {"strategy1": [], "strategy2": []}
    for shape in conv_shapes:
        for strategy, key in ((MappingStrategy.UNFOLDED_COLUMN, "strategy1"),
                              (MappingStrategy.TILED_KXK, "strategy2")):
            plan = plan_conv_mapping(shape, strategy,
                                     max_rows=max_rows, max_cols=max_cols)
            out[key].append(MappingReport(
                strategy=key,
                n_crossbars=plan.n_crossbars,
                crossbar_shape=(plan.crossbar_rows, plan.crossbar_cols),
                utilization=plan.utilization,
                adc_per_output=plan.adc_conversions_per_output,
                dropout_modules=plan.dropout_modules,
            ))
    return out


def mapping_equivalence_check(seed: int = 0) -> float:
    """Max |output(strategy ①) − output(strategy ②)| on one conv layer.

    With ideal devices and a fine ADC both mappings must compute the
    same convolution; the residual should be at most ADC quantization.
    """
    from repro.cim.layers import CimConv2d
    from repro.cim.ledger import OpLedger

    rng = np.random.default_rng(seed)
    weights = rng.choice([-1.0, 1.0], size=(4, 3, 3, 3))
    x = rng.choice([-1.0, 1.0], size=(2, 3, 8, 8))

    outputs = []
    for strategy in (MappingStrategy.UNFOLDED_COLUMN,
                     MappingStrategy.TILED_KXK):
        config = CimConfig(adc_bits=10, mapping_strategy=strategy, seed=seed)
        layer = CimConv2d(weights, None, None, stride=1, padding=1,
                          config=config, ledger=OpLedger())
        outputs.append(layer.forward(x))
    return float(np.abs(outputs[0] - outputs[1]).max())


# ----------------------------------------------------------------------
# F2 — Scale-Dropout architecture breakdown
# ----------------------------------------------------------------------
def run_fig2_breakdown(fast: bool = True, seed: int = 0) -> Dict[str, float]:
    """Component-wise energy of one Scale-Dropout CIM inference.

    Returns the per-image energy (J) of each Fig.-2 component:
    crossbar array, sense amplifiers, ADC, scale SRAM, dropout module,
    digital periphery.
    """
    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1000 if fast else 4000, seed=seed)
    model = make_scaledrop_mlp(data.n_features, (64,) if fast else (256, 128),
                               data.n_classes, seed=seed)
    train_classifier(model, data, config, scale_reg_strength=1e-3)
    deployed = BayesianCim(model, CimConfig(seed=seed), seed=seed)
    n = 50 if fast else 200
    deployed.ledger.reset()
    deployed.mc_forward(data.x_test[:n], n_samples=config.mc_samples)
    _, breakdown = price_ledger(deployed.ledger, DEFAULT_ENERGY)
    grouped = {
        "crossbar_array": breakdown.get("crossbar_cell_access", 0.0)
        + breakdown.get("dac_drive", 0.0),
        "sense_amplifiers": breakdown.get("sa_read", 0.0),
        "adc": breakdown.get("adc_conversion", 0.0),
        "scale_sram": breakdown.get("sram_read", 0.0)
        + breakdown.get("sram_write", 0.0),
        "dropout_module": breakdown.get("rng_cycle", 0.0),
        "digital_periphery": breakdown.get("digital_mac", 0.0)
        + breakdown.get("digital_op", 0.0),
        "weight_programming": breakdown.get("mtj_write", 0.0),
    }
    return {k: v / n for k, v in grouped.items()}


# ----------------------------------------------------------------------
# F3 — SpinBayes architecture
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SpinBayesPoint:
    """One (N components, n_levels) design point."""

    n_components: int
    n_levels: int
    accuracy: float
    energy_per_image: float
    quantization_error: float
    arbiter_uniformity: float     # max deviation from uniform selection


def run_fig3_spinbayes(fast: bool = True, seed: int = 0,
                       component_grid: tuple = (2, 4, 8),
                       level_grid: tuple = (4, 16)) -> List[SpinBayesPoint]:
    """Sweep arbiter fan-out N and cell precision for SpinBayes."""
    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1000 if fast else 4000, seed=seed)
    teacher = make_subset_vi_mlp(data.n_features,
                                 (64,) if fast else (256, 128),
                                 data.n_classes, seed=seed)
    train_classifier(teacher, data, config, loss_kind="elbo")

    n_eval = 100 if fast else 500
    x_eval = data.x_test[:n_eval]
    y_eval = data.y_test[:n_eval]
    points: List[SpinBayesPoint] = []
    for n_comp in component_grid:
        for n_levels in level_grid:
            net = SpinBayesNetwork.from_subset_vi(
                teacher, n_components=n_comp, n_levels=n_levels,
                config=CimConfig(seed=seed + n_comp), seed=seed + n_comp)
            net.ledger.reset()
            result = net.mc_forward(x_eval, n_samples=config.mc_samples)
            joules, _ = price_ledger(net.ledger)
            selections = [layer.arbiter.empirical_distribution(512)
                          for layer in net.mvm_layers()
                          if layer.arbiter is not None]
            if selections:
                uniformity = float(max(
                    np.abs(dist - 1.0 / len(dist)).max()
                    for dist in selections))
            else:
                uniformity = 0.0
            points.append(SpinBayesPoint(
                n_components=n_comp,
                n_levels=n_levels,
                accuracy=mc_accuracy(result, y_eval),
                energy_per_image=joules / n_eval,
                quantization_error=net.quantization_error(),
                arbiter_uniformity=uniformity,
            ))
    return points


def arbiter_statistics(n_choices: int = 8, n_draws: int = 8192,
                       seed: int = 0) -> Dict[str, float]:
    """Standalone Fig.-3 arbiter characterization."""
    arbiter = SpintronicArbiter(n_choices, rng=np.random.default_rng(seed))
    dist = arbiter.empirical_distribution(n_draws)
    return {
        "n_choices": float(n_choices),
        "cycles_per_selection": float(arbiter.cycles_per_selection),
        "max_abs_deviation": float(np.abs(dist - 1.0 / n_choices).max()),
        "entropy_bits": float(-(dist * np.log2(np.maximum(dist, 1e-12))).sum()),
    }
