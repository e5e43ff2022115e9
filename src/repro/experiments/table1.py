"""Experiment T1 — regenerate Table I (method comparison).

Paper's Table I:

    Method                     Inference accuracy   Energy
    SpinDrop                   91.95 %              2.00 µJ/Image
    Spatial-SpinDrop           90.34 %              0.68 µJ/Image
    SpinScaleDropout           90.45 %              0.18 µJ/Image
    Bayesian Sub-Set Parameter 90.62 %              0.30 µJ/Image
    SpinBayes                  —                    0.26 µJ/Image

Our reproduction reports, per method:

* **accuracy (software MC)** — trained on SynthDigits, T-pass Monte
  Carlo (the substitution for the paper's MNIST-class task);
* **accuracy (deployed)** — the same model through the simulated CIM
  chain with device variability;
* **energy (paper-scale, analytic)** — the op-count energy model
  applied to a LeNet-style reference spec with T=25 MC passes, which
  regenerates the µJ/image scale and the method ordering;
* **energy (measured, simulated net)** — priced from the actual op
  ledger of the deployed small network.

Shape targets: accuracy ordering within ~2 % of each other with
SpinDrop slightly ahead; energy ordering SpinDrop ≫ Spatial >
Sub-Set ≈ SpinBayes > ScaleDrop.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np
from repro.bayesian import (
    BayesianCim,
    SpinBayesNetwork,
    make_scaledrop_mlp,
    make_spatial_spindrop_cnn,
    make_spindrop_mlp,
    make_subset_vi_mlp,
    mc_predict,
)
from repro.cim import CimConfig
from repro.devices import DeviceVariability, VariabilityParams
from repro.energy import (
    format_energy,
    lenet_like,
    method_energy_per_image,
    price_ledger,
    render_table,
)
from repro.experiments.common import (
    TrainConfig,
    digits_dataset,
    mc_accuracy,
    train_classifier,
)


@dataclasses.dataclass
class Table1Row:
    """One method's row in the reproduced Table I."""

    method: str
    family: str
    accuracy_software: float
    accuracy_deployed: float
    energy_paper_scale: float      # J/image, analytic LeNet-like spec
    energy_measured: float         # J/image, simulated small net


def _deploy_config(seed: int) -> CimConfig:
    variability = DeviceVariability(
        VariabilityParams(sigma_r=0.03, sigma_delta=0.03, sigma_read=0.01),
        rng=np.random.default_rng(seed))
    return CimConfig(variability=variability, adc_bits=6, seed=seed)


def _mlp_energy_measured(deployed: BayesianCim, x: np.ndarray,
                         mc_samples: int) -> float:
    deployed.ledger.reset()
    deployed.mc_forward(x, n_samples=mc_samples)
    joules, _ = price_ledger(deployed.ledger)
    return joules / (len(x) * 1.0)


def run_table1(fast: bool = True, seed: int = 0,
               include_spatial: bool = True) -> List[Table1Row]:
    """Train, deploy and price all five Table-I methods."""
    config = TrainConfig.preset(fast)
    data = digits_dataset(n_samples=1500 if fast else 4000, seed=seed)
    hidden = (128, 64) if fast else (256, 128)
    spec = lenet_like()
    n_eval = 200 if fast else 1000
    x_eval, y_eval = data.x_test[:n_eval], data.y_test[:n_eval]
    rows: List[Table1Row] = []

    # ------------------------------------------------------ SpinDrop
    model = make_spindrop_mlp(data.n_features, hidden, data.n_classes,
                              p=0.1, seed=seed)
    train_classifier(model, data, config)
    sw = mc_accuracy(mc_predict(model, data.x_test,
                                n_samples=config.mc_samples), data.y_test)
    deployed = BayesianCim(model, _deploy_config(seed), seed=seed)
    dep = mc_accuracy(deployed.mc_forward(x_eval, config.mc_samples), y_eval)
    e_measured = _mlp_energy_measured(deployed, x_eval, config.mc_samples)
    e_paper, _ = method_energy_per_image(spec, "spindrop")
    rows.append(Table1Row("SpinDrop", "Dropout Based", sw, dep,
                          e_paper, e_measured))

    # ----------------------------------------------- Spatial-SpinDrop
    if include_spatial:
        data_img = digits_dataset(n_samples=1000 if fast else 3000,
                                  seed=seed, flat=False)
        cnn_config = TrainConfig(epochs=4 if fast else 15, lr=1e-2,
                                 batch_size=64,
                                 mc_samples=config.mc_samples, seed=seed)
        cnn = make_spatial_spindrop_cnn(1, data_img.image_size,
                                        data_img.n_classes, p=0.15,
                                        widths=(8, 16), seed=seed)
        train_classifier(cnn, data_img, cnn_config)
        sw = mc_accuracy(mc_predict(cnn, data_img.x_test,
                                    n_samples=config.mc_samples),
                         data_img.y_test)
        deployed_cnn = BayesianCim(cnn, _deploy_config(seed + 1),
                                   seed=seed + 1)
        n_cnn_eval = 100 if fast else 500
        dep = mc_accuracy(
            deployed_cnn.mc_forward(data_img.x_test[:n_cnn_eval],
                                    config.mc_samples),
            data_img.y_test[:n_cnn_eval])
        deployed_cnn.ledger.reset()
        deployed_cnn.mc_forward(data_img.x_test[:n_cnn_eval],
                                n_samples=config.mc_samples)
        joules, _ = price_ledger(deployed_cnn.ledger)
        e_measured = joules / n_cnn_eval
        e_paper, _ = method_energy_per_image(spec, "spatial")
        rows.append(Table1Row("Spatial-SpinDrop", "Dropout Based", sw, dep,
                              e_paper, e_measured))

    # ------------------------------------------------- SpinScaleDrop
    model = make_scaledrop_mlp(data.n_features, hidden, data.n_classes,
                               seed=seed)
    train_classifier(model, data, config, scale_reg_strength=1e-3)
    sw = mc_accuracy(mc_predict(model, data.x_test,
                                n_samples=config.mc_samples), data.y_test)
    deployed = BayesianCim(model, _deploy_config(seed + 2),
                           seed=seed + 2)
    dep = mc_accuracy(deployed.mc_forward(x_eval, config.mc_samples), y_eval)
    e_measured = _mlp_energy_measured(deployed, x_eval, config.mc_samples)
    e_paper, _ = method_energy_per_image(spec, "scaledrop")
    rows.append(Table1Row("SpinScaleDropout", "Dropout Based", sw, dep,
                          e_paper, e_measured))

    # -------------------------------------- Bayesian Sub-Set Parameter
    vi = make_subset_vi_mlp(data.n_features, hidden, data.n_classes,
                            seed=seed)
    train_classifier(vi, data, config, loss_kind="elbo")
    sw = mc_accuracy(mc_predict(vi, data.x_test,
                                n_samples=config.mc_samples), data.y_test)
    deployed = BayesianCim(vi, _deploy_config(seed + 3), seed=seed + 3)
    dep = mc_accuracy(deployed.mc_forward(x_eval, config.mc_samples), y_eval)
    e_measured = _mlp_energy_measured(deployed, x_eval, config.mc_samples)
    e_paper, _ = method_energy_per_image(spec, "subset_vi")
    rows.append(Table1Row("Bayesian Sub-Set Parameter",
                          "Variational Inference Based", sw, dep,
                          e_paper, e_measured))

    # ---------------------------------------------------- SpinBayes
    spin = SpinBayesNetwork.from_subset_vi(
        vi, n_components=8, n_levels=16,
        config=_deploy_config(seed + 4), seed=seed + 4)
    # Batched engine: bit-for-bit the sequential mc_predict_fn loop,
    # one stacked evaluation instead of T stage walks.
    result = spin.mc_forward(x_eval, n_samples=config.mc_samples)
    dep = mc_accuracy(result, y_eval)
    spin.ledger.reset()
    spin.mc_forward(x_eval, n_samples=config.mc_samples)
    joules, _ = price_ledger(spin.ledger)
    e_measured = joules / len(x_eval)
    e_paper, _ = method_energy_per_image(spec, "spinbayes")
    rows.append(Table1Row("SpinBayes", "Variational Inference Based",
                          float("nan"), dep, e_paper, e_measured))

    return rows


PAPER_TABLE1: Dict[str, tuple] = {
    "SpinDrop": (91.95, 2.00e-6),
    "Spatial-SpinDrop": (90.34, 0.68e-6),
    "SpinScaleDropout": (90.45, 0.18e-6),
    "Bayesian Sub-Set Parameter": (90.62, 0.30e-6),
    "SpinBayes": (float("nan"), 0.26e-6),
}


def render_table1(rows: List[Table1Row]) -> str:
    """Side-by-side paper-vs-measured rendering."""
    table_rows = []
    for row in rows:
        paper_acc, paper_e = PAPER_TABLE1.get(
            row.method, (float("nan"), float("nan")))
        table_rows.append([
            row.method,
            f"{paper_acc:.2f}%" if paper_acc == paper_acc else "-",
            f"{row.accuracy_software * 100:.2f}%"
            if row.accuracy_software == row.accuracy_software else "-",
            f"{row.accuracy_deployed * 100:.2f}%",
            format_energy(paper_e),
            format_energy(row.energy_paper_scale),
            format_energy(row.energy_measured),
        ])
    return render_table(
        ["Method", "acc(paper)", "acc(sw)", "acc(CIM)",
         "E(paper)", "E(analytic)", "E(measured)"],
        table_rows, title="Table I — method comparison (reproduction)")


def main(fast: bool = True) -> None:
    rows = run_table1(fast=fast)
    print(render_table1(rows))


if __name__ == "__main__":
    main()
