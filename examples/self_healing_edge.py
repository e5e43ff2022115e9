"""Self-healing inference under manufacturing defects (Sec. III-A.4).

Edge devices cannot be re-tested after deployment; stuck-at faults in
the MTJ crossbar silently corrupt weights.  This example deploys the
same task three ways —

* a deterministic binary network,
* a SpinDrop Bayesian network,
* the inverted-normalization + affine-dropout ("self-healing") network

— onto crossbars with increasing stuck-at fault rates, and shows how
Monte-Carlo Bayesian inference (and the affine/inverted-norm structure
in particular) retains accuracy where the deterministic net collapses.

Run:  python examples/self_healing_edge.py
"""

import numpy as np

from repro.bayesian import (
    BayesianCim,
    make_affine_mlp,
    make_binary_mlp,
    make_spindrop_mlp,
)
from repro.cim import CimConfig
from repro.data import synth_digits, train_test_split
from repro.devices import DefectModel, DefectRates
from repro.energy import render_table
from repro.experiments.common import Dataset, TrainConfig, train_classifier


def main() -> None:
    x, y = synth_digits(4000, jitter=0.5, seed=0)
    (xtr, ytr), (xte, yte) = train_test_split(x, y, 0.2, seed=1)
    data = Dataset(xtr, ytr, xte, yte, n_classes=10, image_size=16)
    config = TrainConfig(epochs=18, lr=1e-2, mc_samples=20, seed=0)

    print("training three models (deterministic / SpinDrop / "
          "inverted-norm + affine dropout)...")
    models = {
        "deterministic": train_classifier(
            make_binary_mlp(256, (256, 128), 10, seed=2), data, config),
        "spindrop": train_classifier(
            make_spindrop_mlp(256, (256, 128), 10, p=0.15, seed=2),
            data, config),
        "affine (self-healing)": train_classifier(
            make_affine_mlp(256, (256, 128), 10, p=0.15, seed=2),
            data, config),
    }

    fault_rates = (0.0, 0.02, 0.05, 0.10, 0.20)
    x_eval, y_eval = xte[:400], yte[:400]
    table = {name: [] for name in models}

    for rate in fault_rates:
        defects = None
        if rate > 0:
            defects = DefectModel(
                DefectRates(stuck_at_p=rate / 2, stuck_at_ap=rate / 2),
                rng=np.random.default_rng(7))
        cim = CimConfig(defects=defects, seed=7)
        for name, model in models.items():
            deployed = BayesianCim(model, cim, seed=7)
            if name == "deterministic":
                logits = deployed.deterministic_forward(x_eval)
                acc = (logits.argmax(-1) == y_eval).mean()
            else:
                result = deployed.mc_forward(x_eval, n_samples=20)
                acc = (result.predictions == y_eval).mean()
            table[name].append(acc)

    rows = [[name] + [f"{acc * 100:5.1f}%" for acc in accs]
            for name, accs in table.items()]
    print()
    print(render_table(
        ["model"] + [f"{r * 100:.0f}% faults" for r in fault_rates],
        rows, title="Deployed accuracy vs stuck-at fault rate"))

    healthy = table["affine (self-healing)"][0]
    worst = table["affine (self-healing)"][-1]
    print(f"\nself-healing model retains "
          f"{worst / healthy * 100:.0f}% of its clean accuracy at "
          f"{fault_rates[-1] * 100:.0f}% faults "
          "(key takeaway #8 of the paper).")


if __name__ == "__main__":
    main()
