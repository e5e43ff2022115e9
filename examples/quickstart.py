"""Quickstart: train a spintronic Bayesian NN, deploy it to CIM, measure.

This walks the full NeuSpin pipeline in ~1 minute on a laptop CPU:

1. generate a synthetic digit-classification dataset;
2. train a binary Bayesian MLP with SpinDrop (MC-Dropout whose
   randomness comes from stochastic MTJ switching);
3. run Monte-Carlo Bayesian inference in software;
4. deploy the model onto the simulated SOT-MRAM crossbar fabric
   (device variability included) and run the same inference on
   "hardware" through the batched MC engine (all T passes as one
   stacked tensor — bit-for-bit the sequential loop, much faster);
5. serve concurrent requests through the coalescing BatchScheduler;
6. price the inference from the operation ledger.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import nn
from repro.bayesian import BayesianCim, make_spindrop_mlp, mc_predict
from repro.cim import CimConfig
from repro.data import batches, synth_digits, train_test_split
from repro.devices import DeviceVariability, VariabilityParams
from repro.energy import format_energy, price_ledger, render_breakdown
from repro.tensor import Tensor


def main() -> None:
    # ------------------------------------------------------------ data
    x, y = synth_digits(3000, jitter=0.6, seed=0)
    (x_train, y_train), (x_test, y_test) = train_test_split(x, y, 0.2,
                                                            seed=1)
    print(f"dataset: {len(x_train)} train / {len(x_test)} test, "
          f"{x.shape[1]} features, 10 classes")

    # ----------------------------------------------------------- train
    model = make_spindrop_mlp(in_features=256, hidden=(128, 64),
                              n_classes=10, p=0.15, seed=2)
    optimizer = nn.Adam(model.parameters(), lr=1e-2)
    scheduler = nn.CosineLR(optimizer, t_max=12)
    for epoch in range(12):
        model.train()
        for xb, yb in batches(x_train, y_train, 64, seed=epoch):
            loss = nn.cross_entropy(model(Tensor(xb)), yb)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            nn.clip_latent_weights(model)
        scheduler.step()
    print(f"training done (final batch loss {float(loss.data):.3f})")

    # ---------------------------------------------- Bayesian inference
    result = mc_predict(model, x_test, n_samples=20)
    accuracy = (result.predictions == y_test).mean()
    print(f"software MC inference:  accuracy {accuracy * 100:.2f}%  "
          f"mean predictive entropy {result.predictive_entropy.mean():.3f}")

    # ---------------------------------------------------------- deploy
    variability = DeviceVariability(
        VariabilityParams(sigma_r=0.03, sigma_delta=0.03, sigma_read=0.01),
        rng=np.random.default_rng(3))
    deployed = BayesianCim(model, CimConfig(variability=variability,
                                            adc_bits=6, seed=3), seed=3)
    print(f"deployed: {deployed.network.n_crossbars} crossbars, "
          f"{deployed.n_dropout_modules} MTJ dropout modules")

    hw_result = deployed.mc_forward(x_test[:200], n_samples=20)  # batched
    hw_accuracy = (hw_result.predictions == y_test[:200]).mean()
    print(f"CIM inference (variability on): accuracy "
          f"{hw_accuracy * 100:.2f}%")

    # ----------------------------------------------------------- serve
    # Concurrent callers coalesce into one batched MC call; each gets
    # back its own slice of the predictive distribution.
    from repro.serving import BatchScheduler

    scheduler = BatchScheduler(deployed, n_samples=20, max_batch=64)
    tickets = [scheduler.submit(x_test[200 + 8 * i: 200 + 8 * (i + 1)])
               for i in range(4)]
    scheduler.flush()
    entropies = [t.result().predictive_entropy.mean() for t in tickets]
    print(f"served {scheduler.stats.requests} requests in "
          f"{scheduler.stats.flushes} batched call(s); per-request mean "
          f"entropy {', '.join(f'{e:.3f}' for e in entropies)}")

    # ----------------------------------------------------------- price
    joules, breakdown = price_ledger(deployed.ledger)
    per_image = joules / 200
    print(f"\nenergy per image ({20} MC passes): "
          f"{format_energy(per_image)}")
    print(render_breakdown(breakdown, title="operation breakdown (total)"))


if __name__ == "__main__":
    main()
