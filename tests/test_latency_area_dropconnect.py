"""Latency/area models, MC-DropConnect baseline, temperature sweep."""

import numpy as np
import pytest

from repro.bayesian import (
    DropConnectLinear,
    make_dropconnect_mlp,
    mc_predict,
)
from repro.energy import (
    lenet_like,
    method_area,
    method_latency_per_image,
)
from repro.experiments.ablations import (
    adc_resolution_sweep,
    defect_robustness,
    temperature_sweep,
    wire_resistance_sweep,
)
from repro.tensor import Tensor

RNG = np.random.default_rng(23)


class TestLatencyModel:
    def test_deterministic_fastest(self):
        spec = lenet_like()
        t_det, _ = method_latency_per_image(spec, "deterministic")
        for method in ("spindrop", "scaledrop", "mc_dropconnect"):
            t, _ = method_latency_per_image(spec, method)
            assert t > t_det

    def test_dropconnect_latency_blowup(self):
        """Per-weight masks generated on a per-neuron bank serialize:
        the paper's 'overall sampling latency can be long' claim."""
        spec = lenet_like()
        t_dc, _ = method_latency_per_image(spec, "mc_dropconnect")
        t_sd, _ = method_latency_per_image(spec, "spindrop")
        assert t_dc > t_sd

    def test_mc_passes_scale_latency(self):
        spec = lenet_like()
        t10, _ = method_latency_per_image(spec, "scaledrop", n_mc_passes=10)
        t20, _ = method_latency_per_image(spec, "scaledrop", n_mc_passes=20)
        assert t20 == pytest.approx(2 * t10, rel=0.01)

    def test_breakdown_sums_to_total(self):
        spec = lenet_like()
        total, breakdown = method_latency_per_image(spec, "spindrop")
        assert sum(breakdown.values()) == pytest.approx(total)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            method_latency_per_image(lenet_like(), "alchemy")


class TestAreaModel:
    def test_spindrop_module_area_dominates_scaledrop(self):
        spec = lenet_like()
        a_spin = method_area(spec, "spindrop")
        a_scale = method_area(spec, "scaledrop")
        assert a_spin["dropout_modules"] > 100 * a_scale["dropout_modules"]
        assert a_spin["total"] > a_scale["total"]

    def test_spinbayes_crossbar_area_scales_with_components(self):
        spec = lenet_like()
        small = method_area(spec, "spinbayes", spinbayes_components=2)
        large = method_area(spec, "spinbayes", spinbayes_components=16)
        assert large["crossbar"] == pytest.approx(8 * small["crossbar"])

    def test_scale_sram_only_for_scale_methods(self):
        spec = lenet_like()
        assert method_area(spec, "scaledrop")["scale_sram"] > 0
        assert method_area(spec, "spindrop")["scale_sram"] == 0.0

    def test_total_is_component_sum(self):
        area = method_area(lenet_like(), "subset_vi")
        parts = sum(v for k, v in area.items() if k != "total")
        assert area["total"] == pytest.approx(parts)


class TestDropConnect:
    def test_mask_over_weights(self):
        layer = DropConnectLinear(16, 8, p=0.3,
                                  rng=np.random.default_rng(0))
        mask = layer.sample_weight_mask()
        assert mask.shape == (8, 16)
        assert 0.4 < mask.mean() < 0.9

    def test_module_count_is_per_neuron(self):
        layer = DropConnectLinear(100, 30, p=0.1)
        assert layer.n_dropout_modules == 30
        assert layer.mask_bits_per_pass == 3000

    def test_eval_mode_deterministic(self):
        layer = DropConnectLinear(8, 4, p=0.5,
                                  rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(np.sign(RNG.standard_normal((3, 8))))
        a = layer(x).data
        b = layer(x).data
        np.testing.assert_array_equal(a, b)

    def test_stochastic_mode_varies(self):
        layer = DropConnectLinear(32, 16, p=0.4,
                                  rng=np.random.default_rng(0))
        x = Tensor(np.sign(RNG.standard_normal((3, 32))))
        a = layer(x).data.copy()
        b = layer(x).data.copy()
        assert not np.allclose(a, b)

    def test_gradients_flow(self):
        layer = DropConnectLinear(8, 4, p=0.2,
                                  rng=np.random.default_rng(0))
        layer(Tensor(RNG.standard_normal((2, 8)))).sum().backward()
        assert layer.weight.grad is not None

    def test_mlp_trains(self):
        from repro.experiments.common import (TrainConfig, digits_dataset,
                                              train_classifier)
        data = digits_dataset(n_samples=800, seed=7)
        model = make_dropconnect_mlp(data.n_features, (32,),
                                     data.n_classes, p=0.1, seed=7)
        train_classifier(model, data, TrainConfig(epochs=5, mc_samples=6))
        result = mc_predict(model, data.x_test, n_samples=6)
        assert (result.predictions == data.y_test).mean() > 0.4

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            DropConnectLinear(4, 4, p=0.0)


class TestNonIdealitySweeps:
    def test_temperature_raises_dropout_rate(self):
        rows = temperature_sweep(temperatures=(250.0, 400.0),
                                 target_p=0.25, seed=0)
        cold, hot = rows[0], rows[1]
        # Δ drops with temperature -> more switching at the same current.
        assert hot["raw_p_mu"] > cold["raw_p_mu"]
        # Calibration trims both back toward the target.
        assert abs(hot["calibrated_p"] - 0.25) < 0.08

    def test_adc_resolution_monotone_band(self):
        accs = adc_resolution_sweep(fast=True, seed=0, bit_grid=(2, 10))
        # Coarse ADC cannot beat fine ADC by more than noise.
        assert accs[10] >= accs[2] - 0.05

    def test_wire_resistance_degrades(self):
        accs = wire_resistance_sweep(fast=True, seed=0,
                                     resistances=(0.0, 20.0))
        assert accs[20.0] <= accs[0.0] + 0.05

    def test_defect_robustness_is_reproducible(self):
        # Every deployment's dropout banks are seeded, so the same seed
        # gives the same accuracy points.
        first = defect_robustness(fast=True, seed=0)
        second = defect_robustness(fast=True, seed=0)
        assert first == second
