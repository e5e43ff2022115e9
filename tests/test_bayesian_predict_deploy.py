"""MC prediction machinery and hardware deployment of Bayesian models."""

import numpy as np
import pytest
from repro import nn
from repro.bayesian import (
    BayesianCim,
    DeepEnsemble,
    PredictiveResult,
    SpinDropout,
    deterministic_predict,
    make_affine_mlp,
    make_scaledrop_mlp,
    make_spatial_spindrop_cnn,
    make_spindrop_mlp,
    make_subset_vi_mlp,
    mc_predict,
    mc_predict_fn)
from repro.bayesian.base import StochasticModule
from repro.cim import CimConfig
from repro.experiments.common import TrainConfig, digits_dataset, train_classifier
from repro.tensor import Tensor

RNG = np.random.default_rng(17)


@pytest.fixture(scope="module")
def small_data():
    return digits_dataset(n_samples=600, seed=5)


@pytest.fixture(scope="module")
def trained_spindrop(small_data):
    model = make_spindrop_mlp(small_data.n_features, (32,),
                              small_data.n_classes, p=0.2, seed=5)
    return train_classifier(model, small_data,
                            TrainConfig(epochs=5, mc_samples=6))


class TestPredictiveResult:
    def _result(self):
        samples = np.random.default_rng(0).dirichlet(
            np.ones(4), size=(10, 6))
        return PredictiveResult(probs=samples.mean(axis=0), samples=samples)

    def test_shapes(self):
        r = self._result()
        assert r.predictions.shape == (6,)
        assert r.predictive_entropy.shape == (6,)
        assert r.mutual_information.shape == (6,)

    def test_mutual_information_nonnegative(self):
        r = self._result()
        assert (r.mutual_information >= 0).all()

    def test_entropy_bounds(self):
        r = self._result()
        assert (r.predictive_entropy >= 0).all()
        assert (r.predictive_entropy <= np.log(4) + 1e-9).all()

    def test_uniform_has_max_entropy(self):
        probs = np.full((1, 4), 0.25)
        samples = np.repeat(probs[None], 3, axis=0)
        r = PredictiveResult(probs=probs, samples=samples)
        np.testing.assert_allclose(r.predictive_entropy, np.log(4))
        np.testing.assert_allclose(r.mutual_information, 0.0, atol=1e-12)

    def test_from_samples_rejects_missing_class_axis(self):
        # A (T, N) array would make entropy/std/argmax reduce over the
        # wrong axis; the constructor must refuse it loudly.
        with pytest.raises(ValueError, match=r"\(T, N, C\)"):
            PredictiveResult.from_samples(np.zeros((5, 6)))
        with pytest.raises(ValueError, match=r"\(T, N, C\)"):
            PredictiveResult.from_samples(np.zeros(5))

    def test_from_samples_accepts_singleton_class_axis(self):
        r = PredictiveResult.from_samples(np.full((5, 6, 1), 1.0))
        assert r.probs.shape == (6, 1)


class TestMcPredict:
    def test_probabilities_normalized(self, trained_spindrop, small_data):
        r = mc_predict(trained_spindrop, small_data.x_test[:16], n_samples=5)
        np.testing.assert_allclose(r.probs.sum(axis=1), 1.0, rtol=1e-9)
        assert r.samples.shape == (5, 16, 10)

    def test_mc_mode_restored(self, trained_spindrop, small_data):
        mc_predict(trained_spindrop, small_data.x_test[:4], n_samples=2)
        for module in trained_spindrop.modules():
            if isinstance(module, StochasticModule):
                assert not module.mc_mode

    def test_deterministic_predict_is_repeatable(self, trained_spindrop,
                                                 small_data):
        a = deterministic_predict(trained_spindrop, small_data.x_test[:8])
        b = deterministic_predict(trained_spindrop, small_data.x_test[:8])
        np.testing.assert_array_equal(a, b)

    def test_batched_prediction_matches(self, trained_spindrop, small_data):
        x = small_data.x_test[:20]
        full = deterministic_predict(trained_spindrop, x)
        chunked = deterministic_predict(trained_spindrop, x, batch_size=7)
        np.testing.assert_allclose(full, chunked, atol=1e-12)

    def test_mc_predict_fn(self):
        rng = np.random.default_rng(0)

        def forward(x):
            return rng.standard_normal((len(x), 3))

        r = mc_predict_fn(forward, np.zeros((5, 2)), n_samples=4)
        assert r.samples.shape == (4, 5, 3)


class _NoisyGain(StochasticModule):
    """A stochastic layer without bank support: it has no
    ``mc_draw_pass``, so ``mc_predict`` must run the sequential loop
    for any model holding it."""

    def __init__(self, n_features, rng):
        super().__init__()
        self.n_features = n_features
        self.rng = rng

    def forward(self, x):
        if not self.stochastic_active:
            return x
        return x * Tensor(self.rng.uniform(0.5, 1.5, self.n_features))


def _with_unbanked_layer():
    """A bank-capable SpinDropout, then a layer without bank support;
    one generator feeds both."""
    rng = np.random.default_rng(11)
    return nn.Sequential(
        nn.BinaryLinear(20, 16, rng=rng, binarize_input=True),
        nn.BatchNorm1d(16),
        nn.SignActivation(),
        SpinDropout(16, p=0.3, ideal=True, rng=rng),
        _NoisyGain(16, rng),
        nn.Linear(16, 4, rng=rng),
    )


@pytest.fixture
def stacked_calls(monkeypatch):
    """What every ``_mc_predict_stacked`` call returned, in order (None
    where the model has a layer without bank support)."""
    from repro.bayesian import base

    calls = []
    real = base._mc_predict_stacked

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(base, "_mc_predict_stacked", spy)
    return calls


class TestStackedMcPredict:
    """The software-side batched MC path (mc_predict batched=True)."""

    KINDS = {
        "spindrop": lambda: make_spindrop_mlp(20, (16,), 4, p=0.3, seed=1),
        "scaledrop": lambda: make_scaledrop_mlp(20, (16,), 4, seed=3),
        "subset_vi": lambda: make_subset_vi_mlp(20, (16,), 4, seed=5),
        "affine": lambda: make_affine_mlp(20, (16,), 4, p=0.3, seed=4),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_stacked_is_bit_exact_vs_sequential(self, kind, stacked_calls):
        x = np.random.default_rng(8).standard_normal((9, 20))
        seq = mc_predict(self.KINDS[kind](), x, n_samples=5, batched=False)
        assert not stacked_calls
        stacked = mc_predict(self.KINDS[kind](), x, n_samples=5)
        assert stacked_calls == [stacked]
        np.testing.assert_array_equal(seq.samples, stacked.samples)

    def test_stacked_cnn_is_bit_exact(self, stacked_calls):
        x = np.random.default_rng(9).standard_normal((4, 1, 12, 12))
        make = lambda: make_spatial_spindrop_cnn(1, 12, 4, widths=(4, 8),
                                                 seed=2)
        seq = mc_predict(make(), x, n_samples=4, batched=False)
        stacked = mc_predict(make(), x, n_samples=4)
        assert stacked_calls == [stacked]
        np.testing.assert_array_equal(seq.samples, stacked.samples)

    def test_unsupported_layer_falls_back_to_sequential(self,
                                                        stacked_calls):
        x = np.random.default_rng(8).standard_normal((6, 20))
        seq = mc_predict(_with_unbanked_layer(), x, n_samples=3,
                         batched=False)
        auto = mc_predict(_with_unbanked_layer(), x, n_samples=3,
                          batched=True)
        assert stacked_calls == [None]
        np.testing.assert_array_equal(seq.samples, auto.samples)

    def test_fallback_consumes_no_randomness_from_supported_layers(
            self, stacked_calls, monkeypatch):
        """Regression: with a bank-capable layer BEFORE the unsupported
        one, the stacked path must bail out without drawing anything,
        or the sequential fallback would see a shifted RNG stream."""
        from repro.bayesian import base

        model = _with_unbanked_layer()
        dropout_rng = next(m for m in model
                           if isinstance(m, SpinDropout)).rng
        start = dropout_rng.bit_generator.state
        at_fallback = []
        stacked = base._mc_predict_stacked

        def spy(*args, **kwargs):
            result = stacked(*args, **kwargs)
            at_fallback.append(dropout_rng.bit_generator.state)
            return result

        monkeypatch.setattr(base, "_mc_predict_stacked", spy)
        x = np.random.default_rng(8).standard_normal((6, 20))
        seq = mc_predict(_with_unbanked_layer(), x, n_samples=4,
                         batched=False)
        auto = mc_predict(model, x, n_samples=4, batched=True)
        assert stacked_calls == [None]
        assert at_fallback == [start]
        np.testing.assert_array_equal(seq.samples, auto.samples)

    def test_banks_cleared_after_stacked_run(self, stacked_calls):
        model = self.KINDS["spindrop"]()
        x = np.random.default_rng(8).standard_normal((9, 20))
        mc_predict(model, x, n_samples=3)
        assert len(stacked_calls) == 1
        for module in model.modules():
            if isinstance(module, StochasticModule):
                assert module._mc_bank is None
                assert not module.mc_mode


class TestBayesianCimDeployment:
    def test_spindrop_deploys_and_predicts(self, trained_spindrop,
                                           small_data):
        deployed = BayesianCim(trained_spindrop, CimConfig(seed=0))
        x = small_data.x_test[:20]
        result = deployed.mc_forward(x, n_samples=5)
        assert result.probs.shape == (20, 10)
        assert deployed.n_dropout_modules == 32

    def test_deployed_accuracy_tracks_software(self, trained_spindrop,
                                               small_data):
        sw = mc_predict(trained_spindrop, small_data.x_test, n_samples=10)
        sw_acc = (sw.predictions == small_data.y_test).mean()
        deployed = BayesianCim(trained_spindrop,
                               CimConfig(adc_bits=8, seed=0))
        hw = deployed.mc_forward(small_data.x_test, n_samples=10)
        hw_acc = (hw.predictions == small_data.y_test).mean()
        assert abs(sw_acc - hw_acc) < 0.15

    def test_rng_cycles_booked_per_image(self, trained_spindrop, small_data):
        deployed = BayesianCim(trained_spindrop, CimConfig(seed=0))
        deployed.ledger.reset()
        deployed.forward(small_data.x_test[:10], stochastic=True)
        assert deployed.ledger["rng_cycle"] == 32 * 10

    def test_deterministic_pass_books_no_rng(self, trained_spindrop,
                                             small_data):
        deployed = BayesianCim(trained_spindrop, CimConfig(seed=0))
        deployed.ledger.reset()
        deployed.deterministic_forward(small_data.x_test[:10])
        assert deployed.ledger["rng_cycle"] == 0

    def test_stochastic_passes_differ(self, trained_spindrop, small_data):
        deployed = BayesianCim(trained_spindrop, CimConfig(seed=0))
        x = small_data.x_test[:8]
        a = deployed.forward(x, stochastic=True)
        b = deployed.forward(x, stochastic=True)
        assert not np.allclose(a, b)

    def test_scaledrop_deploys(self, small_data):
        model = make_scaledrop_mlp(small_data.n_features, (32,),
                                   small_data.n_classes, seed=6)
        train_classifier(model, small_data,
                         TrainConfig(epochs=3, mc_samples=4))
        deployed = BayesianCim(model, CimConfig(seed=1))
        assert deployed.n_dropout_modules == 1
        result = deployed.mc_forward(small_data.x_test[:10], n_samples=4)
        assert result.probs.shape == (10, 10)

    def test_subset_vi_deploys(self, small_data):
        model = make_subset_vi_mlp(small_data.n_features, (32,),
                                   small_data.n_classes, seed=7)
        train_classifier(model, small_data,
                         TrainConfig(epochs=3, mc_samples=4),
                         loss_kind="elbo")
        deployed = BayesianCim(model, CimConfig(seed=2))
        deployed.ledger.reset()
        deployed.forward(small_data.x_test[:4], stochastic=True)
        # One stochastic-SOT draw per scale element per image.
        assert deployed.ledger["rng_cycle"] == 32 * 4

    def test_affine_deploys(self, small_data):
        model = make_affine_mlp(small_data.n_features, (32,),
                                small_data.n_classes, p=0.2, seed=8)
        train_classifier(model, small_data,
                         TrainConfig(epochs=3, mc_samples=4))
        deployed = BayesianCim(model, CimConfig(seed=3))
        assert deployed.n_dropout_modules == 2
        result = deployed.mc_forward(small_data.x_test[:10], n_samples=4)
        assert result.probs.shape == (10, 10)

    def test_spatial_cnn_deploys(self):
        data = digits_dataset(n_samples=300, seed=9, flat=False)
        model = make_spatial_spindrop_cnn(1, data.image_size,
                                          data.n_classes, widths=(4, 8),
                                          seed=9)
        train_classifier(model, data, TrainConfig(epochs=2, mc_samples=3))
        deployed = BayesianCim(model, CimConfig(seed=4))
        assert deployed.n_dropout_modules == 4  # one bank: 4 channels
        result = deployed.mc_forward(data.x_test[:6], n_samples=3)
        assert result.probs.shape == (6, 10)


class TestDeepEnsemble:
    def test_member_spread_is_uncertainty(self, small_data):
        def factory(i):
            model = make_spindrop_mlp(small_data.n_features, (16,),
                                      small_data.n_classes, p=0.2, seed=i)
            return train_classifier(model, small_data,
                                    TrainConfig(epochs=2, mc_samples=2,
                                                seed=i))
        ensemble = DeepEnsemble.from_factory(factory, n_members=3)
        result = ensemble.predict(small_data.x_test[:10])
        assert result.samples.shape == (3, 10, 10)

    def test_memory_footprint_scales_with_members(self, small_data):
        model = make_spindrop_mlp(small_data.n_features, (16,),
                                  small_data.n_classes, p=0.2, seed=0)
        ensemble = DeepEnsemble([model, model, model])
        assert ensemble.memory_footprint_bits() == \
            3 * model.num_parameters() * 32

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DeepEnsemble([])
