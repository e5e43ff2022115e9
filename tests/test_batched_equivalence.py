"""Batched MC engine ≡ sequential MC loop, bit-for-bit.

The acceptance contract of the batched engine: under a fixed seed it
must reproduce the sequential T-pass loop exactly — same predictive
means, same per-pass samples, same :class:`OpLedger` totals (crossbar
accesses, ADC conversions, RNG cycles, SRAM reads) — for every
stochastic mechanism the paper deploys (neuron, channel, scale,
affine, VI), with and without device variability on the dropout
modules.
"""

import numpy as np
import pytest

from repro import nn
from repro.bayesian import (
    AffineDropout,
    BayesianCim,
    BayesianScale,
    ScaleDropout,
    SpatialSpinDropout,
    SpinDropout,
    make_affine_mlp,
    make_scaledrop_mlp,
    make_spatial_spindrop_cnn,
    make_spindrop_mlp,
    make_subset_vi_mlp,
    mc_predict_batched,
)
from repro.cim import (
    CimConfig,
    DeploymentSnapshot,
    MappingStrategy,
    OpLedger,
)
from repro.cim.layers import CrossbarGrid, FrozenNorm, SignFold
from repro.cim.mapping import _chunk
from repro.devices import (
    DefectModel,
    DefectRates,
    DeviceVariability,
    VariabilityParams,
)
from repro.experiments.common import (
    TrainConfig,
    digits_dataset,
    train_classifier,
)

RNG = np.random.default_rng(42)
X_FLAT = RNG.standard_normal((9, 20))
X_IMG = RNG.standard_normal((4, 1, 12, 12))


def _model(kind):
    makers = {
        "neuron": lambda: make_spindrop_mlp(20, (16,), 4, p=0.3, seed=1),
        "channel": lambda: make_spatial_spindrop_cnn(
            1, 12, 4, widths=(4, 8), seed=2),
        "scale": lambda: make_scaledrop_mlp(20, (16,), 4, seed=3),
        "affine": lambda: make_affine_mlp(20, (16,), 4, p=0.3, seed=4),
        "vi": lambda: make_subset_vi_mlp(20, (16,), 4, seed=5),
    }
    return makers[kind](), (X_IMG if kind == "channel" else X_FLAT)


def _deploy(model, *, read_noise=False, rng_var=False):
    variability = None
    if read_noise:
        variability = DeviceVariability(
            VariabilityParams(sigma_r=0.03, sigma_delta=0.03,
                              sigma_read=0.01),
            rng=np.random.default_rng(77))
    rng_variability = None
    if rng_var:
        rng_variability = DeviceVariability(
            VariabilityParams(sigma_delta=0.08),
            rng=np.random.default_rng(88))
    deployed = BayesianCim(model, CimConfig(seed=6, variability=variability),
                           rng_variability=rng_variability, seed=33)
    deployed.ledger.reset()
    return deployed


ALL_KINDS = ["neuron", "channel", "scale", "affine", "vi"]


class TestBitExactEquivalence:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_samples_probs_and_ledger_match(self, kind, gated_calls):
        model, x = _model(kind)
        a = _deploy(model)
        b = _deploy(model)
        seq = a.mc_forward(x, n_samples=6, batched=False)
        assert not gated_calls
        bat = b.mc_forward(x, n_samples=6, batched=True)
        # The Spatial-SpinDrop CNN's gate→conv pair runs as a gated conv.
        assert bool(gated_calls) == (kind == "channel")
        np.testing.assert_array_equal(seq.samples, bat.samples)
        np.testing.assert_array_equal(seq.probs, bat.probs)
        assert a.ledger.as_dict() == b.ledger.as_dict()

    @pytest.mark.parametrize("kind", ["neuron", "scale"])
    def test_read_noise_still_bit_exact(self, kind):
        # Cycle-to-cycle read noise draws from its own stream; the
        # batched engine preserves that stream's draw order by running
        # one pass per stacked call, so equality holds even here.
        model, x = _model(kind)
        a = _deploy(model, read_noise=True)
        b = _deploy(model, read_noise=True)
        seq = a.mc_forward(x, n_samples=4, batched=False)
        bat = b.mc_forward(x, n_samples=4, batched=True)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()

    @pytest.mark.parametrize("kind", ["neuron", "affine"])
    def test_rng_variability_still_bit_exact(self, kind):
        # Device spread on the dropout modules shifts realized rates;
        # both paths must consume the same realizations.
        model, x = _model(kind)
        a = _deploy(model, rng_var=True)
        b = _deploy(model, rng_var=True)
        seq = a.mc_forward(x, n_samples=4, batched=False)
        bat = b.mc_forward(x, n_samples=4, batched=True)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()

    def test_rng_cycle_totals(self):
        # 16 neuron modules × 9 images × 5 passes, same both ways.
        model, x = _model("neuron")
        deployed = _deploy(model)
        deployed.mc_forward_batched(x, n_samples=5)
        assert deployed.ledger["rng_cycle"] == 16 * 9 * 5

    def test_batched_passes_differ_from_each_other(self):
        model, x = _model("neuron")
        deployed = _deploy(model)
        result = deployed.mc_forward_batched(x, n_samples=6)
        spread = result.samples.std(axis=0).sum()
        assert spread > 0.0

    def test_stage_state_restored_after_batched_run(self):
        from repro.cim.layers import DigitalScale, DropoutGate

        model, x = _model("neuron")
        deployed = _deploy(model)
        deployed.mc_forward_batched(x, n_samples=3)
        for stage in deployed.network.stages:
            if isinstance(stage, DropoutGate):
                assert stage.mask is None
            if isinstance(stage, DigitalScale):
                assert stage.passes_per_call == 1
                assert np.isscalar(stage.multiplier)

    def test_deterministic_forward_unaffected(self):
        model, x = _model("neuron")
        deployed = _deploy(model)
        before = deployed.deterministic_forward(x)
        deployed.mc_forward_batched(x, n_samples=3)
        after = deployed.deterministic_forward(x)
        np.testing.assert_array_equal(before, after)


class TestBatchedApiContracts:
    def test_forward_batched_shape(self):
        model, x = _model("neuron")
        deployed = _deploy(model)
        logits = deployed.forward_batched(x, n_samples=7)
        assert logits.shape == (7, len(x), 4)

    def test_rejects_zero_samples(self):
        model, x = _model("neuron")
        deployed = _deploy(model)
        with pytest.raises(ValueError):
            deployed.forward_batched(x, n_samples=0)

    def test_mc_predict_batched_validates_shape(self):
        with pytest.raises(ValueError):
            mc_predict_batched(
                lambda x, t: np.zeros((t + 1, len(x), 3)),
                np.zeros((4, 2)), n_samples=3)

    def test_mc_predict_batched_normalizes(self):
        rng = np.random.default_rng(0)
        result = mc_predict_batched(
            lambda x, t: rng.standard_normal((t, len(x), 3)),
            np.zeros((5, 2)), n_samples=4)
        assert result.samples.shape == (4, 5, 3)
        np.testing.assert_allclose(result.probs.sum(axis=-1), 1.0,
                                   rtol=1e-9)


def _mixed_model():
    """Neuron, channel, scale and affine bindings in one deployment:
    every bank draws from the engine's one generator."""
    rng = np.random.default_rng(8)
    return nn.Sequential(
        nn.BinaryConv2d(1, 4, 3, padding=1, rng=rng, binarize_input=True),
        nn.BatchNorm2d(4),
        nn.SignActivation(),
        SpatialSpinDropout(4, p=0.3, rng=rng),
        nn.BinaryConv2d(4, 4, 3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.SignActivation(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        SpinDropout(144, p=0.3, rng=rng),
        nn.BinaryLinear(144, 16, scale=False, rng=rng),
        ScaleDropout(16, n_parameters=144 * 16, rng=rng),
        AffineDropout(16, p=0.3, rng=rng),
        nn.SignActivation(),
        nn.BinaryLinear(16, 4, rng=rng))


def _vi_model():
    """A VI scale ahead of a neuron-dropout bank."""
    rng = np.random.default_rng(9)
    return nn.Sequential(
        nn.BinaryLinear(20, 16, scale=False, rng=rng, binarize_input=True),
        BayesianScale(16, rng=rng),
        nn.BatchNorm1d(16),
        nn.SignActivation(),
        SpinDropout(16, p=0.3, rng=rng),
        nn.BinaryLinear(16, 4, rng=rng))


def _resampled_banks(deployed, n_samples):
    """What T sequential ``_resample`` calls install, stacked like
    ``_draw_sample_banks`` returns them."""
    passes = []
    for _ in range(n_samples):
        deployed._resample(1)
        row = []
        for binding in deployed.bindings:
            target = binding.target
            if binding.kind in ("neuron", "channel"):
                row.append(np.array(target.mask))
            elif binding.kind == "affine":
                row.append((target.gamma_multiplier,
                            target.beta_multiplier))
            else:                                   # scale, vi
                row.append(np.array(target.multiplier))
        passes.append(row)
    deployed._clear()
    return [np.asarray([row[i] for row in passes], dtype=np.float64)
            for i in range(len(deployed.bindings))]


def _bank_counters(deployed):
    return [(b.rng_bank.set_ops, b.rng_bank.read_ops, b.rng_bank.reset_ops)
            for b in deployed.bindings if b.rng_bank is not None]


class _CountingGenerator:
    """Delegates to a generator and counts the draws made through it."""

    def __init__(self, generator):
        self._generator = generator
        self.calls = 0

    @property
    def bit_generator(self):
        return self._generator.bit_generator

    def __getattr__(self, name):
        attr = getattr(self._generator, name)

        def draw(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return draw


class TestOneDrawPerStream:
    """``_draw_sample_banks`` against the sequential ``_resample``."""

    def _assert_draws_match(self, batched, sequential, n_samples=7):
        banks = batched._draw_sample_banks(n_samples)
        expected = _resampled_banks(sequential, n_samples)
        assert len(banks) == len(expected)
        for bank, ref in zip(banks, expected):
            assert bank.dtype == ref.dtype
            np.testing.assert_array_equal(bank, ref)
        assert _bank_counters(batched) == _bank_counters(sequential)

    def test_all_bank_kinds_on_one_generator(self):
        a = BayesianCim(_mixed_model(), CimConfig(seed=6), seed=33)
        b = BayesianCim(_mixed_model(), CimConfig(seed=6), seed=33)
        kinds = [binding.kind for binding in a.bindings]
        assert kinds == ["channel", "neuron", "scale", "affine"]
        assert len({id(binding.rng_bank.rng) for binding in a.bindings}) == 1
        self._assert_draws_match(a, b)
        # And end to end: samples and ledger totals.
        a = BayesianCim(_mixed_model(), CimConfig(seed=6), seed=33)
        b = BayesianCim(_mixed_model(), CimConfig(seed=6), seed=33)
        seq = a.mc_forward(X_IMG, n_samples=6, batched=False)
        bat = b.mc_forward(X_IMG, n_samples=6, batched=True)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()
        assert _bank_counters(a) == _bank_counters(b)

    def test_rng_variability_and_calibration(self):
        # Per-module probabilities that differ device to device, and a
        # bank whose probabilities were re-trimmed after deployment.
        def deploy():
            engine = BayesianCim(
                _mixed_model(), CimConfig(seed=6),
                rng_variability=DeviceVariability(
                    VariabilityParams(sigma_delta=0.08),
                    rng=np.random.default_rng(88)),
                seed=33)
            engine.bindings[1].rng_bank.calibrate(n_samples=200)
            return engine
        self._assert_draws_match(deploy(), deploy())

    @pytest.mark.parametrize("shared", [False, True])
    def test_vi_binding(self, shared):
        # The VI layer samples its own generator; when it shares the
        # banks' generator, that stream stays pass-major.
        def deploy():
            engine = BayesianCim(_vi_model(), CimConfig(seed=6), seed=33)
            assert [b.kind for b in engine.bindings] == ["vi", "neuron"]
            if shared:
                engine.bindings[0].source.rng = engine._rng
            return engine
        self._assert_draws_match(deploy(), deploy())
        a, b = deploy(), deploy()
        seq = a.mc_forward(X_FLAT, n_samples=5, batched=False)
        bat = b.mc_forward(X_FLAT, n_samples=5, batched=True)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()

    def test_snapshot_restored_mid_stream(self):
        engine = BayesianCim(_mixed_model(), CimConfig(seed=6), seed=33)
        engine.mc_forward_batched(X_IMG, n_samples=3)
        engine._resample(1)                  # off a pass boundary
        snapshot = DeploymentSnapshot.capture(engine)
        self._assert_draws_match(snapshot.build(), snapshot.build())
        a, b = snapshot.build(), snapshot.build()
        seq = a.mc_forward(X_IMG, n_samples=4, batched=False)
        bat = b.mc_forward(X_IMG, n_samples=4, batched=True)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()
        assert _bank_counters(a) == _bank_counters(b)

    def test_one_draw_per_generator(self):
        # T=20 passes of a two-bank SpinDrop MLP: one draw in all.
        engine = BayesianCim(
            make_spindrop_mlp(20, (16, 8), 4, p=0.3, seed=1),
            CimConfig(seed=6), seed=33)
        assert len(engine.bindings) == 2
        spy = _CountingGenerator(engine._rng)
        for binding in engine.bindings:
            binding.rng_bank.rng = spy
        engine.forward_batched(X_FLAT, n_samples=20)
        assert spy.calls == 1


# ----------------------------------------------------------------------
# The gated conv: a channel-wise gate and the conv it feeds, as one
# ----------------------------------------------------------------------
X_CNN = RNG.standard_normal((5, 1, 16, 16))


def _cnn(**config):
    """The perfbench Spatial-SpinDrop CNN: an 8-channel gate feeds a
    conv of 8·9 = 72 rows."""
    model = make_spatial_spindrop_cnn(1, 16, 10, p=0.25, widths=(8, 16),
                                      seed=0)
    return BayesianCim(model, CimConfig(seed=0, **config), seed=0)


def _variability(sigma_read=0.0):
    return DeviceVariability(
        VariabilityParams(sigma_r=0.03, sigma_delta=0.03,
                          sigma_read=sigma_read),
        rng=np.random.default_rng(77))


def _defects():
    return DefectModel(DefectRates(stuck_at_p=0.02, stuck_at_ap=0.02),
                       rng=np.random.default_rng(5))


def _batched_vs_sequential(make, x, n_samples, equal_nan=False):
    """Serve ``x`` on two fresh engines, one batched and one through
    the sequential oracle; return the batched engine."""
    a, b = make(), make()
    a.ledger.reset()
    b.ledger.reset()
    seq = a.mc_forward(x, n_samples=n_samples, batched=False)
    bat = b.mc_forward(x, n_samples=n_samples)
    assert np.array_equal(seq.samples, bat.samples, equal_nan=equal_nan)
    assert a.ledger.as_dict() == b.ledger.as_dict()
    return b


GATED_CONFIGS = {
    # 32-row chunks cut the 72-row conv at rows 32 and 64, inside
    # channels 3 (rows 27-35) and 7 (rows 63-71).
    "cut_channels": lambda: dict(max_rows=32),
    "tiled_kxk": lambda: dict(mapping_strategy=MappingStrategy.TILED_KXK),
    "narrow_cols": lambda: dict(max_cols=8),
    "adc_4bit": lambda: dict(adc_bits=4),
    # A defective array still reads exactly, its post-defect weights.
    "defects": lambda: dict(defects=_defects()),
}


class TestGatedConv:
    @pytest.mark.parametrize("name", sorted(GATED_CONFIGS))
    def test_batched_matches_sequential(self, name, gated_calls):
        engine = _batched_vs_sequential(
            lambda: _cnn(**GATED_CONFIGS[name]()), X_CNN, 7)
        assert gated_calls
        assert all(grid in engine._gated_pair[1].grids
                   for grid in gated_calls)
        if name == "cut_channels":
            assert engine._gated_pair[1].plan.row_chunks == (
                (0, 32), (32, 64), (64, 72))

    def test_gated_conv_checks_its_input(self, force_analog):
        conv = _cnn()._gated_pair[1]
        keep = np.ones((2, conv.c_in))
        with pytest.raises(ValueError, match=r"\(N, C, H, W\)"):
            conv.forward(X_CNN[0], keep=keep)
        with pytest.raises(ValueError, match="keep bank"):
            conv.forward(X_CNN, keep=keep[:, 1:])
        with pytest.raises(ValueError, match="exact"):
            force_analog(conv).forward(X_CNN, keep=keep)

    @pytest.mark.parametrize("n_images,n_samples", [(1, 1), (1, 5), (3, 1)])
    def test_single_image_and_single_pass(self, n_images, n_samples,
                                          gated_calls):
        _batched_vs_sequential(_cnn, X_CNN[:n_images], n_samples)
        assert len(gated_calls) == 1

    def test_matches_the_stacked_path(self, gated_calls, force_stacked):
        gated, stacked = _cnn(), force_stacked(_cnn())
        a = gated.forward_batched(X_CNN, n_samples=9)
        assert len(gated_calls) == 1
        b = stacked.forward_batched(X_CNN, n_samples=9)
        assert len(gated_calls) == 1
        np.testing.assert_array_equal(a, b)
        assert gated.ledger.as_dict() == stacked.ledger.as_dict()

    def test_snapshot_built_engine_runs_gated(self, tmp_path, gated_calls):
        path = str(tmp_path / "cnn")
        DeploymentSnapshot.capture(_cnn()).save(path)
        snapshot = DeploymentSnapshot.load(path)
        engine = _batched_vs_sequential(snapshot.build, X_CNN, 6)
        assert engine._gated_pair is not None
        assert gated_calls
        # And the same samples as the engine it was captured from.
        original = _cnn()
        original.ledger.reset()
        restored = snapshot.build()
        restored.ledger.reset()
        np.testing.assert_array_equal(
            original.forward_batched(X_CNN, n_samples=6),
            restored.forward_batched(X_CNN, n_samples=6))
        assert original.ledger.as_dict() == restored.ledger.as_dict()

    @pytest.mark.parametrize("name,config", [
        ("variability", lambda: dict(variability=_variability())),
        ("wire_resistance", lambda: dict(wire_resistance=50.0)),
        ("read_noise", lambda: dict(variability=_variability(0.01))),
    ])
    def test_analog_grids_keep_the_stacked_path(self, name, config,
                                                gated_calls):
        _batched_vs_sequential(lambda: _cnn(**config()), X_CNN[:3], 4)
        assert not gated_calls

    def test_non_finite_input_keeps_the_stacked_path(self, gated_calls):
        # The gate comes first, so the raw input reaches it: there a
        # dropped NaN or inf still drives a wordline (0·NaN is NaN),
        # which only the stacked path models.
        def deploy():
            rng = np.random.default_rng(11)
            return BayesianCim(nn.Sequential(
                SpatialSpinDropout(2, p=0.3, rng=rng),
                nn.BinaryConv2d(2, 4, 3, padding=1, rng=rng),
                nn.SignActivation(),
                nn.Flatten(),
                nn.BinaryLinear(4 * 8 * 8, 3, rng=rng)),
                CimConfig(seed=6), seed=33)

        x = RNG.standard_normal((4, 2, 8, 8))
        _batched_vs_sequential(deploy, x, 5)
        assert len(gated_calls) == 1
        x[1, 0, 3, 4] = np.nan
        x[3, 1, 6, 6] = np.inf
        with np.errstate(invalid="ignore"):
            _batched_vs_sequential(deploy, x, 5, equal_nan=True)
        assert len(gated_calls) == 1

    def test_mlp_neuron_gates_never_run_gated(self, gated_calls):
        engine = _batched_vs_sequential(
            lambda: BayesianCim(
                make_spindrop_mlp(20, (16,), 4, p=0.3, seed=1),
                CimConfig(seed=6), seed=33), X_FLAT, 5)
        assert engine._gated_pair is None
        assert not gated_calls


class TestGridGatedMvm:
    """``CrossbarGrid.mvm_gated`` against ``mvm`` on each pass's gated
    drive, with hand-built keep banks."""

    WIDTH = 9           # rows per channel, as a 3×3 conv's K²

    def _grid(self, ledger):
        # 72 rows in 32-row chunks (two cut channels) and 12 columns in
        # 5-column arrays; 6-bit ADCs: step 2 on 32 rows, so odd MACs
        # land on rounding ties.
        weights = np.where(np.random.default_rng(3).random((72, 12)) < 0.5,
                           -1.0, 1.0)
        return CrossbarGrid(weights, _chunk(72, 32), _chunk(12, 5),
                            CimConfig(seed=0, adc_bits=6), ledger)

    def test_matches_per_pass_mvm(self):
        # A (K, B) drive, and an (N, K, B) stack of them as the gated
        # conv hands over (one drive per image).
        rng = np.random.default_rng(4)
        keep = np.array([
            [1, 1, 1, 1, 1, 1, 1, 1],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1, 0, 1, 1, 0, 0, 1, 0],
            [0, 0, 0, 1, 0, 0, 0, 1],            # only the cut channels
            [0, 1, 0, 0, 1, 1, 0, 1],
        ], dtype=np.float32)
        for lead in ((), (3,)):
            drive = np.sign(rng.standard_normal(lead + (72, 40))).astype(
                np.float32)
            drive[rng.random(drive.shape) < 0.2] = 0.0
            gated_ledger, ref_ledger = OpLedger(), OpLedger()
            grid, ref = self._grid(gated_ledger), self._grid(ref_ledger)
            out = np.zeros((len(keep),) + lead + (12, 40))
            grid.mvm_gated(drive, self.WIDTH, keep, out)
            for row, got in zip(keep, out):
                rows = np.repeat(row, self.WIDTH)[:, None] > 0
                for image, got_image in zip(drive.reshape(-1, 72, 40),
                                            got.reshape(-1, 12, 40)):
                    expected = np.zeros((12, 40))
                    ref.mvm(np.where(rows, image, np.float32(0.0)),
                            expected)
                    np.testing.assert_array_equal(got_image, expected)
            assert gated_ledger.as_dict() == ref_ledger.as_dict()
            np.testing.assert_array_equal(out[1], 0.0)

    def test_analog_grid_refuses(self):
        grid = self._grid(OpLedger())
        grid.exact = False
        with pytest.raises(ValueError, match="exact"):
            grid.mvm_gated(np.zeros((72, 4), np.float32), self.WIDTH,
                           np.ones((2, 8), np.float32), np.zeros((2, 12, 4)))


# ----------------------------------------------------------------------
# The sign fold: FrozenNorm → DigitalSign (→ DigitalMaxPool) as one
# threshold compare
# ----------------------------------------------------------------------
X_MLP = RNG.standard_normal((6, 256))


def _mlp(**config):
    """The perfbench SpinDrop MLP: a 128-feature norm in the prefix, a
    64-feature one behind the first dropout bank."""
    model = make_spindrop_mlp(256, (128, 64), 10, p=0.25, seed=0)
    return BayesianCim(model, CimConfig(seed=0, **config), seed=0)


def _trained_mlp():
    """A SpinDrop MLP trained for two epochs on digits (γ ≠ 1, β ≠ 0,
    μ and σ away from 0 and 1), with an inverted norm appended and two
    γ of every norm flipped negative; and test inputs."""
    data = digits_dataset(n_samples=300, seed=3)
    model = train_classifier(
        make_spindrop_mlp(data.n_features, (32, 16), data.n_classes,
                          p=0.2, seed=3),
        data, TrainConfig(epochs=2, mc_samples=2))
    rng = np.random.default_rng(12)
    inverted = nn.InvertedNorm(data.n_classes)
    inverted.gamma.data = rng.uniform(0.5, 2.0, data.n_classes)
    inverted.beta.data = rng.standard_normal(data.n_classes)
    inverted.running_mean = rng.standard_normal(data.n_classes)
    inverted.running_var = rng.uniform(0.5, 2.0, data.n_classes)
    layers = list(model) + [inverted, nn.SignActivation(),
                            SpinDropout(data.n_classes, p=0.2, rng=rng),
                            nn.BinaryLinear(data.n_classes, 4, rng=rng)]
    for layer in layers:
        if isinstance(layer, (nn.BatchNorm1d, nn.InvertedNorm)):
            layer.gamma.data[[1, 4]] *= -1.0
    return nn.Sequential(*layers), data.x_test[:8]


def _grouped_dilated_cnn():
    rng = np.random.default_rng(8)
    return nn.Sequential(
        nn.BinaryConv2d(2, 4, 3, padding=2, dilation=2, groups=2,
                        binarize_input=True, rng=rng),
        nn.BatchNorm2d(4),
        nn.SignActivation(),
        nn.MaxPool2d(2),
        SpatialSpinDropout(4, p=0.3, ideal=True, rng=rng),
        nn.BinaryConv2d(4, 4, 3, padding=1, groups=2, dilation=2, rng=rng),
        nn.BatchNorm2d(4),
        nn.SignActivation(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.BinaryLinear(4 * 2 * 2, 3, rng=rng))


def _norms(engine):
    return [stage for stage in engine.network.stages
            if isinstance(stage, FrozenNorm)]


def _folded(calls):
    return {id(fold.norm) for fold in calls}


class TestSignFold:
    @pytest.mark.parametrize("make,x", [(_cnn, X_CNN), (_mlp, X_MLP)],
                             ids=["cnn", "mlp"])
    def test_perfbench_engines_fold_every_norm(self, make, x,
                                               sign_fold_calls):
        engine = _batched_vs_sequential(make, x, 20)
        # The prefix norm and the stacked one, once each.
        assert len(sign_fold_calls) == 2
        assert _folded(sign_fold_calls) == {id(n) for n in _norms(engine)}
        pools = [fold.pool for fold in sign_fold_calls]
        assert all((pool is not None) == (make is _cnn) for pool in pools)

    def test_trained_norms_with_negative_gammas(self, sign_fold_calls):
        model, x = _trained_mlp()
        engine = _batched_vs_sequential(
            lambda: BayesianCim(model, CimConfig(seed=6), seed=33), x, 9)
        norms = _norms(engine)
        assert len(norms) == 3 and norms[-1].inverted
        assert _folded(sign_fold_calls) == {id(n) for n in norms}
        for fold in sign_fold_calls:
            # Features 1 and 4 read +1 below their threshold.
            lo, hi = fold.thresholds
            assert np.isnan(lo[[1, 4]]).all()
            assert np.isnan(np.delete(hi, [1, 4])).all()
            assert not np.isnan(np.delete(lo, [1, 4])).any()

    def test_read_noise_folds_every_pass(self, sign_fold_calls):
        # Read noise drops the prefix (split 0) and runs one pass per
        # call; both norms then fold on every pass.
        engine = _batched_vs_sequential(
            lambda: _cnn(variability=_variability(0.01)), X_CNN[:3], 4)
        assert len(sign_fold_calls) == 2 * 4
        assert _folded(sign_fold_calls) == {id(n) for n in _norms(engine)}

    def test_non_finite_input(self, sign_fold_calls):
        x = X_MLP.copy()
        x[1, 7] = np.nan
        x[2] = np.inf
        x[3, :100] = -np.inf
        x[4] = np.nan
        with np.errstate(invalid="ignore"):
            _batched_vs_sequential(_mlp, x, 6, equal_nan=True)
        assert len(sign_fold_calls) == 2

    def test_snapshot_restored_engine(self, tmp_path, sign_fold_calls):
        path = str(tmp_path / "mlp")
        DeploymentSnapshot.capture(_mlp()).save(path)
        snapshot = DeploymentSnapshot.load(path)
        _batched_vs_sequential(snapshot.build, X_MLP, 6)
        assert len(sign_fold_calls) == 2
        original, restored = _mlp(), snapshot.build()
        original.ledger.reset()
        restored.ledger.reset()
        np.testing.assert_array_equal(
            original.forward_batched(X_MLP, n_samples=6),
            restored.forward_batched(X_MLP, n_samples=6))
        assert original.ledger.as_dict() == restored.ledger.as_dict()

    @pytest.mark.parametrize("make,x", [
        (lambda: _cnn(max_rows=32), X_CNN),
        (lambda: BayesianCim(_grouped_dilated_cnn(), CimConfig(seed=6),
                             seed=33), RNG.standard_normal((3, 2, 14, 14))),
    ], ids=["max_rows_32", "grouped_dilated"])
    def test_cut_and_grouped_convs(self, make, x, sign_fold_calls,
                                   gated_calls):
        _batched_vs_sequential(make, x, 5)
        assert len(sign_fold_calls) == 2
        assert all(fold.pool is not None for fold in sign_fold_calls)
        assert gated_calls

    def test_affine_bound_norm_keeps_its_stages(self, sign_fold_calls):
        # The affine dropout's norm changes per pass: its run keeps the
        # arithmetic stages, while the two batch norms fold.
        engine = _batched_vs_sequential(
            lambda: BayesianCim(_mixed_model(), CimConfig(seed=6), seed=33),
            X_IMG, 5)
        bound = [b.target for b in engine.bindings if b.kind == "affine"]
        assert len(bound) == 1
        norms = _norms(engine)
        assert _folded(sign_fold_calls) == {
            id(n) for n in norms if n is not bound[0]}
        assert len(norms) == 3

    @pytest.mark.parametrize("param,value", [
        ("gamma", 0.0), ("std", 0.0), ("std", -1.0), ("mean", np.inf),
        ("beta", np.nan)])
    def test_uncovered_norm_keeps_its_stages(self, param, value,
                                             sign_fold_calls):
        def deploy():
            engine = _mlp()
            norm = _norms(engine)[1]
            getattr(norm, param)[5] = value
            engine._plan_stacking()
            return engine

        with np.errstate(divide="ignore", invalid="ignore"):
            engine = _batched_vs_sequential(deploy, X_MLP, 4,
                                            equal_nan=True)
        assert _folded(sign_fold_calls) == {id(_norms(engine)[0])}

    def test_matches_the_arithmetic_stages(self, sign_fold_calls,
                                           force_stages):
        folded, staged = _cnn(), force_stages(_cnn())
        a = folded.forward_batched(X_CNN, n_samples=9)
        assert len(sign_fold_calls) == 2
        b = staged.forward_batched(X_CNN, n_samples=9)
        assert len(sign_fold_calls) == 2
        np.testing.assert_array_equal(a, b)
        assert folded.ledger.as_dict() == staged.ledger.as_dict()

    def test_one_search_per_engine(self, monkeypatch):
        searches = []
        real = FrozenNorm._sign_cut

        def spy(norm):
            searches.append(norm.mean.size)
            return real(norm)

        monkeypatch.setattr(FrozenNorm, "_sign_cut", spy)
        engine = _mlp()
        assert not searches          # derived at the first call
        engine.forward_batched(X_MLP, n_samples=3)
        engine.forward_batched(X_MLP, n_samples=3)
        # Both norms share one arithmetic form: one search, 192 wide.
        assert searches == [128 + 64]
        folds = [step for _, step in engine._steps
                 if isinstance(step, SignFold)]
        assert len(folds) == 2 and all(f.thresholds for f in folds)
