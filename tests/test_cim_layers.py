"""Deployed CIM layers and compilation: parity with software."""

import numpy as np
import pytest

from repro import nn
from repro.cim import (
    CimConfig,
    CimConv2d,
    CimLinear,
    DigitalScale,
    DropoutGate,
    FrozenNorm,
    MappingStrategy,
    OpLedger,
    compile_to_cim,
)
from repro.tensor import Tensor, no_grad

RNG = np.random.default_rng(31)


def _binary(shape):
    w = np.sign(RNG.standard_normal(shape))
    w[w == 0] = 1.0
    return w


def _ideal_config(**kwargs):
    defaults = dict(adc_bits=12, seed=0)
    defaults.update(kwargs)
    return CimConfig(**defaults)


class TestCimLinear:
    def test_matches_software_matmul(self):
        w = _binary((10, 24))
        layer = CimLinear(w, None, None, _ideal_config(), OpLedger())
        x = _binary((6, 24))
        np.testing.assert_allclose(layer.forward(x), x @ w.T, atol=1e-6)

    def test_tiling_preserves_result(self):
        w = _binary((20, 300))   # 300 rows -> 3 tiles at max_rows=128
        layer = CimLinear(w, None, None, _ideal_config(max_rows=128),
                          OpLedger())
        assert layer.n_crossbars == 3
        x = _binary((4, 300))
        np.testing.assert_allclose(layer.forward(x), x @ w.T, atol=1e-6)

    def test_scale_and_bias(self):
        w = _binary((3, 8))
        scale = np.array([2.0, 0.5, 1.0])
        bias = np.array([1.0, -1.0, 0.0])
        layer = CimLinear(w, scale, bias, _ideal_config(), OpLedger())
        x = _binary((2, 8))
        np.testing.assert_allclose(layer.forward(x),
                                   (x @ w.T) * scale + bias, atol=1e-6)

    def test_low_adc_bits_quantizes(self):
        w = _binary((4, 64))
        coarse = CimLinear(w, None, None, _ideal_config(adc_bits=3),
                           OpLedger())
        fine = CimLinear(w, None, None, _ideal_config(adc_bits=12),
                         OpLedger())
        x = _binary((8, 64))
        err_coarse = np.abs(coarse.forward(x) - x @ w.T).mean()
        err_fine = np.abs(fine.forward(x) - x @ w.T).mean()
        assert err_coarse > err_fine

    def test_rejects_real_weights(self):
        with pytest.raises(ValueError):
            CimLinear(np.full((2, 2), 0.5), None, None, _ideal_config(),
                      OpLedger())

    def test_exact_route_is_bit_identical_to_analog(self, force_analog,
                                                    analog_calls):
        # An ideal chain takes the exact-integer float32 route; forcing
        # the analog chain must reproduce the same outputs AND ledger
        # totals bit-for-bit.
        w = _binary((10, 300))   # 3 row tiles at max_rows=128
        la, lb = OpLedger(), OpLedger()
        fast = CimLinear(w, np.full(10, 0.5), np.arange(10.0),
                         _ideal_config(max_rows=128), la)
        slow = force_analog(CimLinear(w, np.full(10, 0.5), np.arange(10.0),
                                      _ideal_config(max_rows=128), lb))
        assert fast.grid.exact
        x = _binary((6, 300))
        exact_out = fast.forward(x)
        assert not analog_calls
        np.testing.assert_array_equal(exact_out, slow.forward(x))
        assert len(analog_calls) == slow.n_crossbars == 3
        assert la.as_dict() == lb.as_dict()

    def test_exact_route_respects_zeroed_inputs(self, force_analog,
                                                analog_calls):
        # A zero input (a neuron dropped upstream) drives no wordline,
        # on the exact route as on the analog one.
        w = _binary((8, 32))
        la, lb = OpLedger(), OpLedger()
        fast = CimLinear(w, None, None, _ideal_config(), la)
        slow = force_analog(CimLinear(w, None, None, _ideal_config(), lb))
        x = _binary((4, 32))
        x[:, ::3] = 0.0
        np.testing.assert_array_equal(fast.forward(x), slow.forward(x))
        assert analog_calls
        assert la.as_dict() == lb.as_dict()
        np.testing.assert_allclose(fast.forward(x), x @ w.T, atol=1e-6)

    def test_negative_zero_drives_no_wordline(self, force_analog,
                                              analog_calls):
        # A dropped negative activation arrives as -0.0 (DropoutGate
        # multiplies by 0.0); it must book as an idle wordline on the
        # exact route, as +0.0 does on the analog route.
        w = _binary((8, 32))
        x = -np.ones((4, 32))
        x[:, ::3] *= 0.0
        assert np.signbit(x[:, ::3]).all()
        ledgers = []
        for analog in (False, True):
            ledger = OpLedger()
            layer = CimLinear(w, None, None, _ideal_config(), ledger)
            if analog:
                force_analog(layer)
            layer.forward(x)
            ledgers.append(ledger.as_dict())
        assert analog_calls
        assert ledgers[0]["dac_drive"] == 4 * int((x[0] != 0).sum())
        assert ledgers[0] == ledgers[1]

    def test_exact_route_disabled_by_nonideal_chain(self):
        from repro.devices.variability import (
            DeviceVariability,
            VariabilityParams,
        )
        w = _binary((4, 16))
        config = _ideal_config()
        config.variability = DeviceVariability(
            VariabilityParams(sigma_r=0.05),
            rng=np.random.default_rng(0))
        layer = CimLinear(w, None, None, config, OpLedger())
        assert not layer.grid.exact


class TestCimConv2d:
    def test_matches_software_conv(self):
        w = _binary((4, 2, 3, 3))
        layer = CimConv2d(w, None, None, stride=1, padding=1,
                          config=_ideal_config(), ledger=OpLedger())
        x = _binary((2, 2, 6, 6))
        from repro.tensor import functional as F
        expected = F.conv2d(Tensor(x), Tensor(w), padding=1).data
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-6)

    def test_both_strategies_equivalent(self):
        w = _binary((4, 3, 3, 3))
        x = _binary((2, 3, 8, 8))
        outs = []
        for strategy in MappingStrategy:
            layer = CimConv2d(
                w, None, None, stride=1, padding=0,
                config=_ideal_config(mapping_strategy=strategy),
                ledger=OpLedger())
            outs.append(layer.forward(x))
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-6)

    def test_zeroed_feature_map_gates_its_wordlines(self):
        # A dropped input feature map (zeroed upstream) drives none of
        # its K² wordlines: the live maps alone are booked.
        w = _binary((4, 3, 3, 3))
        ledger = OpLedger()
        layer = CimConv2d(w, None, None, stride=1, padding=0,
                          config=_ideal_config(), ledger=ledger)
        x = _binary((1, 3, 6, 6))
        x[:, 1] = 0.0
        ledger.reset()
        out = layer.forward(x)
        from repro.tensor import functional as F
        expected = F.conv2d(Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(out, expected, atol=1e-6)
        assert ledger["dac_drive"] == 4 * 4 * 2 * 9   # L × live maps × K²

    def test_empty_batch(self):
        layer = CimConv2d(_binary((4, 2, 3, 3)), None, None, 1, 1,
                          _ideal_config(), OpLedger(), groups=2)
        assert layer.forward(np.zeros((0, 4, 6, 6))).shape == (0, 4, 6, 6)

    def test_rejects_rectangular_kernel(self):
        w = np.ones((2, 2, 3, 5))
        with pytest.raises(ValueError):
            CimConv2d(w, None, None, 1, 0, _ideal_config(), OpLedger())


class TestDigitalStages:
    def test_frozen_norm_matches_batchnorm_eval(self):
        bn = nn.BatchNorm1d(6)
        for _ in range(10):
            bn(Tensor(RNG.standard_normal((32, 6)) * 2 + 1))
        bn.eval()
        frozen = FrozenNorm(bn.running_mean, bn.running_var,
                            bn.gamma.data, bn.beta.data, bn.eps,
                            spatial=False, inverted=False,
                            ledger=OpLedger())
        x = RNG.standard_normal((8, 6))
        with no_grad():
            np.testing.assert_allclose(frozen.forward(x),
                                       bn(Tensor(x)).data, atol=1e-10)

    def test_frozen_inverted_norm_order(self):
        inv = nn.InvertedNorm(4)
        for _ in range(10):
            inv(Tensor(RNG.standard_normal((32, 4)) + 2.0))
        inv.eval()
        frozen = FrozenNorm(inv.running_mean, inv.running_var,
                            inv.gamma.data, inv.beta.data, inv.eps,
                            spatial=False, inverted=True,
                            ledger=OpLedger())
        x = RNG.standard_normal((8, 4))
        with no_grad():
            np.testing.assert_allclose(frozen.forward(x),
                                       inv(Tensor(x)).data, atol=1e-10)

    def test_frozen_norm_affine_masks(self):
        frozen = FrozenNorm(np.zeros(3), np.ones(3), np.full(3, 5.0),
                            np.full(3, 2.0), 1e-5, spatial=False,
                            inverted=True, ledger=OpLedger())
        x = RNG.standard_normal((4, 3))
        frozen.gamma_multiplier = 0.0    # gamma -> identity
        frozen.beta_multiplier = 0.0     # beta -> zero
        out = frozen.forward(x)
        expected = x / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    @pytest.mark.parametrize("inverted", [False, True])
    @pytest.mark.parametrize("affine", [False, True])
    def test_frozen_norm_matches_out_of_place_reference(self, inverted,
                                                        affine):
        # In-place arithmetic on its own output: the values of the
        # out-of-place formula, per-row multiplier banks included, and
        # the input (here a read-only broadcast view) never written.
        mean, var = RNG.standard_normal(4), RNG.random(4) + 0.5
        gamma = RNG.standard_normal(4) if affine else None
        beta = RNG.standard_normal(4) if affine else None
        frozen = FrozenNorm(mean, var, gamma, beta, 1e-5, spatial=True,
                            inverted=inverted, ledger=OpLedger())
        base = RNG.standard_normal((1, 4, 5, 5))
        x = np.broadcast_to(base, (6, 4, 5, 5))
        assert not x.flags.writeable
        if affine:
            frozen.gamma_multiplier = np.array([1.0, 0.0] * 3)
            frozen.beta_multiplier = np.array([0.0, 1.0, 1.0] * 2)
        before = x.copy()
        out = frozen.forward(x)
        np.testing.assert_array_equal(x, before)
        shape = (1, -1, 1, 1)
        std = frozen.std.reshape(shape)
        ref = x
        if affine:
            gm = frozen.gamma_multiplier.reshape(-1, 1, 1, 1)
            g = gamma.reshape(shape) * gm + (1.0 - gm)
            b = beta.reshape(shape) * frozen.beta_multiplier.reshape(
                -1, 1, 1, 1)
        if inverted:
            if affine:
                ref = ref * g + b
            ref = (ref - mean.reshape(shape)) / std
        else:
            ref = (ref - mean.reshape(shape)) / std
            if affine:
                ref = ref * g + b
        np.testing.assert_array_equal(out, ref)

    def test_digital_sign_matches_where(self):
        from repro.cim import DigitalSign
        x = np.array([[-2.0, -0.0, 0.0, 1e-300, -1e-300, 3.0,
                       np.nan, np.inf, -np.inf]])
        before = x.copy()
        out = DigitalSign(OpLedger()).forward(x)
        np.testing.assert_array_equal(out, np.where(x >= 0, 1.0, -1.0))
        assert out.dtype == np.float64
        assert not np.signbit(out[0, 1])            # -0.0 -> +1
        np.testing.assert_array_equal(x, before)

    def test_dropout_gate_masks_and_passthrough(self):
        gate = DropoutGate(0.5, channelwise=False, ledger=OpLedger())
        x = np.ones((2, 4))
        np.testing.assert_array_equal(gate.forward(x), x)  # mask None
        gate.mask = np.array([1.0, 0.0, 1.0, 0.0])
        out = gate.forward(x)
        np.testing.assert_array_equal(out, [[1, 0, 1, 0]] * 2)

    def test_digital_scale_multiplier(self):
        stage = DigitalScale(np.array([2.0, 3.0]), spatial=False,
                             ledger=OpLedger())
        x = np.ones((1, 2))
        np.testing.assert_allclose(stage.forward(x), [[2.0, 3.0]])
        stage.multiplier = 0.5
        np.testing.assert_allclose(stage.forward(x), [[1.0, 1.5]])


class TestCompile:
    def _binary_model(self):
        rng = np.random.default_rng(0)
        return nn.Sequential(
            nn.BinaryLinear(16, 12, rng=rng, binarize_input=True),
            nn.BatchNorm1d(12),
            nn.SignActivation(),
            nn.BinaryLinear(12, 4, rng=rng),
        )

    def test_compiled_matches_software_eval(self):
        model = self._binary_model()
        # Settle batch-norm running statistics.
        model.train()
        for _ in range(20):
            model(Tensor(RNG.standard_normal((32, 16))))
        model.eval()
        net = compile_to_cim(model, CimConfig(adc_bits=12, seed=0))
        x = RNG.standard_normal((8, 16))
        with no_grad():
            expected = model(Tensor(x)).data
        np.testing.assert_allclose(net.forward(x), expected, atol=1e-5)

    def test_full_precision_linear_rejected(self):
        model = nn.Sequential(nn.Linear(4, 2))
        with pytest.raises(TypeError):
            compile_to_cim(model)

    def test_stage_count_and_types(self):
        net = compile_to_cim(self._binary_model(),
                             CimConfig(adc_bits=8, seed=0))
        kinds = [type(s).__name__ for s in net.stages]
        assert kinds == ["CimLinear", "FrozenNorm", "DigitalSign",
                         "CimLinear"]

    def test_n_crossbars(self):
        net = compile_to_cim(self._binary_model(),
                             CimConfig(adc_bits=8, seed=0))
        assert net.n_crossbars == 2

    def test_ledger_accumulates_over_forward(self):
        net = compile_to_cim(self._binary_model(),
                             CimConfig(adc_bits=8, seed=0))
        programming = net.ledger["mtj_write"]
        assert programming == 2 * (16 * 12 + 12 * 4)
        net.forward(RNG.standard_normal((4, 16)))
        assert net.ledger["adc_conversion"] > 0
        assert net.ledger["sa_read"] > 0
