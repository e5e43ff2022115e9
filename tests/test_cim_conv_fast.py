"""Deployed CIM conv fast path: exact-integer route, plans, groups.

The contract of the PR-5 kernel work: :class:`CimConv2d`'s
exact-integer float32 route must be *bit-for-bit* identical to the
analog simulation it replaces (outputs and ledger totals), warm
engines must perform zero im2col index-plan rebuilds, and the
grouped/dilated deployments must match the software conv they were
compiled from.
"""

import numpy as np
import pytest

from repro import nn
from repro.bayesian import (
    BayesianCim,
    SpatialSpinDropout,
    make_spindrop_mlp,
)
from repro.cim import (
    CimConfig,
    CimConv2d,
    ConvShape,
    MappingStrategy,
    OpLedger,
    compile_to_cim,
    plan_conv_mapping,
)
from repro.devices import DeviceVariability, VariabilityParams
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F
from repro.tensor.functional import conv_plan_cache_stats

RNG = np.random.default_rng(55)


def _binary(shape):
    w = np.sign(RNG.standard_normal(shape))
    w[w == 0] = 1.0
    return w


def _masked_sign_input(shape, p_drop=0.25):
    x = np.sign(RNG.standard_normal(shape))
    x[RNG.random(shape) < p_drop] = 0.0
    return x


CONFIGS = [
    # (c_out, c_in_per_group, k, groups, dilation, strategy)
    (8, 1, 3, 1, 1, MappingStrategy.UNFOLDED_COLUMN),
    (16, 8, 3, 1, 1, MappingStrategy.UNFOLDED_COLUMN),
    (16, 8, 3, 1, 2, MappingStrategy.UNFOLDED_COLUMN),
    (8, 2, 3, 4, 1, MappingStrategy.UNFOLDED_COLUMN),
    (12, 3, 3, 2, 2, MappingStrategy.TILED_KXK),
    (16, 8, 3, 1, 1, MappingStrategy.TILED_KXK),
]


class TestExactRoute:
    @pytest.mark.parametrize("c_out,c_in_pg,k,groups,dilation,strategy",
                             CONFIGS)
    def test_bit_identical_to_analog_route(self, c_out, c_in_pg, k,
                                           groups, dilation, strategy,
                                           force_analog, analog_calls):
        w = _binary((c_out, c_in_pg, k, k))
        x = RNG.standard_normal((3, c_in_pg * groups, 12, 12))
        dropped = RNG.random(c_in_pg * groups) < 0.3   # dropped maps
        x[:, dropped] = 0.0
        ledger_fast, ledger_slow = OpLedger(), OpLedger()
        fast = CimConv2d(w, None, None, 1, 1,
                         CimConfig(seed=0, mapping_strategy=strategy),
                         ledger_fast, dilation=dilation, groups=groups)
        slow = force_analog(CimConv2d(
            w, None, None, 1, 1,
            CimConfig(seed=0, mapping_strategy=strategy),
            ledger_slow, dilation=dilation, groups=groups))
        assert all(grid.exact for grid in fast.grids)
        exact_out = fast.forward(x)
        assert not analog_calls
        np.testing.assert_array_equal(exact_out, slow.forward(x))
        assert len(analog_calls) == slow.n_crossbars
        assert ledger_fast.as_dict() == ledger_slow.as_dict()

    def test_disabled_on_variability(self):
        var = DeviceVariability(VariabilityParams(sigma_r=0.05),
                                rng=np.random.default_rng(3))
        layer = CimConv2d(_binary((4, 2, 3, 3)), None, None, 1, 1,
                          CimConfig(seed=0, variability=var), OpLedger())
        assert not any(grid.exact for grid in layer.grids)

    def test_disabled_on_wire_resistance(self):
        layer = CimConv2d(_binary((4, 2, 3, 3)), None, None, 1, 1,
                          CimConfig(seed=0, wire_resistance=50.0),
                          OpLedger())
        assert not any(grid.exact for grid in layer.grids)

    @pytest.mark.parametrize("config", [dict(max_rows=32),
                                        dict(adc_bits=4)],
                             ids=["max_rows32", "adc_bits4"])
    def test_even_adc_step_batched_equals_sequential(self, config):
        # Even ADC steps (2 on 32-row tiles, 18 on 4-bit 128-row
        # tiles) tie exactly at odd MACs.  On the analog chain the
        # decode's ~1e-13 float noise, which depends on how many
        # passes share a GEMM, decided those ties; an ideal array takes
        # the exact route whatever its step, so stacking passes cannot
        # change how a tie rounds.
        def engine():
            model = make_spindrop_mlp(256, (128, 64), 10, p=0.25, seed=0)
            return BayesianCim(model, CimConfig(seed=0, **config), seed=0)

        a, b = engine(), engine()
        grids = [grid for layer in a.network.mvm_layers()
                 for grid in layer.grids]
        assert any(adc.step % 2 == 0 for grid in grids for adc in grid.adcs)
        assert all(grid.exact for grid in grids)
        x = RNG.standard_normal((4, 256))
        seq = a.mc_forward(x, n_samples=20, batched=False)
        bat = b.mc_forward_batched(x, n_samples=20)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()

    def test_matches_software_conv_grouped_dilated(self):
        w = _binary((6, 2, 3, 3))
        layer = CimConv2d(w, None, None, 1, 2,
                          CimConfig(adc_bits=12, seed=0), OpLedger(),
                          dilation=2, groups=3)
        x = _masked_sign_input((2, 6, 11, 11))
        with no_grad():
            expected = F.conv2d(Tensor(x), Tensor(w), padding=2,
                                dilation=2, groups=3).data
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-6)

    def test_sample_axis_stacking(self):
        """A stacked (T, N, C, H, W) tensor equals per-pass calls."""
        w = _binary((4, 2, 3, 3))
        layer = CimConv2d(w, None, None, 1, 1,
                          CimConfig(adc_bits=12, seed=0), OpLedger())
        x = _masked_sign_input((5, 2, 2, 8, 8))
        stacked = layer.forward(x)
        assert stacked.shape[:2] == (5, 2)
        for t in range(5):
            np.testing.assert_array_equal(stacked[t], layer.forward(x[t]))


class TestPlanReuse:
    def test_warm_layer_zero_plan_rebuilds(self):
        layer = CimConv2d(_binary((16, 8, 3, 3)), None, None, 1, 1,
                          CimConfig(seed=0), OpLedger())
        x = RNG.standard_normal((4, 8, 16, 16))
        layer.forward(x)
        before = conv_plan_cache_stats()["builds"]
        layer.forward(x)
        layer.forward(x)
        assert conv_plan_cache_stats()["builds"] == before

    def test_warm_deployed_engine_zero_plan_rebuilds(self):
        model = nn.Sequential(
            nn.BinaryConv2d(1, 4, 3, padding=1, binarize_input=True,
                            rng=np.random.default_rng(0)),
            nn.SignActivation(),
            SpatialSpinDropout(4, p=0.3, ideal=True,
                               rng=np.random.default_rng(1)),
            nn.BinaryConv2d(4, 4, 3, padding=1,
                            rng=np.random.default_rng(2)),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.BinaryLinear(4 * 6 * 6, 3, rng=np.random.default_rng(3)),
        )
        engine = BayesianCim(model, CimConfig(seed=0), seed=0)
        x = RNG.standard_normal((2, 1, 12, 12))
        engine.mc_forward_batched(x, n_samples=3)
        before = conv_plan_cache_stats()["builds"]
        engine.mc_forward_batched(x, n_samples=3)
        assert conv_plan_cache_stats()["builds"] == before


class TestDeployedEquivalence:
    def _model(self):
        rng = np.random.default_rng(8)
        return nn.Sequential(
            nn.BinaryConv2d(2, 4, 3, padding=2, dilation=2, groups=2,
                            binarize_input=True, rng=rng),
            nn.SignActivation(),
            SpatialSpinDropout(4, p=0.3, ideal=True, rng=rng),
            nn.BinaryConv2d(4, 4, 3, padding=1, groups=2, rng=rng),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.BinaryLinear(4 * 5 * 5, 3, rng=rng),
        )

    def test_batched_equals_sequential_grouped_dilated(self, gated_calls):
        x = RNG.standard_normal((3, 2, 10, 10))
        a = BayesianCim(self._model(), CimConfig(seed=6), seed=33)
        b = BayesianCim(self._model(), CimConfig(seed=6), seed=33)
        a.ledger.reset()
        b.ledger.reset()
        seq = a.mc_forward(x, n_samples=5, batched=False)
        bat = b.mc_forward_batched(x, n_samples=5)
        # The grouped gate→conv pair ran gated, one call per group.
        assert len(gated_calls) == 2
        np.testing.assert_array_equal(seq.samples, bat.samples)
        np.testing.assert_array_equal(seq.probs, bat.probs)
        assert a.ledger.as_dict() == b.ledger.as_dict()

    def test_compiled_grouped_dilated_matches_software_eval(self):
        rng = np.random.default_rng(4)
        model = nn.Sequential(
            nn.BinaryConv2d(2, 4, 3, padding=2, dilation=2, groups=2,
                            binarize_input=True, rng=rng),
            nn.SignActivation(),
            nn.Flatten(),
            nn.BinaryLinear(4 * 10 * 10, 3, rng=rng),
        )
        model.eval()
        net = compile_to_cim(model, CimConfig(adc_bits=12, seed=0))
        x = RNG.standard_normal((4, 2, 10, 10))
        with no_grad():
            expected = model(Tensor(x)).data
        np.testing.assert_allclose(net.forward(x), expected, atol=1e-5)


class TestGroupedMapping:
    def test_plan_scales_crossbars_by_groups(self):
        plain = plan_conv_mapping(ConvShape(8, 16, 3),
                                  MappingStrategy.UNFOLDED_COLUMN)
        grouped = plan_conv_mapping(ConvShape(8, 16, 3, groups=4),
                                    MappingStrategy.UNFOLDED_COLUMN)
        # Each group's unfolded matrix is 4x smaller but the grid is
        # replicated per group.
        assert grouped.n_crossbars == 4 * len(grouped.row_chunks) \
            * len(grouped.col_chunks)
        assert grouped.row_chunks[-1][1] == plain.row_chunks[-1][1] // 4
        assert grouped.dropout_modules == plain.dropout_modules == 8

    def test_conv_layer_exposes_grouped_plan(self):
        layer = CimConv2d(_binary((8, 2, 3, 3)), None, None, 1, 1,
                          CimConfig(seed=0), OpLedger(), groups=4)
        assert layer.plan.groups == 4
        assert len(layer.grids) == 4
        assert all(len(grid.bars) == len(layer.plan.row_chunks)
                   for grid in layer.grids)
        assert layer.n_crossbars == layer.plan.n_crossbars

    def test_invalid_groups_rejected(self):
        with pytest.raises(ValueError):
            CimConv2d(_binary((9, 2, 3, 3)), None, None, 1, 0,
                      CimConfig(seed=0), OpLedger(), groups=2)
        with pytest.raises(ValueError):
            ConvShape(8, 9, 3, groups=2)
