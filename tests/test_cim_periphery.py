"""ADC, sense amplifier, op ledger and mapping strategies."""

import numpy as np
import pytest

from repro.cim import (
    ADC,
    ConvShape,
    MappingStrategy,
    OpLedger,
    PopcountADC,
    SenseAmplifier,
    dropconnect_module_count,
    plan_conv_mapping,
    scale_module_count,
    spatial_module_count,
    spindrop_module_count,
)


class TestADC:
    def test_quantizes_to_grid(self):
        adc = ADC(bits=2, lo=0.0, hi=3.0)
        out = adc.convert(np.array([0.4, 1.6, 2.9]))
        np.testing.assert_allclose(out, [0.0, 2.0, 3.0])

    def test_clips_out_of_range(self):
        adc = ADC(bits=4, lo=-1.0, hi=1.0)
        out = adc.convert(np.array([-5.0, 5.0]))
        np.testing.assert_allclose(out, [-1.0, 1.0])

    def test_high_resolution_near_exact(self):
        adc = ADC(bits=12, lo=-10.0, hi=10.0)
        x = np.random.default_rng(0).uniform(-9, 9, 100)
        np.testing.assert_allclose(adc.convert(x), x, atol=20 / 4095)

    def test_rmse_decreases_with_bits(self):
        x = np.random.default_rng(0).uniform(-1, 1, 500)
        rmse = [ADC(bits=b, lo=-1, hi=1).quantization_rmse(x)
                for b in (2, 4, 8)]
        assert rmse[0] > rmse[1] > rmse[2]

    def test_calibrate(self):
        adc = ADC(bits=4)
        adc.calibrate(-50.0, 50.0)
        assert adc.lo == -50.0 and adc.hi == 50.0
        with pytest.raises(ValueError):
            adc.calibrate(1.0, -1.0)

    def test_ledger_booking(self):
        ledger = OpLedger()
        adc = ADC(bits=4, ledger=ledger)
        adc.convert(np.zeros((3, 5)))
        assert ledger["adc_conversion"] == 15

    def test_needs_positive_bits(self):
        with pytest.raises(ValueError):
            ADC(bits=0)


class TestPopcountADC:
    @pytest.mark.parametrize("rows", [9, 32, 64, 72, 128, 256, 1000, 4096])
    def test_float32_matches_float64_on_integers(self, rows):
        # The exact routes hand the ADC float32 integer partial sums;
        # with any integer step, odd or even (where odd values tie
        # exactly), they must quantize exactly as in float64.
        values = np.arange(-rows - 2, rows + 3)
        steps = set()
        for bits in range(1, 11):
            ledger = OpLedger()
            adc = PopcountADC(bits, rows, ledger=ledger)
            steps.add(adc.step)
            single = adc.convert(values.astype(np.float32))
            double = adc.convert(values.astype(np.float64))
            assert single.dtype == np.float32
            assert double.dtype == np.float64
            np.testing.assert_array_equal(single.astype(np.float64), double)
            assert ledger["adc_conversion"] == 2 * values.size
        assert any(step % 2 == 0 for step in steps)

    def test_float32_input_is_not_written(self):
        adc = PopcountADC(4, 72, ledger=OpLedger())
        values = np.arange(-74, 75, dtype=np.float32)
        before = values.copy()
        adc.convert(values)
        np.testing.assert_array_equal(values, before)


class TestSenseAmplifier:
    def test_binary_output(self):
        sa = SenseAmplifier()
        out = sa.compare(np.array([-0.5, 0.5]))
        np.testing.assert_array_equal(out, [-1.0, 1.0])

    def test_offset_causes_errors_near_reference(self):
        sa = SenseAmplifier(offset_sigma=0.5,
                            rng=np.random.default_rng(0))
        out = np.stack([sa.compare(np.full(100, 0.01))
                        for _ in range(20)])
        assert (out == -1.0).any() and (out == 1.0).any()

    def test_ledger(self):
        ledger = OpLedger()
        sa = SenseAmplifier(ledger=ledger)
        sa.compare(np.zeros(7))
        assert ledger["sa_read"] == 7


class TestOpLedger:
    def test_add_and_get(self):
        ledger = OpLedger()
        ledger.add("adc_conversion", 5)
        ledger.add("adc_conversion", 3)
        assert ledger["adc_conversion"] == 8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OpLedger().add("x", -1)

    def test_merge_and_scaled(self):
        a, b = OpLedger(), OpLedger()
        a.add("x", 2)
        b.add("x", 3)
        b.add("y", 1)
        a.merge(b)
        assert a["x"] == 5 and a["y"] == 1
        doubled = a.scaled(2.0)
        assert doubled["x"] == 10 and a["x"] == 5

    def test_total(self):
        ledger = OpLedger()
        ledger.add("x", 2)
        ledger.add("y", 3)
        assert ledger.total() == 5
        assert ledger.total(["x"]) == 2


class TestMappingStrategies:
    def test_strategy1_single_crossbar_when_fits(self):
        plan = plan_conv_mapping(ConvShape(8, 16, 3),
                                 MappingStrategy.UNFOLDED_COLUMN,
                                 max_rows=128, max_cols=128)
        assert plan.n_crossbars == 1          # 72 rows × 16 cols fits
        assert plan.adc_conversions_per_output == 1

    def test_strategy1_tiles_large_layers(self):
        plan = plan_conv_mapping(ConvShape(64, 64, 3),
                                 MappingStrategy.UNFOLDED_COLUMN,
                                 max_rows=128, max_cols=128)
        assert plan.n_crossbars == 5          # 576 rows -> 5 row tiles
        assert plan.adc_conversions_per_output == 5

    def test_strategy2_crossbar_grid(self):
        plan = plan_conv_mapping(ConvShape(8, 16, 3),
                                 MappingStrategy.TILED_KXK)
        assert plan.n_crossbars == 8 * 16
        assert plan.crossbar_rows == plan.crossbar_cols == 3
        assert plan.adc_conversions_per_output == 8  # one per c_in chunk

    def test_dropout_modules_per_input_channel(self):
        for strategy in MappingStrategy:
            plan = plan_conv_mapping(ConvShape(12, 24, 3), strategy)
            assert plan.dropout_modules == 12

    def test_utilization_bounds(self):
        for strategy in MappingStrategy:
            plan = plan_conv_mapping(ConvShape(8, 16, 5), strategy)
            assert 0.0 < plan.utilization <= 1.0

    def test_strategy2_full_utilization(self):
        plan = plan_conv_mapping(ConvShape(4, 4, 3),
                                 MappingStrategy.TILED_KXK)
        assert plan.utilization == pytest.approx(1.0)

    def test_module_count_helpers(self):
        assert spindrop_module_count([100, 50]) == 150
        assert spatial_module_count([8, 16]) == 24
        assert scale_module_count(4) == 4
        assert dropconnect_module_count([1000, 500]) == 1500
