"""Cross-module property-based tests (hypothesis).

Invariants that must hold for *any* valid input, spanning the autograd
engine, the crossbar/ADC chain, the device models and the uncertainty
metrics.  These complement the example-based unit tests with
generative coverage.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bayesian import (
    BayesianCim,
    make_spatial_spindrop_cnn,
    make_spindrop_mlp,
)
from repro.cim import CimConfig, OpLedger, PopcountADC, XnorCrossbar
from repro.cim.snapshot import DeploymentSnapshot
from repro.devices import MTJParams, SpintronicRNG, switching_probability
from repro.tensor import Tensor, bitpack, functional as F
from repro.uncertainty import predictive_entropy, auroc


small_dims = st.integers(min_value=1, max_value=8)


class TestAutogradProperties:
    @given(small_dims, small_dims, small_dims)
    @settings(max_examples=25, deadline=None)
    def test_matmul_shape_contract(self, n, k, m):
        rng = np.random.default_rng(n * 100 + k * 10 + m)
        a = Tensor(rng.standard_normal((n, k)))
        b = Tensor(rng.standard_normal((k, m)))
        assert F.matmul(a, b).shape == (n, m)

    @given(st.lists(st.floats(min_value=-10, max_value=10),
                    min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_softmax_is_distribution(self, values):
        probs = F.softmax(Tensor(np.array([values]))).data
        assert probs.min() >= 0.0
        np.testing.assert_allclose(probs.sum(), 1.0, rtol=1e-9)

    @given(st.lists(st.floats(min_value=-5, max_value=5),
                    min_size=2, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_sign_ste_output_binary(self, values):
        out = F.sign_ste(Tensor(np.array(values))).data
        assert set(np.unique(out)) <= {-1.0, 1.0}

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_sum_then_backward_gives_ones(self, n, m):
        x = Tensor(np.random.default_rng(n + m).standard_normal((n, m)),
                   requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((n, m)))

    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_gradient_linearity(self, n, seed):
        """grad of (a·f) is a·(grad of f) for scalar a."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, n))
        x1 = Tensor(data.copy(), requires_grad=True)
        (F.tanh(x1).sum() * 3.0).backward()
        x2 = Tensor(data.copy(), requires_grad=True)
        F.tanh(x2).sum().backward()
        np.testing.assert_allclose(x1.grad, 3.0 * x2.grad, rtol=1e-10)


class TestCrossbarProperties:
    @given(st.integers(min_value=1, max_value=24),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ideal_xnor_mac_always_exact(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        w = np.sign(rng.standard_normal((rows, cols)))
        w[w == 0] = 1.0
        bar = XnorCrossbar(rows, cols)
        bar.program(w)
        x = np.sign(rng.standard_normal((3, rows)))
        x[x == 0] = 1.0
        np.testing.assert_allclose(bar.matvec(x), x @ w, atol=1e-9)

    @given(st.integers(min_value=1, max_value=24),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mac_parity_invariant(self, rows, seed):
        """XNOR MAC over n active ±1 rows has the same parity as n."""
        rng = np.random.default_rng(seed)
        w = np.sign(rng.standard_normal((rows, 4)))
        w[w == 0] = 1.0
        bar = XnorCrossbar(rows, 4)
        bar.program(w)
        x = np.sign(rng.standard_normal((1, rows)))
        x[x == 0] = 1.0
        mac = np.rint(bar.matvec(x)).astype(int)
        assert np.all((mac - rows) % 2 == 0)

    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=2, max_value=64))
    @settings(max_examples=25, deadline=None)
    def test_popcount_adc_idempotent(self, bits, rows):
        """Converting an already-converted value changes nothing."""
        adc = PopcountADC(bits=bits, rows=rows, ledger=OpLedger())
        values = np.linspace(-rows, rows, 17)
        once = adc.convert(values)
        twice = adc.convert(once)
        np.testing.assert_allclose(once, twice)

    @given(st.integers(min_value=6, max_value=12),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_popcount_adc_exact_when_enough_bits(self, bits, rows):
        if 2 ** bits - 1 < 2 * rows:
            return
        adc = PopcountADC(bits=bits, rows=rows, ledger=OpLedger())
        integers = np.arange(-rows, rows + 1, dtype=float)
        np.testing.assert_allclose(adc.convert(integers), integers)


class TestDeviceProperties:
    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=10.0, max_value=80.0))
    @settings(max_examples=25, deadline=None)
    def test_switching_probability_bounded(self, i_ratio, delta):
        params = MTJParams(delta=delta)
        p = switching_probability(i_ratio * params.i_c0, params)
        assert 0.0 <= p <= 1.0

    @given(st.integers(min_value=1, max_value=64),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=15, deadline=None)
    def test_rng_bits_are_binary(self, n_modules, p):
        bank = SpintronicRNG(n_modules, p=p,
                             rng=np.random.default_rng(0))
        bits = bank.generate(100)
        assert set(np.unique(bits)) <= {0.0, 1.0}


class TestUncertaintyProperties:
    @given(st.integers(min_value=2, max_value=12),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_entropy_invariant_to_class_permutation(self, c, n):
        rng = np.random.default_rng(c * 100 + n)
        probs = rng.dirichlet(np.ones(c), size=n)
        permuted = probs[:, rng.permutation(c)]
        np.testing.assert_allclose(predictive_entropy(probs),
                                   predictive_entropy(permuted),
                                   rtol=1e-10)

    @given(st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_auroc_shift_invariant(self, shift):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(200)
        b = rng.standard_normal(200) + 1.0
        base = auroc(a, b)
        shifted = auroc(a + shift, b + shift)
        np.testing.assert_allclose(base, shifted, rtol=1e-9)


# ----------------------------------------------------------------------
# Bit-packed XNOR kernel: differential bit-exactness harness.
#
# The packed route (repro.tensor.bitpack) must be indistinguishable
# from the float exact-integer route at every level — the raw kernel
# against a ±1 matmul for arbitrary operands, and whole deployed
# engines (all model families) serving the same inputs with the route
# toggled on vs off: bit-identical samples/probs AND identical
# op-ledger totals.

class TestPackedKernelProperties:
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=200),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_packed_mvm_equals_ternary_matmul(self, b, k, c, seed):
        rng = np.random.default_rng(seed)
        x = np.sign(rng.standard_normal((b, k)))
        x[rng.random((b, k)) < 0.3] = 0.0     # dropout-gated wordlines
        w = np.sign(rng.standard_normal((k, c)))
        w[w == 0] = 1.0
        dots = bitpack.packed_mvm(bitpack.pack_ternary_rows(x),
                                  bitpack.pack_weights(w))
        np.testing.assert_array_equal(dots, x @ w)

    @given(st.integers(min_value=1, max_value=130),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pack_roundtrip_identity(self, k, seed):
        rng = np.random.default_rng(seed)
        x = np.sign(rng.standard_normal((3, k)))
        x[rng.random((3, k)) < 0.4] = 0.0
        planes = bitpack.pack_ternary_rows(x)
        np.testing.assert_array_equal(bitpack.unpack_ternary(planes), x)


X_FLAT = np.random.default_rng(42).standard_normal((6, 20))
X_IMG = np.random.default_rng(43).standard_normal((3, 1, 12, 12))


def _bitpack_engine(family):
    """One deployed engine per family, seeded identically on every
    call, so any output difference between two builds is the route's."""
    if family == "spindrop":
        model = make_spindrop_mlp(20, (16,), 4, p=0.3, seed=1)
        return BayesianCim(model, CimConfig(seed=6), seed=33), X_FLAT
    if family == "cim_conv":
        model = make_spatial_spindrop_cnn(1, 12, 4, widths=(4, 8), seed=2)
        return BayesianCim(model, CimConfig(seed=6), seed=33), X_IMG
    raise ValueError(family)


def _run_forced(force_route, family, packed, n_samples):
    """Build a fresh engine and serve one call on a pinned route."""
    force_route(packed)
    engine, x = _bitpack_engine(family)
    return engine, engine.mc_forward_batched(x, n_samples=n_samples)


def _xnor_bars(engine):
    """Every XnorCrossbar of a deployed engine."""
    return [bar for stage in engine.network.mvm_layers()
            for grid in stage.grids for row in grid.bars for bar in row]


BITPACK_FAMILIES = ("spindrop", "cim_conv")


class TestBitpackDifferential:
    @pytest.mark.parametrize("family", BITPACK_FAMILIES)
    def test_packed_route_is_bit_identical(self, family, force_route,
                                           packed_calls):
        on, a = _run_forced(force_route, family, True, 4)
        assert packed_calls                # the packed route really ran
        n_packed = len(packed_calls)
        off, b = _run_forced(force_route, family, False, 4)
        assert len(packed_calls) == n_packed
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.probs, b.probs)
        assert on.ledger.as_dict() == off.ledger.as_dict()

    def test_packed_route_forced_lut_backend(self, force_route,
                                             packed_calls):
        """The whole-engine differential also holds on the LUT
        fallback — the NumPy-floor CI leg's code path."""
        with bitpack.force_popcount_backend("lut16"):
            on, a = _run_forced(force_route, "spindrop", True, 3)
        assert packed_calls
        off, b = _run_forced(force_route, "spindrop", False, 3)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert on.ledger.as_dict() == off.ledger.as_dict()

    def test_snapshot_roundtrip_restores_packed_planes(self, tmp_path,
                                                       force_route,
                                                       packed_calls):
        """save → load → serve with the packed route: the restored
        crossbars carry the captured uint64 planes (no re-pack) and
        the prediction stream continues bit-exactly."""
        original, x = _bitpack_engine("spindrop")
        for bar in _xnor_bars(original):
            bar.packed_weights_t()            # materialize → captured
        path = str(tmp_path / "snap")
        DeploymentSnapshot.capture(original).save(path)
        restored = DeploymentSnapshot.load(path).build()
        for bar in _xnor_bars(restored):
            assert bar._w_packed_t is not None
        force_route(True)
        a = original.mc_forward_batched(x, n_samples=4)
        b = restored.mc_forward_batched(x, n_samples=4)
        assert packed_calls
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.probs, b.probs)
        assert original.ledger.as_dict() == restored.ledger.as_dict()
