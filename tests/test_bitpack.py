"""Bit-packed XNOR/popcount kernels: packing, exactness, staleness.

Every kernel property runs against both popcount backends — on
NumPy >= 2 the LUT fallback is forced via ``force_popcount_backend``
so it stays covered even where ``numpy.bitwise_count`` exists.
"""

import numpy as np
import pytest

from repro.cim import OpLedger, XnorCrossbar
from repro.cim.layers import CimConfig, CimLinear
from repro.devices import DefectModel, DefectRates
from repro.tensor import bitpack as bp

BACKENDS = bp.available_backends()
K_SET = [1, 63, 64, 65, 640, 1000]


def _ternary(rng, shape, p_zero=0.25):
    """Random {-1, 0, +1} float64 with a controlled zero fraction."""
    x = np.sign(rng.standard_normal(shape))
    x[x == 0] = 1.0
    x[rng.random(shape) < p_zero] = 0.0
    return x


def _binary(rng, shape):
    w = np.sign(rng.standard_normal(shape))
    w[w == 0] = 1.0
    return w


# ----------------------------------------------------------------------
# Packing roundtrips.

class TestPacking:
    @pytest.mark.parametrize("k", K_SET)
    def test_rows_roundtrip(self, k):
        x = _ternary(np.random.default_rng(k), (7, k))
        planes = bp.pack_ternary_rows(x)
        assert planes.k == k
        assert planes.n_words == (k + 63) // 64
        assert planes.batch == 7
        np.testing.assert_array_equal(bp.unpack_ternary(planes), x)

    @pytest.mark.parametrize("k", K_SET)
    def test_cols_roundtrip(self, k):
        """A column-major (K, B) slab packs through its transposed
        view, as a crossbar grid packs its drive."""
        x = _ternary(np.random.default_rng(k + 1), (k, 5))
        planes = bp.pack_ternary_rows(x.T)
        np.testing.assert_array_equal(bp.unpack_ternary(planes), x.T)

    @pytest.mark.parametrize("k", K_SET)
    def test_weights_roundtrip(self, k):
        w = _binary(np.random.default_rng(k + 2), (k, 9))
        packed = bp.pack_weights(w)
        assert packed.sign_t.shape == ((k + 63) // 64, 9)
        assert packed.sign_t.dtype == np.uint64
        np.testing.assert_array_equal(bp.unpack_weights(packed), w)

    def test_row_and_col_packing_agree(self):
        """A row-major batch and the transposed view of a column-major
        slab produce the same word-major planes."""
        x = _ternary(np.random.default_rng(3), (6, 130))
        rows = bp.pack_ternary_rows(x)
        cols = bp.pack_ternary_rows(np.ascontiguousarray(x.T).T)
        np.testing.assert_array_equal(rows.sign_t, cols.sign_t)
        np.testing.assert_array_equal(rows.active_t, cols.active_t)
        np.testing.assert_array_equal(rows.n_active, cols.n_active)

    def test_tail_bits_are_zero(self):
        """Pad bits of the last lane never carry stale state."""
        x = np.ones((2, 65))
        planes = bp.pack_ternary_rows(x)
        assert planes.n_words == 2
        # only bit 0 of the tail word may be set
        assert np.all(planes.sign_t[1] == 1)
        assert np.all(planes.active_t[1] == 1)

    def test_n_active_counts_nonzeros(self):
        x = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        planes = bp.pack_ternary_rows(x)
        np.testing.assert_array_equal(planes.n_active, [2, 0])


# ----------------------------------------------------------------------
# Popcount backends.

class TestBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_popcount_matches_int_bit_count(self, backend):
        rng = np.random.default_rng(7)
        words = rng.integers(0, 2**64, size=(3, 11), dtype=np.uint64)
        words[0, 0] = 0
        words[0, 1] = np.uint64(0xFFFFFFFFFFFFFFFF)
        out = np.empty(words.shape, np.uint8)
        with bp.force_popcount_backend(backend):
            bp.popcount_into(words, out)
        expected = [[int(w).bit_count() for w in row] for row in words]
        np.testing.assert_array_equal(out, expected)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown popcount backend"):
            bp.set_popcount_backend("avx512")

    def test_force_restores_previous(self):
        before = bp.popcount_backend()
        with bp.force_popcount_backend("lut16"):
            assert bp.popcount_backend() == "lut16"
        assert bp.popcount_backend() == before

    @pytest.mark.skipif(not hasattr(np, "bitwise_count"),
                        reason="NumPy < 2: bitwise_count absent")
    def test_bitwise_count_preferred_on_numpy2(self):
        assert bp.available_backends()[0] == "bitwise_count"

    @pytest.mark.skipif(hasattr(np, "bitwise_count"),
                        reason="NumPy >= 2 has bitwise_count")
    def test_bitwise_count_rejected_on_old_numpy(self):
        with pytest.raises(ValueError, match="unavailable"):
            bp.set_popcount_backend("bitwise_count")


# ----------------------------------------------------------------------
# The MVM kernel.

class TestPackedMvm:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("k", K_SET)
    def test_matches_float_matmul(self, backend, k):
        rng = np.random.default_rng(k)
        x = _ternary(rng, (4, k))
        w = _binary(rng, (k, 17))
        with bp.force_popcount_backend(backend):
            dots = bp.packed_mvm(bp.pack_ternary_rows(x), bp.pack_weights(w))
        assert dots.dtype == np.int64
        np.testing.assert_array_equal(dots, x @ w)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_col_major_parity(self, backend):
        """A (K, B) slab into (C, B) partial sums, as a crossbar grid
        runs it: packed through the transposed views."""
        rng = np.random.default_rng(11)
        x = _ternary(rng, (129, 6))       # (K, B) slab
        w = _binary(rng, (129, 10))
        out = np.empty((10, 6), np.float32)
        with bp.force_popcount_backend(backend):
            bp.packed_mvm(bp.pack_ternary_rows(x.T), bp.pack_weights(w),
                          out=out.T)
        np.testing.assert_array_equal(out, (x.T @ w).T)

    def test_all_zero_activations(self):
        w = _binary(np.random.default_rng(0), (70, 5))
        dots = bp.packed_mvm(bp.pack_ternary_rows(np.zeros((3, 70))),
                             bp.pack_weights(w))
        np.testing.assert_array_equal(dots, 0)

    def test_all_ones_plane(self):
        """Dense +1 drive against +1 weights hits the exact depth K."""
        k = 193
        dots = bp.packed_mvm(bp.pack_ternary_rows(np.ones((2, k))),
                             bp.pack_weights(np.ones((k, 4))))
        np.testing.assert_array_equal(dots, k)
        dots = bp.packed_mvm(bp.pack_ternary_rows(np.ones((2, k))),
                             bp.pack_weights(-np.ones((k, 4))))
        np.testing.assert_array_equal(dots, -k)

    def test_empty_batch(self):
        w = _binary(np.random.default_rng(1), (64, 3))
        dots = bp.packed_mvm(bp.pack_ternary_rows(np.zeros((0, 64))),
                             bp.pack_weights(w))
        assert dots.shape == (0, 3)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_uint32_accumulator_past_65535(self, backend):
        """K > 0xFFFF must not overflow the per-word accumulator."""
        k = 70001
        x = -np.ones((1, k))             # every lane mismatches +1 weights
        w = np.ones((k, 2))
        with bp.force_popcount_backend(backend):
            dots = bp.packed_mvm(bp.pack_ternary_rows(x), bp.pack_weights(w))
        np.testing.assert_array_equal(dots, -k)

    def test_out_buffer_float32(self):
        rng = np.random.default_rng(5)
        x = _ternary(rng, (3, 100))
        w = _binary(rng, (100, 7))
        out = np.full((3, 7), np.nan, np.float32)
        ret = bp.packed_mvm(bp.pack_ternary_rows(x), bp.pack_weights(w),
                            out=out)
        assert ret is out
        np.testing.assert_array_equal(out, (x @ w).astype(np.float32))

    def test_depth_mismatch_raises(self):
        with pytest.raises(ValueError, match="depth mismatch"):
            bp.packed_mvm(bp.pack_ternary_rows(np.ones((1, 64))),
                          bp.pack_weights(np.ones((65, 2))))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seeded_fuzz(self, backend):
        """Random shapes/sparsity: packed == float, both layouts."""
        with bp.force_popcount_backend(backend):
            for seed in range(20):
                rng = np.random.default_rng(1000 + seed)
                b = int(rng.integers(1, 9))
                k = int(rng.integers(1, 300))
                c = int(rng.integers(1, 40))
                x = _ternary(rng, (b, k), p_zero=float(rng.random()))
                w = _binary(rng, (k, c))
                ref = x @ w
                got = bp.packed_mvm(bp.pack_ternary_rows(x),
                                    bp.pack_weights(w))
                np.testing.assert_array_equal(got, ref)
                got_t = np.empty((c, b))
                bp.packed_mvm(bp.pack_ternary_rows(
                    np.ascontiguousarray(x.T).T), bp.pack_weights(w),
                    out=got_t.T)
                np.testing.assert_array_equal(got_t, ref.T)


# ----------------------------------------------------------------------
# Route heuristic.

class TestRouteHeuristic:
    def test_memory_bound_gemv_wins(self):
        assert bp.packed_route_beneficial(2, 4096, 4096)
        assert bp.packed_route_beneficial(4, 1024, 1024)

    def test_compute_bound_gemm_loses(self):
        assert not bp.packed_route_beneficial(512, 4096, 4096)

    def test_tiny_operands_lose(self):
        assert not bp.packed_route_beneficial(1, 64, 64)


# ----------------------------------------------------------------------
# Staleness: cached packed operands must follow conductance mutations.

def _flipping_defects(seed=0):
    """A defect model guaranteed to flip some cells of a 64×8 array."""
    return DefectModel(DefectRates(stuck_at_p=0.2, stuck_at_ap=0.2),
                       rng=np.random.default_rng(seed))


class TestPackedStaleness:
    def test_reprogram_invalidates_packed_operand(self):
        rng = np.random.default_rng(2)
        bar = XnorCrossbar(64, 8, ledger=OpLedger())
        w1, w2 = _binary(rng, (64, 8)), _binary(rng, (64, 8))
        bar.program(w1)
        first = bar.packed_weights_t()
        x = _ternary(rng, (3, 64))
        planes = bp.pack_ternary_rows(x)
        np.testing.assert_array_equal(bar.mvm_packed(planes), x @ w1)
        bar.program(w2)
        second = bar.packed_weights_t()
        assert second is not first
        np.testing.assert_array_equal(bar.mvm_packed(planes), x @ w2)

    def test_defect_injection_invalidates_packed_operand(self):
        """Regression: post-deployment fault injection must re-pack."""
        rng = np.random.default_rng(4)
        bar = XnorCrossbar(64, 8, ledger=OpLedger())
        w = _binary(rng, (64, 8))
        bar.program(w)
        bar.packed_weights_t()               # warm the cache
        bar.signed_weights_t()
        bar.inject_defects(_flipping_defects())
        corrupted = bar.programmed_weights
        assert not np.array_equal(corrupted, w)   # faults actually landed
        x = _ternary(rng, (5, 64))
        packed = bar.mvm_packed(bp.pack_ternary_rows(x))
        np.testing.assert_array_equal(packed, x @ corrupted)
        # float fast-route operand re-derived too, and the analog
        # readout agrees: all three views serve the post-fault matrix.
        np.testing.assert_array_equal(
            bar.signed_weights_t().T.astype(np.float64), corrupted)
        np.testing.assert_allclose(bar.matvec(x), x @ corrupted, atol=1e-9)

    def test_load_state_installs_planes_without_repack(self):
        rng = np.random.default_rng(6)
        bar = XnorCrossbar(100, 4, ledger=OpLedger())
        bar.program(_binary(rng, (100, 4)))
        bar.packed_weights_t()               # materialize → captured
        state = bar.state_dict()
        fresh = XnorCrossbar(100, 4, ledger=OpLedger())
        fresh.load_state(state)
        assert fresh._w_packed_t is not None
        np.testing.assert_array_equal(fresh._w_packed_t.sign_t,
                                      state["w_packed_t"])
        x = _ternary(rng, (2, 100))
        np.testing.assert_array_equal(
            fresh.mvm_packed(bp.pack_ternary_rows(x)),
            x @ bar.programmed_weights)

    def test_load_state_rejects_bad_plane_shape(self):
        rng = np.random.default_rng(8)
        bar = XnorCrossbar(64, 4, ledger=OpLedger())
        bar.program(_binary(rng, (64, 4)))
        state = bar.state_dict()
        assert "w_packed_t" not in state     # never packed → not captured
        state["w_packed_t"] = np.zeros((3, 4), np.uint64)
        fresh = XnorCrossbar(64, 4, ledger=OpLedger())
        with pytest.raises(ValueError, match="packed plane shape"):
            fresh.load_state(state)

    def test_mvm_packed_requires_ideal_array(self):
        from repro.devices import DeviceVariability, VariabilityParams
        bar = XnorCrossbar(
            64, 4,
            variability=DeviceVariability(
                VariabilityParams(sigma_r=0.05),
                rng=np.random.default_rng(0)),
            rng=np.random.default_rng(0), ledger=OpLedger())
        bar.program(_binary(np.random.default_rng(0), (64, 4)))
        with pytest.raises(RuntimeError, match="ideal"):
            bar.mvm_packed(bp.pack_ternary_rows(np.ones((1, 64))))

    def test_cim_linear_defect_injection_routes_agree(self, force_route,
                                                      packed_calls):
        """Layer-level regression: inject faults after compile, then
        the forced-packed and float routes still agree bit-for-bit."""
        rng = np.random.default_rng(10)
        w = _binary(rng, (24, 128))          # (out, in) → two 64-row tiles
        layer = CimLinear(w, None, None,
                          CimConfig(max_rows=64, max_cols=64, seed=0),
                          OpLedger())
        assert layer.grid.exact              # ideal arrays: exact route
        x = _ternary(rng, (3, 128))
        force_route(True)
        layer.forward(x)                     # warm every packed cache
        for row in layer.grid.bars:
            for bar in row:
                bar.inject_defects(_flipping_defects(seed=1))
        packed_out = layer.forward(x)
        assert len(packed_calls) == 2 * layer.n_crossbars
        force_route(False)
        float_out = layer.forward(x)
        assert len(packed_calls) == 2 * layer.n_crossbars
        np.testing.assert_array_equal(packed_out, float_out)


# ----------------------------------------------------------------------
# The route policy picks the packed kernel on its own.

class TestPolicyRoute:
    def test_policy_packs_small_batches_of_a_wide_tile(self, force_route,
                                                       packed_calls):
        """One 512 × 1024 tile: the unpatched policy takes the packed
        route at batch 2 and the float32 route at batch 16, and the
        packed batch-2 run matches the float route bit for bit."""
        rng = np.random.default_rng(12)
        w = _binary(rng, (1024, 512))        # (out, in): one tile
        x = _ternary(rng, (16, 512))
        config = dict(max_rows=512, max_cols=1024, seed=0)
        layer = CimLinear(w, None, None, CimConfig(**config), OpLedger())
        assert layer.n_crossbars == 1 and layer.grid.exact
        layer.ledger.reset()
        packed_out = layer.forward(x[:2])
        packed_ledger = layer.ledger.as_dict()
        assert len(packed_calls) == 1
        layer.forward(x)
        assert len(packed_calls) == 1        # batch 16 stayed on float32

        ref = CimLinear(w, None, None, CimConfig(**config), OpLedger())
        ref.ledger.reset()
        force_route(False)
        float_out = ref.forward(x[:2])
        assert len(packed_calls) == 1
        np.testing.assert_array_equal(packed_out, float_out)
        assert packed_ledger == ref.ledger.as_dict()
