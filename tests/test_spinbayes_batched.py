"""SpinBayes batched MC engine ≡ sequential loop, bit-for-bit.

Same acceptance contract as the BayesianCim engine
(tests/test_batched_equivalence.py): under a fixed seed the batched
path must reproduce the sequential T-pass loop exactly — same
predictive means, same per-pass samples, same :class:`OpLedger`
totals (crossbar accesses, ADC conversions, arbiter RNG cycles) —
including the arbiter's component selections, with and without
cycle-to-cycle read noise, for power-of-two component counts
(vectorized selection draw) and odd ones (per-select replay).
The batched engine runs each norm→sign readout as one sign fold; the
equivalence suite also runs on the arithmetic stages.

Every pass feeds the first arbiter layer the same rows, so the batched
engine hands that layer the N pass-invariant rows and it multiplies
them once per selected component (the *shared first read*); the
power-of-two selection draw replays each binary search from node
tables fixed at build.

The arbiter layer is an ordinary CIM stage
(:class:`~repro.cim.layers.SpinBayesMvm`) of a
:class:`~repro.cim.layers.CimNetwork`, and the rest of the teacher
deploys by the compile rules, so a SpinBayes snapshot is a stage list
like any other.
"""

import numpy as np
import pytest

from repro import nn
from repro.bayesian import (
    BayesianScale,
    SpinBayesNetwork,
    make_subset_vi_mlp,
    mc_predict_fn,
)
from repro.cim import CimConfig
from repro.cim.compile import stage_from_state, stage_state
from repro.cim.layers import DigitalFlatten, FrozenNorm, SpinBayesMvm
from repro.cim.ledger import OpLedger
from repro.cim.snapshot import DeploymentSnapshot
from repro.devices import (
    DefectModel,
    DefectRates,
    DeviceVariability,
    VariabilityParams,
)

RNG = np.random.default_rng(42)
X = RNG.standard_normal((9, 20))


def _network(n_components=8, read_noise=False, seed=33):
    teacher = make_subset_vi_mlp(20, (16, 8), 4, seed=3)
    variability = None
    if read_noise:
        variability = DeviceVariability(
            VariabilityParams(sigma_r=0.03, sigma_delta=0.03,
                              sigma_read=0.01),
            rng=np.random.default_rng(77))
    net = SpinBayesNetwork.from_subset_vi(
        teacher, n_components=n_components, n_levels=16,
        config=CimConfig(seed=6, variability=variability), seed=seed)
    net.ledger.reset()
    return net


class TestBitExactEquivalence:
    """Run with each norm→sign readout folded into one threshold
    compare, the batched engine's default."""

    # Whether the batched engine runs norm→sign as arithmetic stages.
    stages = False

    @pytest.fixture(autouse=True)
    def _readouts(self, sign_fold_calls, force_stages):
        """Build every network in this class's mode; afterwards the
        sign folds ran exactly when the batched engine planned them."""
        self._force_stages = force_stages
        yield
        assert bool(sign_fold_calls) is not self.stages

    def _network(self, *args, **kwargs):
        net = _network(*args, **kwargs)
        return self._force_stages(net) if self.stages else net

    @pytest.mark.parametrize("n_components", [8, 5, 1])
    def test_samples_probs_and_ledger_match(self, n_components):
        a = self._network(n_components)
        b = self._network(n_components)
        seq = a.mc_forward(X, n_samples=6, batched=False)
        bat = b.mc_forward(X, n_samples=6, batched=True)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        np.testing.assert_array_equal(seq.probs, bat.probs)
        assert a.ledger.as_dict() == b.ledger.as_dict()

    def test_sequential_reference_is_the_plain_mc_loop(self):
        a = self._network()
        b = self._network()
        seq = mc_predict_fn(a.forward, X, n_samples=5)
        bat = b.mc_forward_batched(X, n_samples=5)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()

    @pytest.mark.parametrize("n_components", [8, 5])
    def test_read_noise_still_bit_exact(self, n_components):
        # Read noise forces one pass per stacked call; the noise
        # stream is then consumed draw-for-draw in sequential order.
        a = self._network(n_components, read_noise=True)
        b = self._network(n_components, read_noise=True)
        seq = a.mc_forward(X, n_samples=4, batched=False)
        bat = b.mc_forward(X, n_samples=4, batched=True)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()

    def test_arbiter_state_matches_sequential(self):
        a = self._network()
        b = self._network()
        a.mc_forward(X, n_samples=5, batched=False)
        b.mc_forward_batched(X, n_samples=5)
        for la, lb in zip(a.mvm_layers(), b.mvm_layers()):
            assert la.last_selected == lb.last_selected
            if la.arbiter is not None:
                assert la.arbiter.selections == lb.arbiter.selections
                assert la.arbiter._stage_rng.total_ops \
                    == lb.arbiter._stage_rng.total_ops

    def test_rng_cycle_totals(self):
        # Three arbiters (two hidden blocks + head) x ceil(log2 8)
        # stages x 5 passes.
        net = self._network()
        assert len(net.mvm_layers()) == 3
        net.mc_forward_batched(X, n_samples=5)
        assert net.ledger["rng_cycle"] == 3 * 3 * 5

    def test_batched_passes_differ_from_each_other(self):
        net = self._network()
        result = net.mc_forward_batched(X, n_samples=8)
        assert result.samples.std(axis=0).sum() > 0.0


class TestBitExactEquivalenceOnStages(TestBitExactEquivalence):
    """The same contract with the batched engine running each norm→sign
    readout as its arithmetic stages (``force_stages``), as the
    sequential oracle does."""

    stages = True


class TestBatchedApiContracts:
    def test_forward_batched_shape(self):
        logits = _network().forward_batched(X, n_samples=7)
        assert logits.shape == (7, len(X), 4)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            _network().forward_batched(X, n_samples=0)

    def test_flattens_multi_dim_input_like_forward(self):
        net = _network()
        x_img = X.reshape(9, 4, 5)
        flat = net.forward_batched(X, n_samples=3)
        net2 = _network()
        img = net2.forward_batched(x_img, n_samples=3)
        np.testing.assert_array_equal(flat, img)

    def test_mc_forward_returns_predictive_result(self):
        result = _network().mc_forward(X, n_samples=4)
        assert result.samples.shape == (4, 9, 4)
        np.testing.assert_allclose(result.probs.sum(axis=-1), 1.0,
                                   rtol=1e-9)
        assert result.mutual_information.shape == (9,)

    def test_quantization_error_unaffected_by_batched_run(self):
        net = _network()
        before = net.quantization_error()
        net.mc_forward_batched(X, n_samples=3)
        assert net.quantization_error() == before


# ----------------------------------------------------------------------
# The arbiter layer as a CIM stage
# ----------------------------------------------------------------------
X_WIDE = RNG.standard_normal((3, 256))


def _perfbench_network():
    """The perfbench SpinBayes engine: 256-128-64-10, N=8, 16 levels."""
    teacher = make_subset_vi_mlp(256, (128, 64), 10, seed=0)
    return SpinBayesNetwork.from_subset_vi(
        teacher, n_components=8, n_levels=16, config=CimConfig(seed=0),
        seed=0)


def _flatten_teacher():
    return nn.Sequential(nn.Flatten(),
                         *make_subset_vi_mlp(20, (16, 8), 4, seed=3))


def _deploy(teacher):
    return SpinBayesNetwork.from_subset_vi(
        teacher, n_components=4, n_levels=16, config=CimConfig(seed=6),
        seed=33)


def _norms(net):
    return [s for s in net.network.stages if isinstance(s, FrozenNorm)]


class TestStageModel:
    def test_perfbench_engine_folds_and_restores(self, tmp_path,
                                                 sign_fold_calls):
        a, b = _perfbench_network(), _perfbench_network()
        seq = a.mc_forward(X_WIDE, n_samples=8, batched=False)
        bat = b.mc_forward(X_WIDE, n_samples=8)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()
        assert {id(fold.norm) for fold in sign_fold_calls} \
            == {id(norm) for norm in _norms(b)}

        # A restore plans the same steps and continues the captured
        # streams.
        restored = DeploymentSnapshot.capture(b).build()
        assert [(idx, type(step)) for idx, step in restored._steps] \
            == [(idx, type(step)) for idx, step in b._steps]
        np.testing.assert_array_equal(
            b.mc_forward_batched(X_WIDE, n_samples=8).samples,
            restored.mc_forward_batched(X_WIDE, n_samples=8).samples)
        assert b.ledger.as_dict() == restored.ledger.as_dict()

        # So does one through the saved artifact, batched or not.
        path = str(tmp_path / "spinbayes")
        DeploymentSnapshot.capture(b).save(path)
        snapshot = DeploymentSnapshot.load(path)
        a, b = snapshot.build(), snapshot.build()
        seq = a.mc_forward(X_WIDE, n_samples=8, batched=False)
        bat = b.mc_forward(X_WIDE, n_samples=8)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()

    def test_pass_invariant_network_runs_once_per_call(self,
                                                       sign_fold_calls):
        # With one component no arbiter draws: every stage is prefix,
        # run once for all T passes.
        net = _network(n_components=1)
        assert net._split == len(net.network.stages)
        net.forward_batched(X, n_samples=5)
        assert len(sign_fold_calls) == 2

    def test_live_in_memory_and_on_disk_engines_agree(self, tmp_path):
        # Crossbars programmed from a transposed matrix keep C-ordered
        # conductances, as a restore installs them, so all three
        # engines multiply by operands of one layout and read the same
        # samples.
        live = _perfbench_network()
        snapshot = DeploymentSnapshot.capture(live)
        path = str(tmp_path / "spinbayes")
        snapshot.save(path)
        engines = [live, snapshot.build(),
                   DeploymentSnapshot.load(path).build()]
        results = [engine.mc_forward_batched(X_WIDE, n_samples=8).samples
                   for engine in engines]
        for engine, samples in zip(engines[1:], results[1:]):
            np.testing.assert_array_equal(samples, results[0])
            assert engine.ledger.as_dict() == live.ledger.as_dict()

    @pytest.mark.procpool
    def test_served_sync_matches_procs(self):
        # ``sync`` serves the live engine; ``procs`` a worker restored
        # from the artifact ``serve`` saves.  Each engine is built from
        # a fresh teacher: posterior draws advance the teacher's
        # generator.
        from repro.serving import ServingConfig, serve

        config = ServingConfig(n_samples=8, replicas=1)
        with serve(_perfbench_network(), backend="sync",
                   config=config) as frontend:
            reference = frontend.predict(X_WIDE).samples
        with serve(_perfbench_network(), backend="procs",
                   config=config) as frontend:
            np.testing.assert_array_equal(
                frontend.predict(X_WIDE).samples, reference)

    def test_banked_read_noise_draws_once_per_pass(self):
        # Passes that select one component still read it through a
        # fresh noise draw each, as per-pass ``forward`` calls do.
        a = _network(read_noise=True)
        b = _network(read_noise=True)
        layer_a, layer_b = a.mvm_layers()[0], b.mvm_layers()[0]
        x = X[:3]
        selections = np.array([1, 1, 4, 1])
        banked = layer_a.forward_banked(np.tile(x, (4, 1)), selections, 3)
        per_pass = np.concatenate(
            [layer_b.forward(x, component=int(k)) for k in selections])
        np.testing.assert_array_equal(banked, per_pass)
        assert a.ledger.as_dict() == b.ledger.as_dict()
        assert layer_a.last_selected == layer_b.last_selected == 1

    def test_selection_banks_are_cleared(self):
        net = _network()
        net.forward_batched(X, n_samples=3)
        assert all(layer.selections is None for layer in net.mvm_layers())
        with pytest.raises(ValueError):
            net.forward_batched(X[:, :5], n_samples=3)
        assert all(layer.selections is None for layer in net.mvm_layers())
        # A single pass after a batched call draws its own selections.
        net.ledger.reset()
        net.forward(X)
        assert net.ledger["rng_cycle"] == 3 * 3

    def test_flatten_deploys_a_digital_flatten(self):
        net = _deploy(_flatten_teacher())
        assert isinstance(net.network.stages[0], DigitalFlatten)
        x = X.reshape(9, 4, 5)
        seq = _deploy(_flatten_teacher()).mc_forward(x, n_samples=5,
                                                     batched=False)
        np.testing.assert_array_equal(
            net.mc_forward(x, n_samples=5).samples, seq.samples)

    def test_stored_flatten_tag_still_builds(self):
        snapshot = DeploymentSnapshot.capture(_deploy(_flatten_teacher()))
        manifest = dict(snapshot.manifest)
        manifest["stages"] = [dict(meta) for meta in manifest["stages"]]
        assert manifest["stages"][0]["type"] == "digital_flatten"
        manifest["stages"][0]["type"] = "flatten"
        legacy = DeploymentSnapshot(manifest, snapshot.arrays).build()
        assert isinstance(legacy.network.stages[0], DigitalFlatten)
        x = X.reshape(9, 4, 5)
        np.testing.assert_array_equal(
            snapshot.build().mc_forward_batched(x, n_samples=4).samples,
            legacy.mc_forward_batched(x, n_samples=4).samples)

    def test_orphan_bayesian_scale_raises(self):
        teacher = nn.Sequential(BayesianScale(20),
                                *make_subset_vi_mlp(20, (16, 8), 4, seed=3))
        with pytest.raises(TypeError, match="BayesianScale"):
            _deploy(teacher)

    @pytest.mark.parametrize("n_components", [4, 1])
    def test_mvm_stage_round_trips_its_state(self, n_components):
        net = SpinBayesNetwork.from_subset_vi(
            make_subset_vi_mlp(20, (16, 8), 4, seed=3),
            n_components=n_components, config=CimConfig(seed=6), seed=33)
        layer = net.mvm_layers()[0]
        layer.forward(X)
        meta, arrays = stage_state(layer)
        rebuilt = stage_from_state(meta, arrays, net.config, OpLedger())
        assert isinstance(rebuilt, SpinBayesMvm)
        again_meta, again_arrays = stage_state(rebuilt)
        assert again_meta == meta
        assert again_arrays.keys() == arrays.keys()
        for key in arrays:
            np.testing.assert_array_equal(again_arrays[key], arrays[key])
        for component in range(n_components):
            np.testing.assert_array_equal(
                rebuilt.forward(X, component=component),
                layer.forward(X, component=component))


# ----------------------------------------------------------------------
# The shared first read and the node tables
# ----------------------------------------------------------------------
SHARED_TEACHERS = {
    "mlp": lambda: make_subset_vi_mlp(20, (16, 8), 4, seed=3),
    # A norm→sign readout before the first arbiter layer: the engine
    # runs a pass-invariant prefix (``_split > 0``), as a sign fold.
    "leading_periphery": lambda: nn.Sequential(
        nn.Flatten(), nn.BatchNorm1d(20), nn.SignActivation(),
        *make_subset_vi_mlp(20, (16, 8), 4, seed=3)),
}

SHARED_CONFIGS = {
    "ideal": lambda: CimConfig(seed=6),
    # Programming variability and stuck-at defects move the stored
    # conductances, not the readout: every pass still reads one array.
    "variability_defects": lambda: CimConfig(
        seed=6,
        variability=DeviceVariability(
            VariabilityParams(sigma_r=0.03, sigma_delta=0.03,
                              sigma_read=0.0),
            rng=np.random.default_rng(77)),
        defects=DefectModel(DefectRates(stuck_at_p=0.02,
                                        stuck_at_ap=0.02),
                            rng=np.random.default_rng(5))),
}


def _shared_network(teacher="mlp", config="ideal", n_components=8):
    net = SpinBayesNetwork.from_subset_vi(
        SHARED_TEACHERS[teacher](), n_components=n_components,
        n_levels=16, config=SHARED_CONFIGS[config](), seed=33)
    net.ledger.reset()
    return net


@pytest.fixture
def banked_reads(monkeypatch):
    """``(layer, rows in, products, distinct selections)`` of every
    ``SpinBayesMvm.forward_banked`` call, in order; a product is one
    ``np.matmul`` call."""
    reads = []
    matmuls = [0]
    real_matmul = np.matmul
    real = SpinBayesMvm.forward_banked

    def matmul(*args, **kwargs):
        matmuls[0] += 1
        return real_matmul(*args, **kwargs)

    def spy(layer, x, selections, rows_per_pass):
        before = matmuls[0]
        out = real(layer, x, selections, rows_per_pass)
        reads.append((layer, x.shape[0], matmuls[0] - before,
                      np.unique(selections).size))
        return out

    monkeypatch.setattr(np, "matmul", matmul)
    monkeypatch.setattr(SpinBayesMvm, "forward_banked", spy)
    return reads


class TestSharedFirstRead:
    @pytest.mark.parametrize("teacher", sorted(SHARED_TEACHERS))
    def test_first_arbiter_stage_multiplies_once_per_component(
            self, teacher, banked_reads):
        net = _shared_network(teacher)
        n_samples = 32
        net.forward_batched(X, n_samples=n_samples)
        (layer, rows, products, distinct), *later = banked_reads
        assert layer is net.network.stages[net._split]
        assert rows == len(X)
        assert products == distinct <= min(n_samples, net.n_components)
        # Later arbiter layers read each pass's own rows.
        assert [(rows, products) for _, rows, products, _ in later] \
            == [(n_samples * len(X), n_samples)] * 2

    @pytest.mark.parametrize("config", sorted(SHARED_CONFIGS))
    @pytest.mark.parametrize("teacher", sorted(SHARED_TEACHERS))
    @pytest.mark.parametrize("n_components", [2, 3, 8])
    @pytest.mark.parametrize("n_samples", [1, 2, 5, 32])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_batched_matches_sequential(self, rows, n_samples,
                                        n_components, teacher, config):
        a = _shared_network(teacher, config, n_components)
        b = _shared_network(teacher, config, n_components)
        assert (b._split > 0) is (teacher == "leading_periphery")
        # Three choices take the per-select draw, powers of two the
        # node tables.
        assert (b._upper_p is None) is (n_components == 3)
        seq = a.mc_forward(X[:rows], n_samples=n_samples, batched=False)
        bat = b.mc_forward(X[:rows], n_samples=n_samples)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()
        for la, lb in zip(a.mvm_layers(), b.mvm_layers()):
            assert la.last_selected == lb.last_selected

    def test_stage_rejects_other_row_counts(self):
        layer = _network().mvm_layers()[0]
        with pytest.raises(ValueError, match="shared rows"):
            layer.forward_banked(X[:5], np.array([0, 1, 2]), 3)

    def test_non_uniform_weights_with_massless_halves(self):
        # Layer 0 puts no mass on its lower half, layer 1 none on
        # components 2, 3, 5 and 7; the node tables then hold 1.0, 0.0
        # and the 0.5 of a massless interval.
        snapshot = DeploymentSnapshot.capture(_network())
        arbiter_stages = [idx for idx, meta
                          in enumerate(snapshot.manifest["stages"])
                          if "arbiter" in meta]
        arrays = dict(snapshot.arrays)
        weights = ([0.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4],
                   [0.5, 0.25, 0.0, 0.0, 0.125, 0.0, 0.125, 0.0])
        for idx, w in zip(arbiter_stages, weights):
            arrays[f"s{idx}.arbiter_weights"] = np.array(w)

        def build():
            return DeploymentSnapshot(snapshot.manifest, arrays).build()

        a, b = build(), build()
        upper = b._upper_p
        assert upper[0][1] == 1.0 and upper[0][2] == 0.5
        assert upper[1][2] == upper[1][6] == upper[1][7] == 0.0
        assert upper[1][5] == 0.5
        seq = a.mc_forward(X, n_samples=32, batched=False)
        bat = b.mc_forward(X, n_samples=32)
        np.testing.assert_array_equal(seq.samples, bat.samples)
        assert a.ledger.as_dict() == b.ledger.as_dict()
        picks = build()._draw_selections(64)
        assert set(picks[:, 0]) <= {4, 5, 6, 7}
        assert set(picks[:, 1]) <= {0, 1, 4, 6}

    def test_restored_perfbench_engine_reads_like_the_live_one(
            self, tmp_path):
        # The perfbench trace: 1-4 rows, T alternating 8 and 32.
        live = _perfbench_network()
        path = str(tmp_path / "spinbayes")
        DeploymentSnapshot.capture(live).save(path)
        restored = DeploymentSnapshot.load(path).build()
        rng = np.random.default_rng(9)
        for n_samples in (8, 32, 8, 32):
            x = rng.standard_normal((int(rng.integers(1, 5)), 256))
            np.testing.assert_array_equal(
                restored.forward_batched(x, n_samples=n_samples),
                live.forward_batched(x, n_samples=n_samples))
        assert restored.ledger.as_dict() == live.ledger.as_dict()
