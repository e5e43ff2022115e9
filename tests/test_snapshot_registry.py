"""Deployment snapshots and the multi-tenant model registry.

The acceptance contract of the lifecycle PR: a compiled deployment
captured to disk and rebuilt — in the same or a fresh interpreter —
must be bit-identical to the original through ``mc_forward_batched``
(outputs *and* op-ledger totals); the artifact must refuse to load
when corrupted or written by a different format version; and a single
scheduler fleet must serve several registered models concurrently with
per-model load metrics and LRU eviction that survives reload.
"""

import copy
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.bayesian import (
    BayesianCim,
    SpinBayesNetwork,
    make_scaledrop_mlp,
    make_spatial_spindrop_cnn,
    make_spindrop_mlp,
    make_subset_vi_mlp,
)
from repro.cim import CimConfig
from repro.cim.snapshot import (
    DeploymentSnapshot,
    SnapshotError,
    read_artifact,
    snapshot_engine_factory,
    write_artifact,
)
from repro.serving import BatchScheduler, ModelRegistry

X = np.random.default_rng(8).standard_normal((6, 16))


def _engine(family, seed=0):
    if family == "spindrop":
        model = make_spindrop_mlp(16, (10,), 4, p=0.3, seed=3)
    elif family == "scaledrop":
        model = make_scaledrop_mlp(16, (10,), 4, seed=4)
    elif family == "subset_vi":
        model = make_subset_vi_mlp(16, (10,), 4, seed=5)
    elif family == "spinbayes":
        teacher = make_subset_vi_mlp(16, (10,), 4, seed=5)
        return SpinBayesNetwork.from_subset_vi(
            teacher, n_components=4, n_levels=8,
            config=CimConfig(seed=seed), seed=seed)
    else:
        raise ValueError(family)
    return BayesianCim(model, CimConfig(seed=seed), seed=seed)


FAMILIES = ("spindrop", "scaledrop", "subset_vi", "spinbayes")


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_round_trip_is_bit_identical(self, family, tmp_path):
        original = _engine(family)
        path = str(tmp_path / family)
        DeploymentSnapshot.capture(original).save(path)
        restored = DeploymentSnapshot.load(path).build()
        a = original.mc_forward_batched(X, n_samples=5)
        b = restored.mc_forward_batched(X, n_samples=5)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.probs, b.probs)
        assert original.ledger.as_dict() == restored.ledger.as_dict()

    def test_replicas_from_one_snapshot_are_identical(self, tmp_path):
        path = str(tmp_path / "snap")
        DeploymentSnapshot.capture(_engine("spindrop")).save(path)
        factory = snapshot_engine_factory(path)
        a = factory().mc_forward_batched(X, n_samples=4)
        b = factory().mc_forward_batched(X, n_samples=4)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_save_reports_stable_content_hash(self, tmp_path):
        snap = DeploymentSnapshot.capture(_engine("scaledrop"))
        written = snap.save(str(tmp_path / "snap"))
        assert written == snap.content_hash
        reloaded = DeploymentSnapshot.load(str(tmp_path / "snap"))
        assert reloaded.content_hash == written

    def test_capture_rejects_unknown_engine(self):
        with pytest.raises(TypeError, match="cannot snapshot"):
            DeploymentSnapshot.capture(object())

    @pytest.mark.parametrize("family", ("mlp", "cnn"))
    def test_legacy_route_meta_is_ignored(self, family, tmp_path):
        # Older snapshots carry per-stage ``exact_route``/``use_bitpack``
        # route overrides.  They load, and the layers route by policy.
        if family == "mlp":
            engine, x = _engine("spindrop"), X
        else:
            model = make_spatial_spindrop_cnn(1, 12, 4, widths=(4, 8),
                                              seed=2)
            engine = BayesianCim(model, CimConfig(seed=6), seed=33)
            x = np.random.default_rng(43).standard_normal((3, 1, 12, 12))
        snap = DeploymentSnapshot.capture(engine)
        legacy = copy.deepcopy(snap.manifest)
        cim_stages = [meta for meta in legacy["stages"]
                      if meta["type"] in ("cim_linear", "cim_conv2d")]
        assert cim_stages
        for meta in cim_stages:
            meta.update({"exact_route": False, "use_bitpack": True})
        path = str(tmp_path / "legacy")
        DeploymentSnapshot(legacy, snap.arrays).save(path)
        old = DeploymentSnapshot.load(path).build()
        new = snap.build()
        a = old.mc_forward_batched(x, n_samples=4)
        b = new.mc_forward_batched(x, n_samples=4)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert old.ledger.as_dict() == new.ledger.as_dict()

    def test_fresh_interpreter_round_trip(self, tmp_path):
        # The real deployment story: save here, rebuild in a brand-new
        # process, and the prediction stream continues bit-exactly.
        original = _engine("spindrop")
        snap_path = str(tmp_path / "snap")
        DeploymentSnapshot.capture(original).save(snap_path)
        expected = original.mc_forward_batched(X, n_samples=5)
        data_path = str(tmp_path / "io.npz")
        np.savez(data_path, x=X)
        script = (
            "import numpy as np\n"
            "from repro.cim.snapshot import DeploymentSnapshot\n"
            f"x = np.load({data_path!r})['x']\n"
            f"engine = DeploymentSnapshot.load({snap_path!r}).build()\n"
            "result = engine.mc_forward_batched(x, n_samples=5)\n"
            "ledger = engine.ledger.as_dict()\n"
            f"np.savez({str(tmp_path / 'out.npz')!r},\n"
            "         samples=result.samples, probs=result.probs)\n"
            "import json\n"
            f"open({str(tmp_path / 'ledger.json')!r}, 'w')"
            ".write(json.dumps(ledger))\n")
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        subprocess.run([sys.executable, "-c", script], check=True, env=env)
        out = np.load(str(tmp_path / "out.npz"))
        np.testing.assert_array_equal(out["samples"], expected.samples)
        np.testing.assert_array_equal(out["probs"], expected.probs)
        with open(str(tmp_path / "ledger.json")) as fh:
            assert json.load(fh) == {k: int(v) for k, v in
                                     original.ledger.as_dict().items()}


class TestArtifactIntegrity:
    def _saved(self, tmp_path):
        path = str(tmp_path / "snap")
        DeploymentSnapshot.capture(_engine("spindrop")).save(path)
        return path

    def test_missing_artifact(self, tmp_path):
        with pytest.raises(SnapshotError, match="no artifact"):
            DeploymentSnapshot.load(str(tmp_path / "nope"))

    def test_unparseable_manifest(self, tmp_path):
        path = self._saved(tmp_path)
        with open(os.path.join(path, "manifest.json"), "w") as fh:
            fh.write("{not json")
        with pytest.raises(SnapshotError, match="corrupted"):
            DeploymentSnapshot.load(path)

    def test_format_version_mismatch(self, tmp_path):
        path = self._saved(tmp_path)
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["format_version"] = 999
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(SnapshotError, match="version 999"):
            DeploymentSnapshot.load(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "other")
        write_artifact(path, {"kind": "trained_model"},
                       {"w": np.zeros(3)})
        with pytest.raises(SnapshotError, match="kind"):
            DeploymentSnapshot.load(path)
        # But the generic reader accepts it under its own kind.
        manifest, arrays = read_artifact(path, kind="trained_model")
        assert manifest["kind"] == "trained_model"
        np.testing.assert_array_equal(arrays["w"], np.zeros(3))

    def test_tampered_arrays_fail_content_hash(self, tmp_path):
        path = self._saved(tmp_path)
        blob_path = os.path.join(path, "arrays.bin")
        with open(blob_path, "rb") as fh:
            blob = bytearray(fh.read())
        # The blob ends inside the last array (padding only sits
        # between arrays), so the final byte is always checksummed.
        blob[-1] ^= 0xFF
        with open(blob_path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(SnapshotError, match="content hash mismatch"):
            DeploymentSnapshot.load(path)

    def test_truncated_arrays_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        blob_path = os.path.join(path, "arrays.bin")
        with open(blob_path, "rb") as fh:
            blob = fh.read()
        with open(blob_path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        with pytest.raises(SnapshotError, match="corrupted artifact"):
            DeploymentSnapshot.load(path)

    def test_write_requires_kind_tag(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            write_artifact(str(tmp_path / "x"), {}, {})


class TestModelRegistry:
    def test_lazy_load_and_metrics(self):
        built = []

        def factory():
            built.append(1)
            return _engine("spindrop")

        registry = ModelRegistry()
        registry.register("clf", factory, feature_shape=(16,))
        assert not built
        engine = registry.engine("clf")
        assert built == [1]
        assert registry.engine("clf") is engine   # cached, not rebuilt
        assert built == [1]
        assert registry.feature_shape("clf") == (16,)
        registry.record_flush("clf", rows=4, n_requests=2, latency_s=0.01)
        snap = registry.metrics("clf").snapshot()
        assert snap.flushes == 1
        assert snap.rows == 4

    def test_register_requires_exactly_one_source(self, tmp_path):
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="exactly one"):
            registry.register("m")
        with pytest.raises(ValueError, match="exactly one"):
            registry.register("m", lambda: None,
                              engine=_engine("spindrop"))

    def test_unknown_model_raises(self):
        registry = ModelRegistry()
        registry.register("a", lambda: _engine("spindrop"))
        with pytest.raises(KeyError, match="a"):
            registry.engine("nope")

    def test_snapshot_backed_registration(self, tmp_path):
        path = str(tmp_path / "snap")
        original = _engine("spindrop")
        DeploymentSnapshot.capture(original).save(path)
        registry = ModelRegistry()
        registry.register("clf", snapshot=path)
        restored = registry.engine("clf")
        a = original.mc_forward_batched(X, n_samples=3)
        b = restored.mc_forward_batched(X, n_samples=3)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_lru_eviction_keeps_factory_for_reload(self):
        loads = {"a": 0, "b": 0}

        def factory(name):
            def build():
                loads[name] += 1
                return _engine("spindrop")
            return build

        registry = ModelRegistry(max_loaded=1)
        registry.register("a", factory("a"))
        registry.register("b", factory("b"))
        registry.engine("a")
        registry.engine("b")          # evicts a
        assert registry.evictions == 1
        assert loads == {"a": 1, "b": 1}
        registry.engine("a")          # transparent reload, evicts b
        assert loads == {"a": 2, "b": 1}
        assert registry.evictions == 2


class TestMultiTenantServing:
    def _registry(self):
        registry = ModelRegistry()
        registry.register("clf", lambda: _engine("spindrop"),
                          feature_shape=(16,))
        registry.register("vi", lambda: _engine("subset_vi"),
                          feature_shape=(16,))
        return registry

    def test_one_fleet_serves_two_models(self):
        scheduler = BatchScheduler(registry=self._registry(), n_samples=4,
                                   flush_interval=None)
        a1 = scheduler.submit(X[:2], model="clf")
        b1 = scheduler.submit(X[2:5], model="vi")
        a2 = scheduler.submit(X[5:], model="clf")
        scheduler.flush()
        # References: fresh engines from the same factories see the
        # coalesced per-model batches in submit order.
        ref_clf = _engine("spindrop").mc_forward_batched(
            np.concatenate([X[:2], X[5:]]), n_samples=4)
        ref_vi = _engine("subset_vi").mc_forward_batched(
            X[2:5], n_samples=4)
        np.testing.assert_array_equal(a1.result().probs, ref_clf.probs[:2])
        np.testing.assert_array_equal(a2.result().probs, ref_clf.probs[2:])
        np.testing.assert_array_equal(b1.result().probs, ref_vi.probs)

    def test_per_model_metrics_split_the_traffic(self):
        registry = self._registry()
        scheduler = BatchScheduler(registry=registry, n_samples=3,
                                   flush_interval=None)
        scheduler.submit(X[:4], model="clf")
        scheduler.submit(X[4:], model="vi")
        scheduler.flush()
        clf = registry.metrics("clf").snapshot()
        vi = registry.metrics("vi").snapshot()
        assert clf.rows == 4 and clf.flushes == 1
        assert vi.rows == 2 and vi.flushes == 1

    def test_default_model_route(self):
        scheduler = BatchScheduler(registry=self._registry(),
                                   default_model="clf", n_samples=3,
                                   flush_interval=None)
        pending = scheduler.submit(X[:3])
        scheduler.flush()
        ref = _engine("spindrop").mc_forward_batched(X[:3], n_samples=3)
        np.testing.assert_array_equal(pending.result().probs, ref.probs)

    def test_unknown_model_rejected_at_submit(self):
        scheduler = BatchScheduler(registry=self._registry(), n_samples=3)
        with pytest.raises(KeyError):
            scheduler.submit(X[:2], model="nope")

    def test_eviction_under_concurrent_submits(self):
        # A capacity-1 registry thrashes between two tenants while
        # four threads submit concurrently; every prediction must
        # still come back well-formed and fully accounted.
        registry = ModelRegistry(max_loaded=1)
        registry.register("clf", lambda: _engine("spindrop"),
                          feature_shape=(16,))
        registry.register("vi", lambda: _engine("subset_vi"),
                          feature_shape=(16,))
        scheduler = BatchScheduler(registry=registry, n_samples=3,
                                   max_batch=4, flush_interval=None)
        results = []
        lock = threading.Lock()

        def worker(model):
            for _ in range(3):
                pending = scheduler.submit(X[:2], model=model)
                scheduler.flush()
                with lock:
                    results.append((model, pending.result()))

        threads = [threading.Thread(target=worker,
                                    args=("clf" if i % 2 else "vi",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 12
        for _, result in results:
            assert result.probs.shape == (2, 4)
            assert np.isfinite(result.probs).all()
        clf = registry.metrics("clf").snapshot()
        vi = registry.metrics("vi").snapshot()
        assert clf.rows + vi.rows == 24
        assert registry.evictions >= 1


class TestRegistrySnapshotPath:
    """procpool workers boot registered models from their artifact
    path — the registry must remember it verbatim."""

    def test_snapshot_registrations_expose_their_path(self, tmp_path):
        path = str(tmp_path / "snap")
        DeploymentSnapshot.capture(_engine("spindrop")).save(path)
        registry = ModelRegistry()
        registry.register("clf", snapshot=path)
        registry.register("vi", lambda: _engine("subset_vi"))
        assert registry.snapshot_path("clf") == path
        assert registry.snapshot_path("vi") is None
        with pytest.raises(KeyError):
            registry.snapshot_path("nope")
