"""Process-backed replica pool: equivalence, transport, failure.

The acceptance contract of the procpool PR: a k-worker
:class:`ProcReplicaPool` under a :class:`BatchScheduler` must serve
samples and ledger totals *bit-identical* to k threaded replicas built
from the same snapshot/factory — for all four model families — while
rows travel through the shared-memory blocks (with a transparent
pipe fallback for oversized payloads).  Worker death must surface as
:class:`WorkerDied` on that replica only, feed the control plane's
quarantine + warm-spare loop, and never wedge sibling tickets.  A
fresh interpreter (the spawn boot path, exercised here both through
the pool and through an explicit subprocess) must rehydrate a snapshot
with prepacked bitplanes and continue the captured streams exactly.

Everything here spawns worker processes, so the module is marked
``procpool`` (the NumPy-floor CI leg deselects it; a dedicated 3.12
step runs it).
"""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.bayesian import (
    BayesianCim,
    SegmenterEngine,
    SpinBayesNetwork,
    make_bayesian_segmenter,
    make_spatial_spindrop_cnn,
    make_spindrop_mlp,
    make_subset_vi_mlp,
)
from repro.cim import CimConfig
from repro.cim.snapshot import DeploymentSnapshot
from repro.serving import (
    Autoscaler,
    BatchScheduler,
    ControlPlane,
    HealthPolicy,
    ModelRegistry,
    ProcReplicaPool,
    RemoteEngineError,
    WorkerDied,
)
from repro.serving import procpool
from repro.serving.controlplane import QUARANTINED

pytestmark = pytest.mark.procpool

RNG = np.random.default_rng(23)


# ----------------------------------------------------------------------
# Model families.  Factories are module-level so they pickle across the
# spawn boundary (workers are fresh interpreters that re-import us).
# ----------------------------------------------------------------------
def _spindrop_engine():
    model = make_spindrop_mlp(12, (8,), 3, p=0.3, seed=2)
    return BayesianCim(model, CimConfig(seed=4), seed=9)


def _spinbayes_engine():
    teacher = make_subset_vi_mlp(12, (8,), 3, seed=3)
    return SpinBayesNetwork.from_subset_vi(
        teacher, n_components=4, n_levels=8, config=CimConfig(seed=6),
        seed=11)


def _cim_conv_engine():
    model = make_spatial_spindrop_cnn(1, 8, 3, p=0.2, widths=(4,), seed=1)
    return BayesianCim(model, CimConfig(seed=2), seed=5)


def _segmenter_engine():
    # Software path: no OpLedger, not snapshotable -> the factory route.
    return SegmenterEngine(make_bayesian_segmenter(width=4, seed=7))


FAMILIES = {
    # name -> (engine factory, per-request input maker, feature_shape)
    "spindrop": (_spindrop_engine,
                 lambda rng, n: rng.standard_normal((n, 12)), None),
    "spinbayes": (_spinbayes_engine,
                  lambda rng, n: rng.standard_normal((n, 12)), None),
    "cim_conv": (_cim_conv_engine,
                 lambda rng, n: rng.standard_normal((n, 1, 8, 8)),
                 (1, 8, 8)),
    "segmenter": (_segmenter_engine,
                  lambda rng, n: rng.standard_normal((n, 1, 8, 8)),
                  (1, 8, 8)),
}


def _exit_during_boot():
    os._exit(3)                     # the worker dies before its handshake


def _hang_during_boot():
    time.sleep(3600)                # the worker never sends its handshake


def _save_snapshot(make_engine, path):
    DeploymentSnapshot.capture(make_engine()).save(path)
    return path


def _ledger_dict(engine):
    ledger = getattr(engine, "ledger", None)
    return None if ledger is None else ledger.as_dict()


# ----------------------------------------------------------------------
# Bit-exactness: k proc workers == k threaded replicas
# ----------------------------------------------------------------------
class TestBitExactEquivalence:
    @pytest.mark.parametrize("family", ["spindrop", "spinbayes",
                                        "cim_conv", "segmenter"])
    def test_pool_matches_threaded_sharding(self, family, tmp_path):
        """Same requests through threaded replicas and through the
        process pool: identical samples per ticket, identical ledger
        totals per replica (None for the ledger-less segmenter)."""
        make_engine, make_x, feature_shape = FAMILIES[family]
        if family == "segmenter":
            threaded_engines = [make_engine(), make_engine()]
            pool = ProcReplicaPool.from_factory(make_engine, workers=2)
        else:
            path = _save_snapshot(make_engine, str(tmp_path / "snap"))
            snap = DeploymentSnapshot.load(path)
            threaded_engines = [snap.build(), snap.build()]
            pool = ProcReplicaPool.from_snapshot(path, workers=2)

        rng = np.random.default_rng(17)
        xs = [make_x(rng, n) for n in (2, 3, 1, 2)]
        kwargs = dict(n_samples=3, max_batch=1024)
        if feature_shape is not None:
            kwargs["feature_shape"] = feature_shape
        with pool:
            threaded = BatchScheduler(threaded_engines, **kwargs)
            proc_replicas = pool.replicas
            sharded = BatchScheduler(proc_replicas, **kwargs)
            t_tickets = [threaded.submit(x) for x in xs]
            p_tickets = [sharded.submit(x) for x in xs]
            threaded.flush()
            sharded.flush()
            for t, p in zip(t_tickets, p_tickets):
                np.testing.assert_array_equal(t.result().samples,
                                              p.result().samples)
            # Deterministic greedy partition => replica i on each side
            # served the same shards, so the op ledgers must agree too.
            for engine, replica in zip(threaded_engines, proc_replicas):
                assert replica.ledger_totals() == _ledger_dict(engine)
            assert pool.stats["shm_requests"] > 0

    def test_ledger_property_is_a_detached_copy(self, tmp_path):
        path = _save_snapshot(_spindrop_engine, str(tmp_path / "snap"))
        with ProcReplicaPool.from_snapshot(path, workers=1) as pool:
            replica = pool.replicas[0]
            replica.mc_forward_batched(RNG.standard_normal((2, 12)),
                                       n_samples=2)
            ledger = replica.ledger
            totals = ledger.as_dict()
            assert totals == replica.ledger_totals()
            ledger.reset()                 # local copy only
            assert replica.ledger_totals() == totals


# ----------------------------------------------------------------------
# Transport: shared-memory blocks, pipe fallback, in-worker errors
# ----------------------------------------------------------------------
class TestTransport:
    def test_oversized_payloads_fall_back_to_pipe(self, tmp_path):
        """Requests/results over slot_bytes ship via pickle-over-pipe,
        counted but never wrong: results stay bit-identical."""
        path = _save_snapshot(_spindrop_engine, str(tmp_path / "snap"))
        reference = DeploymentSnapshot.load(path).build()
        x = np.random.default_rng(3).standard_normal((20, 12))
        expected = reference.mc_forward_batched(x, n_samples=3)
        with ProcReplicaPool.from_snapshot(path, workers=1,
                                           slot_bytes=1024) as pool:
            replica = pool.replicas[0]
            result = replica.mc_forward_batched(x, n_samples=3)
            np.testing.assert_array_equal(result.samples, expected.samples)
            assert pool.stats["pipe_fallbacks"] >= 1

            # A healthy worker survives an engine exception: the bad
            # request fails with the remote traceback, the next one
            # serves normally.
            with pytest.raises(RemoteEngineError):
                replica.mc_forward_batched(
                    np.zeros((2, 3, 4)), n_samples=2)
            assert replica.alive
            small = np.random.default_rng(4).standard_normal((2, 12))
            assert replica.mc_forward_batched(small, n_samples=2) \
                .samples.shape[1] == 2

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProcReplicaPool.from_factory(_spindrop_engine, workers=0)
        with pytest.raises(ValueError):
            ProcReplicaPool.from_factory(_spindrop_engine, slot_bytes=16)
        with pytest.raises(TypeError):
            ProcReplicaPool({"m": 123})
        with pytest.raises(ValueError):
            ProcReplicaPool({})

    def test_boot_failure_surfaces_and_cleans_up(self):
        with pytest.raises(RuntimeError, match="failed to boot"):
            ProcReplicaPool.from_snapshot("/nonexistent/snapshot",
                                          workers=1)

    def test_worker_death_during_boot_names_its_exit_code(self):
        with pytest.raises(WorkerDied, match="worker 0 .*exit code 3"):
            ProcReplicaPool.from_factory(_exit_during_boot, workers=1)

    def test_hung_boot_times_out_and_cleans_up(self, monkeypatch):
        def leftovers():
            shm = (set(os.listdir("/dev/shm"))
                   if os.path.isdir("/dev/shm") else set())
            return {p.pid for p in multiprocessing.active_children()}, shm

        children, segments = leftovers()
        monkeypatch.setattr(procpool, "_BOOT_TIMEOUT_S", 1.0)
        with pytest.raises(WorkerDied,
                           match=r"worker 0 did not finish booting "
                                 r"within 1 s"):
            ProcReplicaPool.from_factory(_hang_during_boot, workers=1)
        after_children, after_segments = leftovers()
        assert after_children <= children
        assert after_segments <= segments


# ----------------------------------------------------------------------
# Multi-tenant boot from the registry
# ----------------------------------------------------------------------
class TestRegistryBoot:
    def test_workers_host_every_registered_model(self, tmp_path):
        path = _save_snapshot(_spindrop_engine, str(tmp_path / "snap"))
        registry = ModelRegistry()
        registry.register("mlp", snapshot=path)
        registry.register("seg", factory=_segmenter_engine)
        x_mlp = np.random.default_rng(5).standard_normal((2, 12))
        x_seg = np.random.default_rng(6).standard_normal((2, 1, 8, 8))
        expected_mlp = DeploymentSnapshot.load(path).build() \
            .mc_forward_batched(x_mlp, n_samples=2)
        expected_seg = _segmenter_engine() \
            .mc_forward_batched(x_seg, n_samples=2)
        with ProcReplicaPool.from_registry(registry, workers=1) as pool:
            assert sorted(pool.model_ids) == ["mlp", "seg"]
            mlp = pool.replica(0, model="mlp")
            seg = pool.replica(0, model="seg")
            np.testing.assert_array_equal(
                mlp.mc_forward_batched(x_mlp, n_samples=2).samples,
                expected_mlp.samples)
            np.testing.assert_array_equal(
                seg.mc_forward_batched(x_seg, n_samples=2).samples,
                expected_seg.samples)
            # Proxies are stable objects (control-plane keys).
            assert pool.replica(0, model="mlp") is mlp
            with pytest.raises(KeyError):
                pool.replica(0, model="unknown")


# ----------------------------------------------------------------------
# Failure model: worker death, quarantine, warm-spare promotion
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_dead_worker_raises_and_sibling_serves(self, tmp_path):
        path = _save_snapshot(_spindrop_engine, str(tmp_path / "snap"))
        x = RNG.standard_normal((2, 12))
        with ProcReplicaPool.from_snapshot(path, workers=2) as pool:
            victim, sibling = pool.replicas
            victim._worker.process.terminate()
            victim._worker.process.join()
            with pytest.raises(WorkerDied):
                victim.mc_forward_batched(x, n_samples=2)
            assert pool.stats["worker_deaths"] == 1
            assert pool.alive_workers == 1
            assert pool.replicas == [sibling]
            assert sibling.mc_forward_batched(x, n_samples=2) \
                .samples.shape[1] == 2
            # A dead replica stays dead (no hang, immediate error).
            with pytest.raises(WorkerDied):
                victim.mc_forward_batched(x, n_samples=2)
            # spawn_replica restores capacity: the Autoscaler's
            # engine-factory hook.
            spare = pool.spawn_replica()
            assert pool.alive_workers == 2
            assert spare.mc_forward_batched(x, n_samples=2) \
                .samples.shape[1] == 2

    def test_quarantine_and_warm_spare_promotion(self, tmp_path):
        """The control plane treats a dead worker like any failing
        replica: quarantined after the failed shard, its capacity
        replaced by a warm spare spawned through the pool — and the
        sibling's ticket of the same flush resolves normally."""
        path = _save_snapshot(_spindrop_engine, str(tmp_path / "snap"))
        with ProcReplicaPool.from_snapshot(path, workers=2) as pool:
            replicas = pool.replicas
            plane = ControlPlane(health=HealthPolicy(
                quarantine_after=1, probe_backoff_s=1000.0,
                max_backoff_s=10000.0))
            sharded = BatchScheduler(replicas, n_samples=2, max_batch=1024,
                                     controlplane=plane)
            scaler = Autoscaler(sharded, pool.spawn_replica,
                                max_replicas=4, warm_spares=1,
                                cooldown_s=1000.0)
            plane.autoscaler = scaler

            victim = replicas[0]
            victim._worker.process.terminate()
            victim._worker.process.join()

            tickets = [sharded.submit(RNG.standard_normal((2, 12)))
                       for _ in range(2)]
            sharded.flush()
            outcomes = []
            for ticket in tickets:
                try:
                    outcomes.append(ticket.result().samples.shape)
                except WorkerDied:
                    outcomes.append("died")
            # Exactly the dead replica's shard failed; the sibling's
            # ticket never wedged.
            assert sorted(outcomes, key=str) == [(2, 2, 3), "died"]
            assert plane.health_of(victim).state == QUARANTINED
            assert scaler.promotions == 1
            assert sharded.n_replicas == 3    # victim parked + 2 live

            # The promoted spare is a fresh worker process serving the
            # same snapshot: the next flush succeeds on every ticket.
            tickets = [sharded.submit(RNG.standard_normal((2, 12)))
                       for _ in range(2)]
            sharded.flush()
            for ticket in tickets:
                assert ticket.result().samples.shape == (2, 2, 3)
            assert pool.stats["workers_spawned"] >= 3


# ----------------------------------------------------------------------
# Snapshot -> fresh-interpreter worker boot
# ----------------------------------------------------------------------
_BOOT_SCRIPT = """\
import hashlib, json, sys
import numpy as np
from repro.cim.snapshot import DeploymentSnapshot

engine = DeploymentSnapshot.load(sys.argv[1]).build()
x = np.random.default_rng(41).standard_normal((4, 12))
result = engine.mc_forward_batched(x, n_samples=3)
print(json.dumps({
    "sha": hashlib.sha256(
        np.ascontiguousarray(result.samples).tobytes()).hexdigest(),
    "shape": list(result.samples.shape),
    "ledger": engine.ledger.as_dict(),
}))
"""


class TestFreshInterpreterBoot:
    def test_subprocess_serves_bit_identical(self, tmp_path):
        """A cold interpreter rehydrates a snapshot whose crossbars
        carry prepacked bitplanes (packed before capture) and
        continues the captured streams exactly: same samples, same
        ledger totals as the capturing process."""
        model = make_spindrop_mlp(12, (8,), 3, p=0.3, seed=2)
        engine = BayesianCim(model, CimConfig(seed=4), seed=9)
        for stage in engine.network.mvm_layers():
            for grid in stage.grids:
                for bar in (bar for row in grid.bars for bar in row):
                    bar.packed_weights_t()
        path = str(tmp_path / "snap")
        DeploymentSnapshot.capture(engine).save(path)

        x = np.random.default_rng(41).standard_normal((4, 12))
        expected = DeploymentSnapshot.load(path).build()
        expected_result = expected.mc_forward_batched(x, n_samples=3)
        expected_sha = hashlib.sha256(np.ascontiguousarray(
            expected_result.samples).tobytes()).hexdigest()

        script = tmp_path / "boot.py"
        script.write_text(_BOOT_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), path],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["sha"] == expected_sha
        assert tuple(report["shape"]) == expected_result.samples.shape
        assert report["ledger"] == expected.ledger.as_dict()
