"""serve() / ServingConfig / Frontend: the unified serving surface.

One factory builds every front-end — ``backend="sync" | "threads" |
"procs" | "async"`` — behind one :class:`Frontend` protocol with one
normalized ``submit(x, *, model=, n_samples=, feature_shape=,
deadline_s=)`` signature, and all four serve bit-identical results
for the same model source.  Every knob lives on ``ServingConfig``
(``serve()`` takes no other keywords), a failed build releases what
it started, the typed error taxonomy lives in
``repro.serving.errors``, and admission accounting must reconcile on
every cancellation path (async cancel after the flush started, async
cancel while queued, and the sync timeout-withdraw).
"""

import asyncio
import gc
import glob
import multiprocessing
import os
import tempfile
import threading
import weakref

import numpy as np
import pytest

from repro.bayesian import BayesianCim, make_spindrop_mlp
from repro.cim import CimConfig
from repro.cim.snapshot import DeploymentSnapshot
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
    AsyncBatchScheduler,
    BatchScheduler,
    Frontend,
    ModelRegistry,
    Overload,
    QueueFull,
    ResultTimeout,
    ServingConfig,
    serve,
)
from repro.serving import errors as serving_errors

RNG = np.random.default_rng(29)
X = RNG.standard_normal((4, 12))


def _factory():
    model = make_spindrop_mlp(12, (8,), 3, p=0.3, seed=2)
    return BayesianCim(model, CimConfig(seed=4), seed=9)


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve") / "snap")
    DeploymentSnapshot.capture(_factory()).save(path)
    return path


# ----------------------------------------------------------------------
# One factory, four backends, one answer
# ----------------------------------------------------------------------
class TestServeBackends:
    def test_sync_threads_async_bit_identical(self, snapshot_path):
        config = ServingConfig(n_samples=4, replicas=2)
        with serve(snapshot_path, backend="sync", config=config) as f:
            assert f.backend == "sync"
            reference = f.predict(X).samples
        with serve(snapshot_path, backend="threads", config=config) as f:
            assert f.backend == "threads"
            np.testing.assert_array_equal(f.predict(X).samples, reference)

        async def run_async():
            async with serve(snapshot_path, backend="async",
                             config=config) as f:
                assert f.backend == "async"
                return (await f.predict(X)).samples
        np.testing.assert_array_equal(asyncio.run(run_async()), reference)

    @pytest.mark.procpool
    def test_procs_matches_sync(self, snapshot_path):
        config = ServingConfig(n_samples=4, replicas=2)
        with serve(snapshot_path, backend="sync", config=config) as f:
            reference = f.predict(X).samples
        with serve(snapshot_path, backend="procs", config=config) as f:
            assert f.backend == "procs"
            np.testing.assert_array_equal(f.predict(X).samples, reference)
            assert f.pool.alive_workers == 2

    def test_every_source_kind_serves_the_same_model(self, snapshot_path):
        with serve(snapshot_path, backend="sync",
                   config=ServingConfig(n_samples=3)) as f:
            reference = f.predict(X).samples
        sources = {
            "snapshot-object": DeploymentSnapshot.load(snapshot_path),
            "factory": _factory,
            "engine": _factory(),
        }
        for label, source in sources.items():
            with serve(source, backend="sync",
                       config=ServingConfig(n_samples=3)) as f:
                np.testing.assert_array_equal(
                    f.predict(X).samples, reference,
                    err_msg=f"source kind {label}")

    @pytest.mark.parametrize("backend", ["sync", "threads"])
    def test_served_path_snapshot_is_freed_after_close(
            self, backend, tmp_path, monkeypatch):
        """A path served in-process keeps its loaded snapshot only as
        long as its front-end: nothing process-wide holds the blob."""
        path = str(tmp_path / "snap")
        DeploymentSnapshot.capture(_factory()).save(path)
        loaded = []
        load = DeploymentSnapshot.load.__func__

        def spy(cls, where):
            snapshot = load(cls, where)
            loaded.append(weakref.ref(snapshot))
            return snapshot

        monkeypatch.setattr(DeploymentSnapshot, "load", classmethod(spy))
        frontend = serve(path, backend=backend,
                         config=ServingConfig(n_samples=2, replicas=2))
        with frontend:
            frontend.predict(X)
        del frontend
        gc.collect()
        assert loaded and all(ref() is None for ref in loaded)

    def test_registry_backed_serving(self, snapshot_path):
        registry = ModelRegistry()
        registry.register("mlp", snapshot=snapshot_path)
        config = ServingConfig(n_samples=3, registry=registry,
                               default_model="mlp")
        with serve(None, backend="sync", config=config) as f:
            by_default = f.predict(X).samples
            by_name = f.predict(X, model="mlp").samples
        assert by_default.shape == (3, 4, 3)
        assert by_name.shape == (3, 4, 3)

    def test_sync_frontends_satisfy_the_protocol(self, snapshot_path):
        with serve(snapshot_path, backend="sync") as f:
            assert isinstance(f, Frontend)
            assert f.metrics() is f.scheduler.metrics

    def test_source_and_backend_validation(self, snapshot_path):
        with pytest.raises(ValueError, match="registry"):
            serve(None, backend="sync")
        with pytest.raises(ValueError, match="unknown backend"):
            serve(snapshot_path, backend="fibers")
        with pytest.raises(TypeError, match="cannot serve"):
            serve(object())
        registry = ModelRegistry()
        registry.register("mlp", snapshot=snapshot_path)
        with pytest.raises(ValueError, match="replicates one model"):
            serve(None, backend="threads",
                  config=ServingConfig(registry=registry,
                                       default_model="mlp"))


# ----------------------------------------------------------------------
# Keywords: every knob lives on ServingConfig, which serve() only reads
# ----------------------------------------------------------------------
class TestLegacyKwargs:
    def test_legacy_kwargs_are_rejected(self, snapshot_path):
        registry = ModelRegistry()
        registry.register("mlp", snapshot=snapshot_path)
        for key, value in (("flush_interval", 0.5),
                           ("registry", registry),
                           ("max_pending_rows", 8),
                           ("controlplane", None)):
            with pytest.raises(TypeError, match="unexpected keyword"):
                serve(snapshot_path, backend="sync", **{key: value})

    def test_unknown_kwarg_raises(self, snapshot_path):
        with pytest.raises(TypeError, match="unexpected keyword"):
            serve(snapshot_path, backend="sync", turbo=True)

    def test_caller_config_is_not_mutated(self, snapshot_path):
        """The async front-end shares one metrics collector with its
        scheduler; adopting it must not write back into the config."""
        config = ServingConfig(n_samples=2, flush_interval=0.5)

        async def build_and_close():
            async with serve(snapshot_path, backend="async",
                             config=config) as f:
                assert f.metrics() is f.scheduler.metrics
        asyncio.run(build_and_close())
        assert config == ServingConfig(n_samples=2, flush_interval=0.5)


# ----------------------------------------------------------------------
# A failed procs build releases its workers, shm and temp snapshot
# ----------------------------------------------------------------------
def _leftovers():
    """Child processes, shared-memory segments and temp snapshots."""
    shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
        else set()
    return ({p.pid for p in multiprocessing.active_children()}, shm,
            set(glob.glob(os.path.join(tempfile.gettempdir(),
                                       "repro-serve-*"))))


@pytest.mark.procpool
class TestProcsBuildFailure:
    def test_registry_source_rejected_before_spawning(self, snapshot_path):
        registry = ModelRegistry()
        registry.register("mlp", snapshot=snapshot_path)
        before = _leftovers()
        with pytest.raises(ValueError, match="replicates one model"):
            serve(None, backend="procs",
                  config=ServingConfig(registry=registry,
                                       default_model="mlp"))
        children, shm, tempdirs = _leftovers()
        assert children <= before[0]
        assert shm <= before[1] and tempdirs <= before[2]

    def test_later_failure_closes_pool_and_tempdir(self):
        before = _leftovers()
        # An engine source is persisted to a temp snapshot, the pool
        # boots from it, and the scheduler then rejects n_samples=0.
        with pytest.raises(ValueError, match="MC sample"):
            serve(_factory(), backend="procs",
                  config=ServingConfig(n_samples=0, replicas=1))
        children, shm, tempdirs = _leftovers()
        assert children <= before[0]
        assert shm <= before[1] and tempdirs <= before[2]


# ----------------------------------------------------------------------
# Normalized submit: per-request overrides and deadlines
# ----------------------------------------------------------------------
class TestNormalizedSubmit:
    def test_per_request_overrides(self, snapshot_path):
        with serve(snapshot_path, backend="sync",
                   config=ServingConfig(n_samples=2)) as f:
            ticket = f.submit(X, n_samples=5, feature_shape=(12,))
            f.flush()
            assert ticket.result().samples.shape == (5, 4, 3)

    def test_deadline_withdraws_with_result_timeout(self, snapshot_path):
        with serve(snapshot_path, backend="sync") as f:
            ticket = f.submit(X, deadline_s=0.05)
            with pytest.raises(ResultTimeout):
                ticket.result()

    @pytest.mark.parametrize("bad,match", [
        pytest.param(np.nan, "request row 2 .*non-finite", id="nan"),
        pytest.param(np.inf, "request row 2 .*non-finite", id="inf"),
        pytest.param(-np.inf, "request row 2 .*non-finite", id="-inf"),
        # Cast to float64, these were served without their imaginary
        # part, parsed from text, or refused only as "non-finite".
        pytest.param(X + 1j, "dtype complex128", id="complex"),
        pytest.param(X.astype(str), "dtype <U", id="str"),
        pytest.param(np.full(X.shape, None), "dtype object", id="object"),
        # Queued, these failed at flush inside the engine's mask draw.
        pytest.param({"n_samples": 2.5}, "n_samples must be an integer",
                     id="n_samples=2.5"),
        pytest.param({"n_samples": True}, "n_samples must be an integer",
                     id="n_samples=True"),
    ])
    def test_non_finite_rows_never_queue(self, snapshot_path, bad, match):
        # Every malformed request is rejected at submit(): nothing is
        # queued and the valid request before it still resolves.
        if isinstance(bad, dict):
            x, kwargs = X, bad
        elif np.ndim(bad) == 0:
            x, kwargs = X.copy(), {}
            x[2, 5] = bad
        else:
            x, kwargs = bad, {}
        with serve(snapshot_path, backend="sync") as f:
            queued = f.submit(X[:1])
            with pytest.raises(ValueError, match=match):
                f.submit(x, **kwargs)
            assert f.scheduler.pending_rows == 1
            assert f.scheduler.stats.requests == 1
            f.flush()
            assert queued.result().samples.shape[1] == 1

        async def run_async():
            async with serve(snapshot_path, backend="async") as f:
                queued = await f.submit(X[:1])
                with pytest.raises(ValueError, match=match):
                    await f.submit(x, **kwargs)
                assert f.scheduler.pending_rows == 1
                assert f.scheduler.stats.requests == 1
                await f.flush()
                return (await queued.result()).samples
        assert asyncio.run(run_async()).shape[1] == 1

    @pytest.mark.parametrize("n_samples", [2.5, True, np.bool_(True), "4"])
    def test_scheduler_default_sample_count_is_an_integer(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            BatchScheduler(_factory(), n_samples=n_samples)
        scheduler = BatchScheduler(_factory(), n_samples=np.int64(3))
        ticket = scheduler.submit(X, n_samples=np.int32(2))
        scheduler.flush()
        assert ticket.result().samples.shape == (2, 4, 3)

    def test_rejected_malformed_first_request_pins_no_feature_shape(self):
        scheduler = BatchScheduler(_factory(), n_samples=2)
        with pytest.raises(ValueError, match="dtype complex128"):
            scheduler.submit(np.ones((2, 5), dtype=complex))
        ticket = scheduler.submit(X.astype(np.float32) > 0)   # bool rows
        scheduler.flush()
        assert ticket.result().samples.shape[1:] == (4, 3)

    def test_rejected_first_request_pins_no_feature_shape(self):
        # The route's feature shape comes from its first *accepted*
        # request: a rejected NaN request of another width leaves it
        # free for the valid one that follows.
        scheduler = BatchScheduler(_factory(), n_samples=2)
        bad = np.full((2, 5), np.nan)
        with pytest.raises(ValueError, match="request row 0 "):
            scheduler.submit(bad)
        ticket = scheduler.submit(X)
        scheduler.flush()
        assert ticket.result().samples.shape[1:] == (4, 3)


# ----------------------------------------------------------------------
# The error taxonomy lives in repro.serving.errors
# ----------------------------------------------------------------------
class TestErrorsModule:
    def test_admission_hierarchy(self):
        assert issubclass(QueueFull, AdmissionRejected)
        assert issubclass(Overload, AdmissionRejected)
        assert issubclass(AdmissionRejected, RuntimeError)

    def test_package_reexports_are_the_same_objects(self):
        from repro import serving
        for name in ("AdmissionRejected", "Overload", "QueueFull",
                     "RemoteEngineError", "ResultTimeout", "WorkerDied"):
            assert getattr(serving, name) is getattr(serving_errors, name)


# ----------------------------------------------------------------------
# Admission accounting reconciles on every cancellation path
# ----------------------------------------------------------------------
class _GateEngine:
    """Engine that blocks inside the flush until released — pins a
    request in the in-flight state so the test can cancel it there."""

    def __init__(self):
        self.inner = _factory()
        self.release = threading.Event()

    def mc_forward_batched(self, x, n_samples=20):
        assert self.release.wait(timeout=10)
        return self.inner.mc_forward_batched(x, n_samples=n_samples)


class TestAdmissionReconciliation:
    def _admission(self):
        return AdmissionController(AdmissionPolicy(max_queue_rows=64))

    def test_async_cancel_after_flush_started_releases_rows(self):
        """The regression this PR fixes: a ticket cancelled *after*
        its batch was detached into a running flush left its rows
        booked in the admission counters forever."""
        gate = _GateEngine()
        admission = self._admission()

        async def run():
            scheduler = BatchScheduler(gate, n_samples=2,
                                       admission=admission)
            async with AsyncBatchScheduler(scheduler) as front:
                ticket = await front.submit(X)
                flush_task = asyncio.ensure_future(front.flush())
                # Let the flush task detach the batch and enter the
                # (gated) engine call before cancelling.
                for _ in range(50):
                    await asyncio.sleep(0.01)
                    if front.in_flight_rows == X.shape[0]:
                        break
                assert ticket.cancel()
                gate.release.set()
                await flush_task
        asyncio.run(run())
        assert admission.admitted_rows == X.shape[0]
        assert admission.cancelled_rows == X.shape[0]
        assert admission.served_rows == 0

    def test_async_cancel_while_queued_releases_rows(self):
        admission = self._admission()

        async def run():
            scheduler = BatchScheduler(_factory(), n_samples=2,
                                       admission=admission)
            async with AsyncBatchScheduler(scheduler) as front:
                ticket = await front.submit(X)
                assert ticket.cancel()
                await asyncio.sleep(0)     # let the done-callback run
                assert front.pending_rows == 0
        asyncio.run(run())
        assert admission.cancelled_rows == X.shape[0]
        assert admission.served_rows == 0

    @pytest.mark.parametrize("how", ["cancel", "close"])
    def test_async_submit_ended_during_backpressure_releases_rows(self, how):
        """A submit admitted, then cancelled or closed out while it
        waits on backpressure, is never served: its rows leave the
        admission count."""
        gate = _GateEngine()
        admission = self._admission()
        rows = X.shape[0]

        async def run():
            scheduler = BatchScheduler(gate, n_samples=2,
                                       admission=admission)
            front = AsyncBatchScheduler(scheduler, max_pending_rows=rows)
            first = await front.submit(X)
            # The first request holds every backpressure slot while its
            # flush waits in the gated engine.
            waiting = asyncio.ensure_future(front.submit(X[:2]))
            for _ in range(50):
                await asyncio.sleep(0.01)
                if front.in_flight_rows == rows:
                    break
            assert not waiting.done()
            if how == "cancel":
                waiting.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await waiting
                gate.release.set()
                await first.result()
                await front.aclose()
            else:
                closing = asyncio.ensure_future(front.aclose())
                await asyncio.sleep(0)
                gate.release.set()
                await closing
                with pytest.raises(RuntimeError, match="closed"):
                    await waiting
                await first.result()
        asyncio.run(run())
        assert admission.admitted_rows == rows + 2
        assert admission.cancelled_rows == 2
        assert admission.served_rows == rows

    def test_sync_timeout_withdraw_releases_rows(self):
        admission = self._admission()
        scheduler = BatchScheduler(_factory(), n_samples=2,
                                   admission=admission)
        ticket = scheduler.submit(X, deadline_s=0.05)
        with pytest.raises(ResultTimeout):
            ticket.result()
        assert admission.admitted_rows == X.shape[0]
        assert admission.cancelled_rows == X.shape[0]
        assert admission.served_rows == 0
        scheduler.close()
