"""The unified serving API: one config, one factory, one protocol.

The serving stack has four front-ends — ``BatchScheduler`` over one
engine (sync) or over threaded replicas (threads), ``ProcReplicaPool``
(processes), ``AsyncBatchScheduler`` (asyncio) — and one constructor
kwarg per feature (``controlplane=``, ``registry=``,
``max_pending_rows=``, ``flush_interval=``, ...).  This module folds
that surface into:

* :class:`ServingConfig` — every serving knob in one dataclass;
* :func:`serve` — ``serve(model_or_snapshot, backend=..., config=...)``
  builds the whole stack (engines/pool, scheduler, front-end) and
  returns a uniform :class:`Frontend`;
* :class:`Frontend` — the protocol every front-end satisfies:
  ``submit(x, *, model=, n_samples=, feature_shape=, deadline_s=)``,
  ``predict(...)`` (submit + flush + result), ``metrics()``,
  ``close()``, and context-manager use.  ``backend="async"`` returns
  the coroutine flavor (``await submit``/``predict``, ``await
  aclose()``, ``async with``).

Every backend drives the same batching core: the ``"sync"``,
``"threads"`` and ``"procs"`` front-ends are a :class:`BatchScheduler`
over one or more replicas, driven by its own blocking tickets and
timer thread, and ``"async"`` puts the asyncio driver
(:class:`AsyncBatchScheduler`) over a :class:`BatchScheduler`.  The
underlying constructors remain public — ``serve`` is a convenience
roof, not a wall.  Every knob lives on :class:`ServingConfig`; if a
build step fails, ``serve`` releases what it already started (worker
processes, shared memory, a temporary snapshot) before raising.

>>> with serve(snapshot_path, backend="procs", config=ServingConfig(
...         n_samples=32, replicas=4)) as frontend:
...     result = frontend.predict(x)
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from typing import Optional, Protocol, runtime_checkable

from repro.serving.async_frontend import AsyncBatchScheduler
from repro.serving.procpool import ProcReplicaPool
from repro.serving.scheduler import BatchScheduler

__all__ = ["Frontend", "ServingConfig", "serve"]


@dataclasses.dataclass
class ServingConfig:
    """Every serving knob, in one place.

    The first block applies to every backend; later blocks are only
    read by the backends named in their comments (harmless elsewhere).
    """

    # -- batching / MC (all backends) ----------------------------------
    n_samples: int = 20
    max_batch: int = 64
    feature_shape: Optional[tuple] = None
    flush_interval: Optional[float] = None

    # -- multi-tenancy / SLO machinery (all backends) ------------------
    registry: Optional[object] = None
    default_model: Optional[str] = None
    metrics: Optional[object] = None
    admission: Optional[object] = None
    controlplane: Optional[object] = None

    # -- replication ("threads" and "procs") ---------------------------
    replicas: int = 2

    # -- process pool ("procs") ----------------------------------------
    slot_bytes: int = 1 << 20
    start_method: str = "spawn"

    # -- backpressure ("async") ----------------------------------------
    max_pending_rows: Optional[int] = None

    def scheduler_kwargs(self) -> dict:
        """The keyword arguments of the ``BatchScheduler`` constructor."""
        return dict(
            n_samples=self.n_samples, max_batch=self.max_batch,
            feature_shape=self.feature_shape,
            flush_interval=self.flush_interval, registry=self.registry,
            default_model=self.default_model, metrics=self.metrics,
            admission=self.admission, controlplane=self.controlplane)


@runtime_checkable
class Frontend(Protocol):
    """What :func:`serve` hands back, whatever the backend.

    ``backend="async"`` returns the coroutine flavor: ``submit`` and
    ``predict`` are ``async def``, ``aclose()`` replaces ``close()``
    and ``async with`` replaces ``with``.
    """

    backend: str

    def submit(self, x, *, model=None, n_samples=None,
               feature_shape=None, deadline_s=None):
        """Enqueue one request; returns a ticket with ``result()``."""

    def predict(self, x, *, model=None, n_samples=None,
                feature_shape=None, deadline_s=None):
        """Submit, flush, and resolve in one call."""

    def metrics(self):
        """The live load-metrics collector (or None when untracked)."""

    def close(self) -> None:
        """Tear down the stack this front-end owns."""


class _SyncFrontend:
    """Uniform facade over a batch scheduler.

    Owns whatever :func:`serve` built underneath — the scheduler, an
    optional :class:`~repro.serving.procpool.ProcReplicaPool`, and an
    optional temporary snapshot directory — and releases all of it in
    :meth:`close`.
    """

    def __init__(self, backend: str, scheduler, pool=None,
                 owned_tempdir: Optional[str] = None):
        self.backend = backend
        self.scheduler = scheduler
        self.pool = pool
        self._owned_tempdir = owned_tempdir

    def submit(self, x, *, model=None, n_samples=None,
               feature_shape=None, deadline_s=None):
        return self.scheduler.submit(
            x, n_samples, model, feature_shape=feature_shape,
            deadline_s=deadline_s)

    def predict(self, x, *, model=None, n_samples=None,
                feature_shape=None, deadline_s=None):
        ticket = self.submit(x, model=model, n_samples=n_samples,
                             feature_shape=feature_shape,
                             deadline_s=deadline_s)
        self.scheduler.flush()
        return ticket.result()

    def flush(self) -> int:
        return self.scheduler.flush()

    def metrics(self):
        return self.scheduler.metrics

    def close(self) -> None:
        if self.scheduler is not None:
            self.scheduler.close()
        if self.pool is not None:
            self.pool.close()
        if self._owned_tempdir is not None:
            shutil.rmtree(self._owned_tempdir, ignore_errors=True)
            self._owned_tempdir = None

    def __enter__(self) -> "_SyncFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<serving.Frontend backend={self.backend!r}>"


class _AsyncFrontend:
    """The coroutine flavor of :class:`Frontend`, over an
    :class:`~repro.serving.async_frontend.AsyncBatchScheduler`."""

    backend = "async"

    def __init__(self, frontend: AsyncBatchScheduler):
        self.frontend = frontend
        self.scheduler = frontend.scheduler

    async def submit(self, x, *, model=None, n_samples=None,
                     feature_shape=None, deadline_s=None):
        return await self.frontend.submit(
            x, n_samples, model, feature_shape=feature_shape,
            deadline_s=deadline_s)

    async def predict(self, x, *, model=None, n_samples=None,
                      feature_shape=None, deadline_s=None):
        ticket = await self.submit(x, model=model, n_samples=n_samples,
                                   feature_shape=feature_shape,
                                   deadline_s=deadline_s)
        await self.frontend.flush()
        return await ticket.result()

    async def flush(self) -> int:
        return await self.frontend.flush()

    def metrics(self):
        return self.frontend.metrics

    async def aclose(self) -> None:
        await self.frontend.aclose()

    async def __aenter__(self) -> "_AsyncFrontend":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        return "<serving.Frontend backend='async'>"


# ----------------------------------------------------------------------
# Source resolution
# ----------------------------------------------------------------------
def _resolve_source(model_or_snapshot, config: ServingConfig):
    """Classify what the caller handed us.

    Returns ``(kind, value)`` with kind in ``{"engine", "snapshot",
    "path", "factory", "registry"}``.
    """
    from repro.cim.snapshot import DeploymentSnapshot

    if model_or_snapshot is None:
        if config.registry is None or config.default_model is None:
            raise ValueError(
                "serve(None, ...) needs config.registry plus "
                "config.default_model to route requests")
        return "registry", None
    if isinstance(model_or_snapshot, DeploymentSnapshot):
        return "snapshot", model_or_snapshot
    if isinstance(model_or_snapshot, (str, os.PathLike)):
        return "path", os.fspath(model_or_snapshot)
    if hasattr(model_or_snapshot, "mc_forward_batched"):
        return "engine", model_or_snapshot
    if callable(model_or_snapshot):
        return "factory", model_or_snapshot
    raise TypeError(
        f"cannot serve a {type(model_or_snapshot).__name__}: expected "
        "an engine, a DeploymentSnapshot (or its path), a zero-arg "
        "factory, or None with a registry-backed config")


def _engine_factory(kind: str, value):
    """A build-one-replica callable for the in-process backends (any
    source kind but ``"registry"``)."""
    from repro.cim.snapshot import DeploymentSnapshot

    if kind == "path":
        return DeploymentSnapshot.load(value).build
    if kind == "snapshot":
        return value.build
    if kind == "factory":
        return value

    def rebuild(engine=value):
        # Replicating a live engine goes through capture so every
        # replica continues the same stream positions (the
        # bit-exactness contract snapshots pin).
        return DeploymentSnapshot.capture(engine).build()
    return rebuild


def _proc_sources(kind: str, value):
    """Procpool boot spec + an owned tempdir (if we had to persist).

    Workers are separate processes, so live objects cannot cross: an
    engine or in-memory snapshot is persisted to a temporary artifact
    directory the front-end owns (and removes on ``close``).
    """
    from repro.cim.snapshot import DeploymentSnapshot

    if kind == "path":
        return ("snapshot", value), None
    if kind == "factory":
        return ("factory", value), None
    snapshot = value if kind == "snapshot" \
        else DeploymentSnapshot.capture(value)
    tempdir = tempfile.mkdtemp(prefix="repro-serve-")
    path = os.path.join(tempdir, "snapshot")
    snapshot.save(path)
    return ("snapshot", path), tempdir


# ----------------------------------------------------------------------
# The factory
# ----------------------------------------------------------------------
def serve(model_or_snapshot=None, *,
          backend: str = "sync",
          config: Optional[ServingConfig] = None) -> object:
    """Build a serving stack and return its :class:`Frontend`.

    Parameters
    ----------
    model_or_snapshot:
        A live batched-MC engine, a
        :class:`~repro.cim.snapshot.DeploymentSnapshot` (or a path to
        a saved one), a zero-arg engine factory, or ``None`` to serve
        purely from ``config.registry``/``config.default_model``
        (``"sync"`` and ``"async"`` only).
    backend:
        ``"sync"`` — one engine, one :class:`BatchScheduler`;
        ``"threads"`` — ``config.replicas`` in-process replicas under a
        :class:`BatchScheduler` (shards run on its thread pool);
        ``"procs"`` — ``config.replicas`` worker *processes* under a
        :class:`~repro.serving.procpool.ProcReplicaPool` (shared-memory
        row transport; snapshots/engines are persisted to a temporary
        artifact the front-end owns);
        ``"async"`` — an :class:`AsyncBatchScheduler` coroutine
        front-end (returns the async :class:`Frontend` flavor).
    config:
        A :class:`ServingConfig`; defaults apply when omitted.  It is
        read, never modified.
    """
    if config is None:
        config = ServingConfig()
    kind, value = _resolve_source(model_or_snapshot, config)
    if backend in ("threads", "procs") and kind == "registry":
        raise ValueError(
            f"backend={backend!r} replicates one model; serve a "
            "registry through backend='sync' or 'async', or pass the "
            "model to replicate explicitly")

    if backend == "procs":
        source, tempdir = _proc_sources(kind, value)
        frontend = _SyncFrontend("procs", None, owned_tempdir=tempdir)
        try:
            frontend.pool = ProcReplicaPool(
                {None: source}, workers=config.replicas,
                slot_bytes=config.slot_bytes,
                start_method=config.start_method)
            frontend.scheduler = BatchScheduler(
                frontend.pool.replicas, **config.scheduler_kwargs())
        except BaseException:
            frontend.close()
            raise
        return frontend

    if backend in ("sync", "threads", "async"):
        engines = None
        if kind != "registry":
            factory = _engine_factory(kind, value)
            n = config.replicas if backend == "threads" else 1
            engines = [factory() for _ in range(n)]
        scheduler = BatchScheduler(engines, **config.scheduler_kwargs())
        if backend != "async":
            return _SyncFrontend(backend, scheduler)
        # The async driver owns the flush cadence and backpressure;
        # it shares the scheduler's metrics collector.
        return _AsyncFrontend(AsyncBatchScheduler(
            scheduler, flush_interval=config.flush_interval,
            max_pending_rows=config.max_pending_rows))

    raise ValueError(
        f"unknown backend {backend!r}: expected 'sync', 'threads', "
        f"'procs', or 'async'")
