"""Process-backed replica pool with shared-memory row transport.

Every engine in this reproduction is pure NumPy, so the threaded
replicas of a :class:`~repro.serving.scheduler.BatchScheduler` contend
on one GIL and aggregate throughput flattens near a single core.  This
module moves each replica into its own worker *process*:

* **Workers boot from artifacts, not pickles of live engines.**  A
  worker receives only a :class:`~repro.cim.snapshot.DeploymentSnapshot`
  path (or a picklable zero-arg factory), loads and verifies it
  (:meth:`~repro.cim.snapshot.DeploymentSnapshot.load`) and rehydrates
  its own engine at the captured RNG stream positions, once per model
  id it hosts.  N workers built from one snapshot produce
  identical prediction streams, which is what makes the pool
  bit-identical to threaded sharding (see *Equivalence* below).
* **Rows travel through shared memory, not the pipe.**  Each worker
  owns one ``multiprocessing.shared_memory`` block per direction:
  request rows are written zero-copy into the request block, result
  sample tensors come back in the result block, and only a small
  header (command, shape, dtype, model id, T) crosses the
  duplex ``Pipe``.  One block per direction is enough because a
  worker never has two requests in flight: its lock is held from the
  write until the result is copied out.  Payloads larger than a block
  transparently fall back to pickle-over-pipe and are counted in
  ``pool.stats["pipe_fallbacks"]``.
* **The proxies speak the existing replica interface.**  A
  :class:`ProcReplica` implements ``mc_forward_batched`` (plus a
  ``ledger`` view), so ``BatchScheduler(pool.replicas, ...)``,
  :class:`~repro.serving.autoscale.Autoscaler` (with
  ``pool.spawn_replica`` as the engine factory), and
  :class:`~repro.serving.controlplane.ControlPlane` quarantine all
  work unchanged on top of worker processes.

Equivalence
-----------
``BatchScheduler`` partitions a coalesced batch greedily and
deterministically in arrival order, then slices every request's rows
back out with ``PredictiveResult.from_samples``.  A :class:`ProcReplica`
transports the *raw sample tensor* and rebuilds the result the same
way, and snapshot-built engines continue the captured RNG streams
exactly — so a k-worker pool serves samples and ledger totals
bit-identical to k threaded replicas built from the same snapshot.

Failure model
-------------
A dead worker (crash, kill, OOM) surfaces as
:class:`~repro.serving.errors.WorkerDied` on the next call of any
proxy bound to it; under a scheduler that fails only the dead
replica's own shard tickets, and with a control plane attached the
replica is quarantined and a warm spare promoted — sibling tickets
never wedge, because worker death closes the pipe and the waiting
``recv`` returns immediately.  A worker that dies while booting, or
stays silent for ``_BOOT_TIMEOUT_S`` seconds, is killed and its spawn
raises :class:`~repro.serving.errors.WorkerDied` naming the worker.
An exception raised by the engine *inside* a healthy worker comes
back as :class:`~repro.serving.errors.RemoteEngineError` carrying the
remote traceback; the worker itself keeps serving.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bayesian.base import PredictiveResult
from repro.cim.ledger import OpLedger
from repro.serving.errors import RemoteEngineError, WorkerDied

__all__ = ["ProcReplica", "ProcReplicaPool"]

# A model source crossing the process boundary: ("snapshot", path) or
# ("factory", picklable zero-arg callable).
_Source = tuple

# Seconds the parent waits for a new worker's boot handshake.  A
# worker still silent after this long is presumed hung: it is killed
# and the spawn raises WorkerDied instead of blocking forever.
_BOOT_TIMEOUT_S = 120.0


def _normalize_source(source) -> _Source:
    if isinstance(source, tuple) and len(source) == 2 \
            and source[0] in ("snapshot", "factory"):
        return source
    if isinstance(source, str):
        return ("snapshot", source)
    if callable(source):
        return ("factory", source)
    raise TypeError(
        f"model source must be a snapshot path or a zero-arg factory, "
        f"got {type(source).__name__}")


def _boot_engine(source: _Source):
    kind, value = source
    if kind == "snapshot":
        from repro.cim.snapshot import DeploymentSnapshot
        return DeploymentSnapshot.load(value).build()
    return value()


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(conn, sources: Dict[Optional[str], _Source],
                 req_name: str, res_name: str, slot_bytes: int) -> None:
    """Entry point of one replica worker (runs in a child process)."""
    import traceback
    from multiprocessing import shared_memory

    # Attaching registers the names with the resource tracker the
    # worker shares with its parent — a duplicate set-add, which is
    # exactly right: the parent owns both blocks and unregisters them
    # once, at unlink time.
    req_shm = shared_memory.SharedMemory(name=req_name)
    res_shm = shared_memory.SharedMemory(name=res_name)

    try:
        engines = {mid: _boot_engine(src) for mid, src in sources.items()}
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except OSError:
            pass
        return
    conn.send(("ready",))

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break                       # parent gone
            cmd = msg[0]
            if cmd == "close":
                break
            if cmd == "ping":
                conn.send(("pong",))
                continue
            if cmd == "ledger":
                engine = engines[msg[1]]
                ledger = getattr(engine, "ledger", None)
                conn.send(("ledger",
                           None if ledger is None else dict(ledger.counts)))
                continue
            if cmd == "mc":
                _, shape, dtype, n_samples, model_id, via_shm, payload = msg
                try:
                    if via_shm:
                        x = np.frombuffer(
                            req_shm.buf, dtype=np.dtype(dtype),
                            count=int(np.prod(shape))).reshape(shape)
                    else:
                        x = payload
                    result = engines[model_id].mc_forward_batched(
                        x, n_samples=n_samples)
                    samples = np.ascontiguousarray(result.samples)
                    del x
                    if samples.nbytes <= slot_bytes:
                        out = np.frombuffer(
                            res_shm.buf, dtype=samples.dtype,
                            count=samples.size).reshape(samples.shape)
                        out[...] = samples
                        del out
                        conn.send(("ok", samples.shape, samples.dtype.str,
                                   True, None))
                    else:
                        conn.send(("ok", samples.shape, samples.dtype.str,
                                   False, samples))
                except Exception:
                    conn.send(("err", traceback.format_exc()))
                continue
            conn.send(("err", f"unknown procpool command {cmd!r}"))
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        pass
    finally:
        for shm in (req_shm, res_shm):
            try:
                shm.close()
            except BufferError:             # a stray view still alive
                pass


# ----------------------------------------------------------------------
# Parent-side worker record + replica proxy
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side handle of one worker process and its shared-memory
    blocks."""

    __slots__ = ("index", "process", "conn", "req_shm", "res_shm",
                 "lock", "alive", "_proxies")

    def __init__(self, index, process, conn, req_shm, res_shm):
        self.index = index
        self.process = process
        self.conn = conn
        self.req_shm = req_shm
        self.res_shm = res_shm
        # Serializes this pipe and both blocks: held from the request
        # write until the result is copied out.
        self.lock = threading.Lock()
        self.alive = True
        self._proxies: Dict[Optional[str], "ProcReplica"] = {}


class ProcReplica:
    """Proxy engine bound to one worker process (and one model id).

    Implements the replica interface the schedulers already speak —
    ``mc_forward_batched(x, n_samples=...)`` — by
    shipping the rows through the worker's shared-memory request block
    and rebuilding a :class:`~repro.bayesian.base.PredictiveResult`
    from the sample tensor in its result block.  Calls on one
    worker are serialized by the worker's lock; distinct workers run
    genuinely in parallel (separate processes, no GIL sharing).
    """

    def __init__(self, pool: "ProcReplicaPool", worker: _Worker,
                 model_id: Optional[str] = None):
        self._pool = pool
        self._worker = worker
        self.model_id = model_id

    # -- replica interface ---------------------------------------------
    def mc_forward_batched(self, x: np.ndarray, n_samples: int = 20
                           ) -> PredictiveResult:
        worker = self._worker
        x = np.ascontiguousarray(x)
        with worker.lock:
            if not worker.alive:
                raise WorkerDied(
                    f"procpool worker {worker.index} is dead")
            via_shm = x.nbytes <= self._pool.slot_bytes
            try:
                if via_shm:
                    dst = np.frombuffer(
                        worker.req_shm.buf, dtype=x.dtype,
                        count=x.size).reshape(x.shape)
                    dst[...] = x
                    del dst
                    self._pool.stats["shm_requests"] += 1
                    worker.conn.send(("mc", x.shape, x.dtype.str,
                                      n_samples, self.model_id, True, None))
                else:
                    self._pool.stats["pipe_fallbacks"] += 1
                    worker.conn.send(("mc", x.shape, x.dtype.str,
                                      n_samples, self.model_id, False, x))
                reply = worker.conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError,
                    OSError):
                self._pool._mark_dead(worker)
                raise WorkerDied(
                    f"procpool worker {worker.index} died mid-request"
                ) from None
            if reply[0] == "err":
                raise RemoteEngineError(
                    f"engine call failed in procpool worker "
                    f"{worker.index}:\n{reply[1]}")
            _, shape, dtype, via, payload = reply
            if via:
                # Copy out of the block before releasing the lock: the
                # next call on this worker overwrites it.
                samples = np.frombuffer(
                    worker.res_shm.buf, dtype=np.dtype(dtype),
                    count=int(np.prod(shape))).reshape(shape).copy()
            else:
                samples = payload
        self._pool.stats["mc_calls"] += 1
        return PredictiveResult.from_samples(samples)

    # -- telemetry ------------------------------------------------------
    def ledger_totals(self) -> Optional[Dict[str, int]]:
        """The worker-side engine's op-ledger counts (``None`` for
        engines without a ledger, e.g. the software segmenter)."""
        reply = self._rpc(("ledger", self.model_id))
        return reply[1]

    @property
    def ledger(self) -> OpLedger:
        """A *copy* of the remote ledger as an :class:`OpLedger`
        (mutating it does not touch the worker)."""
        ledger = OpLedger()
        counts = self.ledger_totals()
        if counts:
            for op, n in counts.items():
                ledger.counts[op] = n
        return ledger

    @property
    def alive(self) -> bool:
        return self._worker.alive and self._worker.process.is_alive()

    @property
    def worker_index(self) -> int:
        return self._worker.index

    def ping(self) -> bool:
        return self._rpc(("ping",))[0] == "pong"

    def _rpc(self, msg: tuple) -> tuple:
        worker = self._worker
        with worker.lock:
            if not worker.alive:
                raise WorkerDied(
                    f"procpool worker {worker.index} is dead")
            try:
                worker.conn.send(msg)
                reply = worker.conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError,
                    OSError):
                self._pool._mark_dead(worker)
                raise WorkerDied(
                    f"procpool worker {worker.index} died mid-request"
                ) from None
        if reply[0] == "err":
            raise RemoteEngineError(
                f"procpool worker {worker.index} request failed:\n"
                f"{reply[1]}")
        return reply

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (f"ProcReplica(worker={self._worker.index}, "
                f"model={self.model_id!r}, {state})")


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class ProcReplicaPool:
    """A fleet of process-backed replica workers.

    Parameters
    ----------
    sources:
        What each worker hosts: a single model source, or a dict
        mapping model ids to sources for multi-tenant workers (the
        ``None`` key is the default route).  A source is a
        :class:`~repro.cim.snapshot.DeploymentSnapshot` directory path
        or a *picklable* zero-arg engine factory (workers are spawned
        as fresh interpreters, so lambdas/closures won't cross).
    workers:
        Worker processes to start (each hosts every model in
        ``sources``).
    slot_bytes:
        Size of each worker's request block and of its result block.
        Payloads over ``slot_bytes`` fall back to pickle-over-pipe
        (counted in ``stats["pipe_fallbacks"]``, never an error).
    start_method:
        ``multiprocessing`` start method; the default ``"spawn"``
        gives every worker a fresh interpreter, which is exactly the
        cold-boot path the snapshot artifact exists for.

    Use ``pool.replicas`` as a scheduler's replica set, and
    ``pool.spawn_replica`` as an autoscaler's engine factory::

        pool = ProcReplicaPool.from_snapshot(path, workers=4)
        scheduler = BatchScheduler(pool.replicas, n_samples=32)
        scaler = Autoscaler(scheduler, pool.spawn_replica, warm_spares=1)

    The pool owns every worker process and both shared-memory blocks
    of each; ``close()`` (or the context manager) tears all of it
    down.
    """

    def __init__(self, sources, *, workers: int = 2,
                 slot_bytes: int = 1 << 20,
                 start_method: str = "spawn"):
        if workers < 1:
            raise ValueError("workers must be positive")
        if slot_bytes < 1024:
            raise ValueError("slot_bytes must be at least 1 KiB")
        if not isinstance(sources, dict):
            sources = {None: sources}
        if not sources:
            raise ValueError("sources must name at least one model")
        self._sources: Dict[Optional[str], _Source] = {
            mid: _normalize_source(src) for mid, src in sources.items()}
        self._default_model = (
            None if None in self._sources else next(iter(self._sources)))
        self.slot_bytes = slot_bytes
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._worker_seq = 0
        self._closed = False
        self.stats = {"mc_calls": 0, "shm_requests": 0,
                      "pipe_fallbacks": 0, "worker_deaths": 0,
                      "workers_spawned": 0}
        try:
            for _ in range(workers):
                self._spawn_worker()
        except BaseException:
            self.close()
            raise

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_snapshot(cls, path: str, **kwargs) -> "ProcReplicaPool":
        """Pool whose workers rehydrate one saved snapshot artifact."""
        return cls({None: ("snapshot", path)}, **kwargs)

    @classmethod
    def from_factory(cls, factory: Callable[[], object],
                     **kwargs) -> "ProcReplicaPool":
        """Pool whose workers build engines from a picklable factory
        (the route for engines without snapshot support, e.g. the
        segmenter)."""
        return cls({None: ("factory", factory)}, **kwargs)

    @classmethod
    def from_registry(cls, registry, model_ids=None,
                      **kwargs) -> "ProcReplicaPool":
        """Pool hosting registered models, booted from their artifacts.

        Snapshot-registered models ship only their artifact path to
        the workers; factory-registered models ship the factory (which
        must pickle).  Engine-registered models cannot cross a process
        boundary and are rejected.
        """
        if model_ids is None:
            model_ids = registry.model_ids
        sources: Dict[Optional[str], _Source] = {}
        for model_id in model_ids:
            path = registry.snapshot_path(model_id)
            if path is not None:
                sources[model_id] = ("snapshot", path)
                continue
            factory = registry._require(model_id).factory
            sources[model_id] = ("factory", factory)
        return cls(sources, **kwargs)

    # -- replica access -------------------------------------------------
    @property
    def replicas(self) -> List[ProcReplica]:
        """One default-route proxy per live worker (stable objects —
        safe as control-plane keys)."""
        with self._lock:
            return [self._proxy(w, self._default_model)
                    for w in self._workers if w.alive]

    def replica(self, index: int,
                model: Optional[str] = None) -> ProcReplica:
        """The proxy for worker ``index`` and ``model`` (default route
        when ``model`` is None and a default exists)."""
        if model is None:
            model = self._default_model
        if model not in self._sources:
            raise KeyError(
                f"model {model!r} is not hosted by this pool "
                f"(known: {sorted(k for k in self._sources if k)})")
        with self._lock:
            for worker in self._workers:
                if worker.index == index:
                    return self._proxy(worker, model)
        raise KeyError(f"no worker with index {index}")

    def spawn_replica(self, model: Optional[str] = None) -> ProcReplica:
        """Start a fresh worker and return its proxy.

        Zero-arg-callable compatible with
        :class:`~repro.serving.autoscale.Autoscaler`'s
        ``engine_factory`` — warm spares and scale-ups each get their
        own process.
        """
        if model is None:
            model = self._default_model
        worker = self._spawn_worker()
        return self._proxy(worker, model)

    @property
    def n_workers(self) -> int:
        with self._lock:
            return len(self._workers)

    @property
    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers if w.alive)

    @property
    def model_ids(self) -> List[Optional[str]]:
        return list(self._sources)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Stop every worker and release both shm blocks per worker."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for worker in workers:
            with worker.lock:
                if worker.alive:
                    try:
                        worker.conn.send(("close",))
                    except (BrokenPipeError, OSError):
                        pass
                worker.alive = False
        for worker in workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass
            for shm in (worker.req_shm, worker.res_shm):
                try:
                    shm.close()
                except BufferError:
                    pass
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass

    def __enter__(self) -> "ProcReplicaPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- internals ------------------------------------------------------
    def _proxy(self, worker: _Worker,
               model: Optional[str]) -> ProcReplica:
        proxy = worker._proxies.get(model)
        if proxy is None:
            proxy = ProcReplica(self, worker, model)
            worker._proxies[model] = proxy
        return proxy

    def _spawn_worker(self) -> _Worker:
        from multiprocessing import shared_memory
        if self._closed:
            raise RuntimeError("pool is closed")
        req_shm = shared_memory.SharedMemory(create=True,
                                             size=self.slot_bytes)
        res_shm = shared_memory.SharedMemory(create=True,
                                             size=self.slot_bytes)
        parent_conn, child_conn = self._ctx.Pipe()
        with self._lock:
            index = self._worker_seq
            self._worker_seq += 1
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._sources, req_shm.name, res_shm.name,
                  self.slot_bytes),
            daemon=True, name=f"procpool-worker-{index}")
        try:
            process.start()
            child_conn.close()
            if not parent_conn.poll(_BOOT_TIMEOUT_S):
                raise WorkerDied(
                    f"procpool worker {index} did not finish booting "
                    f"within {_BOOT_TIMEOUT_S:g} s")
            try:
                reply = parent_conn.recv()  # boot handshake
            except EOFError:
                process.join(timeout=5)
                raise WorkerDied(
                    f"procpool worker {index} died during boot (exit "
                    f"code {process.exitcode})") from None
            if reply[0] != "ready":
                raise RuntimeError(
                    f"procpool worker {index} failed to boot:\n"
                    f"{reply[1] if len(reply) > 1 else reply!r}")
        except BaseException:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
            parent_conn.close()
            for shm in (req_shm, res_shm):
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
            raise
        worker = _Worker(index, process, parent_conn, req_shm, res_shm)
        with self._lock:
            self._workers.append(worker)
            self.stats["workers_spawned"] += 1
        return worker

    def _mark_dead(self, worker: _Worker) -> None:
        # Caller holds worker.lock.
        if worker.alive:
            worker.alive = False
            self.stats["worker_deaths"] += 1
