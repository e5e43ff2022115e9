"""Sharded serving: one coalesced batch, many engine replicas.

A deployed CIM fabric scales out by replicating the programmed
crossbars; :class:`ShardedScheduler` is the serving-side counterpart.
It coalesces requests exactly like :class:`~repro.serving.scheduler.
BatchScheduler`, then splits each flush across the replica engines
and reassembles per-request slices from whichever replica served them.

Sharding is *request-granular*: one request's rows never straddle two
replicas, so all of its rows share every MC pass's mask bank /
component selection — the same mutual-consistency guarantee the
single-engine scheduler gives.  Replicas balance by row count via a
greedy assignment in arrival order.

Replica calls run concurrently on a thread pool by default; numpy
releases the GIL inside its BLAS kernels, so the shards genuinely
overlap.

The replica set is dynamic: :meth:`ShardedScheduler.add_replica` /
:meth:`ShardedScheduler.remove_replica` grow and shrink it at
runtime — the lever the :class:`~repro.serving.autoscale.Autoscaler`
pulls.  A replica whose engine call raises fails only its own shard's
tickets (the original exception re-raised on ``result()``); sibling
shards resolve normally.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.serving.scheduler import BatchScheduler, _Request


class ShardedScheduler(BatchScheduler):
    """Request coalescing over a pool of engine replicas.

    Parameters
    ----------
    engines:
        One batched MC engine per replica (each exposing
        ``mc_forward_batched``).  The first replica doubles as the
        scheduler's nominal ``engine`` attribute and can never be
        removed.
    parallel:
        Run replica calls on a thread pool (default).  ``False``
        executes shards sequentially — useful for deterministic tests
        and debugging.

    Remaining keyword arguments are forwarded to
    :class:`BatchScheduler`.
    """

    def __init__(self, engines: Sequence, parallel: bool = True, **kwargs):
        engines = list(engines)
        if not engines:
            raise ValueError("need at least one engine replica")
        super().__init__(engines[0], **kwargs)
        self.engines = engines
        self.parallel = parallel
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_size = 0
        # Pools replaced by growth are retired, not shut down: a
        # concurrent flush may have snapshotted one and must still be
        # able to submit to it.  They are closed with the scheduler.
        self._retired_pools: List[ThreadPoolExecutor] = []
        with self._lock:
            self._ensure_pool_locked()

    @property
    def n_replicas(self) -> int:
        """Current number of engine replicas."""
        with self._lock:
            return len(self.engines)

    def add_replica(self, engine) -> int:
        """Append an engine replica; returns the new replica count.

        Safe to call at any time: flushes snapshot the replica list
        under the scheduler lock, so in-flight shard calls keep using
        the set they started with.  O(1) when the caller hands over a
        pre-built (warm) engine — the autoscaler's scale-up path.
        """
        with self._lock:
            self.engines.append(engine)
            self._ensure_pool_locked()
            return len(self.engines)

    def remove_replica(self, engine=None):
        """Drop and return a replica (the most recent by default).

        ``engine`` removes that *specific* replica instead — the
        control plane uses this to evict a quarantined engine, which,
        unlike a scale-down pop, may sit anywhere in the list.  The
        returned engine is no longer scheduled new shards (it may
        still be finishing one, which completes normally) and can be
        kept as a warm spare for a later :meth:`add_replica`.

        Raises
        ------
        ValueError
            When only one replica remains — a scheduler always keeps
            at least one engine — or when ``engine`` is not a current
            replica.
        """
        with self._lock:
            if len(self.engines) <= 1:
                raise ValueError(
                    "cannot remove the last engine replica")
            if engine is None:
                return self.engines.pop()
            for i, candidate in enumerate(self.engines):
                if candidate is engine:
                    return self.engines.pop(i)
            raise ValueError(
                "engine is not a replica of this scheduler")

    def close(self) -> None:
        """Flush pending requests and shut down the shard pools."""
        super().close()
        with self._lock:
            pools, self._pool = [self._pool], None
            pools.extend(self._retired_pools)
            self._retired_pools = []
            self._pool_size = 0
        for pool in pools:
            if pool is not None:
                pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _ensure_pool_locked(self) -> None:
        """(Re)size the shard pool to the replica count.

        Growth replaces the executor; the old one is *retired*, not
        shut down, because an in-flight flush may have snapshotted it
        and still needs to submit shard calls (shutting it down here
        would fail that flush's whole T-group).  Retired pools hold
        only idle threads, are bounded by the number of scale-ups in
        the scheduler's lifetime, and are closed in :meth:`close`.
        Shrink keeps the larger pool, whose idle threads are free.
        """
        if not self.parallel or len(self.engines) < 2:
            return
        if self._pool is not None and self._pool_size >= len(self.engines):
            return
        if self._pool is not None:
            self._retired_pools.append(self._pool)
        self._pool_size = len(self.engines)
        self._pool = ThreadPoolExecutor(max_workers=self._pool_size,
                                        thread_name_prefix="shard")

    def _partition(self, requests: List[_Request],
                   n_replicas: Optional[int] = None
                   ) -> List[List[_Request]]:
        """Assign whole requests to replicas, balancing row counts.

        Greedy in arrival order: each request goes to the currently
        least-loaded replica.  Deterministic, so a given submission
        sequence always lands on the same replicas (for a fixed
        replica count).
        """
        if n_replicas is None:
            n_replicas = len(self.engines)
        shards: List[List[_Request]] = [[] for _ in range(n_replicas)]
        loads = [0] * n_replicas
        for request in requests:
            target = loads.index(min(loads))
            shards[target].append(request)
            loads[target] += request.x.shape[0]
        return shards

    def _run_group(self, requests: List[_Request], n_samples: int,
                   model_id: Optional[str] = None) -> list:
        """One same-T group across the replicas; per-request slices.

        Only the default-engine route is sharded — the replicas are
        copies of one programmed fabric.  A registry-routed group runs
        on its registered model's own engine via the base scheduler
        (single call, still coalesced and T-grouped).

        A shard whose engine call raises fails exactly its own
        requests (their outcome is the exception) — sibling shards
        resolve normally.

        With a control plane attached, the replica snapshot is first
        filtered through its health state (quarantined replicas get no
        shards; an elapsed backoff turns this flush into the probe),
        and every shard call reports its outcome — success latency or
        failure — back to the plane.  The report takes only the
        plane's own lock, so pool workers never touch the scheduler
        lock.
        """
        if model_id is not None:
            return super()._run_group(requests, n_samples, model_id)
        with self._lock:
            engines = list(self.engines)
            pool = self._pool
        controlplane = self.controlplane
        if controlplane is not None:
            engines = controlplane.eligible_engines(engines)
        shards = self._partition(requests, len(engines))
        self.last_shard_loads = [sum(r.x.shape[0] for r in shard)
                                 for shard in shards]
        occupied = [(engine, shard)
                    for engine, shard in zip(engines, shards) if shard]

        def run_shard(engine, shard: List[_Request]) -> list:
            rows = sum(r.x.shape[0] for r in shard)
            t0 = time.perf_counter()
            try:
                coalesced = np.concatenate([r.x for r in shard], axis=0)
                result = engine.mc_forward_batched(
                    coalesced, n_samples=n_samples,
                    chunk_passes=self.chunk_passes)
                outcomes = self._slice_group(shard, result)
            except Exception as exc:  # noqa: BLE001 — delivered per ticket
                if controlplane is not None:
                    controlplane.record_outcome(
                        engine, ok=False, rows=rows, error=exc)
                return [(r, exc) for r in shard]
            if controlplane is not None:
                controlplane.record_outcome(
                    engine, ok=True, rows=rows,
                    latency_s=time.perf_counter() - t0)
            return outcomes

        self.stats.shard_calls += len(occupied)
        if pool is not None and len(occupied) > 1:
            futures = [pool.submit(run_shard, engine, shard)
                       for engine, shard in occupied]
            return [pair for future in futures for pair in future.result()]
        return [pair for engine, shard in occupied
                for pair in run_shard(engine, shard)]
