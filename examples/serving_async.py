"""Asyncio serving with load metrics and replica autoscaling.

The paper's deployment story is a CIM fabric answering many
concurrent uncertainty queries.  This example runs the full async
serving stack on a small SpinDrop classifier: coroutine clients
arrive in a Poisson burst, the :class:`AsyncBatchScheduler` coalesces
them into batched Monte-Carlo flushes on a worker thread, a
:class:`LoadMetrics` collector watches queue depth / latency /
utilization, and an :class:`Autoscaler` grows the scheduler's replica set
when the burst saturates the fabric — then shrinks it again as the
traffic drains.

Run:  python examples/serving_async.py
"""

import asyncio
import time

import numpy as np

from repro.bayesian import BayesianCim, make_spindrop_mlp
from repro.cim import CimConfig
from repro.serving import (
    AsyncBatchScheduler,
    Autoscaler,
    BatchScheduler,
    LoadMetrics,
)

IN_FEATURES = 64
N_CLASSES = 4


def make_engine(seed: int = 0) -> BayesianCim:
    model = make_spindrop_mlp(IN_FEATURES, (48,), N_CLASSES, p=0.25,
                              seed=1)
    return BayesianCim(model, CimConfig(seed=2), seed=seed)


async def client(frontend, rng, arrival_s, start):
    """One serving client: arrive, predict, report uncertainty."""
    delay = arrival_s - (time.perf_counter() - start)
    if delay > 0:
        await asyncio.sleep(delay)
    x = rng.standard_normal((rng.integers(1, 4), IN_FEATURES))
    result = await frontend.predict(x, n_samples=32)
    return float(result.mutual_information.mean())


async def main() -> None:
    rng = np.random.default_rng(7)
    scheduler = BatchScheduler([make_engine(seed=3)], n_samples=32,
                               max_batch=24)
    metrics = LoadMetrics(ewma_alpha=0.4, throughput_window_s=0.2)
    autoscaler = Autoscaler(
        scheduler, make_engine, metrics=metrics,
        min_replicas=1, max_replicas=3,
        scale_up_utilization=0.3, scale_down_utilization=0.1,
        scale_up_queue_rows=24, down_patience=4, warm_spares=1)

    async with AsyncBatchScheduler(
            scheduler, flush_interval=0.003,
            autoscaler=autoscaler) as frontend:
        print("Poisson burst: 120 clients, ~0.3 ms mean gap")
        arrivals = np.cumsum(rng.exponential(0.0003, 120))
        start = time.perf_counter()
        scores = await asyncio.gather(*[
            client(frontend, rng, float(t), start) for t in arrivals])
        wall = time.perf_counter() - start

        snap = metrics.snapshot()
        print(f"  served {snap.requests} requests / {snap.rows} rows "
              f"in {wall * 1e3:.0f} ms "
              f"({snap.rows / wall:.0f} rows/s)")
        print(f"  flushes: {snap.flushes}  "
              f"mean batch: {snap.mean_flush_rows:.1f} rows  "
              f"p50/p95 flush latency: "
              f"{snap.p50_latency_s * 1e3:.1f} / "
              f"{snap.p95_latency_s * 1e3:.1f} ms")
        print(f"  utilization (EWMA): {snap.utilization:.2f}  "
              f"max queue depth: {snap.max_queue_depth} rows")
        print(f"  replicas: {scheduler.n_replicas} "
              f"(scale-ups: {autoscaler.scale_ups})  "
              f"per-replica rows: {snap.replica_rows}")
        print(f"  mean epistemic uncertainty (BALD): "
              f"{np.mean(scores):.4f}")

        # Traffic drains; idle observations walk the replica set back.
        print("drain: idle policy steps")
        for _ in range(10):
            await asyncio.sleep(0.06)
            autoscaler.step()
        print(f"  replicas after drain: {scheduler.n_replicas} "
              f"(scale-downs: {autoscaler.scale_downs}, "
              f"warm spares: {autoscaler.spare_count})")


if __name__ == "__main__":
    asyncio.run(main())
