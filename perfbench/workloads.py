"""The serving workloads, their seeded traces and the loops that drive them.

Every workload serves a :class:`~repro.cim.snapshot.DeploymentSnapshot`
through the public ``repro.serving.serve(...)`` API.  The deployed
model is fixed (built from seed 0); the workload seed only draws the
trace the program is handed: request sizes, sample counts, input rows
and arrival times.  ``README.md`` beside this file says why each
workload exists and which layers it loads.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import queue
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

N_CLASSES = 10
REPLICAS = 2            # replicas / workers: one per core of the reference host
MAX_BATCH = 64
POOL_SIZE = 256         # distinct requests cycled by the load loops
REPLAY_BATCHES = 8      # flushes in the pre-timing exactness replay
RESULT_TIMEOUT_S = 30.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    backend: str                       # serve() backend
    model: str                         # key of build_engine()
    feature_shape: tuple
    rows: Tuple[int, int]              # rows per request, inclusive
    t_values: Tuple[int, ...]          # per-request T, alternating
    flush_interval: Optional[float]    # scheduler deadline flush, s
    open_rate: Optional[float]         # Poisson requests/s; None: closed only
    window: int                        # outstanding requests, closed loop
    replay_batch: int                  # requests per replayed flush

    @property
    def engines(self) -> int:
        """Engines in the process that serves the requests."""
        return 1 if self.backend == "async" else REPLICAS


# Open-loop rates are constants, so that a faster program meets the
# same offered load, not a higher one: about a quarter of each
# workload's closed-loop saturation rate on the reference host
# (2 cores).  At half of it, the open loop fell behind whenever the
# shared host was contended, and p99 latency swung 2-10x between runs.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mlp-threads-open", backend="threads", model="spindrop_mlp",
             feature_shape=(256,), rows=(1, 3), t_values=(20,),
             flush_interval=0.002, open_rate=700.0, window=16,
             replay_batch=4),
    Workload("cnn-async-batch", backend="async", model="spatial_cnn",
             feature_shape=(1, 16, 16), rows=(16, 16), t_values=(20,),
             flush_interval=None, open_rate=None, window=1,
             replay_batch=2),
    Workload("spinbayes-procs-mixedT", backend="procs", model="spinbayes",
             feature_shape=(256,), rows=(1, 4), t_values=(8, 32),
             flush_interval=0.002, open_rate=500.0, window=16,
             replay_batch=4),
)}


def build_engine(model: str):
    """The deployed engine of a workload.  A fixed seed gives the same
    hardware realization on every run, whatever the workload seed."""
    from repro.bayesian import (
        BayesianCim,
        SpinBayesNetwork,
        make_spatial_spindrop_cnn,
        make_spindrop_mlp,
        make_subset_vi_mlp,
    )
    from repro.cim import CimConfig

    if model == "spindrop_mlp":       # Table I: 256-128-64-10 SpinDrop
        net = make_spindrop_mlp(256, (128, 64), N_CLASSES, p=0.25, seed=0)
        return BayesianCim(net, CimConfig(seed=0), seed=0)
    if model == "spatial_cnn":        # Spatial-SpinDrop, CimConv2d route
        net = make_spatial_spindrop_cnn(1, 16, N_CLASSES, p=0.25,
                                        widths=(8, 16), seed=0)
        return BayesianCim(net, CimConfig(seed=0), seed=0)
    if model == "spinbayes":          # subset-VI teacher, N=8, 16 levels
        teacher = make_subset_vi_mlp(256, (128, 64), N_CLASSES, seed=0)
        return SpinBayesNetwork.from_subset_vi(
            teacher, n_components=8, n_levels=16, config=CimConfig(seed=0),
            seed=0)
    raise ValueError(f"unknown model {model!r}")


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Request:
    x: np.ndarray
    t: int


def _requests(workload: Workload, rng: np.random.Generator,
              n: int) -> List[Request]:
    lo, hi = workload.rows
    ts = workload.t_values
    # Consecutive requests share a size, one request per T value, so
    # every T class carries the same rows whatever the seed draws.
    sizes = np.repeat(rng.integers(lo, hi + 1, -(-n // len(ts))),
                      len(ts))[:n]
    return [Request(rng.standard_normal((int(k),) + workload.feature_shape),
                    ts[i % len(ts)]) for i, k in enumerate(sizes)]


class Trace:
    """The seeded inputs of one run.

    ``pool`` is cycled by the load loops, ``replay`` is the slice the
    exactness check replays, and ``arrivals`` are the open-loop send
    offsets in seconds.  :meth:`request` hands out a fresh view per
    send, so every submitted array is a distinct object the tracer can
    follow from submit to flush.
    """

    def __init__(self, workload: Workload, seed: int, open_seconds: float):
        pool_rng, replay_rng, arrival_rng = (
            np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(3))
        self.pool = _requests(workload, pool_rng, POOL_SIZE)
        self.replay = _requests(workload, replay_rng,
                                REPLAY_BATCHES * workload.replay_batch)
        self.arrivals = np.empty(0)
        if workload.open_rate and open_seconds > 0:
            n = int(workload.open_rate * open_seconds * 1.5) + 16
            offsets = np.cumsum(arrival_rng.exponential(
                1.0 / workload.open_rate, n))
            self.arrivals = offsets[offsets < open_seconds]

    def request(self, i: int) -> Request:
        base = self.pool[i % len(self.pool)]
        return Request(base.x[...], base.t)


def result_ok(result, request: Request) -> bool:
    """Shape, finiteness and normalised probabilities of one result."""
    rows = request.x.shape[0]
    samples = result.samples
    return (samples.shape == (request.t, rows, N_CLASSES)
            and result.probs.shape == (rows, N_CLASSES)
            and bool(np.isfinite(samples).all())
            and bool(np.abs(result.probs.sum(axis=1) - 1.0).max() < 1e-9))


# ----------------------------------------------------------------------
# Clients: one blocking interface over the sync and async front-ends
# ----------------------------------------------------------------------
class SyncClient:
    def __init__(self, frontend):
        self.frontend = frontend

    def submit(self, request: Request):
        return self.frontend.submit(request.x, n_samples=request.t)

    def wait(self, ticket):
        """Resolve a ticket through the scheduler's own flush triggers."""
        return ticket.result(timeout=RESULT_TIMEOUT_S)

    def force(self, ticket):
        """Resolve a ticket, flushing everything queued if it is still
        pending."""
        return ticket.result()

    def replay(self, requests: List[Request]) -> list:
        """Serve ``requests`` as exactly one flush."""
        tickets = [self.submit(r) for r in requests]
        self.frontend.flush()
        return [t.result() for t in tickets]

    def close(self) -> None:
        self.frontend.close()


class AsyncClient:
    """Drives the coroutine front-end from blocking code on a private
    event loop (the front-end binds to the first loop it runs on)."""

    def __init__(self, frontend):
        self.frontend = frontend
        self._loop = asyncio.new_event_loop()

    def _run(self, coro):
        return self._loop.run_until_complete(
            asyncio.wait_for(coro, RESULT_TIMEOUT_S))

    def submit(self, request: Request):
        return self._run(self.frontend.submit(request.x,
                                              n_samples=request.t))

    def force(self, ticket):
        async def flush_and_wait():
            await self.frontend.flush()
            return await ticket.result()
        return self._run(flush_and_wait())

    def replay(self, requests: List[Request]) -> list:
        async def one_flush():
            tickets = [await self.frontend.submit(r.x, n_samples=r.t)
                       for r in requests]
            await self.frontend.flush()
            return [await t.result() for t in tickets]
        return self._run(one_flush())

    def close(self) -> None:
        try:
            self._run(self.frontend.aclose())
        finally:
            self._loop.close()


def open_client(workload: Workload, path: str,
                flush_controlled: bool = False):
    """``serve()`` the snapshot at ``path`` with the workload's config.

    ``flush_controlled`` drops the deadline timer and the row trigger,
    so requests flush only when the client asks.
    """
    from repro.serving import ServingConfig, serve

    config = ServingConfig(
        n_samples=workload.t_values[0],
        max_batch=1 << 20 if flush_controlled else MAX_BATCH,
        feature_shape=workload.feature_shape,
        flush_interval=None if flush_controlled else workload.flush_interval,
        replicas=REPLICAS)
    frontend = serve(path, backend=workload.backend, config=config)
    if workload.backend == "async":
        return AsyncClient(frontend)
    return SyncClient(frontend)


def engine_ledgers(client) -> List[dict]:
    """Per-replica op-ledger totals of the engines behind a front-end."""
    scheduler = client.frontend.scheduler
    engines = getattr(scheduler, "engines", None) or [scheduler.engine]
    totals = []
    for engine in engines:
        counts = (engine.ledger_totals() if hasattr(engine, "ledger_totals")
                  else engine.ledger.as_dict())
        totals.append({op: n for op, n in counts.items() if n})
    return totals


# ----------------------------------------------------------------------
# Exactness check
# ----------------------------------------------------------------------
def reference_flush(engines, requests: List[Request]) -> List[np.ndarray]:
    """One flush computed the way the serving contract defines it.

    Requests group by T in arrival order; each group is split across
    the replicas by whole requests, each to the least-loaded replica;
    every shard is one call of the engine's *sequential* per-pass loop,
    the oracle the batched engines are pinned to.
    """
    out: List[Optional[np.ndarray]] = [None] * len(requests)
    groups: Dict[int, List[int]] = {}
    for i, request in enumerate(requests):
        groups.setdefault(request.t, []).append(i)
    for t, members in groups.items():
        shards: List[List[int]] = [[] for _ in engines]
        loads = [0] * len(engines)
        for i in members:
            k = loads.index(min(loads))
            shards[k].append(i)
            loads[k] += requests[i].x.shape[0]
        for engine, shard in zip(engines, shards):
            if not shard:
                continue
            x = np.concatenate([requests[i].x for i in shard])
            samples = engine.mc_forward(x, n_samples=t,
                                        batched=False).samples
            lo = 0
            for i in shard:
                hi = lo + requests[i].x.shape[0]
                out[i] = samples[:, lo:hi]
                lo = hi
    return out


@dataclasses.dataclass
class Exactness:
    mismatches: int               # requests whose samples differ
    ledgers_equal: bool           # per-replica ledger totals agree
    requests: int
    rows: int
    ledger_delta: collections.Counter


def check_exact(workload: Workload, path: str,
                requests: List[Request]) -> Exactness:
    """Replay ``requests`` in fixed flushes through the workload's
    backend and through an in-process reference with the same replica
    layout, both built from the snapshot at ``path``."""
    from repro.cim.snapshot import DeploymentSnapshot

    snapshot = DeploymentSnapshot.load(path)
    references = [snapshot.build() for _ in range(workload.engines)]
    before = collections.Counter()
    for engine in references:
        before.update(engine.ledger.as_dict())
    batches = [requests[i:i + workload.replay_batch]
               for i in range(0, len(requests), workload.replay_batch)]
    expected = [s for batch in batches
                for s in reference_flush(references, batch)]
    client = open_client(workload, path, flush_controlled=True)
    try:
        served = [r for batch in batches for r in client.replay(batch)]
        served_ledgers = engine_ledgers(client)
    finally:
        client.close()
    after = collections.Counter()
    for engine in references:
        after.update(engine.ledger.as_dict())
    reference_ledgers = [{op: n for op, n in e.ledger.as_dict().items() if n}
                         for e in references]
    return Exactness(
        mismatches=sum(not np.array_equal(r.samples, e)
                       for r, e in zip(served, expected)),
        ledgers_equal=served_ledgers == reference_ledgers,
        requests=len(requests),
        rows=sum(r.x.shape[0] for r in requests),
        ledger_delta=after - before)


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Phase:
    """What one load phase observed."""

    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    lags_ms: List[float] = dataclasses.field(default_factory=list)
    done: List[Tuple[float, int]] = dataclasses.field(
        default_factory=list)       # (completion time, rows) per success
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    start: float = 0.0
    seconds: float = 0.0
    # Traced phases keep every submitted request referenced until the
    # phase ends, so the array ids the tracer records stay unique.
    sent: List[Request] = dataclasses.field(default_factory=list)

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.seconds if self.seconds else 0.0

    def settle(self, request: Request, resolve, since: float) -> None:
        """Resolve one ticket and book it; an exception or a malformed
        result counts as failed."""
        try:
            ok = result_ok(resolve(), request)
        except Exception:              # noqa: BLE001 — counted, not fatal
            ok = False
        if ok:
            now = time.perf_counter()
            self.rows += request.x.shape[0]
            self.latencies_ms.append((now - since) * 1e3)
            self.done.append((now, request.x.shape[0]))
        else:
            self.failed += 1


def _submit(client, request: Request, tracer, phase: Phase):
    if tracer is None:
        return client.submit(request)
    phase.sent.append(request)
    with tracer.span("serving.submit") as span:
        span.attrs["x"] = id(request.x)
        return client.submit(request)


def open_loop(client: SyncClient, trace: Trace, tracer=None) -> Phase:
    """Poisson arrivals, sent on schedule whatever the backlog.

    This thread sends at the trace's offsets; a collector thread
    resolves tickets in order through the scheduler's own flush
    triggers.  Latency runs from the *scheduled* send time, so a stall
    is charged to every request it delays; ``lags_ms`` records how late
    each send was.
    """
    phase = Phase()
    handoff: "queue.SimpleQueue" = queue.SimpleQueue()

    def collect():
        while True:
            item = handoff.get()
            if item is None:
                return
            due, request, ticket = item
            phase.settle(request, lambda: client.wait(ticket), due)

    collector = threading.Thread(target=collect, name="bench-collector")
    collector.start()
    refused = 0
    start = phase.start = time.perf_counter() + 0.005
    try:
        for i, offset in enumerate(trace.arrivals):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            phase.lags_ms.append((time.perf_counter() - due) * 1e3)
            request = trace.request(i)
            phase.attempted += 1
            try:
                ticket = _submit(client, request, tracer, phase)
            except Exception:          # noqa: BLE001 — refused: counted
                refused += 1
                continue
            handoff.put((due, request, ticket))
    finally:
        handoff.put(None)
        collector.join()
    phase.failed += refused
    phase.seconds = time.perf_counter() - start
    return phase


def closed_loop(client, trace: Trace, seconds: float, window: int,
                tracer=None) -> Phase:
    """One client keeping ``window`` requests outstanding.

    Waiting on the oldest ticket flushes everything queued behind it,
    so a flush carries about ``window`` requests: the service's
    saturation throughput at a fixed outstanding window.  Latency runs
    from each request's submit.
    """
    phase = Phase()
    outstanding: collections.deque = collections.deque()
    start = phase.start = time.perf_counter()
    end = start + seconds
    i = 0
    while True:
        while len(outstanding) < window and time.perf_counter() < end:
            request = trace.request(i)
            i += 1
            phase.attempted += 1
            sent = time.perf_counter()
            try:
                ticket = _submit(client, request, tracer, phase)
            except Exception:          # noqa: BLE001 — refused: counted
                phase.failed += 1
                continue
            outstanding.append((sent, request, ticket))
        if not outstanding:
            break
        sent, request, ticket = outstanding.popleft()
        phase.settle(request, lambda: client.force(ticket), sent)
    phase.seconds = time.perf_counter() - start
    return phase
