"""Serving load metrics: queue depth, flush latency, throughput.

:class:`LoadMetrics` is the observability half of the autoscaling
loop: the serving front-ends feed it one record per engine flush
(rows, coalesced request count, wall latency, and per-replica row
loads) plus queue-depth observations on every submit;
:meth:`LoadMetrics.snapshot` condenses them into the
:class:`MetricsSnapshot` the :class:`~repro.serving.autoscale.
Autoscaler` policies read.

Everything is windowed or exponentially weighted so a long-lived
service sees *current* load, not its lifetime average:

- flush latencies keep the last ``window`` entries (p50/p95 over
  that ring);
- throughput (rows/sec) counts completions inside the trailing
  ``throughput_window_s`` seconds;
- utilization is an EWMA of each flush's busy fraction — flush wall
  time over the gap since the previous flush finished — so it decays
  toward 0 when traffic drains and saturates toward 1 when flushes
  run back-to-back.

The collector is thread-safe (flush records arrive from engine worker
threads, snapshots from the event loop) and takes an injectable clock
for deterministic tests.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time condensation of one :class:`LoadMetrics`.

    ``utilization`` and ``queue_depth`` (pending rows at the last
    observation) are the autoscaler's primary signals; the latency
    percentiles and ``rows_per_s`` are the SLO-facing read-outs.
    Per-model read-outs of a multi-tenant fleet live in the registry
    (:meth:`~repro.serving.registry.ModelRegistry.metrics`).
    """

    flushes: int = 0
    requests: int = 0
    rows: int = 0
    queue_depth: int = 0          # pending rows at last observation
    max_queue_depth: int = 0
    mean_flush_rows: float = 0.0
    last_flush_rows: int = 0
    p50_latency_s: float = 0.0
    p95_latency_s: float = 0.0
    rows_per_s: float = 0.0
    utilization: float = 0.0      # EWMA busy fraction in [0, 1]
    replica_rows: Tuple[int, ...] = ()   # cumulative rows per replica

    def per_replica_queue(self, n_replicas: int) -> float:
        """Pending rows per replica (the scale-up watermark input)."""
        return self.queue_depth / max(n_replicas, 1)


def _percentile(sorted_values: List[float], q: float) -> float:
    """Linearly-interpolated percentile over an already-sorted list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo])


class LoadMetrics:
    """Collector for serving-side load signals.

    Parameters
    ----------
    window:
        Ring-buffer size for flush latency / flush size history (the
        percentile base).
    ewma_alpha:
        Smoothing factor of the utilization EWMA; higher reacts
        faster, lower rides out bursts.
    throughput_window_s:
        Trailing window over which ``rows_per_s`` is computed.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(self, window: int = 256, ewma_alpha: float = 0.25,
                 throughput_window_s: float = 2.0,
                 clock: Callable[[], float] = time.monotonic):
        if window < 1:
            raise ValueError("window must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if throughput_window_s <= 0:
            raise ValueError("throughput_window_s must be positive")
        self.window = window
        self.ewma_alpha = ewma_alpha
        self.throughput_window_s = throughput_window_s
        self._clock = clock
        self._lock = threading.Lock()
        self._flushes = 0
        self._requests = 0
        self._rows = 0
        self._queue_depth = 0
        self._max_queue_depth = 0
        self._last_flush_rows = 0
        self._latencies: deque = deque(maxlen=window)
        self._flush_rows: deque = deque(maxlen=window)
        self._completions: deque = deque()     # (t_end, rows)
        self._utilization = 0.0
        self._last_flush_end: Optional[float] = None
        self._replica_rows: List[int] = []

    # ------------------------------------------------------------------
    def observe_queue_depth(self, rows: int) -> None:
        """Record the pending-row count (called on submit/flush)."""
        with self._lock:
            self._queue_depth = rows
            self._max_queue_depth = max(self._max_queue_depth, rows)

    def record_flush(self, rows: int, n_requests: int, latency_s: float,
                     replica_loads: Optional[Sequence[int]] = None) -> None:
        """Record one completed engine flush.

        ``replica_loads`` is the per-replica row split of this flush;
        cumulative per-replica totals appear in the snapshot's
        ``replica_rows``.
        """
        now = self._clock()
        with self._lock:
            self._flushes += 1
            self._requests += n_requests
            self._rows += rows
            self._last_flush_rows = rows
            self._latencies.append(max(latency_s, 0.0))
            self._flush_rows.append(rows)
            self._completions.append((now, rows))
            self._trim_completions_locked(now)
            if self._last_flush_end is None:
                inst = 1.0
            else:
                idle = now - self._last_flush_end
                if idle > self.throughput_window_s:
                    # Resuming after a drained period: the pre-idle
                    # EWMA is stale (snapshot() already reported 0
                    # during the gap) — restart from drained, or the
                    # first lone request after a hot spell would
                    # read as high utilization and trigger a
                    # spurious scale-up.
                    self._utilization = 0.0
                elapsed = max(idle, latency_s, 1e-9)
                inst = min(1.0, latency_s / elapsed)
            self._utilization += self.ewma_alpha * (inst - self._utilization)
            self._last_flush_end = now
            if replica_loads:
                while len(self._replica_rows) < len(replica_loads):
                    self._replica_rows.append(0)
                for i, load in enumerate(replica_loads):
                    self._replica_rows[i] += int(load)

    def _trim_completions_locked(self, now: float) -> None:
        horizon = now - self.throughput_window_s
        while self._completions and self._completions[0][0] <= horizon:
            self._completions.popleft()

    # ------------------------------------------------------------------
    def p95_latency_s(self) -> float:
        """The current p95 flush latency, without a full snapshot.

        The control plane reads this on every submit (admission) and
        every flush group (adaptive-T); it sorts only the latency
        ring, skipping the snapshot's throughput/utilization work.
        """
        with self._lock:
            return _percentile(sorted(self._latencies), 0.95)

    def snapshot(self) -> MetricsSnapshot:
        """Condense the current state into a :class:`MetricsSnapshot`."""
        now = self._clock()
        with self._lock:
            self._trim_completions_locked(now)
            window_rows = sum(rows for _, rows in self._completions)
            latencies = sorted(self._latencies)
            mean_rows = (sum(self._flush_rows) / len(self._flush_rows)
                         if self._flush_rows else 0.0)
            utilization = self._utilization
            # An idle collector decays toward zero between flushes:
            # scale the EWMA by how stale the last flush is relative
            # to the throughput window, else a drained service would
            # report its last busy reading forever.
            if self._last_flush_end is not None:
                idle = now - self._last_flush_end
                if idle > self.throughput_window_s:
                    utilization = 0.0
            return MetricsSnapshot(
                flushes=self._flushes,
                requests=self._requests,
                rows=self._rows,
                queue_depth=self._queue_depth,
                max_queue_depth=self._max_queue_depth,
                mean_flush_rows=mean_rows,
                last_flush_rows=self._last_flush_rows,
                p50_latency_s=_percentile(latencies, 0.50),
                p95_latency_s=_percentile(latencies, 0.95),
                rows_per_s=window_rows / self.throughput_window_s,
                utilization=utilization,
                replica_rows=tuple(self._replica_rows),
            )
