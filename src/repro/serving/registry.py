"""Multi-tenant model registry for the serving stack.

One serving fleet rarely hosts one model: the same spintronic fabric
serves the SpinDrop classifier, the SpinBayes variant, and the
per-pixel segmenter side by side.  :class:`ModelRegistry` maps a
string model-id to an engine *source* — a zero-arg factory, or a saved
:class:`~repro.cim.snapshot.DeploymentSnapshot` artifact — and hands
live engines to the schedulers on demand:

* **lazy load** — an engine is materialized on first use, not at
  registration; snapshot-backed models rehydrate from disk without
  recompiling (no retraining, no re-programming draws);
* **LRU eviction** — with ``max_loaded`` set, the least recently used
  engines are unloaded once the cap is exceeded; the source is kept,
  so a later request transparently reloads.  An engine evicted while
  a flush still holds a reference finishes that flush normally — the
  registry only drops its own pointer;
* **per-model load metrics** — every model carries its own
  :class:`~repro.serving.metrics.LoadMetrics` collector (fed by the
  schedulers at flush time) plus load/eviction counters, so a mixed
  fleet's per-tenant throughput and latency are separable.

All entry points are thread-safe; loads are serialized under the
registry lock so concurrent submits for a cold model trigger exactly
one load.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from repro.serving.metrics import LoadMetrics


class _ModelEntry:
    """Registered model: its engine source and per-model telemetry."""

    __slots__ = ("model_id", "factory", "feature_shape", "engine",
                 "metrics", "loads", "load_time_s", "snapshot_path")

    def __init__(self, model_id: str, factory: Callable[[], object],
                 feature_shape: Optional[tuple]):
        self.model_id = model_id
        self.factory = factory
        self.feature_shape = feature_shape
        self.engine: Optional[object] = None
        self.metrics = LoadMetrics()
        self.loads = 0
        self.load_time_s = 0.0
        self.snapshot_path: Optional[str] = None


class ModelRegistry:
    """Model-id → engine mapping with lazy load and LRU eviction.

    Parameters
    ----------
    max_loaded:
        Cap on simultaneously materialized engines; ``None`` (default)
        keeps every loaded engine resident.  When the cap is exceeded
        the least recently *used* engine is unloaded (its factory or
        snapshot source stays registered, so it reloads on demand).
    """

    def __init__(self, max_loaded: Optional[int] = None):
        if max_loaded is not None and max_loaded < 1:
            raise ValueError("max_loaded must be positive")
        self.max_loaded = max_loaded
        self._lock = threading.RLock()
        self._entries: Dict[str, _ModelEntry] = {}
        self._loaded: Dict[str, None] = {}      # insertion order = LRU
        self.evictions = 0

    # ------------------------------------------------------------------
    def register(self, model_id: str,
                 factory: Optional[Callable[[], object]] = None, *,
                 snapshot: Optional[str] = None,
                 engine: Optional[object] = None,
                 feature_shape: Optional[tuple] = None) -> None:
        """Register a model under exactly one engine source.

        ``factory`` is a zero-arg callable returning a batched MC
        engine; ``snapshot`` is a path to a saved
        :class:`~repro.cim.snapshot.DeploymentSnapshot` artifact
        (loaded and verified lazily, rehydrated per load); ``engine``
        hands over an already-built engine (counted as one load, and
        re-offered verbatim after an eviction).  ``feature_shape``
        optionally pins the per-sample input shape so schedulers need
        not infer it from the first request.
        """
        sources = [s for s in (factory, snapshot, engine) if s is not None]
        if len(sources) != 1:
            raise ValueError(
                "register exactly one of factory=, snapshot=, engine=")
        if snapshot is not None:
            def factory(path: str = snapshot):
                from repro.cim.snapshot import DeploymentSnapshot
                return DeploymentSnapshot.load(path).build()
        elif engine is not None:
            def factory(prebuilt=engine):
                return prebuilt
        shape = None if feature_shape is None else tuple(feature_shape)
        with self._lock:
            if model_id in self._entries:
                raise ValueError(f"model {model_id!r} already registered")
            entry = _ModelEntry(model_id, factory, shape)
            if snapshot is not None:
                # Remembered verbatim so process-pool workers can boot
                # this model from its artifact (repro.serving.procpool
                # ships the *path* across the process boundary, never
                # the arrays).
                entry.snapshot_path = snapshot
            self._entries[model_id] = entry
            if engine is not None:
                entry.engine = engine
                entry.loads = 1
                self._loaded[model_id] = None
                self._evict_over_cap_locked()

    def unregister(self, model_id: str) -> None:
        """Remove a model entirely (engine, source, and metrics)."""
        with self._lock:
            self._require(model_id)
            del self._entries[model_id]
            self._loaded.pop(model_id, None)

    # ------------------------------------------------------------------
    def engine(self, model_id: str):
        """The live engine for ``model_id`` — loading it if needed.

        Touches the LRU order and applies the ``max_loaded`` cap.
        Loads run under the registry lock, so concurrent callers of a
        cold model wait for (and share) a single load.
        """
        with self._lock:
            entry = self._require(model_id)
            if entry.engine is None:
                t0 = time.perf_counter()
                entry.engine = entry.factory()
                entry.load_time_s += time.perf_counter() - t0
                entry.loads += 1
            self._loaded.pop(model_id, None)
            self._loaded[model_id] = None        # move to LRU tail
            self._evict_over_cap_locked()
            return entry.engine

    def evict(self, model_id: str) -> bool:
        """Unload one model's engine (source kept); True if it was loaded."""
        with self._lock:
            self._require(model_id)
            if model_id not in self._loaded:
                return False
            self._unload_locked(model_id)
            return True

    # ------------------------------------------------------------------
    def feature_shape(self, model_id: str) -> Optional[tuple]:
        with self._lock:
            return self._require(model_id).feature_shape

    def snapshot_path(self, model_id: str) -> Optional[str]:
        """The artifact path a snapshot-registered model boots from
        (``None`` for factory/engine-registered models)."""
        with self._lock:
            return self._require(model_id).snapshot_path

    def metrics(self, model_id: str) -> LoadMetrics:
        """The model's own flush-metrics collector."""
        with self._lock:
            return self._require(model_id).metrics

    def record_flush(self, model_id: str, rows: int, n_requests: int,
                     latency_s: float) -> None:
        """Feed one flush's telemetry into the model's collector
        (called by the schedulers after every per-model group that
        served at least one request)."""
        self.metrics(model_id).record_flush(
            rows=rows, n_requests=n_requests, latency_s=latency_s)

    def stats(self, model_id: str) -> dict:
        """Load/residency counters for one model."""
        with self._lock:
            entry = self._require(model_id)
            return {
                "loaded": entry.engine is not None,
                "loads": entry.loads,
                "load_time_s": entry.load_time_s,
            }

    # ------------------------------------------------------------------
    @property
    def model_ids(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    @property
    def loaded_models(self) -> List[str]:
        """Currently materialized models, least recently used first."""
        with self._lock:
            return list(self._loaded)

    def __contains__(self, model_id: str) -> bool:
        with self._lock:
            return model_id in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def _require(self, model_id: str) -> _ModelEntry:
        try:
            return self._entries[model_id]
        except KeyError:
            raise KeyError(
                f"model {model_id!r} is not registered "
                f"(known: {sorted(self._entries)})") from None

    def _evict_over_cap_locked(self) -> None:
        while self.max_loaded is not None \
                and len(self._loaded) > self.max_loaded:
            self._unload_locked(next(iter(self._loaded)))

    def _unload_locked(self, model_id: str) -> None:
        del self._loaded[model_id]
        self._entries[model_id].engine = None
        self.evictions += 1
