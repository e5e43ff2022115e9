"""In-memory span tracer around the public calls into each layer.

The benchmark measures its end-to-end numbers untraced; a traced run
patches the entry points listed by :func:`layer_points` with wrappers
that record one span per call: ``(id, parent, name, thread, start,
end, attrs)``.  Spans live in per-thread buffers (appending needs no
lock), the parent is the innermost open span on the same thread, and
:meth:`Tracer.uninstall` restores every original attribute.  A span's
*self time* is its duration minus the durations of its children.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np


def _rows(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return {"rows": int(np.shape(x)[0])}


def _group(args, kwargs, result):
    return {"xs": [id(r.x) for r in args[1]]}


def _flushed(args, kwargs, result):
    # BatchScheduler._flush_locked returns the requests it resolved;
    # AsyncBatchScheduler._run_flush receives its batch as an argument.
    if isinstance(result, int):
        return {"requests": result}
    return {"requests": len(args[1]) if len(args) > 1 else 0}


def layer_points():
    """``(owner, attribute, span name, attrs)`` for every traced call.

    Imported lazily so that loading this module pulls in nothing from
    the program under test.
    """
    from repro.bayesian.deploy import BayesianCim
    from repro.bayesian.spinbayes import SpinBayesNetwork
    from repro.cim import layers as cim_layers
    from repro.cim.adc import PopcountADC
    from repro.cim.crossbar import XnorCrossbar
    from repro.cim.snapshot import DeploymentSnapshot
    from repro.devices.rng import SpintronicRNG
    from repro.serving.async_frontend import AsyncBatchScheduler
    from repro.serving.procpool import ProcReplica, ProcReplicaPool
    from repro.serving.scheduler import BatchScheduler
    from repro.tensor import bitpack

    return [
        # repro.serving
        (BatchScheduler, "_flush_locked", "serving.flush", _flushed),
        (AsyncBatchScheduler, "_run_flush", "serving.flush", _flushed),
        (BatchScheduler, "_serve_group", "serving.group", _group),
        (ProcReplica, "mc_forward_batched", "procpool.call", _rows),
        (ProcReplicaPool, "_spawn_worker", "setup.spawn", None),
        # repro.bayesian
        (BayesianCim, "mc_forward_batched", "engine.call", _rows),
        (SpinBayesNetwork, "mc_forward_batched", "engine.call", _rows),
        # repro.devices
        (SpintronicRNG, "generate", "devices.rng", None),
        # repro.cim
        (cim_layers.CimLinear, "forward", "cim.linear", None),
        (cim_layers.CimConv2d, "forward", "cim.conv", None),
        (PopcountADC, "convert", "cim.adc", None),
        (XnorCrossbar, "mvm_packed", "cim.mvm_packed", None),
        (XnorCrossbar, "book_mvm", "cim.book_mvm", None),
        (XnorCrossbar, "mvm_prepared", "cim.mvm_analog", None),
        (XnorCrossbar, "mvm_cols", "cim.mvm_analog", None),
        (bitpack, "packed_route_beneficial", "cim.route_check", None),
        (DeploymentSnapshot, "load", "setup.snapshot_load", None),
        (DeploymentSnapshot, "build", "setup.build", None),
        # repro.tensor (the im2col gather is looked up through the
        # cim.layers namespace, so that is where it is patched)
        (bitpack, "packed_mvm", "tensor.packed_mvm", None),
        (cim_layers, "_gather_padded_patches", "tensor.im2col", None),
    ]


class Tracer:
    """Thread-safe span recorder that patches and restores entry points."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: List[list] = []
        self._buffers_lock = threading.Lock()
        self._patched: List[tuple] = []

    # -- recording -----------------------------------------------------
    def _open(self):
        state = getattr(self._local, "state", None)
        if state is None:
            buffer: list = []
            with self._buffers_lock:
                self._buffers.append(buffer)
            state = self._local.state = ([], buffer)
        stack, buffer = state
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return stack, buffer, sid, parent

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs: Optional[Callable] = None):
        stack, buffer, sid, parent = self._open()
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            buffer.append((sid, parent, name, threading.get_ident(),
                           start, end, extra))

    def span(self, name: str) -> "_Span":
        """Context manager recording one span from the benchmark's own
        code (its calls into the serving front-end)."""
        return _Span(self, name)

    def drain(self) -> List[tuple]:
        """Remove and return every recorded span, sorted by start."""
        with self._buffers_lock:
            spans = []
            for buffer in self._buffers:
                spans.extend(buffer)
                buffer.clear()
        spans.sort(key=lambda s: s[4])
        return spans

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        for owner, attr, name, attrs in layer_points():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, attrs))
            else:
                wrapped = self._wrap(raw, name, attrs)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn: Callable, name: str, attrs):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, attrs)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self.attrs: Dict[str, object] = {}

    def __enter__(self) -> "_Span":
        self._stack, self._buffer, self._sid, self._parent = \
            self._tracer._open()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._buffer.append((self._sid, self._parent, self._name,
                             threading.get_ident(), self._start, end,
                             self.attrs))


# ----------------------------------------------------------------------
# Aggregation and dump
# ----------------------------------------------------------------------
def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its child spans."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


def dump(spans: List[tuple], path: str) -> None:
    """Write spans as column arrays (``.npz``): compact even for the
    few hundred thousand spans a traced run records."""
    names = sorted({s[2] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    np.savez_compressed(
        path,
        names=np.array(names),
        id=np.array([s[0] for s in spans], dtype=np.int64),
        parent=np.array([s[1] for s in spans], dtype=np.int64),
        name=np.array([index[s[2]] for s in spans], dtype=np.int32),
        thread=np.array([s[3] for s in spans], dtype=np.uint64),
        start=np.array([s[4] for s in spans], dtype=np.float64),
        end=np.array([s[5] for s in spans], dtype=np.float64))
