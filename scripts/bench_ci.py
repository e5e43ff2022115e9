"""CI benchmark gate: batched MC inference must beat sequential.

Times T-pass Monte-Carlo inference for FOUR engines — the Table-I
(fast preset) SpinDrop MLP on :class:`BayesianCim`, the subset-VI
teacher deployed as a :class:`SpinBayesNetwork` (N crossbars +
arbiter per layer), the §III-B.2 Bayesian segmenter through the
pass-stacked ``mc_segment`` engine, and the deployed
Spatial-SpinDrop CNN (``cim_conv``: :class:`CimConv2d` crossbars on
the plan-cached, arena-backed, exact-integer conv kernel) — once
through the original sequential per-pass loop and once through the
batched engine.  For each engine it verifies the two paths are
bit-for-bit identical (samples, and ledger totals for the deployed
engines; the segmentation and cim_conv gates additionally check that
a warm engine performs zero im2col index-plan rebuilds, and the warm
batched call of every deployed engine must run at least one
norm→sign readout as a sign fold, recorded as ``sign_folds_warm``, and
the SpinBayes one its first arbiter layer on the pass-invariant rows,
recorded as ``shared_reads_warm``), writes the
measurements to ``BENCH_mc_forward.json``, and exits non-zero if any
batched path is not at least its per-engine minimum speedup faster
(``--min-speedup``, default 3×; the spindrop MLP and the deployed
conv chain gate at ``--spindrop-min-speedup`` /
``--cim-conv-min-speedup``, default 2×, because their sequential
baselines share the same fast kernels — ``CimLinear``'s
exact-integer route serves the per-pass loop too).

Two kernel-substrate gates (``engines.bitpack_mvm`` and
``engines.bitpack_linear``) time the bit-packed XNOR/popcount route
(:mod:`repro.tensor.bitpack`) against the float32 exact-integer route
it shadows, on the memory-bound small-batch × wide-matrix shapes the
packed kernel exists for.  Both verify bit-exactness first — the raw
kernel against the float GEMV, and a :class:`CimLinear` on the route
its policy picks (packed, checked) against the same layer with
``bitpack.packed_route_beneficial`` patched to pick the float route,
including op-ledger totals — and fail below ``--bitpack-min-speedup``
(default 4×).

A serving-level gate replays the same Poisson arrival workload
through a threaded ``BatchScheduler`` replica set (thread-per-client
submitters polling their tickets) and through the asyncio
``AsyncBatchScheduler`` with an ``Autoscaler`` on top, and fails if
the async front-end's throughput regresses below
``--serving-min-ratio`` of the threaded baseline (see
``docs/benchmarks.md``).  A structural ``serving.degradation``
scenario additionally drives a control-plane scheduler through an
injected-latency overload burst and requires adaptive-T shedding to
kick in (served T below requested, floored at ``t_min``), the p95 to
recover under the SLO target once the burst drains, full-T service to
resume, and the under-target control plane to be bit-invisible.

A lifecycle gate (``lifecycle.snapshot_load``) saves a
realistically-sized deployment — the conv family compiled with device
variability and programming defects, the configuration snapshots
exist to freeze — as a :class:`DeploymentSnapshot` and requires
``DeploymentSnapshot.load().build()`` to be at least
``--lifecycle-min-speedup`` (default 5×) faster than a fresh compile,
with the loaded engine verified bit-identical (outputs and ledger
totals) to the engine it was captured from.  A registry-backed
mixed-tenant scenario additionally drives two registered models
through ONE ``BatchScheduler`` fleet and fails unless every row is
accounted to exactly one model's ``LoadMetrics``.

``--compare BASELINE.json`` additionally makes the gate trend-aware:
after the fresh run, every engine speedup (and the serving throughput
ratio) is diffed against the committed baseline record, and the gate
fails if any entry present in both regressed by more than
``--compare-tolerance`` (default 20%) — so a change can pass the
absolute thresholds yet still fail CI by giving back a previously
banked speedup.

Run locally from a source checkout:

    python scripts/bench_ci.py
    python scripts/bench_ci.py --compare BENCH_mc_forward.json

CI runs it as a separate job so a perf regression in the batched
engines fails the build even when all functional tests pass.
"""

import argparse
import contextlib
import json
import os
import sys
import time

try:
    from repro.bayesian import (
        BayesianCim,
        SpinBayesNetwork,
        make_bayesian_segmenter,
        make_spatial_spindrop_cnn,
        make_spindrop_mlp,
        make_subset_vi_mlp,
        mc_segment,
    )
    from repro.cim import CimConfig
    from repro.tensor.functional import conv_plan_cache_stats
except ImportError:  # source checkout without install
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from repro.bayesian import (
        BayesianCim,
        SpinBayesNetwork,
        make_bayesian_segmenter,
        make_spatial_spindrop_cnn,
        make_spindrop_mlp,
        make_subset_vi_mlp,
        mc_segment,
    )
    from repro.cim import CimConfig
    from repro.tensor.functional import conv_plan_cache_stats

# sys.path is fixed up by the block above for source checkouts.
from repro.experiments.report import markdown_table  # noqa: E402
from repro.experiments.trend import (  # noqa: E402
    bench_summary_rows,
    compare_bench_record,
)
from repro.serving import (  # noqa: E402
    AsyncBatchScheduler,
    Autoscaler,
    BatchScheduler,
    ControlPlane,
    LoadMetrics,
    SloPolicy,
)
from repro.serving.faults import SlowEngine  # noqa: E402

import asyncio     # noqa: E402
import threading   # noqa: E402

import numpy as np  # noqa: E402

# Table-I model (fast preset): 256-dim SynthDigits input, (128, 64)
# hidden, 10 classes, SpinDrop after each hidden block.  Like the
# deployed conv chain, its sequential baseline now runs CimLinear's
# exact-integer fast route, so the batched win is pass-stacking +
# prefix memoization alone and the gate is 2x instead of 3x.
IN_FEATURES = 256
HIDDEN = (128, 64)
N_CLASSES = 10
DROPOUT_P = 0.25
BATCH = 12
N_SAMPLES = 20
REPEATS = 5
# SpinBayes serving slice: the batched engine's payoff is the
# low-latency regime where per-pass Python overhead dominates, so the
# gate times a small coalesced batch (the scheduler's common case).
SPINBAYES_BATCH = 4
SPINBAYES_COMPONENTS = 8
SPINBAYES_LEVELS = 16
# Segmentation serving slice: the per-pixel safety-critical use case
# is latency-bound single-image traffic; the ISSUE gate pins T=10 on
# the default segmenter (width 8, p 0.15, 16x16 scenes).
SEG_BATCH = 1
SEG_SIZE = 16
SEG_SAMPLES = 10
# Deployed conv slice: the Spatial-SpinDrop CNN compiled to CimConv2d
# crossbars, T=10 on a small coalesced batch.  Its sequential baseline
# runs the same plan-cached/exact-integer kernels, so the batched win
# is pass-stacking, prefix memoization and the gated conv (the
# dropout-gated conv computes each channel's partial MACs once, not
# per pass) — gated at 2x instead of the software engines' 3x.
CIM_CONV_BATCH = 4
CIM_CONV_SIZE = 16
CIM_CONV_WIDTHS = (8, 16)
CIM_CONV_SAMPLES = 10
# Bit-packed XNOR kernel slice: the packed route's win is the
# memory-bound regime (a small batch of wordline drives against a
# wide packed matrix, 64x less weight traffic).  The raw-kernel gate
# times the widest shape; the layer gate runs a CimLinear on a single
# ideal 4096-row crossbar (so the exact-integer route applies), which
# the route policy packs at batch 2, against the same layer with the
# policy pinned to the float32 route.
BITPACK_MVM_SHAPE = (2, 4096, 4096)       # batch, K, n_cols
BITPACK_LINEAR_SHAPE = (2, 4096, 2048)    # batch, in, out
# Lifecycle slice: snapshot restore vs recompile is only worth gating
# on the deployment snapshots exist to freeze — a non-ideal fabric
# (conductance variability + programming defects) whose compile draws
# a fresh device realization, at production-like widths.  The tiny
# ideal cim_conv preset above compiles in under a millisecond, which
# no verified artifact read can beat.
LIFECYCLE_WIDTHS = (128, 256)
# Serving front-end gate: a fixed Poisson arrival trace replayed once
# through a threaded replica set and once through the async
# front-end (same requests, same engine work).
SERVING_REQUESTS = 160
SERVING_MEAN_GAP_S = 0.0004     # Poisson arrivals, ~0.4 ms mean gap
SERVING_SAMPLES = 24            # deep enough that flushes dominate
SERVING_MAX_BATCH = 32
SERVING_FLUSH_INTERVAL = 0.004
SERVING_REPLICAS = 2            # both front-ends start with this many
SERVING_MAX_REPLICAS = 3        # autoscaler headroom for the async run
SERVING_REPEATS = 3
# Process-pool gate: the same snapshot served by 4 threaded replicas
# vs 4 process-backed replicas (shared-memory row transport) on a
# mixed-tenant-shaped trace — interleaved request sizes and two
# request-T classes, so every flush shards two (model, T) groups.
# Pure-NumPy replicas contend on one GIL when threaded; worker
# processes don't, so the pool must scale with worker count.  The gate
# needs real cores: below PROCPOOL_MIN_CORES it records a skip entry
# (no "speedup" key, which the trend compare ignores) instead of
# measuring scheduler-starved noise.
PROCPOOL_WORKERS = 4
PROCPOOL_MIN_CORES = 4
PROCPOOL_REQUESTS = 24
PROCPOOL_SAMPLES = (16, 24)     # the two tenant T classes
PROCPOOL_REPEATS = 3
# Degradation scenario: an overload burst (injected per-flush delay)
# must push the p95 over the SLO target and trigger adaptive-T
# shedding; once the burst passes, the latency window turns over, p95
# recovers under target, and service returns to the full requested T.
DEGRADATION_TARGET_P95_S = 0.030
DEGRADATION_BURST_DELAY_S = 0.080
DEGRADATION_BURST_FLUSHES = 4
DEGRADATION_SAMPLES = 16
DEGRADATION_T_MIN = 2
DEGRADATION_WINDOW = 8          # latency ring: how fast p95 forgets


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _engine() -> BayesianCim:
    model = make_spindrop_mlp(IN_FEATURES, HIDDEN, N_CLASSES,
                              p=DROPOUT_P, seed=0)
    return BayesianCim(model, CimConfig(seed=0), seed=0)


def _spinbayes_engine() -> SpinBayesNetwork:
    teacher = make_subset_vi_mlp(IN_FEATURES, HIDDEN, N_CLASSES, seed=0)
    return SpinBayesNetwork.from_subset_vi(
        teacher, n_components=SPINBAYES_COMPONENTS,
        n_levels=SPINBAYES_LEVELS, config=CimConfig(seed=0), seed=0)


def _cim_conv_engine() -> BayesianCim:
    model = make_spatial_spindrop_cnn(
        1, CIM_CONV_SIZE, N_CLASSES, p=DROPOUT_P,
        widths=CIM_CONV_WIDTHS, seed=0)
    return BayesianCim(model, CimConfig(seed=0), seed=0)


@contextlib.contextmanager
def _counting_calls(owner, name, when=None):
    """Count the calls of method ``name`` of class ``owner`` made
    inside the block (only those whose arguments ``when`` accepts, if
    given)."""
    real = getattr(owner, name)
    calls = [0]

    def counted(target, *args, **kwargs):
        if when is None or when(target, *args, **kwargs):
            calls[0] += 1
        return real(target, *args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield calls
    finally:
        setattr(owner, name, real)


def _reads_shared_rows(layer, x, selections, rows_per_pass):
    """Whether a ``SpinBayesMvm.forward_banked`` call multiplies the N
    rows all of its passes share (once per selected component)."""
    return len(selections) > 1 and x.shape[0] == rows_per_pass


def _gate_engine(name, make_engine, x, n_samples, min_speedup,
                 check_plan_rebuilds=False, check_conv_paths=False,
                 check_shared_read=False):
    """Equivalence check + timed gate for one engine; returns a record.

    The warm batched call must run at least one norm→sign(→pool) run
    as one threshold compare (a sign fold).  ``check_conv_paths`` also
    requires it to run the Spatial-SpinDrop gate→conv pair as one
    gated conv, and ``check_shared_read`` its first SpinBayes arbiter
    layer on the N pass-invariant rows."""
    check_seq = make_engine()
    check_bat = make_engine()
    check_seq.ledger.reset()
    check_bat.ledger.reset()
    seq_result = check_seq.mc_forward(x, n_samples=n_samples, batched=False)
    bat_result = check_bat.mc_forward_batched(x, n_samples=n_samples)
    if not np.array_equal(seq_result.samples, bat_result.samples):
        print(f"FAIL: {name} batched MC output differs from sequential")
        return None
    if check_seq.ledger.as_dict() != check_bat.ledger.as_dict():
        print(f"FAIL: {name} batched MC ledger differs from sequential")
        return None

    engine = make_engine()
    engine.mc_forward(x[:2], n_samples=2, batched=False)
    engine.mc_forward_batched(x[:2], n_samples=2)
    record = {
        "batch": len(x),
        "n_samples": n_samples,
        "repeats": REPEATS,
        "min_speedup": min_speedup,
        "bit_exact": True,
    }
    from repro.cim.layers import CrossbarGrid, SignFold, SpinBayesMvm

    builds_before = conv_plan_cache_stats()["builds"]
    with _counting_calls(CrossbarGrid, "mvm_gated") as gated, \
            _counting_calls(SignFold, "forward") as folds, \
            _counting_calls(SpinBayesMvm, "forward_banked",
                            _reads_shared_rows) as shared:
        engine.mc_forward_batched(x, n_samples=n_samples)
    if folds[0] == 0:
        print(f"FAIL: warm {name} engine folded no norm→sign readout")
        return None
    record["sign_folds_warm"] = folds[0]
    if check_shared_read:
        if shared[0] == 0:
            print(f"FAIL: warm {name} engine did not read its first "
                  f"arbiter layer once per selected component")
            return None
        record["shared_reads_warm"] = shared[0]
    if check_plan_rebuilds:
        # Warm engines must serve every im2col/pooling geometry from
        # the memoized plan cache: zero index-plan rebuilds from here.
        rebuilds = conv_plan_cache_stats()["builds"] - builds_before
        if rebuilds != 0:
            print(f"FAIL: warm {name} engine rebuilt {rebuilds} "
                  f"im2col index plans (expected 0)")
            return None
        record["plan_rebuilds_warm"] = rebuilds
    if check_conv_paths:
        if gated[0] == 0:
            print(f"FAIL: warm {name} engine did not run its gated "
                  f"conv route")
            return None
        record["gated_conv_calls_warm"] = gated[0]
    seq_s = _best_of(
        lambda: engine.mc_forward(x, n_samples=n_samples, batched=False),
        REPEATS)
    bat_s = _best_of(
        lambda: engine.mc_forward_batched(x, n_samples=n_samples),
        REPEATS)
    record.update({
        "sequential_s": seq_s,
        "batched_s": bat_s,
        "speedup": seq_s / bat_s,
    })
    return record


def _gate_segmentation(min_speedup):
    """Equivalence + plan-cache + timed gate for the segmentation
    engine (software path: no OpLedger; bit-exactness covers probs
    and per-pass samples)."""
    x = np.random.default_rng(2).standard_normal(
        (SEG_BATCH, 1, SEG_SIZE, SEG_SIZE))
    check_seq = make_bayesian_segmenter(seed=0)
    check_bat = make_bayesian_segmenter(seed=0)
    seq_result = mc_segment(check_seq, x, n_samples=SEG_SAMPLES,
                            batched=False)
    bat_result = mc_segment(check_bat, x, n_samples=SEG_SAMPLES)
    if not np.array_equal(seq_result.samples, bat_result.samples):
        print("FAIL: segmentation batched MC output differs from sequential")
        return None
    if not np.array_equal(seq_result.probs, bat_result.probs):
        print("FAIL: segmentation batched MC probs differ from sequential")
        return None

    model = make_bayesian_segmenter(seed=0)
    mc_segment(model, x, n_samples=2, batched=False)
    mc_segment(model, x, n_samples=2)
    # Warm engines must reuse the memoized im2col/pooling plans:
    # zero index-plan rebuilds from here on.
    builds_before = conv_plan_cache_stats()["builds"]
    mc_segment(model, x, n_samples=SEG_SAMPLES)
    plan_rebuilds = conv_plan_cache_stats()["builds"] - builds_before
    if plan_rebuilds != 0:
        print(f"FAIL: warm segmentation engine rebuilt {plan_rebuilds} "
              f"im2col index plans (expected 0)")
        return None

    seq_s = _best_of(
        lambda: mc_segment(model, x, n_samples=SEG_SAMPLES, batched=False),
        REPEATS)
    bat_s = _best_of(
        lambda: mc_segment(model, x, n_samples=SEG_SAMPLES),
        REPEATS)
    return {
        "batch": SEG_BATCH,
        "n_samples": SEG_SAMPLES,
        "repeats": REPEATS,
        "sequential_s": seq_s,
        "batched_s": bat_s,
        "speedup": seq_s / bat_s,
        "min_speedup": min_speedup,
        "bit_exact": True,
        "plan_rebuilds_warm": plan_rebuilds,
        "model": (f"bayesian_segmenter width=8 p=0.15 "
                  f"{SEG_SIZE}x{SEG_SIZE}"),
    }


@contextlib.contextmanager
def _float_route():
    """Pin the crossbar route policy to the float32 GEMM."""
    from repro.tensor import bitpack

    policy = bitpack.packed_route_beneficial
    bitpack.packed_route_beneficial = lambda batch, k, n_cols: False
    try:
        yield
    finally:
        bitpack.packed_route_beneficial = policy


def _gate_bitpack(min_speedup):
    """Bit-exactness + timed gates for the packed XNOR kernel.

    Returns ``(bitpack_mvm, bitpack_linear)`` records, or None on an
    exactness failure.  Weights are packed outside the timed region,
    as in deployment: a crossbar packs once, on its first packed MVM.
    """
    from repro.cim import OpLedger
    from repro.cim.layers import CimLinear
    from repro.tensor import bitpack

    rng = np.random.default_rng(11)

    # Raw kernel vs the float32 GEMV it replaces.
    b, k, c = BITPACK_MVM_SHAPE
    x = np.sign(rng.standard_normal((b, k)))
    x[x == 0] = 1.0
    x[rng.random((b, k)) < 0.1] = 0.0       # some gated wordlines
    w = np.sign(rng.standard_normal((k, c)))
    w[w == 0] = 1.0
    w32_t = np.ascontiguousarray(w.T.astype(np.float32))
    packed_w = bitpack.pack_weights(w)
    x32 = x.astype(np.float32)
    ref = x32 @ w32_t.T
    got = bitpack.packed_mvm(bitpack.pack_ternary_rows(x), packed_w)
    if not np.array_equal(ref, got):
        print("FAIL: packed XNOR kernel differs from the float GEMV")
        return None
    float_s = _best_of(lambda: x32 @ w32_t.T, REPEATS)
    packed_s = _best_of(
        lambda: bitpack.packed_mvm(bitpack.pack_ternary_rows(x), packed_w),
        REPEATS)
    mvm_record = {
        "batch": b,
        "k": k,
        "n_cols": c,
        "repeats": REPEATS,
        "sequential_s": float_s,
        "batched_s": packed_s,
        "speedup": float_s / packed_s,
        "min_speedup": min_speedup,
        "bit_exact": True,
        "popcount_backend": bitpack.popcount_backend(),
        "model": f"packed_mvm {b}x{k} @ {k}x{c} vs float32 GEMV",
    }

    # A deployed CimLinear on the route its policy picks (packed) vs
    # pinned to the float route: same outputs bit-for-bit, same ledger
    # totals, gated speedup.
    b, k, c = BITPACK_LINEAR_SHAPE
    w = np.sign(rng.standard_normal((c, k)))
    w[w == 0] = 1.0
    layer = CimLinear(w, None, None,
                      CimConfig(seed=0, max_rows=k, max_cols=c),
                      OpLedger())
    layer.ledger.reset()            # drop programming's mtj_write entries
    x = np.sign(rng.standard_normal((b, k)))
    x[x == 0] = 1.0
    with _float_route():
        float_out = layer.forward(x)
    float_ledger = layer.ledger.as_dict()
    layer.ledger.reset()
    packed_out = layer.forward(x)           # also warms the packed cache
    packed_ledger = layer.ledger.as_dict()
    if layer.grid.bars[0][0]._w_packed_t is None:
        print("FAIL: the route policy did not pack the CimLinear layer")
        return None
    if not np.array_equal(float_out, packed_out):
        print("FAIL: CimLinear packed route differs from the float route")
        return None
    if float_ledger != packed_ledger:
        print("FAIL: CimLinear packed route books different ledger totals")
        return None
    packed_s = _best_of(lambda: layer.forward(x), REPEATS)
    with _float_route():
        float_s = _best_of(lambda: layer.forward(x), REPEATS)
    linear_record = {
        "batch": b,
        "k": k,
        "n_cols": c,
        "repeats": REPEATS,
        "sequential_s": float_s,
        "batched_s": packed_s,
        "speedup": float_s / packed_s,
        "min_speedup": min_speedup,
        "bit_exact": True,
        "popcount_backend": bitpack.popcount_backend(),
        "model": f"CimLinear {k}->{c} batch {b} policy-packed "
                 "vs float exact route",
    }
    return mvm_record, linear_record


def _lifecycle_engine() -> BayesianCim:
    """The deployment the snapshot gate measures: the conv family
    compiled onto a non-ideal fabric.  Every compile draws a fresh
    device realization (conductance spread + programming defects) —
    exactly the state a snapshot exists to freeze."""
    from repro.devices.defects import DefectModel, DefectRates
    from repro.devices.variability import DeviceVariability, VariabilityParams

    model = make_spatial_spindrop_cnn(
        1, CIM_CONV_SIZE, N_CLASSES, p=DROPOUT_P,
        widths=LIFECYCLE_WIDTHS, seed=0)
    config = CimConfig(
        seed=0,
        variability=DeviceVariability(VariabilityParams(),
                                      rng=np.random.default_rng(0)),
        defects=DefectModel(DefectRates(), rng=np.random.default_rng(1)))
    return BayesianCim(model, config, seed=0)


def _gate_lifecycle(min_speedup):
    """Snapshot-load vs fresh-compile gate on a realistic deployment.

    Compiling draws a new device realization every time; loading a
    snapshot must restore the *same* realization (bit-identical
    outputs and ledger totals) and do it at least ``min_speedup``×
    faster than the compile it replaces.
    """
    import tempfile

    from repro.cim.snapshot import DeploymentSnapshot

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snap")
        original = _lifecycle_engine()
        DeploymentSnapshot.capture(original).save(path)

        x = np.random.default_rng(5).standard_normal(
            (CIM_CONV_BATCH, 1, CIM_CONV_SIZE, CIM_CONV_SIZE))
        loaded = DeploymentSnapshot.load(path).build()
        expected = original.mc_forward_batched(x, n_samples=4)
        actual = loaded.mc_forward_batched(x, n_samples=4)
        if not np.array_equal(expected.samples, actual.samples):
            print("FAIL: snapshot-loaded engine output differs from "
                  "the captured engine")
            return None
        if original.ledger.as_dict() != loaded.ledger.as_dict():
            print("FAIL: snapshot-loaded engine ledger differs from "
                  "the captured engine")
            return None

        compile_s = _best_of(_lifecycle_engine, REPEATS)
        load_s = _best_of(
            lambda: DeploymentSnapshot.load(path).build(), REPEATS)
        artifact_bytes = sum(
            os.path.getsize(os.path.join(path, name))
            for name in os.listdir(path))
    return {
        "repeats": REPEATS,
        # sequential/batched naming keeps the generic engine-gate
        # reporting and the trend compare working unchanged: the
        # "sequential" path is the compile the snapshot replaces.
        "sequential_s": compile_s,
        "batched_s": load_s,
        "speedup": compile_s / load_s,
        "min_speedup": min_speedup,
        "bit_exact": True,
        "artifact_bytes": artifact_bytes,
        "model": (f"spatial_spindrop_cnn widths="
                  f"{'-'.join(map(str, LIFECYCLE_WIDTHS))} "
                  "variability+defects: snapshot load vs fresh compile"),
    }


def _gate_mixed_tenant():
    """One scheduler fleet, two registered models, full accounting.

    Replays an interleaved two-tenant trace through a single
    registry-backed ``BatchScheduler`` and verifies every submitted
    row lands in exactly one model's ``LoadMetrics``.  Returns the
    scenario record, or None on an accounting failure.
    """
    from repro.serving import BatchScheduler, ModelRegistry

    rng = np.random.default_rng(7)
    registry = ModelRegistry()
    registry.register("spindrop", _engine, feature_shape=(IN_FEATURES,))
    registry.register("spinbayes", _spinbayes_engine,
                      feature_shape=(IN_FEATURES,))
    models = ["spindrop" if i % 3 else "spinbayes" for i in range(24)]
    xs = [rng.standard_normal((int(n), IN_FEATURES))
          for n in rng.integers(1, 4, len(models))]
    total_rows = int(sum(x.shape[0] for x in xs))

    scheduler = BatchScheduler(registry=registry, n_samples=8,
                               max_batch=SERVING_MAX_BATCH,
                               flush_interval=None)
    # Warm both tenants so the timed replay measures serving, not the
    # one-off lazy compiles (those are the lifecycle gate's subject).
    for model_id in ("spindrop", "spinbayes"):
        registry.engine(model_id)
    t0 = time.perf_counter()
    tickets = [scheduler.submit(x, model=model)
               for x, model in zip(xs, models)]
    scheduler.flush()
    results = [t.result() for t in tickets]
    elapsed = time.perf_counter() - t0

    for x, result in zip(xs, results):
        if result.probs.shape[0] != x.shape[0]:
            print("FAIL: mixed-tenant serving returned a wrong-shaped "
                  "result")
            return None
    per_model = {}
    for model_id in ("spindrop", "spinbayes"):
        snap = registry.metrics(model_id).snapshot()
        per_model[model_id] = {"rows": snap.rows,
                               "flushes": snap.flushes,
                               "requests": snap.requests}
    accounted = sum(entry["rows"] for entry in per_model.values())
    if accounted != total_rows:
        print(f"FAIL: mixed-tenant metrics account for {accounted} rows, "
              f"{total_rows} were submitted")
        return None
    return {
        "requests": len(xs),
        "rows": total_rows,
        "n_samples": 8,
        "elapsed_s": elapsed,
        "rows_per_s": total_rows / elapsed,
        "per_model": per_model,
        "workload": "interleaved two-tenant trace, one scheduler fleet",
    }


def _serving_trace(seed: int = 3):
    """Fixed Poisson workload: arrival offsets + request payloads."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(SERVING_MEAN_GAP_S,
                                         SERVING_REQUESTS))
    rows = rng.integers(1, 4, SERVING_REQUESTS)
    xs = [rng.standard_normal((int(n), IN_FEATURES)) for n in rows]
    return arrivals, xs


def _warm(engine) -> None:
    engine.mc_forward_batched(np.zeros((2, IN_FEATURES)), n_samples=2)


def _run_threaded_serving(arrivals, xs) -> float:
    """Thread-per-client replay over a threaded BatchScheduler fleet.

    Each client sleeps until its arrival offset, submits, and polls
    its ticket (``result()`` would force a flush and defeat the
    deadline batching a sync service relies on).  Returns the wall
    seconds from the first arrival to the last resolved result.
    """
    engines = [_engine() for _ in range(SERVING_REPLICAS)]
    for engine in engines:
        _warm(engine)
    errors = []
    with BatchScheduler(engines, n_samples=SERVING_SAMPLES,
                        max_batch=SERVING_MAX_BATCH,
                        flush_interval=SERVING_FLUSH_INTERVAL) as sched:
        start = time.perf_counter()

        def client(i):
            try:
                delay = arrivals[i] - (time.perf_counter() - start)
                if delay > 0:
                    time.sleep(delay)
                ticket = sched.submit(xs[i])
                while not ticket.done():
                    time.sleep(0.0002)
                ticket.result()
            except Exception as exc:    # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def _run_async_serving(arrivals, xs):
    """Coroutine-per-client replay over the async front-end with a
    replica autoscaler (same starting replicas as the threaded
    baseline, headroom to SERVING_MAX_REPLICAS).  Returns (wall
    seconds, final replica count, scale-ups)."""
    engines = [_engine() for _ in range(SERVING_REPLICAS)]
    for engine in engines:
        _warm(engine)

    async def go():
        sharded = BatchScheduler(engines, n_samples=SERVING_SAMPLES,
                                 max_batch=SERVING_MAX_BATCH)
        try:
            return await run_workload(sharded)
        finally:
            sharded.close()     # shard pools don't outlive the run

    async def run_workload(sharded):
        metrics = LoadMetrics()
        scaler = Autoscaler(
            sharded, _engine, metrics=metrics,
            min_replicas=SERVING_REPLICAS,
            max_replicas=SERVING_MAX_REPLICAS,
            scale_up_utilization=0.5, scale_down_utilization=0.1,
            # Enough pre-warmed spares that no engine is ever built
            # mid-run (construction would steal GIL from the flushes).
            warm_spares=SERVING_MAX_REPLICAS - SERVING_REPLICAS + 1)
        for spare in scaler._spares:
            _warm(spare)
        async with AsyncBatchScheduler(
                sharded, flush_interval=SERVING_FLUSH_INTERVAL,
                metrics=metrics, autoscaler=scaler) as frontend:
            start = time.perf_counter()

            async def client(i):
                delay = arrivals[i] - (time.perf_counter() - start)
                if delay > 0:
                    await asyncio.sleep(delay)
                await frontend.predict(xs[i])

            await asyncio.gather(*[client(i) for i in range(len(xs))])
            elapsed = time.perf_counter() - start
        return elapsed, sharded.n_replicas, scaler.scale_ups

    return asyncio.run(go())


def _gate_serving(min_ratio):
    """Async front-end must not regress below the threaded baseline."""
    arrivals, xs = _serving_trace()
    total_rows = int(sum(x.shape[0] for x in xs))
    threaded_s = min(_run_threaded_serving(arrivals, xs)
                     for _ in range(SERVING_REPEATS))
    best_async = None
    for _ in range(SERVING_REPEATS):
        run = _run_async_serving(arrivals, xs)
        if best_async is None or run[0] < best_async[0]:
            best_async = run
    async_s, replicas, ups = best_async
    return {
        "requests": SERVING_REQUESTS,
        "rows": total_rows,
        "n_samples": SERVING_SAMPLES,
        "mean_gap_s": SERVING_MEAN_GAP_S,
        "max_batch": SERVING_MAX_BATCH,
        "flush_interval_s": SERVING_FLUSH_INTERVAL,
        "repeats": SERVING_REPEATS,
        "threaded_replicas": SERVING_REPLICAS,
        "threaded_s": threaded_s,
        "threaded_rows_per_s": total_rows / threaded_s,
        "async_s": async_s,
        "async_rows_per_s": total_rows / async_s,
        "async_final_replicas": replicas,
        "async_scale_ups": ups,
        "throughput_ratio": threaded_s / async_s,
        "min_ratio": min_ratio,
        "workload": "poisson thread-per-client vs coroutine-per-client",
    }


def _gate_procpool(min_speedup):
    """Process-backed replica pool vs threaded sharding, same snapshot.

    Serves a mixed-tenant-shaped trace (interleaved request sizes, two
    request-T classes) through a 4-replica threaded ``BatchScheduler``
    and through a 4-worker ``ProcReplicaPool`` under the same
    scheduler, after verifying the two transports resolve bit-identical
    samples.  Fails below ``min_speedup``; on hosts with fewer than
    ``PROCPOOL_MIN_CORES`` usable cores it returns a skip entry without
    a ``"speedup"`` key (the trend compare skips such entries, so a
    laptop re-bank never erases the banked datacenter number).
    """
    cores = os.cpu_count() or 1
    model_desc = (f"spindrop_mlp {IN_FEATURES}-"
                  f"{'-'.join(map(str, HIDDEN))}-{N_CLASSES}: "
                  f"{PROCPOOL_WORKERS} proc workers vs "
                  f"{PROCPOOL_WORKERS} threaded replicas, "
                  "mixed-tenant trace")
    if cores < PROCPOOL_MIN_CORES:
        return {
            "min_speedup": min_speedup,
            "workers": PROCPOOL_WORKERS,
            "cpu_count": cores,
            "skipped": (f"needs >= {PROCPOOL_MIN_CORES} cores for a "
                        f"meaningful scaling measurement, host has "
                        f"{cores}"),
            "model": model_desc,
        }

    import tempfile

    from repro.cim.snapshot import DeploymentSnapshot
    from repro.serving.procpool import ProcReplicaPool

    rng = np.random.default_rng(11)
    sizes = rng.integers(1, 5, PROCPOOL_REQUESTS)
    xs = [rng.standard_normal((int(n), IN_FEATURES)) for n in sizes]
    ts = [PROCPOOL_SAMPLES[i % 2] for i in range(PROCPOOL_REQUESTS)]
    total_rows = int(sum(x.shape[0] for x in xs))

    def replay(scheduler):
        tickets = [scheduler.submit(x, n_samples=t)
                   for x, t in zip(xs, ts)]
        scheduler.flush()
        return [ticket.result().samples for ticket in tickets]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snap")
        engine = _engine()
        _warm(engine)
        DeploymentSnapshot.capture(engine).save(path)
        snapshot = DeploymentSnapshot.load(path)

        with ProcReplicaPool.from_snapshot(
                path, workers=PROCPOOL_WORKERS) as pool:
            # Bit-exactness first: fresh equally-positioned replicas on
            # both transports must resolve identical tickets.
            check = BatchScheduler(
                [snapshot.build() for _ in range(PROCPOOL_WORKERS)],
                max_batch=4 * SERVING_MAX_BATCH)
            expected = replay(check)
            check.close()
            pooled = BatchScheduler(pool.replicas,
                                    max_batch=4 * SERVING_MAX_BATCH)
            actual = replay(pooled)
            for want, got in zip(expected, actual):
                if not np.array_equal(want, got):
                    print("FAIL: procpool serving is not bit-identical "
                          "to threaded sharding")
                    pooled.close()
                    return None

            # Timed replays: same scheduler reused across repeats (the
            # engines keep consuming their streams; work per repeat is
            # identical in shape and cost).
            threaded = BatchScheduler(
                [snapshot.build() for _ in range(PROCPOOL_WORKERS)],
                max_batch=4 * SERVING_MAX_BATCH)
            replay(threaded)                         # warm both paths
            threaded_s = _best_of(lambda: replay(threaded),
                                  PROCPOOL_REPEATS)
            threaded.close()
            proc_s = _best_of(lambda: replay(pooled), PROCPOOL_REPEATS)
            pooled.close()
            transport = dict(pool.stats)

    return {
        "repeats": PROCPOOL_REPEATS,
        "workers": PROCPOOL_WORKERS,
        "cpu_count": cores,
        "requests": PROCPOOL_REQUESTS,
        "rows": total_rows,
        "n_samples": list(PROCPOOL_SAMPLES),
        # sequential/batched naming keeps the generic engine-gate
        # reporting and trend compare working: "sequential" is the
        # GIL-bound threaded baseline the pool replaces.
        "sequential_s": threaded_s,
        "batched_s": proc_s,
        "speedup": threaded_s / proc_s,
        "min_speedup": min_speedup,
        "bit_exact": True,
        "transport": transport,
        "model": model_desc,
    }


def _gate_degradation():
    """Overload burst -> adaptive-T shedding -> full-T recovery.

    Structural serving gate (pass/fail on behaviour, not speed): a
    control-plane scheduler serves through an injected-latency burst,
    and the gate requires (1) degradation actually triggered during
    the burst — results flagged, served T below requested, never below
    ``t_min``; (2) after the burst the p95 recovers under the SLO
    target and service returns to the full requested T, undegraded;
    (3) with the p95 under target the control plane is invisible —
    full-T results bit-identical to a plain scheduler under the same
    seed.  Returns the scenario record, or None on failure.
    """
    rng = np.random.default_rng(9)

    def burst_delay(call):
        return (DEGRADATION_BURST_DELAY_S
                if call < DEGRADATION_BURST_FLUSHES else 0.0)

    inner = _engine()
    _warm(inner)
    metrics = LoadMetrics(window=DEGRADATION_WINDOW)
    plane = ControlPlane(
        slo=SloPolicy(DEGRADATION_TARGET_P95_S, t_min=DEGRADATION_T_MIN),
        metrics=metrics)
    scheduler = BatchScheduler(SlowEngine(inner, delay_s=burst_delay),
                               n_samples=DEGRADATION_SAMPLES,
                               max_batch=1024, controlplane=plane)

    served_ts = []
    degraded_flags = []
    for _ in range(DEGRADATION_BURST_FLUSHES):
        ticket = scheduler.submit(rng.standard_normal((2, IN_FEATURES)))
        scheduler.flush()
        result = ticket.result()
        served_ts.append(result.served_samples)
        degraded_flags.append(result.degraded)
    burst_p95 = metrics.p95_latency_s()
    if not any(degraded_flags):
        print("FAIL: degradation scenario: the overload burst never "
              "triggered adaptive-T shedding")
        return None
    if min(served_ts) < DEGRADATION_T_MIN:
        print(f"FAIL: degradation scenario: served T fell below "
              f"t_min={DEGRADATION_T_MIN}")
        return None

    # Burst over: fast flushes turn the latency window over until the
    # p95 drops back under target (bounded, so a broken recovery path
    # fails the gate instead of hanging it).
    recovery_flushes = 0
    while metrics.p95_latency_s() > DEGRADATION_TARGET_P95_S \
            and recovery_flushes < 4 * DEGRADATION_WINDOW:
        ticket = scheduler.submit(rng.standard_normal((2, IN_FEATURES)))
        scheduler.flush()
        ticket.result()
        recovery_flushes += 1
    recovered_p95 = metrics.p95_latency_s()
    final = scheduler.submit(rng.standard_normal((2, IN_FEATURES)))
    scheduler.flush()
    final_result = final.result()
    if recovered_p95 > DEGRADATION_TARGET_P95_S:
        print(f"FAIL: degradation scenario: p95 "
              f"{recovered_p95 * 1e3:.1f} ms never recovered under the "
              f"{DEGRADATION_TARGET_P95_S * 1e3:.1f} ms target")
        return None
    if final_result.degraded \
            or final_result.served_samples != DEGRADATION_SAMPLES:
        print("FAIL: degradation scenario: full T was not restored "
              "after the p95 recovered")
        return None

    # Under-target control plane must be invisible: bit-identical to a
    # plain scheduler under the same seed.
    x = rng.standard_normal((3, IN_FEATURES))
    plain = BatchScheduler(_engine(), n_samples=8, max_batch=1024)
    governed = BatchScheduler(
        _engine(), n_samples=8, max_batch=1024,
        controlplane=ControlPlane(slo=SloPolicy(target_p95_s=1000.0)))
    plain_ticket, governed_ticket = plain.submit(x), governed.submit(x)
    plain.flush()
    governed.flush()
    if not np.array_equal(plain_ticket.result().samples,
                          governed_ticket.result().samples):
        print("FAIL: degradation scenario: an undegraded control-plane "
              "scheduler is not bit-identical to a plain one")
        return None

    return {
        "target_p95_s": DEGRADATION_TARGET_P95_S,
        "n_samples": DEGRADATION_SAMPLES,
        "t_min": DEGRADATION_T_MIN,
        "burst_flushes": DEGRADATION_BURST_FLUSHES,
        "burst_delay_s": DEGRADATION_BURST_DELAY_S,
        "burst_p95_s": burst_p95,
        "degraded_flushes": scheduler.stats.degraded_flushes,
        "min_served_t": int(min(served_ts)),
        "shed_passes": plane.slo.shed_passes,
        "recovery_flushes": recovery_flushes,
        "recovered_p95_s": recovered_p95,
        "recovery_ratio": DEGRADATION_TARGET_P95_S / recovered_p95,
        "full_t_restored": True,
        "bit_exact_full_t": True,
        "workload": "injected-latency overload burst, then drain",
    }


def _compare_with_baseline(record, baseline_path, tolerance):
    """Trend gate against a committed baseline record.

    The compare/tolerance logic lives in the shared
    :mod:`repro.experiments.trend` module (the quality gate reuses
    it); this wrapper only loads the baseline file and, on CI,
    publishes the banked-vs-fresh table to the job summary.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = compare_bench_record(record, baseline, tolerance)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        table = markdown_table(
            ["engine", "banked", "fresh", "ratio of banked"],
            bench_summary_rows(record, baseline))
        verdict = ("❌ speed trend gate FAILED" if failures
                   else "✅ speed trend gate passed")
        with open(summary_path, "a", encoding="utf-8") as fh:
            fh.write(f"### Speed bench vs banked {baseline_path}\n\n"
                     f"{table}\n{verdict}\n")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-speedup", type=float,
                        default=float(os.environ.get("BENCH_MIN_SPEEDUP", 3.0)),
                        help="fail if batched/sequential speedup is below "
                             "this (default 3.0, env BENCH_MIN_SPEEDUP)")
    parser.add_argument("--spindrop-min-speedup", type=float,
                        default=float(os.environ.get(
                            "BENCH_SPINDROP_MIN_SPEEDUP", 2.0)),
                        help="gate for the spindrop MLP, whose sequential "
                             "baseline runs CimLinear's exact-integer fast "
                             "route (default 2.0, env "
                             "BENCH_SPINDROP_MIN_SPEEDUP)")
    parser.add_argument("--cim-conv-min-speedup", type=float,
                        default=float(os.environ.get(
                            "BENCH_CIM_CONV_MIN_SPEEDUP", 2.0)),
                        help="gate for the deployed conv chain, whose "
                             "sequential baseline shares the fast kernels "
                             "(default 2.0, env BENCH_CIM_CONV_MIN_SPEEDUP)")
    parser.add_argument("--bitpack-min-speedup", type=float,
                        default=float(os.environ.get(
                            "BENCH_BITPACK_MIN_SPEEDUP", 4.0)),
                        help="gate for the bit-packed XNOR kernel vs the "
                             "float32 exact route on its memory-bound "
                             "serving shapes (default 4.0, env "
                             "BENCH_BITPACK_MIN_SPEEDUP)")
    parser.add_argument("--lifecycle-min-speedup", type=float,
                        default=float(os.environ.get(
                            "BENCH_LIFECYCLE_MIN_SPEEDUP", 5.0)),
                        help="fail if loading a deployment snapshot is not "
                             "at least this much faster than a fresh "
                             "compile (default 5.0, env "
                             "BENCH_LIFECYCLE_MIN_SPEEDUP)")
    parser.add_argument("--procpool-min-speedup", type=float,
                        default=float(os.environ.get(
                            "BENCH_PROCPOOL_MIN_SPEEDUP", 2.5)),
                        help="fail if the 4-worker process-backed replica "
                             "pool is not at least this much faster than "
                             "4 threaded replicas on the mixed-tenant "
                             "trace; skipped (not failed) below "
                             f"{PROCPOOL_MIN_CORES} cores (default 2.5, "
                             "env BENCH_PROCPOOL_MIN_SPEEDUP)")
    parser.add_argument("--serving-min-ratio", type=float,
                        default=float(os.environ.get(
                            "BENCH_SERVING_MIN_RATIO", 0.9)),
                        help="fail if async serving throughput falls below "
                             "this fraction of the threaded baseline "
                             "(default 0.9, env BENCH_SERVING_MIN_RATIO)")
    parser.add_argument("--compare", metavar="BASELINE", default=None,
                        help="also diff the fresh run against this committed "
                             "benchmark record and fail on any "
                             "speedup-ratio regression beyond "
                             "--compare-tolerance")
    parser.add_argument("--compare-tolerance", type=float,
                        default=float(os.environ.get(
                            "BENCH_COMPARE_TOLERANCE", 0.20)),
                        help="maximum tolerated fractional regression vs "
                             "the --compare baseline (default 0.20)")
    parser.add_argument("--out", default="BENCH_mc_forward.json",
                        help="where to write the benchmark record")
    parser.add_argument("--samples", type=int, default=N_SAMPLES)
    parser.add_argument("--batch", type=int, default=BATCH)
    args = parser.parse_args()

    rng = np.random.default_rng(1)
    x = rng.standard_normal((args.batch, IN_FEATURES))
    x_spin = rng.standard_normal((SPINBAYES_BATCH, IN_FEATURES))
    x_conv = rng.standard_normal((CIM_CONV_BATCH, 1,
                                  CIM_CONV_SIZE, CIM_CONV_SIZE))

    # Correctness guard before timing: seeded batched output must match
    # the sequential loop bit-for-bit, with identical ledger totals.
    spindrop = _gate_engine("spindrop", _engine, x, args.samples,
                            args.spindrop_min_speedup)
    if spindrop is None:
        return 1
    spinbayes = _gate_engine("spinbayes", _spinbayes_engine, x_spin,
                             args.samples, args.min_speedup,
                             check_shared_read=True)
    if spinbayes is None:
        return 1
    segmentation = _gate_segmentation(args.min_speedup)
    if segmentation is None:
        return 1
    cim_conv = _gate_engine("cim_conv", _cim_conv_engine, x_conv,
                            CIM_CONV_SAMPLES, args.cim_conv_min_speedup,
                            check_plan_rebuilds=True,
                            check_conv_paths=True)
    if cim_conv is None:
        return 1
    spindrop["model"] = (f"spindrop_mlp {IN_FEATURES}-"
                         f"{'-'.join(map(str, HIDDEN))}-{N_CLASSES}")
    spinbayes["model"] = (f"spinbayes {IN_FEATURES}-"
                          f"{'-'.join(map(str, HIDDEN))}-{N_CLASSES} "
                          f"N={SPINBAYES_COMPONENTS} "
                          f"levels={SPINBAYES_LEVELS}")
    cim_conv["model"] = (f"spatial_spindrop_cnn deployed "
                         f"{CIM_CONV_SIZE}x{CIM_CONV_SIZE} widths="
                         f"{'-'.join(map(str, CIM_CONV_WIDTHS))}")

    bitpack_gates = _gate_bitpack(args.bitpack_min_speedup)
    if bitpack_gates is None:
        return 1
    bitpack_mvm, bitpack_linear = bitpack_gates

    lifecycle = _gate_lifecycle(args.lifecycle_min_speedup)
    if lifecycle is None:
        return 1

    procpool = _gate_procpool(args.procpool_min_speedup)
    if procpool is None:
        return 1

    serving = _gate_serving(args.serving_min_ratio)
    mixed_tenant = _gate_mixed_tenant()
    if mixed_tenant is None:
        return 1
    degradation = _gate_degradation()
    if degradation is None:
        return 1

    # Top-level keys keep the PR-1 layout (the SpinDrop engine);
    # per-engine sections carry the speedup gates (including the
    # lifecycle snapshot-load gate), and the serving section the
    # front-end comparison plus the mixed-tenant scenario.
    record = dict(spindrop)
    record["engines"] = {"spindrop": spindrop, "spinbayes": spinbayes,
                         "segmentation": segmentation, "cim_conv": cim_conv,
                         "bitpack_mvm": bitpack_mvm,
                         "bitpack_linear": bitpack_linear,
                         "lifecycle.snapshot_load": lifecycle,
                         "procpool": procpool}
    record["serving"] = serving
    record["serving"]["mixed_tenant"] = mixed_tenant
    record["serving"]["degradation"] = degradation
    record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    compare_failures = []
    if args.compare:
        compare_failures = _compare_with_baseline(
            record, args.compare, args.compare_tolerance)

    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    failed = False
    for name, entry in record["engines"].items():
        if "speedup" not in entry:
            # A hardware-skipped gate (e.g. procpool below its core
            # floor) records its reason and neither prints timings nor
            # gates — the trend compare skips it the same way.
            reason = entry.get("skipped", "no measurement")
            print(f"[{name}] SKIPPED: {reason}")
            continue
        gate = entry["min_speedup"]
        print(f"[{name}] sequential: {entry['sequential_s'] * 1e3:8.2f} ms")
        print(f"[{name}] batched:    {entry['batched_s'] * 1e3:8.2f} ms")
        print(f"[{name}] speedup:    {entry['speedup']:8.2f}x  "
              f"(gate: >= {gate}x)")
        if entry["speedup"] < gate:
            print(f"FAIL: {name} batched engine below the {gate}x gate")
            failed = True
    print(f"[mixed-tenant] {mixed_tenant['rows_per_s']:8.0f} rows/s over "
          f"{len(mixed_tenant['per_model'])} registered models "
          f"(all {mixed_tenant['rows']} rows accounted)")
    print(f"[serving] threaded:   {serving['threaded_rows_per_s']:8.0f} "
          f"rows/s ({SERVING_REPLICAS} replicas)")
    print(f"[serving] async:      {serving['async_rows_per_s']:8.0f} "
          f"rows/s (autoscaled to {serving['async_final_replicas']})")
    print(f"[serving] ratio:      {serving['throughput_ratio']:8.2f}x  "
          f"(gate: >= {args.serving_min_ratio}x)")
    if serving["throughput_ratio"] < args.serving_min_ratio:
        print(f"FAIL: async serving throughput below "
              f"{args.serving_min_ratio}x of the threaded baseline")
        failed = True
    print(f"[degradation] burst p95 {degradation['burst_p95_s'] * 1e3:.1f} "
          f"ms -> served T down to {degradation['min_served_t']} "
          f"({degradation['shed_passes']} passes shed)")
    print(f"[degradation] recovered p95 "
          f"{degradation['recovered_p95_s'] * 1e3:.1f} ms under the "
          f"{degradation['target_p95_s'] * 1e3:.1f} ms target after "
          f"{degradation['recovery_flushes']} flushes; full T restored")
    for message in compare_failures:
        print(f"FAIL: {message}")
        failed = True
    print(f"record written to {args.out}")
    if failed:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
