"""Serving benchmark: end-to-end latency and throughput, or per-layer traces.

    python3 perfbench/run.py --workload mlp-threads-open --seed 1 \\
        --seconds 15 --trace 0

A run builds the workload's deployment and saves it as
``DeploymentSnapshot`` copies (outside every timed region), replays a
fixed slice of the trace through the backend and through an in-process
sequential reference (bit-identical samples and ledger totals
required), times ``serve()`` set-up, warms the service up, then loads
it for ``--seconds``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of a traced run, with the
tracing overhead measured against an untraced phase of the same run.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run also appends a
record stamped with the host configuration to
``perfbench/out/results.jsonl`` (see ``compare.py``); traced runs dump
their spans to ``perfbench/out/spans-<workload>-seed<seed>.npz``.
``README.md`` beside this file describes the workloads and metrics.
"""

import os

# Pin the BLAS/OpenMP pools before NumPy loads; worker processes
# inherit the environment.  With OpenBLAS's default threading on a
# 2-core host a 4-row T=20 SpinDrop call takes a median 8.0 ms, with
# one thread 0.55 ms.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

WARM_SECONDS = 1.0
# Set-up is timed at least SETUP_ROUNDS times and, while the rounds
# take under SETUP_BUDGET_S in total, up to SETUP_MAX_ROUNDS times: a
# few-millisecond in-process set-up needs many rounds for a steady
# median, a worker-spawning one does not.
SETUP_ROUNDS = 5
SETUP_MAX_ROUNDS = 25
SETUP_BUDGET_S = 1.0
# Latency and throughput are medians over up to this many consecutive
# slices of a phase, so a burst of contention on the shared host moves
# one slice, not the reported number.
WINDOWS = 20
# An open-loop run whose generator sent its p99 request later than
# this could not follow its schedule and did not offer the load it
# claims: it is reported as not correct.  (Contention on a shared
# 2-core host delays single sends by tens of milliseconds.)
MAX_GEN_LAG_MS = 250.0
LEDGER_OPS = ("crossbar_cell_access", "dac_drive", "adc_conversion",
              "rng_cycle", "digital_mac", "digital_op", "sram_read")

END_TO_END = {
    "setup_s": "s",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "sat_rows_per_s": "rows/s",
    "sim_energy_nj_per_row": "nJ",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "serving.submit_us_p99": "us",
    "serving.queue_wait_ms_p50": "ms",
    "serving.queue_wait_ms_p99": "ms",
    "serving.rows_per_call": "rows",
    "serving.calls_per_flush": "calls",
    "procpool.call_ms_p50": "ms",
    "procpool.shm_requests": "count",
    "procpool.pipe_fallbacks": "count",
    "engine.call_ms_p50": "ms",
    "engine.busy_share": "fraction",
    "devices.rng_calls_per_call": "count/call",
    "devices.rng_ms_per_call": "ms/call",
    "cim.linear_self_ms": "ms/call",
    "cim.conv_self_ms": "ms/call",
    "cim.adc_ms": "ms/call",
    "cim.route.packed": "count/call",
    "cim.route.f32": "count/call",
    "cim.route.analog": "count/call",
    "cim.route_checks": "count/call",
    "tensor.plan_builds_warm": "count",
    "tensor.packed_mvm_ms": "ms/call",
    "tensor.im2col_ms": "ms/call",
    "setup.snapshot_load_ms": "ms",
    "setup.build_ms": "ms",
    "setup.spawn_ms": "ms",
    **{f"ledger.{op}_per_row": "ops/row" for op in LEDGER_OPS},
    "bench.gen_lag_ms_p99": "ms",
    "bench.trace_overhead": "fraction",
    "bench.error_rate": "fraction",
}


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def windowed_percentile(values, q: float) -> float:
    """Median over consecutive slices of their q-th percentile: up to
    ``WINDOWS`` slices of at least 500 samples each."""
    windows = min(WINDOWS, max(1, len(values) // 500))
    chunks = np.array_split(np.asarray(values), windows)
    return float(np.median([np.percentile(c, q) for c in chunks]))


def windowed_rows_per_s(phase: workloads.Phase) -> float:
    """Median over ``WINDOWS`` consecutive slices of the phase's
    completions of the rows completed per second."""
    times = np.array([t for t, _ in phase.done])
    rows = np.array([n for _, n in phase.done])
    rates = [rows[idx[1:]].sum() / (times[idx[-1]] - times[idx[0]])
             for idx in np.array_split(np.arange(len(times)), WINDOWS)
             if len(idx) > 1 and times[idx[-1]] > times[idx[0]]]
    return float(np.median(rates))


def import_program() -> None:
    """Import the checkout's own package; refuse an installed copy."""
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(
            f"perfbench: repro resolves to {repro.__file__}, not to {SRC}")


def host_stamp() -> dict:
    """The host configuration every result is stamped with."""
    from repro.tensor import bitpack

    blas, threads = "unknown", int(os.environ["OPENBLAS_NUM_THREADS"])
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {}).get("name", blas)
    else:
        pools = [p for p in threadpool_info() if p.get("user_api") == "blas"]
        if pools:
            blas = f"{pools[0]['internal_api']} {pools[0]['version']}"
            threads = pools[0]["num_threads"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "popcount_backend": bitpack.popcount_backend(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live worker
    processes, in MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                kib += next(int(line.split()[1]) for line in fh
                            if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            pass
    return kib * 1024 / 1e6


def energy_nj_per_row(exact: workloads.Exactness) -> float:
    """The replay's ledger delta priced by the energy model, per row."""
    from repro.cim.ledger import OpLedger
    from repro.energy import price_ledger

    ledger = OpLedger()
    ledger.counts.update(exact.ledger_delta)
    joules, _ = price_ledger(ledger)
    return joules * 1e9 / exact.rows


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the procs backend
    starts, so that no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


@dataclasses.dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    valid: bool
    notes: list


class Run:
    """One measurement of one workload at one seed."""

    def __init__(self, workload: workloads.Workload, seed: int,
                 seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        has_open = workload.open_rate is not None
        if traced:
            # An untraced closed loop (the overhead baseline), the same
            # closed loop traced, then the traced open loop.
            self.open_s = 0.4 * seconds if has_open else 0.0
            self.closed_s = (seconds - self.open_s) / 2
        else:
            self.open_s = 0.6 * seconds if has_open else 0.0
            self.closed_s = seconds - self.open_s
        self.short = seconds < 5          # a smoke run sets up once
        self.trace = workloads.Trace(workload, seed, self.open_s)
        self.tracer = tracing.Tracer() if traced else None
        self.traced_wall_s = 0.0

    def execute(self) -> Outcome:
        from repro.cim.snapshot import DeploymentSnapshot
        from repro.tensor.functional import conv_plan_cache_stats

        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
        client = None
        try:
            snapshot = DeploymentSnapshot.capture(
                workloads.build_engine(self.workload.model))
            snapshot.save(os.path.join(workdir, "replay"))
            exact = workloads.check_exact(
                self.workload, os.path.join(workdir, "replay"),
                self.trace.replay)
            client, setup_s, setup_spans = self._setup(snapshot, workdir)
            workloads.closed_loop(client, self.trace, WARM_SECONDS,
                                  self.workload.window)
            builds = conv_plan_cache_stats()["builds"]
            phases, spans, pool_delta = self._load(client)
            plan_builds = conv_plan_cache_stats()["builds"] - builds
            rss = peak_rss_mb()
        finally:
            if client is not None:
                client.close()
            shutil.rmtree(workdir, ignore_errors=True)

        attempted = exact.requests + sum(p.attempted for p in phases.values())
        failed = (exact.mismatches + (not exact.ledgers_equal)
                  + sum(p.failed for p in phases.values()))
        opened = phases.get("open")
        lag = percentile(opened.lags_ms, 99) if opened else 0.0
        valid = lag <= MAX_GEN_LAG_MS
        notes = [f"replay: {exact.requests} requests, {exact.mismatches} "
                 f"mismatched, ledgers "
                 f"{'equal' if exact.ledgers_equal else 'DIFFER'}"]
        for name, phase in phases.items():
            notes.append(
                f"{name} phase: {phase.attempted} requests, {phase.failed} "
                f"failed, {phase.rows} rows in {phase.seconds:.2f} s, "
                f"{len(phase.latencies_ms)} latencies")
        if opened:
            notes.append(f"generator lag p99 {lag:.3f} ms (limit "
                         f"{MAX_GEN_LAG_MS} ms)"
                         + ("" if valid else ": run INVALID"))
        notes.append(f"error_rate {failed}/{attempted}")

        if self.tracer is None:
            latencies = (opened or phases["closed"]).latencies_ms
            metrics = {
                "setup_s": statistics.median(setup_s),
                "lat_p50_ms": windowed_percentile(latencies, 50),
                "lat_p99_ms": windowed_percentile(latencies, 99),
                "sat_rows_per_s": windowed_rows_per_s(phases["closed"]),
                "sim_energy_nj_per_row": energy_nj_per_row(exact),
                "peak_rss_mb": rss,
            }
        else:
            tracing.dump(
                [s for round_spans in setup_spans for s in round_spans]
                + spans,
                os.path.join(OUT, f"spans-{self.workload.name}"
                                  f"-seed{self.seed}.npz"))
            metrics = self._layer_metrics(spans, phases, pool_delta,
                                          setup_spans, exact)
            metrics["tensor.plan_builds_warm"] = plan_builds
            metrics["bench.error_rate"] = failed / attempted
        return Outcome(metrics, attempted, failed, valid, notes)

    # ------------------------------------------------------------------
    def _setup(self, snapshot, workdir: str):
        """``serve()`` through the first warm result, once per round.

        Every round serves its own freshly saved copy of the snapshot
        (saved outside the timed region), so no round reuses a load an
        earlier one verified.  Returns the last client (it serves the
        load), the set-up times and, when traced, each round's spans.
        """
        from repro.tensor.functional import clear_conv_plan_cache

        times, rounds = [], []
        client = None
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
        try:
            while not times or not self.short and (
                    len(times) < SETUP_ROUNDS
                    or (sum(times) < SETUP_BUDGET_S
                        and len(times) < SETUP_MAX_ROUNDS)):
                if client is not None:
                    client.close()
                    client = None
                    gc.collect()        # outside the next timed round
                path = os.path.join(workdir, f"setup{len(times)}")
                snapshot.save(path)
                clear_conv_plan_cache()
                if tracer is not None:
                    tracer.drain()
                first = self.trace.request(0)
                start = time.perf_counter()
                client = workloads.open_client(self.workload, path)
                result = client.force(client.submit(first))
                times.append(time.perf_counter() - start)
                if not workloads.result_ok(result, first):
                    raise RuntimeError("the first result after set-up is "
                                       "malformed")
                if tracer is not None:
                    rounds.append(tracer.drain())
        except BaseException:
            if client is not None:
                client.close()
            raise
        finally:
            if tracer is not None:
                tracer.uninstall()
        return client, times, rounds

    def _load(self, client):
        """The timed phases; returns them with the traced spans and the
        procpool transport counters moved while tracing."""
        w, trace, tracer = self.workload, self.trace, self.tracer
        phases = {}
        if tracer is None:
            if self.open_s:
                phases["open"] = workloads.open_loop(client, trace)
            phases["closed"] = workloads.closed_loop(
                client, trace, self.closed_s, w.window)
            return phases, [], {}
        phases["baseline"] = workloads.closed_loop(
            client, trace, self.closed_s, w.window)
        pool = getattr(client.frontend, "pool", None)
        before = dict(pool.stats) if pool is not None else {}
        tracer.install()
        start = time.perf_counter()
        try:
            phases["closed"] = workloads.closed_loop(
                client, trace, self.closed_s, w.window, tracer)
            if self.open_s:
                phases["open"] = workloads.open_loop(client, trace, tracer)
        finally:
            tracer.uninstall()
        self.traced_wall_s = time.perf_counter() - start
        after = dict(pool.stats) if pool is not None else {}
        delta = {key: after[key] - before.get(key, 0) for key in after}
        return phases, tracer.drain(), delta

    def _layer_metrics(self, spans, phases, pool_delta, setup_spans,
                       exact) -> dict:
        by_name = collections.defaultdict(list)
        for span in spans:
            by_name[span[2]].append(span)
        own = tracing.self_times(spans)
        name_of = {span[0]: span[2] for span in spans}

        def ms(span):
            return (span[5] - span[4]) * 1e3

        def total_ms(name):
            return sum(ms(s) for s in by_name[name])

        engine_calls = by_name["engine.call"]
        replica_calls = engine_calls or by_name["procpool.call"]
        n_calls = len(engine_calls)

        def per_call(value):
            return value / n_calls if n_calls else 0.0

        def self_ms(name):
            return per_call(sum(own[s[0]] for s in by_name[name]) * 1e3)

        flushes = sum(1 for s in by_name["serving.flush"]
                      if s[6]["requests"])
        submitted = {s[6]["x"]: s[5] for s in by_name["serving.submit"]}
        waits = [(group[4] - submitted[x]) * 1e3
                 for group in by_name["serving.group"]
                 for x in group[6]["xs"] if x in submitted]
        f32 = sum(1 for s in by_name["cim.book_mvm"]
                  if name_of.get(s[1]) not in ("cim.mvm_packed",
                                               "cim.mvm_analog"))
        engine_ms = self.traced_wall_s * 1e3 * self.workload.engines
        metrics = {
            "serving.submit_us_p99": percentile(
                [ms(s) * 1e3 for s in by_name["serving.submit"]], 99),
            "serving.queue_wait_ms_p50": percentile(waits, 50),
            "serving.queue_wait_ms_p99": percentile(waits, 99),
            "serving.rows_per_call": float(np.mean(
                [s[6]["rows"] for s in replica_calls]))
            if replica_calls else 0.0,
            "serving.calls_per_flush":
                len(replica_calls) / flushes if flushes else 0.0,
            "procpool.call_ms_p50": percentile(
                [ms(s) for s in by_name["procpool.call"]], 50),
            "procpool.shm_requests": int(pool_delta.get("shm_requests", 0)),
            "procpool.pipe_fallbacks": int(
                pool_delta.get("pipe_fallbacks", 0)),
            "engine.call_ms_p50": percentile(
                [ms(s) for s in engine_calls], 50),
            "engine.busy_share": total_ms("engine.call") / engine_ms,
            "devices.rng_calls_per_call": per_call(
                len(by_name["devices.rng"])),
            "devices.rng_ms_per_call": per_call(total_ms("devices.rng")),
            "cim.linear_self_ms": self_ms("cim.linear"),
            "cim.conv_self_ms": self_ms("cim.conv"),
            "cim.adc_ms": per_call(total_ms("cim.adc")),
            "cim.route.packed": per_call(len(by_name["cim.mvm_packed"])),
            "cim.route.f32": per_call(f32),
            "cim.route.analog": per_call(len(by_name["cim.mvm_analog"])),
            "cim.route_checks": per_call(len(by_name["cim.route_check"])),
            "tensor.packed_mvm_ms": per_call(total_ms("tensor.packed_mvm")),
            "tensor.im2col_ms": per_call(total_ms("tensor.im2col")),
        }
        for metric, span_name in (
                ("setup.snapshot_load_ms", "setup.snapshot_load"),
                ("setup.build_ms", "setup.build"),
                ("setup.spawn_ms", "setup.spawn")):
            metrics[metric] = statistics.median(
                sum(ms(s) for s in round_spans if s[2] == span_name)
                for round_spans in setup_spans)
        for op in LEDGER_OPS:
            metrics[f"ledger.{op}_per_row"] = \
                exact.ledger_delta.get(op, 0) / exact.rows
        opened = phases.get("open")
        metrics["bench.gen_lag_ms_p99"] = (
            percentile(opened.lags_ms, 99) if opened else 0.0)
        traced = phases["closed"].rows_per_s
        metrics["bench.trace_overhead"] = (
            phases["baseline"].rows_per_s / traced - 1.0 if traced else 0.0)
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_program()
    stamp = host_stamp()
    print("host " + json.dumps(stamp, sort_keys=True), flush=True)

    workload = workloads.WORKLOADS[args.workload]
    try:
        outcome = Run(workload, args.seed, args.seconds,
                      bool(args.trace)).execute()
    finally:
        stop_resource_tracker()

    for note in outcome.notes:
        print(note)
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name} {outcome.metrics[name]!r} {unit}")
    result = {
        "correct": outcome.failed == 0 and outcome.valid,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=stamp,
                  utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    with open(os.path.join(OUT, "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
