"""The repo benchmark: one closed-loop caller driving ``WsqEngine``.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads: ``table1``, ``overhead_floor``, ``warm_cache``, ``local_sql``
(see ``perfbench/README.md``).  Every knob stays at its default; the
program gets only the generated SQL and tables.  With ``--trace 0`` the
last line of output is the JSON result with the end-to-end metrics; with
``--trace 1`` the run is split into an untraced half and a traced half,
and the result carries the per-layer metrics instead.  Any wrong result
or broken workload guard makes the exit code 1.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: ``table1``'s sync pass: instances per template (each costs 0.2-0.7 s).
SYNC_PASS_INSTANCES = 2

#: Attribution check: layer self times must add up to the measured query
#: wall time within this share of it plus this much per query.
ATTRIBUTION_REL_TOL = 0.02
ATTRIBUTION_ABS_TOL_MS = 0.05

DEFAULT = None  # the engine's default execution mode (asynchronous)
SYNC = "sync"


def _pin_to_one_cpu():
    """Run the whole process on one CPU; returns that CPU or None.

    At default knobs the engine's only second thread is the request
    pump's event loop, and the GIL lets one of the two run at a time, so
    one CPU takes no parallelism from it.  What pinning removes is the
    cross-CPU wake-up on every hand-off between the query thread and the
    pump: on a shared virtual machine that wake-up costs whatever the
    neighbours make it cost, and it spread async latencies far more than
    sync ones.  Threads started later inherit the affinity.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _load_program():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            "perfbench: no program sources at src/repro; run from a full checkout\n"
        )
        sys.exit(2)
    # Every knob at its default: drop process-wide overrides.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        print("ignoring environment override {}={}".format(key, os.environ.pop(key)))
    sys.path.insert(0, SRC)


def percentile(values, q):
    """Linear-interpolated percentile *q* in [0, 100] of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Run:
    """One workload run: the engine, its oracle and the collected samples."""

    def __init__(self, workload, inputs, engine, w):
        self.workload = workload
        self.inputs = inputs
        self.engine = engine
        self.w = w  # the perfbench.workloads module
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.next_op = 0
        self.reference = None
        self.mirror = None
        if workload == "local_sql":
            self.mirror = w.SqliteMirror(inputs.tables)
        else:
            self.reference = w.template_reference(engine.web, inputs.pool)

    def close(self):
        if self.mirror is not None:
            self.mirror.close()

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    # -- one operation --------------------------------------------------------

    def _timed(self, function, *args, **kwargs):
        started = time.perf_counter()
        result = function(*args, **kwargs)
        return result, (time.perf_counter() - started) * 1000.0

    def _check_select(self, op, mode, rows, expected):
        self.attempted += 1
        if self.reference is not None:
            ok = Counter(rows) == expected
        else:
            ok = self.w.rows_match(rows, expected, op.ordered)
        if not ok:
            self.fail("wrong result ({} mode) for: {}".format(mode or "default", op.sql))

    def select(self, op, mode, expected):
        """Run one SELECT in *mode*; returns (ms, rows) or None on error."""
        cache = self.engine.cache
        if self.workload == "overhead_floor":
            cache.clear()
            hits, misses = cache.hits, cache.misses
        try:
            result, ms = self._timed(self.engine.execute, op.sql, **_mode_kwargs(mode))
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            self.attempted += 1
            self.fail("{}: {} for: {}".format(type(exc).__name__, exc, op.sql))
            return None
        self._check_select(op, mode, result.rows, expected)
        if self.workload == "overhead_floor":
            # The cache was emptied, so no call may hit an entry an
            # earlier query stored: every key misses exactly once.  Async
            # dedups repeated calls; sync may hit a key stored earlier in
            # the same query (Template 3 repeats the Google call per AV row).
            new_hits, new_misses = cache.hits - hits, cache.misses - misses
            if new_misses != len(cache) or (mode is DEFAULT and new_hits):
                self.problems.append(
                    "overhead_floor cache guard: {} hits, {} misses, {} keys".format(
                        new_hits, new_misses, len(cache)
                    )
                )
        return ms, len(result.rows)

    def write(self, op):
        """Run one INSERT/DELETE pair on engine and mirror; returns ms."""
        self.attempted += 1
        try:
            (inserted, deleted), ms = self._timed(
                lambda: (self.engine.run(op.sql), self.engine.run(op.delete_sql))
            )
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            self.fail("{}: {} for: {}".format(type(exc).__name__, exc, op.sql))
            return None
        mirrored = (self.mirror.write(op.sql), self.mirror.write(op.delete_sql))
        got = (inserted.rows[0][0], deleted.rows[0][0])
        if got != ("inserted 1 rows", "deleted 1 rows") or mirrored != (1, 1):
            self.fail("write pair gave {} (sqlite {}): {} / {}".format(
                got, mirrored, op.sql, op.delete_sql))
        return ms

    # -- the closed loop --------------------------------------------------------

    def loop(self, seconds, samples):
        """Run whole cycles of the mix until *seconds* have passed; appends
        to the *samples* lists.  Stopping only between cycles gives every
        call the same mix of operations, so calls can be compared."""
        modes = (DEFAULT,) if self.workload == "table1" else (DEFAULT, SYNC)
        ops = self.inputs.ops
        cycle = self.inputs.cycle
        started = time.perf_counter()
        while True:
            if self.next_op >= len(ops) and not self.inputs.replayable:
                self.problems.append("operation stream exhausted; raise LOCAL_STREAM_LENGTH")
                break
            op = ops[self.next_op % len(ops)]
            if op.kind == "write":
                ms = self.write(op)
                if ms is not None:
                    samples["write"].append(ms)
            else:
                if self.mirror is not None:
                    expected = self.mirror.select(op.sql)
                else:
                    expected = self.reference[op.sql]
                order = modes if self.next_op % 2 == 0 else modes[::-1]
                for mode in order:
                    measured = self.select(op, mode, expected)
                    if measured is not None:
                        key = "default" if mode is DEFAULT else "sync"
                        samples[key].append(measured[0])
                        samples["rows"] += measured[1]
                        samples["by_sql"].setdefault((key, op.sql), []).append(
                            measured[0]
                        )
            self.next_op += 1
            if self.next_op % cycle == 0 and time.perf_counter() - started >= seconds:
                break
        samples["seconds"] += time.perf_counter() - started


def _mode_kwargs(mode):
    return {} if mode is DEFAULT else {"mode": mode}


def new_samples():
    return {"default": [], "sync": [], "write": [], "rows": 0, "by_sql": {}, "seconds": 0.0}


# -- set-up ---------------------------------------------------------------------


def set_up(workload, inputs, salt, w, tracing):
    """Build the engine SETUP_REPEATS times; returns (engine, times, index_s)."""
    times, index_times = [], []
    engine = None
    if workload == "local_sql":
        w.prepare_local()
    for _ in range(SETUP_REPEATS):
        engine = None
        gc.collect()
        built_before = sum(tracing.durations("storage.index_build")) if tracing else 0.0
        started = time.perf_counter()
        if workload == "local_sql":
            engine = w.local_engine(inputs.tables)
        else:
            engine = w.template_engine(workload, salt, inputs.pool)
        times.append(time.perf_counter() - started)
        if tracing is not None:
            index_times.append(sum(tracing.durations("storage.index_build")) - built_before)
    return engine, times, index_times


# -- metrics --------------------------------------------------------------------


def best_latencies(samples, key):
    """One latency per distinct query run in mode *key*: the best of its
    repetitions in the run, as ``timeit`` reports the best of its repeats.

    On a shared virtual machine the share of the CPU a process gets
    swings by up to 1.5x in phases of 10-30 s, which moves every
    latency, sync or async, by the same factor.  Every distinct query
    repeats throughout the run, so its best repetition falls in the
    fastest phase the run saw, and that is set by the program.  The
    timed metrics are computed over these per-query latencies; the run
    also prints the plain percentiles over all samples.
    """
    return [min(values) for (mode, _), values in samples["by_sql"].items() if mode == key]


def end_to_end(samples, setup_times):
    default = best_latencies(samples, "default")
    sync = best_latencies(samples, "sync")
    return {
        "query_ms_p50": (percentile(default, 50), "ms"),
        "query_ms_p95": (percentile(default, 95), "ms"),
        "queries_per_s": (1000.0 / statistics.fmean(default), "1/s"),
        "sync_ms_p50": (percentile(sync, 50), "ms"),
        "sync_ms_p95": (percentile(sync, 95), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


class Counters:
    """Program counters read before and after the traced phase."""

    def __init__(self, engine, kernel_stats):
        metrics = engine.pump.metrics
        queue = metrics.histograms_named("request.queue_wait_seconds")
        batches = metrics.histograms_named("batch.rows")
        kernels = kernel_stats()
        buffers = engine.database.buffer_stats()
        cache = engine.cache
        pump = engine.pump.stats.snapshot()
        self.values = {
            "pump_" + key: pump[key]
            for key in ("registered", "completed", "failed", "cancelled")
        }
        self.values.update({
            "queue_wait_s": sum(h.total for h in queue),
            "queue_waits": sum(h.count for h in queue),
            "batch_rows": sum(h.total for h in batches),
            "batches": sum(h.count for h in batches),
            "kernel_invoked": kernels["invoked"],
            "kernel_compiled": kernels["compiled"],
            "rules_fired": sum(c.value for c in metrics.counters_named("planner.rules_fired")),
            "requests_sent": sum(c.requests_sent for c in engine.clients.values()),
            "cache_hits": cache.hits if cache is not None else 0,
            "cache_misses": cache.misses if cache is not None else 0,
            "buffer_hits": buffers["hits"],
            "buffer_misses": buffers["misses"],
            "evictions": buffers["evictions"],
        })

    def __sub__(self, before):
        return {key: value - before.values[key] for key, value in self.values.items()}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(tracing, samples, untraced, delta, in_flight_max, index_times):
    queries = len(samples["default"]) + len(samples["sync"])
    async_queries = len(samples["default"])
    statements = queries + 2 * len(samples["write"])
    own = tracing.self_times(threading.main_thread().ident)
    calls = tracing.calls.get("asynciter.register", 0)

    def per_query(name, count=queries):
        return 1000.0 * _ratio(own.get(name, 0.0), count)

    return {
        "sql.parse_ms": (per_query("sql.parse"), "ms"),
        "plan.bind_ms": (per_query("plan.bind"), "ms"),
        "plan.optimize_ms": (per_query("plan.optimize"), "ms"),
        "plan.lower_ms": (per_query("plan.lower"), "ms"),
        "plan.rules_fired_per_query": (_ratio(delta["rules_fired"], queries), "count"),
        "asynciter.rewrite_ms": (per_query("asynciter.rewrite", async_queries), "ms"),
        "asynciter.register_us_per_call": (
            1e6 * _ratio(own.get("asynciter.register", 0.0), calls), "us"),
        "asynciter.calls_per_query": (_ratio(calls, async_queries), "count"),
        "asynciter.queue_wait_ms": (
            1000.0 * _ratio(delta["queue_wait_s"], delta["queue_waits"]), "ms"),
        "asynciter.in_flight_max": (in_flight_max, "count"),
        "asynciter.reqsync_ms": (per_query("asynciter.reqsync", async_queries), "ms"),
        "web.service_us_per_call": (1e6 * _mean(tracing.durations("web.service")), "us"),
        "web.requests_per_query": (_ratio(delta["requests_sent"], queries), "count"),
        "web.cache_hit_ratio": (
            _ratio(delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
            "ratio"),
        "web.cache_lookup_us": (1e6 * _mean(tracing.durations("web.cache_lookup")), "us"),
        "web.cache_store_us": (1e6 * _mean(tracing.durations("web.cache_store")), "us"),
        "exec.drain_self_ms": (per_query("exec.drain"), "ms"),
        "exec.rows_out_per_query": (_ratio(samples["rows"], queries), "count"),
        "relational.kernel_invoked_per_query": (
            _ratio(delta["kernel_invoked"], queries), "count"),
        "relational.kernel_compile_ratio": (
            _ratio(delta["kernel_compiled"], delta["kernel_invoked"]), "ratio"),
        "relational.rows_per_batch": (_ratio(delta["batch_rows"], delta["batches"]), "count"),
        "storage.buffer_hit_ratio": (
            _ratio(delta["buffer_hits"], delta["buffer_hits"] + delta["buffer_misses"]),
            "ratio"),
        "storage.pages_read_per_query": (_ratio(delta["buffer_misses"], statements), "count"),
        "storage.evictions_per_query": (_ratio(delta["evictions"], statements), "count"),
        "storage.index_build_s": (statistics.median(index_times), "s"),
        "storage.write_ms_p50": (
            percentile(untraced["write"], 50) if untraced["write"] else 0.0, "ms"),
        "wsq.unattributed_ms": (per_query("wsq.query"), "ms"),
        "obs.trace_overhead_frac": (
            percentile(samples["default"], 50) / percentile(untraced["default"], 50) - 1.0,
            "ratio"),
    }


def attribution_problem(tracing, samples):
    """None when the layer self times add up to the measured query wall."""
    nesting = tracing.check_nesting()
    if nesting is not None:
        return nesting
    own = tracing.self_times(threading.main_thread().ident)
    attributed = 1000.0 * sum(own.values())
    measured = sum(samples["default"]) + sum(samples["sync"])
    queries = len(samples["default"]) + len(samples["sync"])
    tolerance = ATTRIBUTION_REL_TOL * measured + ATTRIBUTION_ABS_TOL_MS * queries
    print(
        "attribution: layer self times {:.3f} ms vs measured query wall {:.3f} ms "
        "over {} queries (tolerance {:.3f} ms)".format(
            attributed, measured, queries, tolerance
        )
    )
    if abs(attributed - measured) > tolerance:
        return "layer self times do not add up to the query wall time"
    return None


# -- main -------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cpu = _pin_to_one_cpu()
    _load_program()
    sys.path.insert(0, HERE)
    import layers
    import workloads as w
    from repro.relational.expr import kernel_stats

    if args.workload not in w.WORKLOADS:
        sys.stderr.write("perfbench: unknown workload {!r}; expected one of {}\n".format(
            args.workload, ", ".join(w.WORKLOADS)))
        return 2
    print("perfbench workload={} seed={} seconds={} trace={} cpu={}".format(
        args.workload, args.seed, args.seconds, args.trace, cpu))

    inputs = w.generate(args.workload, args.seed)
    digest = inputs.digest()
    if w.generate(args.workload, args.seed).digest() != digest:
        sys.stderr.write("perfbench: input generation is not deterministic\n")
        return 1
    print("inputs sha256={} ({} operations, {} distinct selects, tables: {})".format(
        digest, len(inputs.ops), len({op.sql for op in inputs.ops if op.kind == "select"}),
        ", ".join("{} {} rows".format(n, len(r)) for n, (_, r) in sorted(inputs.tables.items()))
        or "paper datasets"))

    setup_tracing = layers.Tracing() if args.trace else None
    if setup_tracing is not None:
        setup_tracing.install_setup()
    try:
        # The seed salts table1's simulated latency: the only seed-derived knob.
        engine, setup_times, index_times = set_up(
            args.workload, inputs, args.seed, w, setup_tracing
        )
    finally:
        if setup_tracing is not None:
            setup_tracing.uninstall()
    print("setup_s each: {}".format(", ".join("{:.3f}".format(t) for t in setup_times)))

    run = Run(args.workload, inputs, engine, w)
    try:
        _warm_up(run)
        _freeze_set_up_heap()
        if args.trace:
            result = _traced(run, args, layers.Tracing(), index_times, kernel_stats)
        else:
            result = _untraced(run, args, setup_times)
    finally:
        run.close()
        engine.pump.shutdown()
    for problem in run.problems[:10]:
        print("PROBLEM: {}".format(problem))
    if len(run.problems) > 10:
        print("... and {} more problems".format(len(run.problems) - 10))
    correct = not run.problems and run.failed == 0
    print("error_frac {:.6f} ratio ({} of {} checked operations failed)".format(
        _ratio(run.failed, run.attempted), run.failed, run.attempted))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
    }))
    return 0 if correct else 1


def _warm_up(run):
    """Run the first cycle of the mix untimed (results still checked), so
    lazily compiled kernels and caches are warm when timing starts."""
    run.loop(0.0, new_samples())


def _freeze_set_up_heap():
    """Move everything set-up and warm-up left alive out of the collector's
    reach.  Most of it is the simulated Web's corpus, which stands in for
    a search engine in another process; a full collection over it took
    0.25-0.33 s, about three times in 12 s, and landed on whichever query
    was running.  Objects the timed queries allocate are still collected,
    and those collections are timed."""
    gc.collect()
    gc.freeze()


def _collect_garbage():
    """Start each timed phase from the same collector state, so the
    collections in a phase are set by the phase's own allocations."""
    gc.collect()


def _requests_sent(engine):
    return sum(c.requests_sent for c in engine.clients.values())


def _warm_cache_guard(run, sent_before, misses_before):
    """Fails the run unless every timed call of ``warm_cache`` was a hit."""
    if run.workload != "warm_cache":
        return
    sent = _requests_sent(run.engine) - sent_before
    misses = run.engine.cache.misses - misses_before
    if sent or misses:
        run.problems.append(
            "warm_cache guard: {} requests sent and {} cache misses in the timed "
            "region (expected 0 and a hit ratio of 1.0)".format(sent, misses)
        )


def _cache_misses(engine):
    return engine.cache.misses if engine.cache is not None else 0


def _untraced(run, args, setup_times):
    samples = new_samples()
    sent_before = _requests_sent(run.engine)
    misses_before = _cache_misses(run.engine)
    _collect_garbage()
    run.loop(args.seconds, samples)
    _warm_cache_guard(run, sent_before, misses_before)
    if run.workload == "table1":
        _sync_pass(run, samples)
    metrics = end_to_end(samples, setup_times)
    _print_metrics(metrics)
    repetitions = [len(v) for (mode, _), v in samples["by_sql"].items() if mode == "default"]
    print("samples: {} default-mode queries, {} sync queries, {} write pairs in {:.1f} s; "
          "{} distinct queries, each run {}-{} times in default mode".format(
              len(samples["default"]), len(samples["sync"]), len(samples["write"]),
              samples["seconds"], len(repetitions), min(repetitions), max(repetitions)))
    print("over all samples: query_ms_p50 {:.4f}, query_ms_p95 {:.4f} ms".format(
        percentile(samples["default"], 50), percentile(samples["default"], 95)))
    if samples["write"]:
        print("write_ms_p50 {:.4f} ms (INSERT/DELETE pair, {} samples)".format(
            percentile(samples["write"], 50), len(samples["write"])))
    if run.workload != "local_sql":
        queries = len(samples["default"]) + len(samples["sync"])
        sent = _requests_sent(run.engine) - sent_before
        print("web_calls_per_query {:.4f} count".format(_ratio(sent, queries)))
    return metrics


def _sync_pass(run, samples):
    """table1's sync pass: a few instances per template, for the paper
    factor.  Its latencies join *samples* as the run's sync queries."""
    w = run.w
    for template in sorted(w.TEMPLATES):
        ops = [op for op in run.inputs.pool if op.label == template][:SYNC_PASS_INSTANCES]
        sync_ms, async_ms = [], []
        for op in ops:
            measured = run.select(op, SYNC, run.reference[op.sql])
            if measured is not None:
                sync_ms.append(measured[0])
                samples["sync"].append(measured[0])
                samples["by_sql"].setdefault(("sync", op.sql), []).append(measured[0])
            async_ms.extend(samples["by_sql"].get(("default", op.sql), []))
        if sync_ms and async_ms:
            print("improvement {} {:.1f}x (sync {:.1f} ms / async {:.1f} ms over {} "
                  "instances; PAPER_TABLE1 runs 1 and 2: {:.1f}x, {:.1f}x)".format(
                      template, _mean(sync_ms) / _mean(async_ms), _mean(sync_ms),
                      _mean(async_ms), len(ops), *w.PAPER_IMPROVEMENT[template]))


def _traced(run, args, tracing, index_times, kernel_stats):
    half = args.seconds / 2.0
    sent_before = _requests_sent(run.engine)
    misses_before = _cache_misses(run.engine)
    untraced = new_samples()
    _collect_garbage()
    run.loop(half, untraced)
    engine = run.engine
    engine.pump.quiesce(timeout=5.0)
    gauge = engine.pump.metrics.gauge("pump.in_flight")
    gauge.max_value = gauge.value
    before = Counters(engine, kernel_stats)
    samples = new_samples()
    tracing.install()
    _collect_garbage()
    try:
        run.loop(half, samples)
    finally:
        tracing.uninstall()
    # Settlement callbacks trail a query's return: read pump-derived
    # numbers only once every registered call has settled.
    if not engine.pump.quiesce(timeout=5.0):
        run.problems.append("request pump did not settle within 5 s")
    delta = Counters(engine, kernel_stats) - before
    _warm_cache_guard(run, sent_before, misses_before)
    settled = delta["pump_completed"] + delta["pump_failed"] + delta["pump_cancelled"]
    calls = tracing.calls.get("asynciter.register", 0)
    if not delta["pump_registered"] == settled == calls:
        run.problems.append(
            "pump accounting after quiesce: {} registered, {} settled, {} traced".format(
                delta["pump_registered"], settled, calls))
    problem = attribution_problem(tracing, samples)
    if problem is not None:
        run.problems.append(problem)
    metrics = per_layer(tracing, samples, untraced, delta, gauge.max_value, index_times)
    _print_metrics(metrics)
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "spans-{}-seed{}.json".format(run.workload, args.seed))
    tracing.write(path)
    print("spans written to {}".format(os.path.relpath(path, ROOT)))
    return metrics


def _print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print("{:<40} {:>14.6f} {}".format(name, value, unit))


if __name__ == "__main__":
    sys.exit(main())
