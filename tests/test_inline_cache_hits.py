"""Cache hits resolved at registration, on the query thread.

In asynchronous mode :class:`~repro.asynciter.context.AsyncContext`
probes the result cache after deduplication and before the request
pump: a hit completes inline, a miss goes to the pump with its
coroutine's own cache read switched off.  These tests pin the lookup
invariant — every logical call reads the cache exactly once, in either
mode — across ``register``/``register_batch``, dedup on/off, one and
four shards, and a cold and a warm cache; that a negatively cached
failure resolved inline degrades exactly like a live one; and that the
scratch tier of a :class:`TieredResultCache` is active for every
asynchronous lookup.
"""

import functools
import inspect
import threading
from collections import Counter

import pytest

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import RequestPump
from repro.util.errors import ExecutionError
from repro.vtables import base as vtables_base
from repro.vtables.base import ExternalCall
from repro.web.cache import CachePolicy, ResultCache, TieredResultCache
from repro.web.faults import FaultModel
from repro.wsq import WsqEngine

STATES = "Select Name, Count From States, WebCount Where Name = T1"

DUPLICATED_TERMS = ["Utah", "Texas", "Utah", "Ohio", "Texas", "Utah"]
DISTINCT_TERMS = ["Utah", "Texas", "Ohio"]


@pytest.fixture()
def pump():
    pump = RequestPump(name="reqpump-inline-test")
    yield pump
    pump.shutdown()


def _engine(web, paper_db, pump, shards=1, dedup=True, cache=None, **kwargs):
    return WsqEngine(
        database=paper_db,
        web=web,
        pump=pump,
        cache=cache if cache is not None else ResultCache(),
        shards=shards,
        dedup_calls=dedup,
        **kwargs,
    )


def _count_calls(engine, terms):
    instance = engine.vtables["WebCount"].instantiate("WC", n=1)
    return [
        instance.make_call(instance.resolve_bindings({"T1": term}))
        for term in terms
    ]


def _resolve(context, calls, batched):
    """Register *calls*, wait for every one, and take each result once."""
    if batched:
        call_ids = context.register_batch(calls)
    else:
        call_ids = [context.register(call) for call in calls]
    for call_id in call_ids:
        while not context.completed({call_id}):
            context.wait_for_any({call_id}, timeout=10)
    return [context.take_result(call_id) for call_id in call_ids]


def _counters(engine):
    return (
        engine.cache.hits,
        engine.cache.misses,
        sum(client.requests_sent for client in engine.clients.values()),
        engine.pump.stats.snapshot()["registered"],
    )


@pytest.mark.parametrize("batched", [False, True], ids=["register", "batch"])
@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "nodedup"])
@pytest.mark.parametrize("shards", [1, 4])
class TestOneLookupPerCall:
    """Cold: one miss per distinct key; warm: nothing reaches the pump."""

    def _terms(self, dedup):
        # Without dedup, a repeated key would race its own first store;
        # the invariant is stated over distinct keys.
        return DUPLICATED_TERMS if dedup else DISTINCT_TERMS

    def _expected(self, web, paper_db, terms):
        uncached = WsqEngine(database=paper_db, web=web, cache=False, shards=1)
        return [call.execute_sync() for call in _count_calls(uncached, terms)]

    def test_cold_cache_misses_each_distinct_key_once(
        self, web, paper_db, pump, shards, dedup, batched
    ):
        engine = _engine(web, paper_db, pump, shards=shards, dedup=dedup)
        terms = self._terms(dedup)
        distinct = len(set(terms))
        context = AsyncContext(engine.pump, dedup=dedup)
        hits, misses, _, registered = _counters(engine)
        rows = _resolve(context, _count_calls(engine, terms), batched)
        engine.pump.quiesce(timeout=2.0)
        assert rows == self._expected(web, paper_db, terms)
        assert engine.cache.misses - misses == distinct
        assert engine.cache.hits - hits == 0
        assert engine.pump.stats.snapshot()["registered"] - registered == distinct
        assert context.inline_hits == 0
        assert len(engine.cache) == distinct

    def test_warm_cache_sends_nothing_to_the_pump(
        self, web, paper_db, pump, shards, dedup, batched
    ):
        engine = _engine(web, paper_db, pump, shards=shards, dedup=dedup)
        terms = self._terms(dedup)
        _resolve(AsyncContext(engine.pump), _count_calls(engine, terms), True)
        engine.pump.quiesce(timeout=2.0)
        context = AsyncContext(engine.pump, dedup=dedup)
        hits, misses, sent, registered = _counters(engine)
        rows = _resolve(context, _count_calls(engine, terms), batched)
        assert rows == self._expected(web, paper_db, terms)
        lookups = len(set(terms)) if dedup else len(terms)
        assert engine.cache.hits - hits == lookups
        assert engine.cache.misses - misses == 0
        assert sum(c.requests_sent for c in engine.clients.values()) == sent
        assert engine.pump.stats.snapshot()["registered"] == registered
        assert context.inline_hits == lookups
        assert context.stats()["inline_hits"] == lookups
        assert context.calls_registered == lookups


class TestInlineHitsThroughTheEngine:
    def test_warm_async_query_is_resolved_inline(self, web, paper_db, pump):
        engine = _engine(web, paper_db, pump)
        expected = Counter(engine.run(STATES, mode="sync").rows)
        sent_before = sum(c.requests_sent for c in engine.clients.values())
        registered_before = engine.pump.stats.snapshot()["registered"]
        report = engine.profile(STATES, mode="async")
        assert Counter(report.result.rows) == expected
        deltas = report.engine_deltas
        assert deltas["cache_hits"] == 50
        assert deltas["inline_hits"] == 50
        assert deltas["calls_registered"] == 50
        assert sum(c.requests_sent for c in engine.clients.values()) == sent_before
        assert engine.pump.stats.snapshot()["registered"] == registered_before

    def test_cold_async_query_reports_no_inline_hits(self, web, paper_db, pump):
        engine = _engine(web, paper_db, pump)
        report = engine.profile(STATES, mode="async")
        assert report.engine_deltas["inline_hits"] == 0
        assert report.engine_deltas["cache_hit_ratio"] == 0.0

    def test_single_call_query_reads_the_cache_once(self, web, paper_db, pump):
        engine = _engine(web, paper_db, pump)
        sql = "Select Count From WebCount Where T1 = 'Utah'"
        cold = engine.run(sql, mode="async").rows
        assert (engine.cache.hits, engine.cache.misses) == (0, 1)
        assert engine.run(sql, mode="async").rows == cold
        assert (engine.cache.hits, engine.cache.misses) == (1, 1)

    def test_webpages_and_fetch_calls_resolve_inline(self, web, paper_db, pump):
        engine = _engine(web, paper_db, pump)
        sql = (
            "Select WebPages.URL, Status From WebPages, WebFetch "
            "Where T1 = 'Utah' and Rank <= 3 and WebPages.URL = WebFetch.Url"
        )
        cold = Counter(engine.run(sql, mode="async").rows)
        registered = engine.pump.stats.snapshot()["registered"]
        report = engine.profile(sql, mode="async")
        assert Counter(report.result.rows) == cold
        assert report.engine_deltas["inline_hits"] == 4  # 1 search + 3 fetches
        assert engine.pump.stats.snapshot()["registered"] == registered


@pytest.mark.parametrize("on_error", ["raise", "drop", "null"])
def test_negatively_cached_failure_degrades_like_a_live_one(
    web, paper_db, pump, on_error
):
    sql = "Select Name, Count From Sigs, WebCount Where Name = T1"
    faults = FaultModel(seed=3, hard_rate=0.3)

    def engine(cache, policy):
        return WsqEngine(
            database=paper_db, web=web, pump=pump, cache=cache, faults=faults,
            on_error=policy, shards=1,
        )

    def outcome(target):
        try:
            return Counter(target.run(sql, mode="async").rows)
        except ExecutionError as exc:
            return type(exc)

    cache = ResultCache(policy=CachePolicy(negative_ttl=1e9))
    # The sequential path writes failure records once its retries ran out.
    engine(cache, "drop").run(sql, mode="sync")
    expected = outcome(engine(False, on_error))
    pump.quiesce(timeout=2.0)
    replayed = engine(cache, on_error)
    registered = pump.stats.snapshot()["registered"]
    hits = cache.hits
    assert outcome(replayed) == expected
    # Some calls really failed: the query raised, lost rows, or got NULLs.
    if on_error == "raise":
        assert expected is ExecutionError
    elif on_error == "drop":
        assert len(expected) < 37
    else:
        assert None in {count for _, count in expected}
    assert pump.stats.snapshot()["registered"] == registered
    assert sum(c.requests_sent for c in replayed.clients.values()) == 0
    assert cache.misses == 37 and cache.hits > hits


class _SpyTieredCache(TieredResultCache):
    """Records, per lookup, the scratch dict active on the calling thread."""

    def __init__(self):
        super().__init__()
        self.lookups = []  # (key, scratch, tier of the answer)

    def lookup(self, key):
        scratch = self._scratch()
        found = super().lookup(key)
        self.lookups.append((key, scratch, found.tier))
        return found


def test_async_lookups_run_inside_the_query_scratch_scope(web, paper_db, pump):
    cache = _SpyTieredCache()
    engine = _engine(web, paper_db, pump, cache=cache)
    engine.run(STATES, mode="async")
    assert len(cache.lookups) == 50
    assert all(scratch is not None for _, scratch, _ in cache.lookups)
    cache.lookups.clear()
    engine.run(STATES, mode="async")
    assert len(cache.lookups) == 50
    for key, scratch, tier in cache.lookups:
        assert scratch is not None
        assert tier == "memory"
        assert key in scratch  # the memory hit was promoted into scratch


class TestAttemptArity:
    def test_plain_functions_are_inspected_once_per_code_object(self, monkeypatch):
        calls = []
        real = inspect.signature

        def counting(fn, *args, **kwargs):
            calls.append(fn)
            return real(fn, *args, **kwargs)

        monkeypatch.setattr(vtables_base.inspect, "signature", counting)

        def factory_site(value):
            return lambda attempt=0: value

        first = ExternalCall("k1", "AV", None, factory_site(1))
        second = ExternalCall("k2", "AV", None, factory_site(2))
        assert first._takes_attempt and second._takes_attempt
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "factory, expected",
        [
            (lambda: None, False),
            (lambda attempt=0: None, True),
            (lambda *args: None, True),
            (functools.partial(lambda a, b: None, 1), True),
            (functools.partial(lambda a: None, 1), False),
        ],
    )
    def test_arity_matches_the_signature(self, factory, expected):
        assert ExternalCall("k", "AV", None, factory)._takes_attempt is expected

    def test_bound_method_and_its_function_do_not_share_an_answer(self):
        class Source:
            def run(self):
                return None

        source = Source()
        assert ExternalCall("k", "AV", None, Source.run)._takes_attempt
        assert not ExternalCall("k", "AV", None, source.run)._takes_attempt

    def test_wrapper_reports_the_wrapped_signature(self):
        def wrap(function):
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                return function(*args, **kwargs)

            return wrapper

        assert not ExternalCall("k", "AV", None, wrap(lambda: 1))._takes_attempt
        assert ExternalCall("k", "AV", None, wrap(lambda a: 1))._takes_attempt


class TestOneLoopHandOffPerBatch:
    def _call(self, key, ran):
        async def run():
            ran.append(key)
            return [{"count": key}]

        return ExternalCall(key, "AV", None, run)

    def test_batch_is_started_by_one_threadsafe_callback(self, pump):
        pump.ensure_started()
        loop = pump._loop
        handoffs = []
        real = loop.call_soon_threadsafe

        def counting(callback, *args, **kwargs):
            handoffs.append(callback)
            return real(callback, *args, **kwargs)

        loop.call_soon_threadsafe = counting
        try:
            ran = []
            context = AsyncContext(pump, dedup=False)
            calls = [self._call(i, ran) for i in range(6)]
            rows = _resolve(context, calls, batched=True)
        finally:
            del loop.call_soon_threadsafe
        assert rows == [[{"count": i}] for i in range(6)]
        assert len(handoffs) == 1
        assert sorted(ran) == list(range(6))

    def test_call_cancelled_before_the_loop_starts_it_settles_once(self, pump):
        pump.ensure_started()
        release = threading.Event()
        pump._loop.call_soon_threadsafe(release.wait, 5)  # hold the loop
        ran, completed = [], []
        calls = [self._call(i, ran) for i in range(4)]
        try:
            call_ids = pump.register_batch(
                calls, lambda cid, rows, error: completed.append(cid)
            )
            pump.cancel(call_ids[1])
        finally:
            release.set()
        assert pump.quiesce(timeout=5.0)
        snapshot = pump.stats.snapshot()
        assert snapshot["cancelled"] == 1
        assert snapshot["completed"] == 3
        assert snapshot["queued"] == 0
        assert sorted(ran) == [0, 2, 3]  # the cancelled coroutine never ran
        assert sorted(completed) == [call_ids[0], call_ids[2], call_ids[3]]
