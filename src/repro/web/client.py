"""Clients that add latency (and caching, and faults) in front of a search engine.

The engine computes answers instantly; the client charges the simulated
network delay.  Synchronous calls block the calling thread (this is the
paper's sequential baseline, where "the query processor is idle during the
request"); asynchronous calls ``await`` the same delay, so many can be in
flight at once on one event loop — the request-pump side.

A cache hit skips the delay entirely, modelling a local result cache that
avoids the network round trip.

Fault injection & resilience
----------------------------

With a :class:`~repro.web.faults.FaultModel` attached, each request
*attempt* first consults the fault schedule (a stable function of
``(engine, expr, attempt)``):

- transient/hard faults charge one latency round trip, then raise —
  the request went out and came back an error;
- an engine outage raises immediately (connection refused is fast);
- a hung request sleeps.  On the sync path the client itself enforces
  the resilience policy's per-call timeout (there is no event loop to
  do it), sleeping ``min(hang, timeout)`` before raising
  :class:`~repro.util.errors.RequestTimeoutError`; on the async path
  the hang sleeps under the pump's ``asyncio.wait_for``.

The *sync* methods additionally run the shared
:class:`~repro.asynciter.resilience.RetryPolicy` retry loop internally;
on the async path the pump owns retries.  Both paths therefore retry the
same attempts of the same requests, so a faulted workload yields
identical results in sequential and asynchronous execution.
"""

import asyncio
import time

from repro.asynciter.resilience import run_sync_with_retries
from repro.util.errors import CachedFailureError, RequestTimeoutError
from repro.web.cache import ResultCache
from repro.web.faults import HANG, OUTAGE


class SearchClient:
    """Latency-charging, optionally caching access to one engine.

    ``page_size`` models result pagination: engines of the era returned
    ~10 hits per response, so "retrieving all URLs for a given search
    expression could be extremely expensive (requiring many additional
    network requests beyond the initial search)" (paper Section 3).  A
    ranked search for *limit* hits costs ``ceil(limit / page_size)``
    sequential round trips; counts cost one.

    ``faults`` is an optional :class:`~repro.web.faults.FaultModel`;
    ``resilience`` an optional
    :class:`~repro.asynciter.resilience.ResiliencePolicy` used by the
    sync path's internal retry loop (the pump applies the same policy on
    the async path).
    """

    def __init__(
        self,
        engine,
        latency=None,
        cache=None,
        page_size=10,
        faults=None,
        resilience=None,
        obs=None,
    ):
        if page_size < 1:
            raise ValueError("page size must be positive")
        self.engine = engine
        self.latency = latency
        self.cache = cache
        self.page_size = page_size
        self.faults = faults
        self.resilience = resilience
        self.obs = obs  # optional repro.obs.Observability bundle
        self.requests_sent = 0  # actual (non-cache-hit) request round trips
        self.faults_seen = 0  # injected faults observed by this client
        self.retries = 0  # sync-path retry attempts

    @property
    def name(self):
        return self.engine.name

    # -- synchronous (sequential query processing) ---------------------------

    def count(self, expr_text):
        key = ResultCache.key(self.engine.name, "count", expr_text)
        cached = self._cache_get(key)
        if cached is not None:
            return cached

        def attempt(n):
            self._fault_gate_sync(expr_text, n)
            self._sleep(expr_text)
            return self.engine.count(expr_text)

        result = self._retry_with_failure_caching(key, expr_text, attempt)
        self._cache_put(key, result)
        return result

    def search(self, expr_text, limit):
        key = ResultCache.key(self.engine.name, "search", expr_text, limit)
        cached = self._cache_get(key)
        if cached is not None:
            return cached

        def attempt(n):
            self._fault_gate_sync(expr_text, n)
            for _ in range(self._pages_for(limit)):
                self._sleep(expr_text)
            return self.engine.search(expr_text, limit)

        result = self._retry_with_failure_caching(key, expr_text, attempt)
        self._cache_put(key, result)
        return result

    # -- asynchronous (request pump) -------------------------------------------

    async def count_async(self, expr_text, attempt=0, lookup=True):
        """One *attempt* of an asynchronous count (the pump retries).

        ``lookup=False`` skips the cache read: the caller already probed
        the cache on the query thread (:meth:`cached_count`) and missed.
        """
        key = ResultCache.key(self.engine.name, "count", expr_text)
        if lookup:
            cached = self._cache_get(key)
            if cached is not None:
                return cached
        await self._fault_gate_async(expr_text, attempt)
        await self._async_sleep(expr_text)
        result = self.engine.count(expr_text)
        self._cache_put(key, result)
        return result

    async def search_async(self, expr_text, limit, attempt=0, lookup=True):
        """One *attempt* of an asynchronous search (the pump retries)."""
        key = ResultCache.key(self.engine.name, "search", expr_text, limit)
        if lookup:
            cached = self._cache_get(key)
            if cached is not None:
                return cached
        await self._fault_gate_async(expr_text, attempt)
        # Result pages arrive sequentially even on the async path: page
        # k+1 cannot be requested before page k's response names it.
        for _ in range(self._pages_for(limit)):
            await self._async_sleep(expr_text)
        result = self.engine.search(expr_text, limit)
        self._cache_put(key, result)
        return result

    # -- cache probe (query thread, asynchronous mode) ---------------------

    def cached_count(self, expr_text):
        """The cached count for *expr_text*, or ``None`` on a miss.

        The same read the request paths make (:meth:`_cache_get`: hit
        and miss counters, trace events, negative-cache replay), for a
        caller that resolves hits before handing a call to the pump.
        """
        return self._cache_get(ResultCache.key(self.engine.name, "count", expr_text))

    def cached_search(self, expr_text, limit):
        """The cached hits for *expr_text* (top *limit*), or ``None``."""
        return self._cache_get(
            ResultCache.key(self.engine.name, "search", expr_text, limit)
        )

    def _pages_for(self, limit):
        return max(1, -(-limit // self.page_size))  # ceil, at least one page

    # -- fault injection ------------------------------------------------------------

    def _retry_sync(self, expr_text, attempt_fn):
        if self.resilience is None:
            return attempt_fn(0)

        def on_retry(attempt, exc):
            self.retries += 1

        return run_sync_with_retries(
            (self.engine.name, expr_text),
            attempt_fn,
            self.resilience,
            on_retry=on_retry,
        )

    def _next_fault(self, expr_text, attempt):
        if self.faults is None:
            return None
        fault = self.faults.fault_for(self.engine.name, expr_text, attempt)
        if fault is not None:
            self.faults_seen += 1
        return fault

    def _fault_gate_sync(self, expr_text, attempt):
        fault = self._next_fault(expr_text, attempt)
        if fault is None:
            return
        if fault.kind == OUTAGE:
            raise fault.error  # connection refused: no round trip charged
        if fault.kind == HANG:
            self._count_round_trip()
            timeout = (
                self.resilience.call_timeout if self.resilience is not None else None
            )
            wait = (
                fault.hang_seconds
                if timeout is None
                else min(fault.hang_seconds, timeout)
            )
            if wait > 0:
                time.sleep(wait)
            raise RequestTimeoutError(
                "request to {!r} for {!r} hung (gave up after {:.3f}s)".format(
                    self.engine.name, expr_text, wait
                )
            )
        # Transient or hard: the round trip happened and returned an error.
        self._count_round_trip()
        delay = self._delay(expr_text)
        if delay > 0:
            time.sleep(delay)
        raise fault.error

    async def _fault_gate_async(self, expr_text, attempt):
        fault = self._next_fault(expr_text, attempt)
        if fault is None:
            return
        if fault.kind == OUTAGE:
            raise fault.error
        if fault.kind == HANG:
            self._count_round_trip()
            # Hang under the pump's asyncio.wait_for; if no timeout is
            # configured the hang eventually resolves into a timeout
            # error itself, mirroring the sync path.
            if fault.hang_seconds > 0:
                await asyncio.sleep(fault.hang_seconds)
            raise RequestTimeoutError(
                "request to {!r} for {!r} hung (gave up after {:.3f}s)".format(
                    self.engine.name, expr_text, fault.hang_seconds
                )
            )
        self._count_round_trip()
        delay = self._delay(expr_text)
        if delay > 0:
            await asyncio.sleep(delay)
        raise fault.error

    # -- internals ----------------------------------------------------------------

    def _delay(self, expr_text):
        if self.latency is None:
            return 0.0
        return self.latency.delay(self.engine.name, expr_text)

    def _sleep(self, expr_text):
        self._count_round_trip()
        delay = self._delay(expr_text)
        if delay > 0:
            time.sleep(delay)

    async def _async_sleep(self, expr_text):
        self._count_round_trip()
        delay = self._delay(expr_text)
        if delay > 0:
            await asyncio.sleep(delay)

    def _count_round_trip(self):
        self.requests_sent += 1
        if self.obs is not None:
            self.obs.metrics.inc("web.round_trips", engine=self.engine.name)

    def _cache_get(self, key):
        """Read the cache: a value, ``None`` (miss), or a replayed failure.

        Uses the status-carrying :meth:`~repro.web.cache.ResultCache.lookup`
        when the cache provides it, so fresh *and* stale entries serve and
        negatively-cached failures replay as
        :class:`~repro.util.errors.CachedFailureError` (deliberately not a
        :class:`~repro.util.errors.TransientWebError`: a replayed failure
        is never retried — the negative TTL, not the retry policy, decides
        when the destination is probed again).
        """
        if self.cache is None:
            return None
        lookup = getattr(self.cache, "lookup", None)
        if lookup is None:  # duck-typed stand-in cache: legacy surface
            value = self.cache.get(key)
            if value is not None:
                self._note_cache_hit(key)
            return value
        found = lookup(key)
        if found.failure:
            self._note_cache_hit(key)
            raise CachedFailureError(
                "negatively cached failure for {!r}: {}: {}".format(
                    key, found.value.error_type, found.value.message
                )
            )
        if found.hit:
            self._note_cache_hit(key)
            return found.value
        return None

    def _note_cache_hit(self, key):
        if self.obs is not None:
            self.obs.metrics.inc("web.cache_hits", engine=self.engine.name)
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.emit(
                    "web.cache_hit", destination=self.engine.name, key=str(key)
                )

    def _retry_with_failure_caching(self, key, expr_text, attempt_fn):
        """Sync-path execution with negative caching of exhausted failures.

        Only the *synchronous* client writes failure records: here the
        retry loop has already run its course, so the failure is final
        for this request.  On the async path the pump owns retries —
        caching a per-attempt error there would negatively cache an
        outcome the very next retry might fix.
        """
        try:
            return self._retry_sync(expr_text, attempt_fn)
        except Exception as exc:
            put_failure = getattr(self.cache, "put_failure", None)
            if put_failure is not None:
                put_failure(key, exc)
            raise

    def _cache_put(self, key, value):
        if self.cache is not None:
            self.cache.put(key, value)
