"""Per-layer spans, recorded around calls into each layer's public functions.

Tracing lives in the benchmark, not in the program: :meth:`Tracing.install`
replaces a layer function with a wrapper that records one span per call
and restores the original on :meth:`Tracing.uninstall`.  The engine
imports ``parse_select``, ``lower``, ``rewrite_logical`` and
``execute_batches`` by name, so those are wrapped where
``repro.wsq.engine`` looks them up.

A span is ``[name, start, end, parent, query_id]``; each thread keeps
its own list, and ``parent`` indexes that list.  Spans on one thread
nest; a span's self time is its duration minus the time its direct
children cover.  Calls that run on the request pump's event-loop thread
(``SearchClient.*_async`` and the cache accesses they make) land in that
thread's list as root spans: they overlap the query thread's wait
instead of adding to it.
"""

import functools
import json
import threading
import time

from repro.asynciter import reqsync as reqsync_module
from repro.asynciter.pump import RequestPump
from repro.plan.planner import Planner
from repro.storage.database import Database
from repro.web.cache import ResultCache
from repro.web.client import SearchClient
from repro.wsq import engine as engine_module

NAME, START, END, PARENT, QUERY = range(5)

#: Root span of one ``WsqEngine.execute`` call; its self time is the
#: engine facade's own work (``wsq.unattributed_ms``).
QUERY_SPAN = "wsq.query"


class Tracing:
    """Holds the spans of one traced run, in memory until :meth:`write`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.threads = {}  # thread ident -> that thread's spans
        self.query_id = None
        self._local = threading.local()
        self._patches = []
        self.calls = {}  # span name -> units counted by wrap(units=...)

    # -- recording ------------------------------------------------------------

    def _thread_spans(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = self.threads[threading.get_ident()] = []
            local.stack = []
        return local

    def begin(self, name):
        local = self._thread_spans()
        stack = local.stack
        span = [name, self.clock(), None, stack[-1] if stack else None, self.query_id]
        stack.append(len(local.spans))
        local.spans.append(span)
        return span

    def end(self, span):
        span[END] = self.clock()
        self._local.stack.pop()

    def record(self, name, start, end):
        """A finished root span (used for coroutines, which interleave)."""
        self._thread_spans().spans.append([name, start, end, None, self.query_id])

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name, function, units=None):
        """Record a span per call; ``units(*args)`` adds to ``calls[name]``."""
        @functools.wraps(function)
        def traced(*args, **kwargs):
            if units is not None:
                self.calls[name] = self.calls.get(name, 0) + units(*args)
            span = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def wrap_query(self, function):
        """The root span of one query; numbers the queries as they start."""
        @functools.wraps(function)
        def traced(*args, **kwargs):
            self.query_id = 0 if self.query_id is None else self.query_id + 1
            span = self.begin(QUERY_SPAN)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def wrap_coroutine(self, name, function):
        @functools.wraps(function)
        async def traced(*args, **kwargs):
            start = self.clock()
            try:
                return await function(*args, **kwargs)
            finally:
                self.record(name, start, self.clock())

        return traced

    def wrap_generator(self, name, function):
        """One span per batch pulled from the generator *function* returns."""
        @functools.wraps(function)
        def traced(*args, **kwargs):
            inner = function(*args, **kwargs)
            try:
                while True:
                    span = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end(span)
                    yield item
            finally:
                inner.close()

        return traced

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self):
        """Wrap every layer boundary the per-layer metrics are read from."""
        e = engine_module
        patch = self._patch
        patch(e.WsqEngine, "execute", self.wrap_query(e.WsqEngine.execute))
        patch(e, "parse_select", self.wrap("sql.parse", e.parse_select))
        patch(Planner, "plan_logical", self.wrap("plan.bind", Planner.plan_logical))
        patch(Planner, "optimize", self.wrap("plan.optimize", Planner.optimize))
        patch(e, "lower", self.wrap("plan.lower", e.lower))
        patch(e, "rewrite_logical", self.wrap("asynciter.rewrite", e.rewrite_logical))
        register = "asynciter.register"
        patch(
            RequestPump,
            "register",
            self.wrap(register, RequestPump.register, units=lambda *_: 1),
        )
        patch(
            RequestPump,
            "register_batch",
            self.wrap(
                register,
                RequestPump.register_batch,
                units=lambda _pump, calls, *_: len(calls),
            ),
        )
        patch(
            reqsync_module.ReqSync,
            "next_batch",
            self.wrap("asynciter.reqsync", reqsync_module.ReqSync.next_batch),
        )
        patch(e, "execute_batches", self.wrap_generator("exec.drain", e.execute_batches))
        for method in ("count", "search"):
            patch(SearchClient, method, self.wrap("web.service", getattr(SearchClient, method)))
            name = method + "_async"
            patch(
                SearchClient,
                name,
                self.wrap_coroutine("web.service", getattr(SearchClient, name)),
            )
        patch(ResultCache, "lookup", self.wrap("web.cache_lookup", ResultCache.lookup))
        patch(ResultCache, "put", self.wrap("web.cache_store", ResultCache.put))

    def install_setup(self):
        """Wrap ``Database.create_index`` (timed while the workload sets up)."""
        self._patch(
            Database,
            "create_index",
            self.wrap("storage.index_build", Database.create_index),
        )

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self, thread):
        """Per-span-name total self time (seconds) of *thread*'s spans."""
        spans = self.threads.get(thread, [])
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        totals = {}
        for span, children in zip(spans, covered):
            own = span[END] - span[START] - children
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
        return totals

    def durations(self, name):
        """Durations (seconds) of every span called *name*, any thread."""
        return [
            span[END] - span[START]
            for spans in self.threads.values()
            for span in spans
            if span[NAME] == name
        ]

    def check_nesting(self):
        """Every span ended, and lies inside its parent's interval."""
        for spans in self.threads.values():
            for span in spans:
                if span[END] is None:
                    return "span {} never ended".format(span[NAME])
                if span[PARENT] is not None:
                    outer = spans[span[PARENT]]
                    if span[START] < outer[START] or span[END] > outer[END]:
                        return "span {} escapes its parent {}".format(
                            span[NAME], outer[NAME]
                        )
        return None

    def write(self, path):
        """Write the spans as JSON, one list per thread (times in seconds)."""
        starts = [spans[0][START] for spans in self.threads.values() if spans]
        origin = min(starts) if starts else 0.0
        threads = [
            [
                [
                    span[NAME],
                    round(span[START] - origin, 9),
                    round(span[END] - origin, 9),
                    span[PARENT],
                    span[QUERY],
                ]
                for span in spans
            ]
            for spans in self.threads.values()
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent", "query"], "threads": threads},
                handle,
            )
