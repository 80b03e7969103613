"""Seeded inputs, set-up and correctness oracles for the four workloads.

Everything the program sees is built here from the seed: the SQL of each
operation and the rows of each table.  The engine itself never receives
the seed; the only seed-derived knob is the simulated Web's latency salt
on ``table1``, which picks each request's delay inside the 3-9 ms band.
"""

import hashlib
import json
import math
import random
import sqlite3
from collections import Counter

from repro.datasets import load_all
from repro.relational.types import DataType
from repro.storage import Database
from repro.web.cache import ResultCache
from repro.web.calibration import TEMPLATE_KEYWORD_POOL
from repro.web.latency import UniformLatency
from repro.web.world import SimulatedWeb, default_web
from repro.wsq import WsqEngine

# The paper's Section 5 templates (Table 1).
TEMPLATES = {
    "T1": (
        "Select Name, Count From States, WebCount "
        "Where Name = T1 and WebCount.T2 = '{V1}'"
    ),
    "T2": (
        "Select Name, Count, URL, Rank "
        "From States, WebCount, WebPages "
        "Where Name = WebCount.T1 and WebCount.T2 = '{V1}' and "
        "Name = WebPages.T1 and WebPages.T2 = '{V2}' and WebPages.Rank <= 2"
    ),
    "T3": (
        "Select Name, AV.URL, G.URL "
        "From Sigs, WebPages_AV AV, WebPages_Google G "
        "Where Name = AV.T1 and Name = G.T1 and "
        "AV.Rank <= 3 and G.Rank <= 3 and AV.T2 = '{V1}' and G.T2 = '{V1}'"
    ),
}

#: The paper's published improvement factors (sync / async), runs 1 and 2.
PAPER_IMPROVEMENT = {"T1": (6.0, 9.4), "T2": (13.5, 12.5), "T3": (19.6, 16.4)}

#: Distinct instances of each template in a workload's query pool.
TEMPLATE_INSTANCES = 12

#: ``table1``'s simulated search-engine delay band, in seconds.
TABLE1_LATENCY = (0.003, 0.009)

#: Template operations generated up front, in whole cycles; the closed
#: loop starts again from the first if it runs through them all.
STREAM_LENGTH = 4000

#: ``local_sql`` operations generated up front.  Its writes cannot be
#: replayed, so a run that uses them all up fails; at 20 s a run uses
#: well under a tenth of them.
LOCAL_STREAM_LENGTH = 12000

TEMPLATE_WORKLOADS = ("table1", "overhead_floor", "warm_cache")
WORKLOADS = TEMPLATE_WORKLOADS + ("local_sql",)


class Op:
    """One closed-loop operation: a SELECT, or an INSERT/DELETE pair."""

    __slots__ = ("kind", "label", "sql", "ordered", "delete_sql")

    def __init__(self, kind, label, sql, ordered=False, delete_sql=None):
        self.kind = kind  # "select" or "write"
        self.label = label  # template name or query class
        self.sql = sql  # the SELECT, or the INSERT of a write pair
        self.ordered = ordered  # compare rows as a sequence, not a multiset
        self.delete_sql = delete_sql


class Inputs:
    """A workload's generated tables and operation stream."""

    def __init__(self, workload, tables, ops, pool, cycle, replayable):
        self.workload = workload
        self.tables = tables  # name -> (columns, rows); empty for templates
        self.ops = ops
        self.pool = pool  # the distinct SELECTs the stream repeats
        self.cycle = cycle  # operations per cycle of the mix
        self.replayable = replayable  # the stream may start again when used up

    def digest(self):
        """SHA-256 over every generated SQL string and table row."""
        payload = {
            "workload": self.workload,
            "tables": {
                name: [[c for c, _ in columns], rows]
                for name, (columns, rows) in sorted(self.tables.items())
            },
            "ops": [[op.kind, op.sql, op.delete_sql] for op in self.ops],
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generate(workload, seed):
    """The inputs of *workload* for *seed* (same seed, same inputs)."""
    if workload in TEMPLATE_WORKLOADS:
        return _template_inputs(workload, seed)
    if workload == "local_sql":
        return _local_inputs(seed)
    raise ValueError("unknown workload {!r}".format(workload))


# -- template workloads -------------------------------------------------------


def _template_inputs(workload, seed):
    rng = random.Random("templates:{}".format(seed))
    P = TEMPLATE_KEYWORD_POOL
    pool = {}
    for name, template in TEMPLATES.items():
        if name == "T2":
            pairs = [(a, b) for a in P for b in P if a != b]
            constants = rng.sample(pairs, TEMPLATE_INSTANCES)
        else:
            constants = [(v, None) for v in rng.sample(P, TEMPLATE_INSTANCES)]
        pool[name] = [
            Op("select", name, template.format(V1=v1, V2=v2))
            for v1, v2 in constants
        ]
    # Round-robin over the templates, so every prefix of the stream holds
    # them in equal shares; instance order is re-shuffled every cycle.
    ops = []
    names = sorted(pool)
    while len(ops) < STREAM_LENGTH:
        orders = {name: rng.sample(pool[name], len(pool[name])) for name in names}
        for i in range(TEMPLATE_INSTANCES):
            for name in rng.sample(names, len(names)):
                ops.append(orders[name][i])
    distinct = [op for name in names for op in pool[name]]
    return Inputs(workload, {}, ops, distinct, len(distinct), replayable=True)


def template_engine(workload, salt, pool):
    """One set-up of a template workload's engine, at default knobs.

    ``table1`` charges 3-9 ms per request and has no cache;
    ``overhead_floor`` and ``warm_cache`` charge nothing and share one
    memory :class:`ResultCache` between the sync and async paths.
    ``warm_cache`` runs every pool query in both modes here, because a
    sync run of Template 3 skips the Google call when AV found nothing.
    """
    web = SimulatedWeb()
    database = load_all(Database())
    if workload == "table1":
        latency = UniformLatency(*TABLE1_LATENCY, salt=salt)
        engine = WsqEngine(database=database, web=web, latency=latency)
    else:
        engine = WsqEngine(database=database, web=web, cache=ResultCache())
    if workload == "warm_cache":
        for op in pool:
            engine.execute(op.sql, mode="sync")
            engine.execute(op.sql)
    return engine


def template_reference(web, pool):
    """Expected multisets from a separate zero-latency, cache-off, sync engine."""
    engine = WsqEngine(database=load_all(Database()), web=web, cache=False)
    return {op.sql: Counter(engine.execute(op.sql, mode="sync").rows) for op in pool}


# -- local_sql ----------------------------------------------------------------

FACT_ROWS = 6000  # ~130 heap pages: twice the default 64-page buffer pool
PAD_CHARS = 60
KEY_SPACE = 2000  # values of the indexed column Fact.k
DIM_ROWS = 40
REGIONS = ("north", "south", "east", "west", "centre")
TAGS = ("red", "green", "blue", "amber", "violet")

FACT_COLUMNS = [
    ("id", DataType.INT),
    ("k", DataType.INT),
    ("dim", DataType.INT),
    ("amt", DataType.FLOAT),
    ("tag", DataType.STR),
    ("pad", DataType.STR),
]
DIM_COLUMNS = [("did", DataType.INT), ("region", DataType.STR), ("w", DataType.FLOAT)]

#: One cycle of the local mix: query class -> operations per cycle.
#: Ordered by cost, the 21 SELECTs put the median in the middle of the
#: seven key ranges (as many cheaper as dearer SELECTs lie outside them)
#: and the 95th percentile in the middle of the two full-scan GROUP BYs,
#: so neither lands on the boundary between two classes.  About one
#: operation in ten is an INSERT/DELETE pair.
LOCAL_MIX = (
    ("point", 7),
    ("range", 7),
    ("in_subquery", 1),
    ("distinct", 1),
    ("or", 1),
    ("join", 1),
    ("top", 1),
    ("group", 2),
    ("write", 2),
)

#: Copies of the mix's SELECTs in the query pool, each with its own
#: constants; every cycle runs each pooled SELECT once.
LOCAL_POOL_COPIES = 2

#: Keys covered by one range query (about 120 rows).
RANGE_WIDTH = 40


def _fact_row(rng, row_id):
    letters = "abcdefghijklmnopqrstuvwxyz"
    return (
        row_id,
        rng.randrange(KEY_SPACE),
        rng.randrange(DIM_ROWS),
        round(rng.uniform(0.0, 1000.0), 2),
        rng.choice(TAGS),
        "".join(rng.choice(letters) for _ in range(PAD_CHARS)),
    )


def _local_select(rng, label):
    k = rng.randrange(KEY_SPACE)
    if label == "point":
        return "Select id, amt, tag From Fact Where k = {}".format(k), False
    if label == "range":
        return (
            "Select id, k, amt From Fact Where k >= {} and k < {}".format(
                k, k + RANGE_WIDTH
            ),
            False,
        )
    if label == "in_subquery":
        return (
            "Select id, dim From Fact Where dim In "
            "(Select did From Dim Where region = '{}') and k < {}".format(
                rng.choice(REGIONS), rng.randrange(50, 150)
            ),
            False,
        )
    if label == "distinct":
        return (
            "Select Distinct dim From Fact Where k >= {} and k < {}".format(k, k + 300),
            False,
        )
    if label == "or":
        return (
            "Select id, k From Fact Where k = {} or k = {}".format(
                k, rng.randrange(KEY_SPACE)
            ),
            False,
        )
    if label == "group":
        return (
            "Select tag, dim, Count(*), Sum(amt), Min(amt), Max(k) From Fact "
            "Where amt >= {} Group By tag, dim".format(rng.randrange(0, 50)),
            False,
        )
    if label == "join":
        return (
            "Select region, Count(*), Avg(amt) From Fact, Dim "
            "Where dim = did and k < {} Group By region".format(
                rng.randrange(100, 400)
            ),
            False,
        )
    if label == "top":
        return (
            "Select id, amt From Fact Where tag = '{}' "
            "Order By amt Desc, id Limit {}".format(
                rng.choice(TAGS), rng.randrange(5, 20)
            ),
            True,
        )
    raise ValueError(label)


def _sql_literal(value):
    if isinstance(value, str):
        return "'{}'".format(value)
    return repr(value)


def _local_inputs(seed):
    rng = random.Random("local:{}".format(seed))
    fact = [_fact_row(rng, i) for i in range(FACT_ROWS)]
    dim = [
        (d, REGIONS[rng.randrange(len(REGIONS))], round(rng.uniform(0.5, 2.0), 2))
        for d in range(DIM_ROWS)
    ]
    tables = {"Fact": (FACT_COLUMNS, fact), "Dim": (DIM_COLUMNS, dim)}
    pool = []
    for _ in range(LOCAL_POOL_COPIES):
        for label, count in LOCAL_MIX:
            for _ in range(count if label != "write" else 0):
                sql, ordered = _local_select(rng, label)
                pool.append(Op("select", label, sql, ordered=ordered))
    writes = LOCAL_POOL_COPIES * dict(LOCAL_MIX)["write"]
    live = list(range(FACT_ROWS))
    next_id = FACT_ROWS
    ops = []
    # Each cycle runs every pooled SELECT once, in a fresh order, with
    # fresh INSERT/DELETE pairs in between.
    while len(ops) < LOCAL_STREAM_LENGTH:
        for op in rng.sample(pool + [None] * writes, len(pool) + writes):
            if op is not None:
                ops.append(op)
                continue
            row = _fact_row(rng, next_id)
            next_id += 1
            victim = live.pop(rng.randrange(len(live)))
            live.append(row[0])
            ops.append(
                Op(
                    "write",
                    "write",
                    "Insert Into Fact Values ({})".format(
                        ", ".join(_sql_literal(v) for v in row)
                    ),
                    delete_sql="Delete From Fact Where id = {}".format(victim),
                )
            )
    return Inputs("local_sql", tables, ops, pool, len(pool) + writes, replayable=False)


def local_engine(tables):
    """One set-up of ``local_sql``: load both tables, index ``Fact.k``.

    The engine gets the process-wide default simulated Web, as a user's
    engine would; ``local_sql`` never calls it, so it is built once
    before the timed set-ups (:func:`prepare_local`)."""
    database = Database()
    for name, (columns, rows) in tables.items():
        database.create_table_from_rows(name, columns, rows)
    database.create_index("Fact", "k")
    return WsqEngine(database=database)


def prepare_local():
    """Build the default simulated Web, which ``local_sql`` does not use."""
    default_web()


class SqliteMirror:
    """The stdlib ``sqlite3`` oracle for ``local_sql``.

    It holds the same seeded rows, applies every INSERT/DELETE the
    engine applies, and answers each SELECT independently.
    """

    _TYPES = {DataType.INT: "INTEGER", DataType.FLOAT: "REAL", DataType.STR: "TEXT"}

    def __init__(self, tables):
        self.connection = sqlite3.connect(":memory:")
        for name, (columns, rows) in tables.items():
            self.connection.execute(
                "CREATE TABLE {} ({})".format(
                    name,
                    ", ".join("{} {}".format(c, self._TYPES[t]) for c, t in columns),
                )
            )
            self.connection.executemany(
                "INSERT INTO {} VALUES ({})".format(
                    name, ", ".join("?" for _ in columns)
                ),
                rows,
            )

    def select(self, sql):
        return self.connection.execute(sql).fetchall()

    def write(self, sql):
        return self.connection.execute(sql).rowcount

    def close(self):
        self.connection.close()


#: Floating-point aggregates (SUM/AVG) may be summed in another order by
#: the engine and by sqlite; values agree when within this tolerance.
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-6


def _sort_key(row):
    return tuple(
        (0, round(v, 6), "")
        if isinstance(v, (int, float))
        else (1, 0, v)
        if v is not None
        else (2, 0, "")
        for v in row
    )


def _values_match(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL)
    return a == b


def rows_match(got, want, ordered):
    """*got* equals *want*, as a sequence if *ordered* else as a multiset."""
    if len(got) != len(want):
        return False
    if not ordered:
        got = sorted(got, key=_sort_key)
        want = sorted(want, key=_sort_key)
    return all(
        len(a) == len(b) and all(_values_match(x, y) for x, y in zip(a, b))
        for a, b in zip(got, want)
    )
