"""Property tests: each request-path fast path against the code it replaced.

The trace bus routes, ``Database.select``'s limit pushdown, the lease
table's earliest-expiry bound and ``WebComponent.servlet_for``'s exact hit
are pure speedups.  Each property drives the fast path and a reference
copy of the plain code it replaced through the same random operations and
requires the same observable results, in the same order.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.appserver.component import WebComponent
from repro.sim import Kernel
from repro.stores.database import Database, DatabaseError, DuplicateKeyError
from repro.stores.leases import LeaseTable
from repro.telemetry.trace import STICKY_PREFIXES, TraceBus, TraceEvent

# ----------------------------------------------------------------------
# TraceBus: per-kind routes vs matching every subscription on every publish
# ----------------------------------------------------------------------

KINDS = (
    "request.start", "request.end", "rm.report", "rm.decision",
    "lb.failover.begin", "chaos.fault", "slo.breach",
)
FILTERS = st.one_of(
    st.none(),
    st.sampled_from(KINDS),
    st.lists(
        st.sampled_from(KINDS + ("rm.*", "request.*", "lb.*", "*")),
        min_size=1, max_size=3,
    ),
)
#: What a subscriber does on its first delivery, from inside the callback.
REACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("subscribe"), FILTERS),
    st.tuples(st.just("unsubscribe"), st.integers(0, 7)),
    st.tuples(st.just("publish"), st.sampled_from(KINDS)),
)
BUS_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), FILTERS, REACTIONS),
        st.tuples(st.just("unsubscribe"), st.integers(0, 7)),
        st.tuples(st.just("publish"), st.sampled_from(KINDS)),
    ),
    max_size=40,
)


class ListBus(TraceBus):
    """The delivery loop the per-kind routes replaced."""

    def publish(self, kind, /, **fields):
        event = TraceEvent(t=0.0, seq=self._seq, kind=kind, fields=fields)
        self._seq += 1
        self.published += 1
        self._buffer.append(event)
        if kind.startswith(STICKY_PREFIXES):
            self._sticky.append(event)
        for subscription in self._subscriptions:
            if subscription.matches(kind):
                subscription.callback(event)
        return event


def drive_bus(bus, ops):
    """Apply ``ops``; returns (deliveries, buffered events, sticky ring)."""
    deliveries, tokens = [], []

    def subscribe(kinds, reaction):
        ident = len(tokens)
        fired = []

        def callback(event):
            deliveries.append((ident, event.seq, event.kind))
            if reaction is None or fired:
                return
            fired.append(True)
            action, arg = reaction
            if action == "subscribe":
                subscribe(arg, None)
            elif action == "unsubscribe":
                bus.unsubscribe(tokens[arg % len(tokens)])
            else:
                bus.publish(arg)

        tokens.append(bus.subscribe(callback, kinds))

    for op in ops:
        if op[0] == "subscribe":
            subscribe(op[1], op[2])
        elif op[0] == "unsubscribe":
            if tokens:
                bus.unsubscribe(tokens[op[1] % len(tokens)])
        else:
            bus.publish(op[1])
    return (
        deliveries,
        [(event.seq, event.kind) for event in bus.events()],
        [event.seq for event in bus._sticky],
    )


@settings(max_examples=200, deadline=None)
@given(ops=BUS_OPS)
def test_trace_bus_routes_deliver_like_the_subscription_scan(ops):
    routed = drive_bus(TraceBus(enabled=True), ops)
    scanned = drive_bus(ListBus(enabled=True), ops)
    assert routed == scanned


def test_subscribe_from_a_callback_sees_the_event_being_delivered():
    """The plain list loop reaches a subscription appended mid-delivery."""
    for bus in (TraceBus(enabled=True), ListBus(enabled=True)):
        seen = []
        bus.subscribe(
            lambda event, bus=bus, seen=seen: bus.subscribe(
                lambda e: seen.append(e.seq), "rm.*"
            ) if not seen else None,
            "rm.*",
        )
        bus.publish("rm.report")
        assert seen == [0]


# ----------------------------------------------------------------------
# Database.select(limit=...) / count vs copy-everything-then-slice
# ----------------------------------------------------------------------

COLUMN_VALUES = st.integers(0, 3)
DB_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 16), COLUMN_VALUES,
                  COLUMN_VALUES, st.sampled_from((None, 1, 2))),
        st.tuples(st.just("update"), st.integers(1, 16), COLUMN_VALUES,
                  COLUMN_VALUES, st.sampled_from((None, 1, 2))),
        st.tuples(st.just("delete"), st.integers(1, 16), st.just(0),
                  st.just(0), st.sampled_from((None, 1, 2))),
        st.tuples(st.just("commit"), st.just(0), st.just(0), st.just(0),
                  st.sampled_from((1, 2))),
        st.tuples(st.just("rollback"), st.just(0), st.just(0), st.just(0),
                  st.sampled_from((1, 2))),
        st.tuples(st.just("snapshot"), st.just(0), st.just(0), st.just(0),
                  st.just(None)),
        st.tuples(st.just("repair"), st.just(0), st.just(0), st.just(0),
                  st.just(None)),
    ),
    max_size=40,
)
QUERIES = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(("a", "b")), COLUMN_VALUES, max_size=2),
        st.integers(0, 6),
    ),
    min_size=1, max_size=4,
)


def reference_select(database, table_name, **equals):
    """``select`` as it was: copy every match (the all() scan), unsliced."""
    table = database.tables[table_name]
    if not equals:
        return [dict(row) for row in table.rows.values()]
    columns = sorted(equals)
    index = table.ensure_index(columns[0])
    out = []
    for pk in index.get(table._key(equals[columns[0]]), ()):
        row = table.rows[pk]
        if all(row.get(col) == equals[col] for col in columns[1:]):
            out.append(dict(row))
    return out


@settings(max_examples=150, deadline=None)
@given(ops=DB_OPS, queries=QUERIES)
def test_select_limit_equals_select_then_slice(ops, queries):
    database = Database(Kernel())
    database.create_table("t")
    snapshot = {}
    for op, pk, a, b, tx_id in ops:
        try:
            if op == "insert":
                database.insert("t", {"id": pk, "a": a, "b": b}, tx_id=tx_id)
            elif op == "update":
                database.update("t", pk, {"a": a, "b": b}, tx_id=tx_id)
            elif op == "delete":
                database.delete("t", pk, tx_id=tx_id)
            elif op == "commit":
                database.commit_transaction(tx_id)
            elif op == "rollback":
                database.rollback_transaction(tx_id)
            elif op == "snapshot":
                snapshot = database.snapshot("t")
            else:
                database.repair_table("t", snapshot)
        except (DuplicateKeyError, DatabaseError):
            pass
        for equals, limit in queries:
            expected = reference_select(database, "t", **equals)
            assert database.select("t", **equals) == expected
            assert database.select("t", limit=limit, **equals) == expected[:limit]
            assert database.count("t", **equals) == len(expected)


# ----------------------------------------------------------------------
# LeaseTable: earliest-expiry bound vs scanning every lease
# ----------------------------------------------------------------------

class ScanLeases:
    """The lease table as it was: every collection scans every lease."""

    def __init__(self, kernel, default_ttl):
        self.kernel = kernel
        self.default_ttl = default_ttl
        self._expiry = {}
        self.expired_count = 0

    def grant(self, key, ttl=None):
        self._expiry[key] = self.kernel.now + (ttl or self.default_ttl)

    def renew(self, key, ttl=None):
        if key not in self._expiry:
            return False
        self.grant(key, ttl)
        return True

    def release(self, key):
        self._expiry.pop(key, None)

    def collect_expired(self):
        now = self.kernel.now
        expired = [key for key, when in self._expiry.items() if when <= now]
        for key in expired:
            del self._expiry[key]
        self.expired_count += len(expired)
        return expired


LEASE_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("grant", "renew")), st.integers(0, 5),
                  st.sampled_from((None, 0.5, 1.0, 3.0, 7.5))),
        st.tuples(st.just("release"), st.integers(0, 5), st.none()),
        st.tuples(st.just("step"), st.none(),
                  st.sampled_from((0.0, 0.25, 0.5, 1.0, 3.0, 10.0))),
        st.tuples(st.just("collect"), st.none(), st.none()),
    ),
    max_size=50,
)


@settings(max_examples=200, deadline=None)
@given(ops=LEASE_OPS)
def test_lease_bound_collects_like_a_full_scan(ops):
    kernel = Kernel()
    bounded, scanned = LeaseTable(kernel, 2.0), ScanLeases(kernel, 2.0)
    for op, key, arg in ops:
        if op == "grant":
            bounded.grant(key, arg)
            scanned.grant(key, arg)
        elif op == "renew":
            assert bounded.renew(key, arg) == scanned.renew(key, arg)
        elif op == "release":
            bounded.release(key)
            scanned.release(key)
        elif op == "step":
            kernel.run(until=kernel.now + arg)
        else:
            assert bounded.collect_expired() == scanned.collect_expired()
        assert bounded._expiry == scanned._expiry
        assert bounded.expired_count == scanned.expired_count
        assert bounded._earliest <= min(bounded._expiry.values(), default=math.inf)


# ----------------------------------------------------------------------
# WebComponent.servlet_for: exact hit vs the longest-prefix scan
# ----------------------------------------------------------------------

PATHS = st.text(alphabet="ab/", max_size=5)


def longest_prefix(servlets, url):
    best = None
    for prefix in servlets:
        if url.startswith(prefix) and (best is None or len(prefix) > len(best)):
            best = prefix
    return servlets.get(best)


@settings(max_examples=200, deadline=None)
@given(prefixes=st.lists(PATHS, max_size=6, unique=True),
       urls=st.lists(PATHS, max_size=8))
def test_servlet_for_equals_the_longest_prefix_scan(prefixes, urls):
    web = WebComponent()
    for prefix in prefixes:
        web.register_servlet(prefix, object())
    for url in urls + prefixes + [prefix + "/x" for prefix in prefixes]:
        assert web.servlet_for(url) is longest_prefix(web._servlets, url)
