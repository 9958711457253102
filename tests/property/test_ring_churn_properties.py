"""Property-based tests: consistent-hash ring invariants under churn.

Elastic resharding leans on three ring properties that must hold for
*every* shard set, key set, and churn order — not just the configurations
the scenario tests happen to exercise:

* add-then-remove is a perfect round trip (byte-identical ring state);
* churn moves only the departing/arriving shard's keys, never a key
  between two uninvolved shards;
* the failover preference order of the survivors is stable across churn
  (cross-shard failover never reshuffles because an unrelated shard came
  or went);
* the lazy ring walk the load balancer routes with yields exactly the
  preference order, starting at the key's owner.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.sharding import ShardRing, stable_hash

#: Small vnode count keeps each example cheap; the properties are
#: vnode-count independent.
VNODES = 8

shard_counts = st.integers(min_value=1, max_value=10)
keys = st.lists(
    st.one_of(st.integers(min_value=0, max_value=10**9), st.text(max_size=8)),
    min_size=1,
    max_size=60,
    unique=True,
)


def _ring(n):
    return ShardRing([f"shard{i:03d}" for i in range(n)], vnodes=VNODES)


@settings(max_examples=150, deadline=None)
@given(n=shard_counts, sample=keys)
def test_add_then_remove_is_byte_identical(n, sample):
    ring = _ring(n)
    points_before = list(ring._points)
    placement_before = {key: ring.shard_for(key) for key in sample}
    measures_before = ring.arc_measures()

    ring.add_shard("joiner")
    ring.remove_shard("joiner")

    assert ring._points == points_before  # byte-identical ring state
    assert ring.arc_measures() == measures_before
    assert {key: ring.shard_for(key) for key in sample} == placement_before


@settings(max_examples=150, deadline=None)
@given(n=shard_counts, sample=keys)
def test_sequential_churn_moves_only_involved_keys(n, sample):
    ring = _ring(n)
    before = {key: ring.shard_for(key) for key in sample}

    ring.add_shard("joiner")
    after_add = {key: ring.shard_for(key) for key in sample}
    for key in sample:
        # A key either stayed put or moved *to* the joiner.
        assert after_add[key] in (before[key], "joiner")

    victim = f"shard{(n - 1):03d}"
    ring.remove_shard(victim)
    after_remove = {key: ring.shard_for(key) for key in sample}
    for key in sample:
        if after_add[key] == victim:
            assert after_remove[key] != victim  # rehomed somewhere live
        else:
            assert after_remove[key] == after_add[key]  # untouched


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=2, max_value=10), sample=keys)
def test_preference_of_survivors_is_stable_across_churn(n, sample):
    ring = _ring(n)
    before = {key: ring.preference(key) for key in sample}

    ring.add_shard("joiner")
    with_joiner = {key: ring.preference(key) for key in sample}
    for key in sample:
        # Dropping the joiner from the new order recovers the old order:
        # the survivors' relative failover ranking never reshuffles.
        assert [s for s in with_joiner[key] if s != "joiner"] == before[key]

    ring.remove_shard("joiner")
    victim = f"shard{(n - 1):03d}"
    ring.remove_shard(victim)
    after = {key: ring.preference(key) for key in sample}
    for key in sample:
        assert after[key] == [s for s in before[key] if s != victim]


def _reference_preference(ring, key):
    """Distinct shards from a full scan of the ring points, in order."""
    points = ring._points
    start = next(
        (i for i, (h, _s) in enumerate(points) if h > stable_hash(key)), 0
    )
    order = []
    for offset in range(len(points)):
        shard = points[(start + offset) % len(points)][1]
        if shard not in order:
            order.append(shard)
    return order


@settings(max_examples=150, deadline=None)
@given(n=shard_counts, sample=keys)
def test_walk_is_the_preference_order_under_churn(n, sample):
    ring = _ring(n)

    def check():
        for key in sample:
            walked = list(ring.walk(key))
            assert walked == ring.preference(key)
            assert walked == _reference_preference(ring, key)
            assert walked[0] == ring.shard_for(key)

    check()
    ring.add_shard("joiner")
    check()
    ring.remove_shard(f"shard{(n - 1):03d}")
    check()
