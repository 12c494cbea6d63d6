"""Differential test: the package cache against `oracles.ReferenceCache`.

Random streams of (actor, tag, read/write) run through both models, each
one set (a `Cache` is one set), each stream with its own drawn costs, hit <
clean miss < dirty miss; after every access the outcome kind, victim way,
latency, per-actor counters, per-actor outcome counts, cycle total and the
set's dirty count must agree, and the reference's own writeback flag must
be set exactly on a dirty eviction.  The same streams, cut into
`Cache.access_run` runs wherever the access kind or the actor changes, must
sum to the reference's latencies, and drawn runs of one actor's tags must
leave the state that per-line `access` calls leave.  After any stream, each
actor's valid ways are a prefix of its sorted candidate ways: the invariant
behind the cache's O(1) free-way test.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtysim.cache import (Cache, CacheGeometry, LatencyModel, OutcomeKind,
                            WritePolicy, make_line)
from oracles import ReferenceCache

# Irregular, non-contiguous partitions, so the Tree-PLRU walk must skip
# subtrees at every level.
PARTITION = {"a": (0, 3, 5), "b": (1, 2, 4, 6, 7)}
MODES = {
    "write-back": dict(write_policy=WritePolicy.WRITE_BACK_ALLOCATE),
    "write-through": dict(write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE),
    "partition": dict(partition=PARTITION),
}

SEEDS = st.integers(0, 2**32)
JITTERS = st.sampled_from([0, 3])
# hit < miss_clean < miss_dirty, so a cost charged for the wrong outcome kind
# shows; a no-allocate store is charged miss_clean.
COSTS = st.lists(st.integers(0, 50), min_size=3, max_size=3, unique=True).map(sorted)

streams = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(0, 13), st.booleans()),
    min_size=1, max_size=80)


def examples(tier1):
    """`tier1` examples, or the `differential` profile's count (conftest.py)."""
    if settings.get_current_profile_name() == "differential":
        return settings.default
    return settings(max_examples=tier1, deadline=None)


def twins(policy, mode, seed, jitter, costs):
    """A package cache in `mode` and the reference cache it must match."""
    geo = CacheGeometry(**MODES[mode])
    hit, miss_clean, miss_dirty = costs
    cache = Cache(geo, policy, LatencyModel(hit, miss_clean, miss_dirty, jitter), seed=seed)
    ref = ReferenceCache(policy, seed=seed, jitter=jitter,
                         costs=(hit, miss_clean, miss_dirty, miss_clean),
                         write_back=geo.write_policy is WritePolicy.WRITE_BACK_ALLOCATE,
                         partition=geo.partition and PARTITION)
    return cache, ref


def actor_in(mode, actor):
    """The partition lists actors a and b only; c stands for a there."""
    return "a" if mode == "partition" and actor == "c" else actor


def state(cache):
    """The set's state, the counters and the cycle total."""
    return cache.set_state(), cache.counters, cache.cycles


def outcome_counts(cache):
    """The cache's count record as {actor: {(kind value, is store): count}}, zeros left out.

    An actor's count 2k + is_write holds its loads (is_write 0) or stores (1)
    whose outcome is the k-th `OutcomeKind`.
    """
    kinds = list(OutcomeKind)
    return {actor: {(kinds[i >> 1].value, bool(i & 1)): n for i, n in enumerate(counts) if n}
            for actor, counts in cache._counts.items()}


def assert_valid_ways_are_prefixes(cache):
    """Each actor's valid candidate ways come before its invalid ones."""
    geo = cache.geometry
    candidates = geo.partition.values() if geo.partition else [range(geo.associativity)]
    tags = cache.set_state()[0]
    for ways in candidates:
        valid = [tags[w] is not None for w in sorted(ways)]
        assert valid == sorted(valid, reverse=True), (sorted(ways), valid)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("policy", ["lru", "tree-plru", "random"])
@examples(60)
@given(stream=streams, seed=SEEDS, jitter=JITTERS, costs=COSTS)
def test_cache_matches_reference(policy, mode, stream, seed, jitter, costs):
    cache, ref = twins(policy, mode, seed, jitter, costs)
    for actor, tag, write in stream:
        actor = actor_in(mode, actor)
        got = cache.access(make_line(actor, tag), write)
        want = ref.access(actor, tag, write)
        writeback = got.kind is OutcomeKind.MISS_EVICT_DIRTY
        assert (got.kind.value, got.victim_way, writeback, got.latency) == want
        assert cache.counters == ref.counters
        assert outcome_counts(cache) == ref.outcomes
        assert cache.cycles == ref.cycles
        assert cache.dirty_count() == ref.dirty_count()
    assert_valid_ways_are_prefixes(cache)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("policy", ["lru", "tree-plru", "random"])
@examples(40)
@given(stream=streams, seed=SEEDS, jitter=JITTERS, costs=COSTS)
def test_runs_sum_to_the_reference_latencies(policy, mode, stream, seed, jitter, costs):
    # Each maximal run of one actor's loads or stores is one `access_run`.
    def run_key(access):
        actor, _, write = access
        return write, actor_in(mode, actor)

    cache, ref = twins(policy, mode, seed, jitter, costs)
    for (write, actor), run in itertools.groupby(stream, key=run_key):
        tags, want_total, want_hits = [], 0, 0
        for _, tag, _ in run:
            tags.append(tag)
            kind, _, _, latency = ref.access(actor, tag, write)
            want_total += latency
            want_hits += kind == ReferenceCache.HIT
        total, hits, _ = cache.access_run(actor, tags, write)
        assert (total, hits) == (want_total, want_hits)
    assert cache.counters == ref.counters
    assert outcome_counts(cache) == ref.outcomes
    assert cache.cycles == ref.cycles
    assert_valid_ways_are_prefixes(cache)


runs = st.lists(st.tuples(st.booleans(), st.sampled_from("abc"),
                          st.lists(st.integers(0, 13), max_size=12)),
                min_size=1, max_size=12)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("policy", ["lru", "tree-plru", "random"])
@examples(40)
@given(runs=runs, seed=SEEDS, jitter=JITTERS)
def test_runs_match_per_line_access(policy, mode, runs, seed, jitter):
    # Drawn runs, each one actor's loads or stores, empty ones too: one twin
    # takes each run in one `access_run`, the other line by line through
    # `access`.
    geo = CacheGeometry(**MODES[mode])
    batched, single = (Cache(geo, policy, LatencyModel(jitter=jitter), seed=seed)
                       for _ in range(2))
    for write, actor, tags in runs:
        actor = actor_in(mode, actor)
        outcomes = [single.access(make_line(actor, tag), write) for tag in tags]
        total, hits, last = batched.access_run(actor, tags, write)
        assert total == sum(o.latency for o in outcomes)
        assert hits == sum(o.kind is OutcomeKind.HIT for o in outcomes)
        assert last == (outcomes[-1] if outcomes else None)
        assert state(batched) == state(single)


def test_an_actor_fills_its_first_free_way_around_another_actors_lines():
    # b takes ways 1, 2 and 4 first, so each of a's candidates 0, 3 and 5
    # lies beyond one of b's lines; each actor still fills its own ways in
    # order, and evicts only once its last candidate is valid.
    cache = Cache(CacheGeometry(partition=PARTITION))
    outcomes = [cache.access(make_line(actor, tag), False)
               for actor, tag in (("b", 0), ("b", 1), ("b", 2), ("a", 0), ("a", 1), ("a", 2))]
    assert [(o.kind, o.victim_way) for o in outcomes] == (
        [(OutcomeKind.MISS_FILL_INVALID, w) for w in (1, 2, 4, 0, 3, 5)])
    assert_valid_ways_are_prefixes(cache)
    assert cache.access(make_line("a", 3), False).kind is OutcomeKind.MISS_EVICT_CLEAN
    total, _, last = cache.access_run("b", (3, 4, 5), True)
    assert total == 11 * 3 and last.kind is OutcomeKind.MISS_EVICT_CLEAN
    assert cache.set_state()[0][6:] == (("b", 3), ("b", 4))
    assert_valid_ways_are_prefixes(cache)
