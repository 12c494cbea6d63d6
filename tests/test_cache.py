import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtysim.cache import (Cache, CacheGeometry, LatencyModel, OutcomeKind,
                            WritePolicy, make_line)
from oracles import access_kind

WT = WritePolicy.WRITE_THROUGH_NO_ALLOCATE


def test_geometry_rejects_non_powers_of_two():
    for kwargs in ({"associativity": 6}, {"associativity": 0}):
        with pytest.raises(ValueError):
            CacheGeometry(**kwargs)


def test_geometry_partition_validation():
    with pytest.raises(ValueError):
        CacheGeometry(partition={"a": set()})
    with pytest.raises(ValueError):
        CacheGeometry(partition={"a": {0, 1}, "b": {1, 2}})
    with pytest.raises(ValueError):
        CacheGeometry(partition={"a": {8}})
    geo = CacheGeometry(partition={"a": {0, 1}, "b": {2, 3}})
    assert geo.partition["a"] == frozenset({0, 1})


@pytest.mark.parametrize("cls, name, value", [
    (CacheGeometry, "associativity", 8.0), (CacheGeometry, "associativity", True),
    (LatencyModel, "jitter", True), (LatencyModel, "hit", False),
])
def test_a_count_field_rejects_a_bool_or_a_float_by_name(cls, name, value):
    # Unchecked, associativity=8.0 raised TypeError and jitter=True built a
    # jittered model.
    with pytest.raises(ValueError, match=f"^{name} must be an int, not {re.escape(repr(value))}$"):
        cls(**{name: value})


@pytest.mark.parametrize("way", [0.5, 3.0, True])
def test_partition_rejects_a_non_int_way(way):
    # Unchecked, a way of 0.5 built and the run failed in the access loop.
    with pytest.raises(ValueError, match=f"^partition way of 'a' must be an int, not {way!r}$"):
        CacheGeometry(partition={"a": {way}, "b": {4}})


def test_make_line_rejects_negative_tag():
    assert make_line("r", tag=99) == ("r", 99)
    with pytest.raises(ValueError, match="tag must be non-negative"):
        make_line("r", -1)


def test_distinct_actors_never_alias():
    cache = Cache()
    cache.access(make_line("a", 7), True)
    kind, _ = access_kind(cache, make_line("b", 7), False)
    assert kind is not OutcomeKind.HIT


def test_write_hit_sets_dirty():
    cache = Cache()
    line = make_line("a", 1)
    cache.access(line, False)
    assert access_kind(cache, line, True) == (OutcomeKind.HIT, 4)
    assert cache.dirty_count() == 1


def test_invalid_ways_fill_first_lowest_index():
    cache = Cache()
    # No write-back, so the same cost as a clean eviction.
    assert access_kind(cache, make_line("a", 1), False) == (OutcomeKind.MISS_FILL_INVALID, 11)
    assert cache.set_state()[0][:2] == (("a", 1), None)
    cache.access(make_line("a", 2), False)
    assert cache.set_state()[0][:3] == (("a", 1), ("a", 2), None)


def test_dirty_victim_costs_writeback():
    cache = Cache()
    cache.access(make_line("a", 0), True)
    for t in range(1, 8):
        cache.access(make_line("a", t), False)
    # The LRU victim is the dirty line, in way 0.
    assert access_kind(cache, make_line("a", 100), False) == (OutcomeKind.MISS_EVICT_DIRTY, 22)
    assert cache.set_state()[0][0] == ("a", 100)


def test_clean_victim_is_plain_refill():
    cache = Cache()
    for t in range(8):
        cache.access(make_line("a", t), False)
    assert access_kind(cache, make_line("a", 100), False) == (OutcomeKind.MISS_EVICT_CLEAN, 11)


def test_write_through_store_miss_is_uncached():
    cache = Cache(CacheGeometry(write_policy=WT))
    assert access_kind(cache, make_line("a", 1), True) == (OutcomeKind.UNCACHED, 11)
    assert cache.set_state()[0] == (None,) * 8


def test_write_through_never_dirties():
    cache = Cache(CacheGeometry(write_policy=WT))
    line = make_line("a", 1)
    cache.access(line, False)
    cache.access(line, True)  # write hit: data goes through, line stays clean
    assert cache.dirty_count() == 0
    for t in range(2, 40):
        cache.access(make_line("a", t), True)
        cache.access(make_line("a", t), False)
    assert cache.dirty_count() == 0


def test_write_through_read_fills_clean():
    cache = Cache(CacheGeometry(write_policy=WT))
    kind, _ = access_kind(cache, make_line("a", 5), False)
    assert kind is OutcomeKind.MISS_FILL_INVALID
    tags, dirty, _ = cache.set_state()
    assert tags[0] == ("a", 5) and not dirty[0]


def test_snapshot_fresh_cache_all_invalid():
    cache = Cache()
    tags, dirty, _ = cache.set_state()
    assert tags == (None,) * 8 and dirty == (False,) * 8


def test_snapshot_after_one_write():
    cache = Cache()
    cache.access(make_line("a", 9), True)
    tags, dirty, _ = cache.set_state()
    assert dirty.count(True) == 1 and tags[dirty.index(True)] == ("a", 9)


def test_snapshot_after_receiver_style_init():
    cache = Cache()
    for t in range(8):
        cache.access(make_line("r", t), False)
    tags, dirty, _ = cache.set_state()
    assert None not in tags and not any(dirty)


@pytest.mark.parametrize("tags", [(0, 9, 1), ()], ids=["tags", "empty"])
@pytest.mark.parametrize("policy", ["lru", "tree-plru", "random"])
def test_a_run_that_raises_changes_nothing(policy, tags):
    # The actor's ways are checked before the first access, so the set
    # (metadata included), every count and the cycles stay, and so does the
    # generator state that later accesses draw from.
    geo = CacheGeometry(partition={"a": {0, 2, 3}, "b": {1, 4}})
    cache, twin = (Cache(geo, policy, LatencyModel(jitter=2), seed=5) for _ in range(2))
    for c in (cache, twin):
        for run in (("a", range(5)), ("b", (0, 1, 2)), ("a", (1, 7))):
            c.access_run(*run, True)
    with pytest.raises(ValueError, match="^actor 'intruder' has no way partition$"):
        cache.access_run("intruder", tags, False)
    assert cache.set_state() == twin.set_state()
    assert cache.counters == twin.counters and cache.cycles == twin.cycles
    after = [make_line(*line) for line in (("a", 8), ("b", 8), ("a", 0), ("b", 9))]
    assert [cache.access(line, True) for line in after] == [twin.access(line, True)
                                                             for line in after]


def test_an_empty_run_counts_no_actor():
    cache = Cache()
    assert cache.access_run("a", (), True) == (0, 0)
    assert cache.access_run("a", range(0), False) == (0, 0)
    assert cache.counters == {} and cache.cycles == 0


@pytest.mark.parametrize("policy", ["lru", "tree-plru"])
def test_relabel_renames_lines_and_nothing_else(policy):
    cache = Cache(CacheGeometry(4), policy)
    cache.access_run("a", range(3), True)
    cache.access(make_line("b", 0), False)
    tags, dirty, meta = cache.set_state()
    counters, cycles = cache.counters, cache.cycles
    cache.relabel({("a", 1): ("a", 7), ("b", 0): ("a", 1), ("c", 0): ("c", 1)})
    assert cache.set_state() == ((("a", 0), ("a", 7), ("a", 2), ("a", 1)), dirty, meta)
    assert (cache.counters, cache.cycles) == (counters, cycles)
    # A renamed line is the line it is renamed to: ("a", 1) now hits, clean.
    assert access_kind(cache, make_line("a", 1), False) == (OutcomeKind.HIT, 4)


@pytest.mark.parametrize("policy, tags, dirty, meta", [
    ("lru", (1, 3, 2, 0), (False, False, True, True), (0, 1, 2, 3)),
    # Bits 0-2 all point right after the touches, so the order is 3, 2, 1, 0.
    ("tree-plru", (3, 2, 1, 0), (False, True, False, True), 0),
])
def test_normalize_lists_the_ways_in_victim_order_under_fresh_metadata(policy, tags, dirty,
                                                                       meta):
    cache = Cache(CacheGeometry(4), policy)
    cache.access_run("a", range(4), False)
    cache.access_run("a", (2, 0), True)
    counters, cycles = cache.counters, cache.cycles
    cache.normalize()
    assert cache.set_state() == (tuple(("a", tag) for tag in tags), dirty, meta)
    assert (cache.counters, cache.cycles) == (counters, cycles)


@pytest.mark.parametrize("policy", ["lru", "tree-plru"])
def test_normalize_refuses_a_set_with_an_invalid_way(policy):
    # A fill takes the first free way, so a relisted free way would break
    # the rule that the valid ways are a prefix.
    cache = Cache(CacheGeometry(4), policy)
    cache.access_run("a", range(3), True)
    state = cache.set_state()
    with pytest.raises(ValueError, match="^only a full set has a normal form$"):
        cache.normalize()
    assert cache.set_state() == state


@pytest.mark.parametrize("policy", ["lru", "tree-plru", "random"])
def test_a_partitioned_set_is_its_own_normal_form(policy):
    # Way indices say whose ways they are: relisting would move lines between actors.
    cache = Cache(CacheGeometry(4, partition={"a": {0, 1}, "b": {2, 3}}), policy)
    cache.access_run("a", range(2), True)
    cache.access_run("b", range(2), False)
    cache.access_run("a", (0,), False)
    state = cache.set_state()
    cache.normalize()
    assert cache.set_state() == state


def test_a_set_under_the_random_policy_has_no_normal_form():
    cache = Cache(CacheGeometry(4), "random")
    cache.access_run("a", range(4), True)
    state = cache.set_state()
    with pytest.raises(ValueError, match="^a policy that draws its victims has no normal form$"):
        cache.normalize()
    assert cache.set_state() == state


def test_load_set_starts_counts_and_cycles_at_0():
    cache, fresh = Cache(), Cache()
    cache.access_run("a", range(10), True)
    state = cache.set_state()
    cache.load_set(state)
    fresh.load_set(state)
    assert cache.set_state() == fresh.set_state() == state
    assert (cache.counters, cache.cycles) == ({}, 0) == (fresh.counters, fresh.cycles)


def test_partition_rejects_unlisted_actor():
    cache = Cache(CacheGeometry(partition={"a": {0, 1}}))
    with pytest.raises(ValueError):
        cache.access(make_line("intruder", 1), False)


def test_partition_confines_each_actor():
    geo = CacheGeometry(partition={"a": {0, 1, 2, 3}, "b": {4, 5, 6, 7}})
    cache = Cache(geo)
    for t in range(16):
        cache.access(make_line("b", t), True)
    tags, dirty, _ = cache.set_state()
    b_ways = tags[4:], dirty[4:]
    for t in range(100, 130):
        cache.access(make_line("a", t), True)
    tags, dirty, _ = cache.set_state()
    assert (tags[4:], dirty[4:]) == b_ways
    assert all(tag is None or tag[0] == "a" for tag in tags[:4])


def test_latency_model_jitter_bounds():
    cache = Cache(latency=LatencyModel(jitter=2), seed=3)
    for t in range(50):
        assert abs(cache.access(make_line("a", t), False) - 11) <= 2


@pytest.mark.parametrize("name", ["hit", "miss_clean", "miss_dirty", "jitter"])
def test_latency_model_rejects_negative_values_by_name(name):
    with pytest.raises(ValueError, match=name):
        LatencyModel(**{name: -1})


@pytest.mark.parametrize("value", [2.5, float("nan")])
@pytest.mark.parametrize("name", ["hit", "miss_clean", "miss_dirty", "jitter"])
def test_latency_model_rejects_non_integer_values_by_name(name, value):
    # Unchecked, a float jitter fails only in calibration's `randint`, and a
    # NaN cost runs.
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        LatencyModel(**{name: value})


@pytest.mark.parametrize("policy", ["lru", "tree-plru", "random"])
@pytest.mark.parametrize("jitter", [0, 1, 3])
def test_cache_draws_exactly_with_a_random_policy_or_jitter(policy, jitter):
    cache = Cache(policy=policy, latency=LatencyModel(jitter=jitter), seed=7)
    assert cache.draws is (policy == "random" or jitter > 0)


def test_determinism_random_policy_with_jitter():
    def run():
        cache = Cache(policy="random", latency=LatencyModel(jitter=3), seed=42)
        outcomes = []
        for t in range(200):
            outcomes.append(cache.access(make_line("a", t % 12), t % 3 != 0))
        return outcomes, cache.counters, cache.cycles

    assert run() == run()


ops = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 11), st.booleans()),
    min_size=1, max_size=120)


@settings(max_examples=40, deadline=None)
@given(ops=ops)
def test_counter_conservation(ops):
    cache = Cache()
    dirty_evictions = 0
    for actor, tag, is_write in ops:
        kind, _ = access_kind(cache, make_line(actor, tag), is_write)
        dirty_evictions += kind is OutcomeKind.MISS_EVICT_DIRTY
    total = {"loads": 0, "stores": 0, "l1_hits": 0, "l1_misses": 0, "writebacks": 0}
    for counters in cache.counters.values():
        for key, value in counters.items():
            total[key] += value
    assert total["l1_hits"] + total["l1_misses"] == total["loads"] + total["stores"]
    assert total["writebacks"] == dirty_evictions


@settings(max_examples=40, deadline=None)
@given(ops=ops)
def test_dirty_lines_only_clean_by_eviction(ops):
    cache = Cache()
    dirty_tags = set()
    for actor, tag, is_write in ops:
        cache.access(make_line(actor, tag), is_write)
        tags, dirty, _ = cache.set_state()
        now_dirty = {tag for tag, is_dirty in zip(tags, dirty) if is_dirty}
        # a previously dirty line that is still resident must still be dirty
        assert dirty_tags & set(tags) <= now_dirty
        dirty_tags = now_dirty


@settings(max_examples=30, deadline=None)
@given(ops=ops)
def test_write_through_never_writes_back(ops):
    cache = Cache(CacheGeometry(write_policy=WT))
    for actor, tag, is_write in ops:
        kind, _ = access_kind(cache, make_line(actor, tag), is_write)
        assert kind is not OutcomeKind.MISS_EVICT_DIRTY
