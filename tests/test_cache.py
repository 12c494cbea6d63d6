import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtysim.cache import (Cache, CacheGeometry, LatencyModel, LineRef,
                            OutcomeKind, WritePolicy, make_line)

WT = WritePolicy.WRITE_THROUGH_NO_ALLOCATE


def test_geometry_rejects_non_powers_of_two():
    for kwargs in ({"num_sets": 48}, {"associativity": 6}, {"line_size": 100},
                   {"num_sets": 0}):
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


def test_default_set_index_uses_bits_6_to_11():
    geo = CacheGeometry()
    assert geo.offset_bits == 6 and geo.set_bits == 6
    assert geo.set_index(37 << 6) == 37
    assert geo.set_index((1 << 12) | (37 << 6) | 13) == 37
    line = make_line("r", 37, tag=99)
    assert geo.set_index(line.address) == 37


def test_geometry_derived_fields_follow_replace():
    geo = dataclasses.replace(CacheGeometry(), num_sets=16, line_size=128)
    assert (geo.offset_bits, geo.set_bits, geo.tag_shift) == (7, 4, 11)
    assert dataclasses.replace(geo, num_sets=64) == CacheGeometry(line_size=128)
    assert make_line("r", 9, 3, geo).address == (3 << 11) | (9 << 7)


def test_untouched_sets_read_as_invalid_after_other_sets_fill():
    cache = Cache()
    for t in range(8):
        cache.write(make_line("r", 6, t))
    assert cache.dirty_count(6) == 8 and cache.dirty_count(7) == 0
    assert cache.snapshot_set(7) == Cache().snapshot_set(7)
    with pytest.raises(ValueError):
        cache.dirty_count(64)


def test_distinct_actors_never_alias():
    cache = Cache()
    cache.write(make_line("a", 0, 7))
    out = cache.read(make_line("b", 0, 7))
    assert out.kind is not OutcomeKind.HIT


def test_write_hit_sets_dirty():
    cache = Cache()
    line = make_line("a", 3, 1)
    cache.read(line)
    out = cache.write(line)
    assert out.kind is OutcomeKind.HIT
    assert cache.dirty_count(3) == 1


def test_invalid_ways_fill_first_lowest_index():
    cache = Cache()
    first = cache.read(make_line("a", 0, 1))
    assert first.kind is OutcomeKind.MISS_FILL_INVALID
    assert first.victim_way == 0
    assert first.latency == 11  # no write-back, so same as a clean eviction
    second = cache.read(make_line("a", 0, 2))
    assert second.victim_way == 1


def test_dirty_victim_costs_writeback():
    cache = Cache()
    cache.write(make_line("a", 0, 0))
    for t in range(1, 8):
        cache.read(make_line("a", 0, t))
    out = cache.read(make_line("a", 0, 100))  # LRU victim is the dirty line
    assert out.kind is OutcomeKind.MISS_EVICT_DIRTY
    assert out.victim_way == 0
    assert out.latency == 22


def test_clean_victim_is_plain_refill():
    cache = Cache()
    for t in range(8):
        cache.read(make_line("a", 0, t))
    out = cache.read(make_line("a", 0, 100))
    assert out.kind is OutcomeKind.MISS_EVICT_CLEAN
    assert out.latency == 11


def test_write_through_store_miss_is_uncached():
    cache = Cache(CacheGeometry(write_policy=WT))
    out = cache.write(make_line("a", 0, 1))
    assert out.kind is OutcomeKind.UNCACHED
    assert out.victim_way is None
    snapshot = cache.snapshot_set(0)
    assert not any(s.valid for s in snapshot)


def test_write_through_never_dirties():
    cache = Cache(CacheGeometry(write_policy=WT))
    line = make_line("a", 0, 1)
    cache.read(line)
    cache.write(line)  # write hit: data goes through, line stays clean
    assert cache.dirty_count(0) == 0
    for t in range(2, 40):
        cache.write(make_line("a", 0, t))
        cache.read(make_line("a", 0, t))
    assert all(cache.dirty_count(s) == 0 for s in range(cache.geometry.num_sets))


def test_write_through_read_fills_clean():
    cache = Cache(CacheGeometry(write_policy=WT))
    out = cache.read(make_line("a", 2, 5))
    assert out.kind is OutcomeKind.MISS_FILL_INVALID
    state = cache.snapshot_set(2)[0]
    assert state.valid and not state.dirty


def test_snapshot_fresh_cache_all_invalid():
    cache = Cache()
    snapshot = cache.snapshot_set(11)
    assert len(snapshot) == 8
    assert all(not s.valid and not s.dirty for s in snapshot)


def test_snapshot_after_one_write():
    cache = Cache()
    cache.write(make_line("a", 4, 9))
    snapshot = cache.snapshot_set(4)
    dirty = [s for s in snapshot if s.dirty]
    assert len(dirty) == 1 and dirty[0].valid


def test_snapshot_after_receiver_style_init():
    cache = Cache()
    for t in range(8):
        cache.read(make_line("r", 6, t))
    snapshot = cache.snapshot_set(6)
    assert sum(s.valid for s in snapshot) == 8
    assert sum(s.dirty for s in snapshot) == 0


def test_rejects_address_beyond_64_bits():
    cache = Cache()
    with pytest.raises(ValueError):
        cache.read(LineRef("a", 1 << 64))
    with pytest.raises(ValueError):
        cache.read(LineRef("a", -1))


def test_partition_rejects_unlisted_actor():
    cache = Cache(CacheGeometry(partition={"a": {0, 1}}))
    with pytest.raises(ValueError):
        cache.read(make_line("intruder", 0, 1))


def test_partition_confines_each_actor():
    geo = CacheGeometry(partition={"a": {0, 1, 2, 3}, "b": {4, 5, 6, 7}})
    cache = Cache(geo)
    for t in range(16):
        cache.write(make_line("b", 0, t))
    b_ways = [cache.snapshot_set(0)[w] for w in range(4, 8)]
    for t in range(100, 130):
        cache.write(make_line("a", 0, t))
    assert [cache.snapshot_set(0)[w] for w in range(4, 8)] == b_ways
    assert all(not cache.snapshot_set(0)[w].valid or
               cache.snapshot_set(0)[w].tag[0] == "a" for w in range(0, 4))


def test_latency_model_jitter_bounds():
    cache = Cache(latency=LatencyModel(jitter=2), seed=3)
    for t in range(50):
        out = cache.read(make_line("a", 0, t))
        assert abs(out.latency - 11) <= 2


@pytest.mark.parametrize("name", ["hit", "miss_clean", "miss_dirty", "jitter"])
def test_latency_model_rejects_negative_values_by_name(name):
    with pytest.raises(ValueError, match=name):
        LatencyModel(**{name: -1})


def test_determinism_random_policy_with_jitter():
    def run():
        cache = Cache(policy="random", latency=LatencyModel(jitter=3), seed=42)
        outcomes = []
        for t in range(200):
            outcomes.append(cache.access(make_line("a", t % 2, t % 12), t % 3 != 0))
        return outcomes, {a: dataclasses.asdict(c) for a, c in cache.counters.items()}, cache.cycles

    assert run() == run()


ops = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 3),
              st.integers(0, 11), st.booleans()),
    min_size=1, max_size=120)


@settings(max_examples=40, deadline=None)
@given(ops=ops)
def test_counter_conservation(ops):
    cache = Cache()
    dirty_evictions = 0
    for actor, set_index, tag, is_write in ops:
        out = cache.access(make_line(actor, set_index, tag), is_write)
        dirty_evictions += out.kind is OutcomeKind.MISS_EVICT_DIRTY
    total = {"loads": 0, "stores": 0, "l1_hits": 0, "l1_misses": 0, "writebacks": 0}
    for counters in cache.counters.values():
        for key, value in dataclasses.asdict(counters).items():
            total[key] += value
    assert total["l1_hits"] + total["l1_misses"] == total["loads"] + total["stores"]
    assert total["writebacks"] == dirty_evictions


@settings(max_examples=40, deadline=None)
@given(ops=ops)
def test_dirty_lines_only_clean_by_eviction(ops):
    cache = Cache()
    dirty_tags = set()
    for actor, set_index, tag, is_write in ops:
        cache.access(make_line(actor, set_index, tag), is_write)
        resident = {(set_index, s.tag) for s in cache.snapshot_set(set_index) if s.valid}
        now_dirty = {(set_index, s.tag) for s in cache.snapshot_set(set_index) if s.dirty}
        # a previously dirty line that is still resident must still be dirty
        for entry in dirty_tags:
            if entry[0] == set_index and entry in resident:
                assert entry in now_dirty
        dirty_tags = {e for e in dirty_tags if e[0] != set_index} | now_dirty


@settings(max_examples=30, deadline=None)
@given(ops=ops)
def test_write_through_never_writes_back(ops):
    cache = Cache(CacheGeometry(write_policy=WT))
    for actor, set_index, tag, is_write in ops:
        out = cache.access(make_line(actor, set_index, tag), is_write)
        assert out.kind is not OutcomeKind.MISS_EVICT_DIRTY
