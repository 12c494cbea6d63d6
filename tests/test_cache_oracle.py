"""Differential test: the package cache against `oracles.ReferenceCache`.

Random streams of (actor, set, tag, byte offset, read/write) run through
both models; after every access the outcome kind, victim way, latency,
per-actor counters, cycle total and the set's dirty count must agree, and the
reference's own writeback flag must be set exactly on a dirty eviction.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtysim.cache import (Cache, CacheGeometry, LatencyModel, LineRef,
                            OutcomeKind, WritePolicy, make_line)
from oracles import ReferenceCache

NUM_SETS = 2
# Irregular, non-contiguous partitions, so the Tree-PLRU walk must skip
# subtrees at every level.
PARTITION = {"a": (0, 3, 5), "b": (1, 2, 4, 6, 7)}
MODES = {
    "write-back": dict(write_policy=WritePolicy.WRITE_BACK_ALLOCATE),
    "write-through": dict(write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE),
    "partition": dict(partition=PARTITION),
}

streams = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(0, NUM_SETS - 1),
              st.integers(0, 13), st.integers(0, 63), st.booleans()),
    min_size=1, max_size=80)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("policy", ["lru", "tree-plru", "random"])
@settings(max_examples=60, deadline=None)
@given(stream=streams, seed=st.integers(0, 2**32), jitter=st.sampled_from([0, 3]))
def test_cache_matches_reference(policy, mode, stream, seed, jitter):
    geo = CacheGeometry(num_sets=NUM_SETS, **MODES[mode])
    cache = Cache(geo, policy, LatencyModel(jitter=jitter), seed=seed)
    ref = ReferenceCache(policy, num_sets=NUM_SETS, seed=seed, jitter=jitter,
                         write_back=geo.write_policy is WritePolicy.WRITE_BACK_ALLOCATE,
                         partition=geo.partition and PARTITION)
    for actor, set_index, tag, offset, write in stream:
        if mode == "partition" and actor == "c":
            actor = "a"
        line = make_line(actor, set_index, tag, geo)
        line = LineRef(actor, line.address + offset)
        got = cache.access(line, write)
        want = ref.access(actor, line.address, write)
        writeback = got.kind is OutcomeKind.MISS_EVICT_DIRTY
        assert (got.kind.value, got.victim_way, writeback, got.latency) == want
        assert {a: dataclasses.asdict(c) for a, c in cache.counters.items()} == ref.counters
        assert cache.cycles == ref.cycles
        assert cache.dirty_count(set_index) == ref.dirty_count(set_index)
