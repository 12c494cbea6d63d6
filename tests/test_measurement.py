
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtysim import measurement
from dirtysim.cache import Cache, CacheGeometry, LatencyModel, make_line
from dirtysim.channel import ChannelConfig
from dirtysim.measurement import (build_replacement_set, fill_set, latency_cdf,
                                  measure_replacement_latency, prime_dirty_probe,
                                  probe_totals)
from dirtysim.policy import POLICIES
from dirtysim.seeding import derive_seed

from oracles import shuffled

GEO = CacheGeometry()


def prepared_cache(d, latency=None, seed=0):
    """The set filled with 8 clean receiver lines, then d dirty sender lines."""
    cache = Cache(GEO, "lru", latency, seed=seed)
    for i in range(GEO.associativity):
        cache.access(make_line("receiver", i), False)
    for j in range(d):
        cache.access(make_line("sender", j), True)
    return cache


def test_build_replacement_set_shape():
    # Set `index` of a set of `ways` ways starts at ways + index*size, and
    # is chased in tag order.  Neither the size nor the way count has a
    # default: with ways=0, set 0 would overlap a fill's tags 0..W-1.
    assert build_replacement_set(10, ways=0) == tuple(range(10))
    assert build_replacement_set(10, ways=7) == tuple(range(7, 17))
    assert build_replacement_set(10, ways=7, index=2) == tuple(range(27, 37))
    with pytest.raises(TypeError):
        build_replacement_set(10)


def test_a_probe_reads_the_actor_its_caller_names():
    # The replacement set holds tags only: the probe's actor is the one
    # passed to it, not a default.
    cache = Cache(GEO, "lru")
    rset = build_replacement_set(10, ways=0)
    sample = measure_replacement_latency(cache, "r", rset)
    assert sample.total_cycles == 10 * 11
    # Eight fills, then LRU evicts ways 0 and 1 for the last two tags.
    assert cache.set_state()[0] == tuple(("r", tag) for tag in rset[8:] + rset[2:8])
    assert set(cache.counters) == {"r"}


def test_build_replacement_set_singleton():
    rset = build_replacement_set(1, ways=0)
    assert rset == (0,)


def test_build_replacement_set_rejects_empty():
    with pytest.raises(ValueError, match="^size must be >= 1$"):
        build_replacement_set(0, ways=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"size": 8.5}, "^size must be an int, not 8.5$"),
    ({"ways": -1}, "^ways must be >= 0$"),
    ({"ways": 1.5}, "^ways must be an int, not 1.5$"),
    ({"index": -1}, "^index must be >= 0$"),
    ({"index": True}, "^index must be an int, not True$"),
])
def test_build_replacement_set_rejects_a_bad_size_or_layout(kwargs, message):
    with pytest.raises(ValueError, match=message):
        build_replacement_set(**{"size": 10, "ways": 0, **kwargs})


@pytest.mark.parametrize("ways", [1, 2, 8, 999, 1000, 1024, 3000])
@pytest.mark.parametrize("extra", [0, 1, 7, 2000])
def test_replacement_sets_share_no_tag_with_a_fill_or_each_other(ways, extra):
    # A fill uses tags 0..ways-1; each replacement set must start past them
    # and past the set before it.
    size = ways + extra
    sets = [set(range(ways))] + [
        set(build_replacement_set(size, ways=ways, index=p))
        for p in (0, 1)]
    assert sum(map(len, sets)) == len(set().union(*sets)) == 3 * ways + 2 * extra


def test_probe_totals_above_1000_ways_hit_no_primed_line():
    # With the sets at tag 1000, 1024 ways gave 11,096 and 11,107: the probe
    # hit 24 of the lines its own prime left.
    geometry = CacheGeometry(associativity=1024)
    assert probe_totals([0, 1], 1, ("x",), geometry=geometry, policy="lru", latency=None,
                        rset_size=1024) == [(0, [11264]), (1, [11275])]


@pytest.mark.parametrize("d", range(9))
def test_totals_are_110_plus_11d(d):
    # independent arithmetic: (8-d) clean evictions, d dirty, 2 self-evictions
    expected = (8 - d) * 11 + d * 22 + 2 * 11
    assert expected == 110 + 11 * d
    cache = prepared_cache(d)
    rset = shuffled(build_replacement_set(10, ways=8), d)
    sample = measure_replacement_latency(cache, "receiver", rset)
    assert sample.total_cycles == expected
    assert sample.dirty_before == d
    assert sample.resident_hits == 0


def test_total_is_sum_of_individual_latencies():
    cache = prepared_cache(3)
    rset = build_replacement_set(10, ways=8)
    shadow = prepared_cache(3)
    individual = [shadow.access(make_line("receiver", tag), False) for tag in rset]
    assert measure_replacement_latency(cache, "receiver", rset).total_cycles == sum(individual)


def test_adjacent_d_step_equals_dirty_minus_clean_cost():
    model = LatencyModel(hit=4, miss_clean=10, miss_dirty=23)
    totals = []
    for d in range(9):
        cache = prepared_cache(d, latency=model)
        rset = shuffled(build_replacement_set(10, ways=8), d)
        totals.append(measure_replacement_latency(cache, "receiver", rset).total_cycles)
    steps = {b - a for a, b in zip(totals, totals[1:])}
    assert steps == {model.miss_dirty - model.miss_clean}


def test_resident_lines_flagged_not_fatal():
    # With L > W, rerunning the same chase order self-thrashes and still
    # misses everywhere; a W-sized set left fully resident shows the flag.
    cache = prepared_cache(0)
    rset = build_replacement_set(8, ways=8)
    first = measure_replacement_latency(cache, "receiver", rset)
    assert not first.precondition_violated
    again = measure_replacement_latency(cache, "receiver", rset)
    assert again.precondition_violated
    assert again.resident_hits == 8


def test_same_order_reuse_self_thrashes_instead_of_hitting():
    cache = prepared_cache(0)
    rset = build_replacement_set(10, ways=8)
    measure_replacement_latency(cache, "receiver", rset)
    again = measure_replacement_latency(cache, "receiver", rset)
    assert again.resident_hits == 0  # LRU evicts each line just before its turn


def test_measurement_doubles_as_initialization():
    cache = prepared_cache(8)
    rset_a = build_replacement_set(10, ways=8)
    measure_replacement_latency(cache, "receiver", rset_a)
    assert cache.dirty_count() == 0
    rset_b = build_replacement_set(10, ways=8, index=1)
    sample = measure_replacement_latency(cache, "receiver", rset_b)
    assert sample.total_cycles == 110
    assert sample.resident_hits == 0


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       geo=st.sampled_from([GEO, CacheGeometry(associativity=4),
                            CacheGeometry(associativity=16)]),
       policy=st.sampled_from(sorted(POLICIES)),
       jitter=st.sampled_from([0, 3]),
       cache_seed=st.integers(0, 2**64 - 1))
def test_chase_order_does_not_change_total(data, geo, policy, jitter, cache_seed):
    # Why latency_cdf and calibration chase one order in every trial: on a
    # fresh cache every replacement line misses, victims depend on ways
    # only, and jitter is drawn per access in access order.
    ways = geo.associativity
    d = data.draw(st.integers(0, ways), label="d")
    size = data.draw(st.integers(ways, 24), label="size")
    order = data.draw(st.permutations(range(size)), label="order")
    tags = [1000 + i for i in range(size)]
    results = []
    for chased in (tags, [tags[i] for i in order]):
        cache = Cache(geo, policy, LatencyModel(jitter=jitter), seed=cache_seed)
        sample = prime_dirty_probe(cache, tuple(chased), d)
        results.append((sample.total_cycles, sample.dirty_before,
                        sample.resident_hits, cache.cycles))
    assert results[0] == results[1]


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       policy=st.sampled_from(sorted(POLICIES)),
       jitter=st.sampled_from([0, 3]),
       parts=st.lists(st.one_of(st.integers(), st.text(max_size=4)), max_size=3),
       rset_size=st.integers(GEO.associativity, 16),
       trials=st.integers(1, 6))
def test_probe_totals_equals_one_fresh_cache_per_trial(data, policy, jitter, parts,
                                                       rset_size, trials):
    # Simulating a cache that draws nothing once per level must give exactly
    # the totals of the straight per-trial loop, and a cache that draws must
    # still run every trial on its own seed.
    ways = GEO.associativity
    levels = data.draw(st.lists(st.integers(0, ways), min_size=1, max_size=3),
                       label="levels")
    lat = LatencyModel(jitter=jitter)
    rset = build_replacement_set(rset_size, ways=ways)
    expected = [(d, [prime_dirty_probe(Cache(GEO, policy, lat,
                                             seed=derive_seed(*parts, d, t)),
                                       rset, d).total_cycles
                     for t in range(trials)])
                for d in levels]
    assert probe_totals(levels, trials, parts, geometry=GEO, policy=policy, latency=lat,
                        rset_size=rset_size) == expected


@pytest.mark.parametrize("policy, jitter, per_level", [
    ("lru", 0, 1), ("tree-plru", 0, 1),
    ("random", 0, 5), ("lru", 2, 5), ("tree-plru", 2, 5), ("random", 2, 5),
])
def test_probe_totals_simulates_a_level_once_only_when_nothing_draws(
        monkeypatch, policy, jitter, per_level):
    built, derived = [], []

    def counting_cache(*args, **kwargs):
        built.append(args)
        return Cache(*args, **kwargs)

    def counting_seed(*parts):
        derived.append(parts)
        return derive_seed(*parts)

    monkeypatch.setattr(measurement, "Cache", counting_cache)
    monkeypatch.setattr(measurement, "derive_seed", counting_seed)
    levels = [0, 3, 8]
    table = probe_totals(levels, 5, (1, "x"), geometry=GEO, policy=policy,
                         latency=LatencyModel(jitter=jitter), rset_size=10)
    assert [len(totals) for _, totals in table] == [5] * len(levels)
    assert len(built) == per_level * len(levels)
    assert derived == [(1, "x", d, t) for d in levels for t in range(per_level)]


def test_latency_cdf_point_masses_without_jitter():
    table = latency_cdf(range(9), trials=4, seed=5)
    for d, samples in table:
        assert samples == [110 + 11 * d] * 4


@pytest.mark.parametrize("rset_size", range(8, 17))
@pytest.mark.parametrize("policy", ["lru", "tree-plru"])
def test_latency_cdf_is_a_point_mass_for_deterministic_policies(policy, rset_size):
    # Under lru and tree-plru every replacement line misses and the probe
    # writes back each of the d dirty lines exactly once, whatever the seed.
    lat = LatencyModel()
    for seed in (0, 1, 2024, -7):
        table = latency_cdf(range(9), trials=3, seed=seed, policy=policy,
                            rset_size=rset_size)
        assert [d for d, _ in table] == list(range(9))
        for d, samples in table:
            total = rset_size * lat.miss_clean + d * (lat.miss_dirty - lat.miss_clean)
            assert samples == [total] * 3, (seed, d)


def test_latency_cdf_band_separation_arithmetic():
    # Adjacent means sit 11 cycles apart; each access carries +-j, so a
    # 10-access total stays within +-10j of its mean.  Bands are therefore
    # guaranteed disjoint exactly when the total half-width is below 5.5,
    # which only j=0 achieves for integer j.
    j = 1
    table = latency_cdf([3, 4], trials=60, seed=5, latency=LatencyModel(jitter=j))
    for d, samples in table:
        assert all(abs(s - (110 + 11 * d)) <= 10 * j for s in samples)
    assert 10 * j >= 5.5  # worst-case envelopes of adjacent bands collide
    clean = latency_cdf([3, 4], trials=10, seed=5)
    assert max(clean[0][1]) < min(clean[1][1])  # j=0: disjoint point masses


def test_latency_cdf_ordering_of_means():
    table = latency_cdf([0, 2, 5, 8], trials=20, seed=2, latency=LatencyModel(jitter=2))
    means = [sum(s) / len(s) for _, s in table]
    assert means == sorted(means)
    assert means[0] < means[-1]


def test_latency_cdf_validates_d():
    with pytest.raises(ValueError):
        latency_cdf([9], trials=1, seed=0)


def test_latency_cdf_fails_before_simulating(monkeypatch):
    # A bad d late in the list must not cost the caches of the good ones.
    built = []

    def counting_cache(*args, **kwargs):
        built.append(args)
        return Cache(*args, **kwargs)

    monkeypatch.setattr(measurement, "Cache", counting_cache)
    with pytest.raises(ValueError, match="d=9 outside 0..8"):
        latency_cdf([0, 9], trials=1, seed=0)
    assert built == []


@pytest.mark.parametrize("call, message", [
    (([0], 2, 1, 8.5), "^rset_size must be an int, not 8.5$"),
    (([0], 2.5, 1, 10), "^trials must be an int, not 2.5$"),
    (([0, 0.5], 2, 1, 10), "^d must be an int, not 0.5$"),
    (([True], 2, 1, 10), "^d must be an int, not True$"),
])
def test_latency_cdf_rejects_a_non_int_before_simulating(monkeypatch, call, message):
    # Each of these used to raise TypeError from inside `range`, or (a bool
    # level) to run and label its row True.
    built = []

    def counting_cache(*args, **kwargs):
        built.append(args)
        return Cache(*args, **kwargs)

    monkeypatch.setattr(measurement, "Cache", counting_cache)
    d_values, trials, seed, rset_size = call
    with pytest.raises(ValueError, match=message):
        latency_cdf(d_values, trials, seed, rset_size=rset_size)
    assert built == []


@pytest.mark.parametrize("rset_size", [0, 4, 7])
def test_latency_cdf_rejects_rset_below_associativity(rset_size):
    # A set smaller than W cannot replace every line, so its totals would
    # be short (44 and 88 cycles at size 4) instead of 110 + 11d.
    with pytest.raises(ValueError) as cdf_error:
        latency_cdf([0, 8], trials=2, seed=1, rset_size=rset_size)
    with pytest.raises(ValueError) as channel_error:
        ChannelConfig(message="1", rset_size=rset_size)
    assert str(cdf_error.value) == str(channel_error.value)
    assert f"rset_size {rset_size} is below the associativity 8" in str(cdf_error.value)


def test_latency_cdf_accepts_rset_of_exactly_associativity():
    # Eight replacement lines evict all eight residents: 8 refills, d dirty.
    table = latency_cdf([0, 8], trials=2, seed=1, rset_size=8)
    assert table == [(0, [88, 88]), (8, [176, 176])]


def test_fill_set_reads_prime_clean_and_writes_dirty():
    cache = Cache(GEO)
    assert fill_set(cache, "receiver", 8) == 8 * 11  # eight invalid fills
    assert cache.set_state()[0] == tuple(("receiver", t) for t in range(8))
    assert cache.dirty_count() == 0
    assert fill_set(cache, "receiver", 8) == 8 * 4  # the same tags now hit
    assert fill_set(cache, "sender", 3, write=True) == 3 * 11
    assert cache.dirty_count() == 3
    assert cache.counters["sender"]["stores"] == 3
    assert fill_set(cache, "sender", 0, write=True) == 0


@pytest.mark.parametrize("d", [0, 3, 8])
def test_prime_dirty_probe_on_a_fresh_cache(d):
    cache = Cache(GEO, "lru")
    rset = shuffled(build_replacement_set(10, ways=8), d)
    sample = prime_dirty_probe(cache, rset, d)
    assert (sample.dirty_before, sample.total_cycles, sample.resident_hits) == (d, 110 + 11 * d, 0)
    assert sum(c["stores"] for c in cache.counters.values()) == d
    assert cache.counters["receiver"]["loads"] == GEO.associativity + 10
    assert cache.dirty_count() == 0


def test_tree_plru_totals_match_lru_when_l_covers_the_set():
    # L=10 >= 9 guarantees full eviction under tree-PLRU as well, so the
    # totals collapse to the same 110 + 11d arithmetic.
    table = latency_cdf(range(9), trials=2, seed=3, policy="tree-plru")
    for d, samples in table:
        assert samples == [110 + 11 * d] * 2
