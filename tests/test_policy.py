import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtysim.cache import Cache, OutcomeKind, make_line
from dirtysim.policy import (POLICIES, RandomPolicy, TreePLRU, TrueLRU,
                             analytic_dirty_eviction_probability,
                             dirty_eviction_experiment,
                             eviction_distance_experiment, make_policy)
from dirtysim.seeding import derive_seed

from oracles import (dirty_eviction_fraction, eviction_distance_fraction,
                     plru_eviction_fraction, plru_touch, plru_victim)

ALL = tuple(range(8))


def test_lru_evicts_oldest():
    pol = TrueLRU(8)
    meta = pol.new_set_meta()
    for w in range(8):
        pol.on_access(meta, w)
    assert pol.select_victim(meta, ALL) == 0


def test_lru_reaccess_promotes():
    pol = TrueLRU(8)
    meta = pol.new_set_meta()
    for w in range(8):
        pol.on_access(meta, w)
    pol.on_access(meta, 0)  # oldest becomes newest
    assert pol.select_victim(meta, ALL) == 1


def test_tree_plru_metadata_is_w_minus_1_bits():
    for ways in (2, 4, 8, 16):
        assert len(TreePLRU(ways).new_set_meta()) == ways - 1
    with pytest.raises(ValueError):
        TreePLRU(6)


def test_tree_plru_two_way_alternates():
    pol = TreePLRU(2)
    meta = pol.new_set_meta()
    pol.on_access(meta, 0)
    assert pol.select_victim(meta, (0, 1)) == 1
    pol.on_access(meta, 1)
    assert pol.select_victim(meta, (0, 1)) == 0


def test_tree_plru_never_victimizes_last_touch():
    pol = TreePLRU(8)
    for state in range(128):
        for way in range(8):
            meta = [(state >> i) & 1 for i in range(7)]
            pol.on_access(meta, way)
            assert pol.select_victim(meta, ALL) != way


def test_tree_plru_matches_bitmask_oracle_on_all_states():
    pol = TreePLRU(8)
    for state in range(128):
        meta = [(state >> i) & 1 for i in range(7)]
        assert pol.select_victim(meta, ALL) == plru_victim(state)
        # touch agreement: compare resulting victim after touching each way
        for way in range(8):
            lib_meta = list(meta)
            pol.on_access(lib_meta, way)
            oracle_state = plru_touch(state, way)
            assert pol.select_victim(lib_meta, ALL) == plru_victim(oracle_state)


def test_tree_plru_partitioned_walk_stays_in_partition():
    pol = TreePLRU(8)
    subset = (2, 5, 6)
    for state in range(128):
        meta = [(state >> i) & 1 for i in range(7)]
        assert pol.select_victim(meta, subset) in subset
    with pytest.raises(ValueError):
        pol.select_victim(pol.new_set_meta(), ())


def test_random_policy_is_reproducible_and_stateless():
    a = RandomPolicy(seed=5)
    b = RandomPolicy(seed=5)
    seq_a = [a.select_victim(None, ALL) for _ in range(50)]
    seq_b = [b.select_victim(None, ALL) for _ in range(50)]
    assert seq_a == seq_b
    meta = a.new_set_meta()
    a.on_access(meta, 3)
    assert meta is None


def test_random_policy_uniform_within_3_sigma():
    pol = RandomPolicy(seed=123)
    draws = 100_000
    counts = [0] * 8
    for _ in range(draws):
        counts[pol.select_victim(None, ALL)] += 1
    mean = draws / 8
    sigma = (draws * (1 / 8) * (7 / 8)) ** 0.5
    assert all(abs(c - mean) <= 3 * sigma for c in counts), counts


def test_make_policy_names_and_rejection():
    assert isinstance(make_policy("lru"), TrueLRU)
    assert isinstance(make_policy("tree-plru"), TreePLRU)
    assert isinstance(make_policy("random"), RandomPolicy)
    with pytest.raises(ValueError):
        make_policy("mru")
    with pytest.raises(ValueError):
        make_policy(TrueLRU())  # names only: a shared instance would share state


def test_random_policy_cache_seeds_its_generator_once(monkeypatch):
    seeds = []

    class CountingRandom(random.Random):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", CountingRandom)
    cache = Cache(policy="random", seed=7)
    assert seeds == [7]
    cache = Cache(policy="random", seed=8)
    assert seeds == [7, 8]
    # Draws still follow a generator seeded with the cache's seed.
    expected = CountingRandom(8)
    assert [cache.policy.select_victim(None, ALL) for _ in range(20)] == \
        [expected.choice(ALL) for _ in range(20)]


# -- eviction-distance experiment ---------------------------------------------

def test_eviction_distance_lru_table_row():
    assert eviction_distance_experiment("lru", 8, 2000, seed=1).evicted_fraction == 1.0
    assert eviction_distance_experiment("lru", 7, 2000, seed=1).evicted_fraction == 0.0


def test_eviction_distance_tree_plru_table_row():
    assert eviction_distance_experiment("tree-plru", 9, 2000, seed=1).evicted_fraction == 1.0


def test_eviction_distance_tree_plru_agrees_with_enumeration():
    # The exhaustive oracle is exact: any 8 consecutive insert-touches visit
    # all 8 ways, so the probe line is out by N=8 from every tree state.
    assert plru_eviction_fraction(9) == 1.0
    assert plru_eviction_fraction(8) == 1.0
    assert plru_eviction_fraction(7) == 0.0
    mc = eviction_distance_experiment("tree-plru", 8, 2000, seed=1).evicted_fraction
    assert mc == plru_eviction_fraction(8)


def test_eviction_distance_random_policy_matches_closed_form():
    trials = 4000
    result = eviction_distance_experiment("random", 8, trials, seed=3)
    expected = 1 - (7 / 8) ** 8
    sigma = (expected * (1 - expected) / trials) ** 0.5
    assert abs(result.evicted_fraction - expected) < 3 * sigma


@settings(max_examples=100, deadline=None)
@given(policy=st.sampled_from(sorted(POLICIES)), n=st.integers(1, 20),
       trials=st.integers(1, 50), seed=st.integers())
def test_eviction_distance_curve_matches_per_point_oracle(policy, n, trials, seed):
    result = eviction_distance_experiment(policy, n, trials, seed)
    assert result.trials == trials
    assert len(result.evicted_within) == n
    for k in range(1, n + 1):
        assert result.evicted_within[k - 1] == eviction_distance_fraction(policy, k, trials, seed), k
    assert result.evicted_fraction == result.evicted_within[-1]


def test_eviction_distance_validation():
    with pytest.raises(ValueError):
        eviction_distance_experiment("lru", 0, 10, seed=0)
    with pytest.raises(ValueError):
        eviction_distance_experiment("lru", 33, 10, seed=0)  # above 4*W cap
    with pytest.raises(ValueError):
        eviction_distance_experiment("lru", 8, 0, seed=0)


# -- dirty-eviction experiment -------------------------------------------------

def test_dirty_eviction_all_ways_dirty_is_certain():
    assert dirty_eviction_experiment(8, 1, 500, seed=2).evicted_fraction == 1.0


def test_dirty_eviction_no_dirty_lines_never_succeeds():
    assert dirty_eviction_experiment(0, 13, 500, seed=2).evicted_fraction == 0.0


def test_dirty_eviction_tracks_analytic_probability():
    trials = 10_000
    for d, l in [(2, 8), (3, 10), (3, 13)]:
        mc = dirty_eviction_experiment(d, l, trials, seed=7).evicted_fraction
        p = analytic_dirty_eviction_probability(8, d, l)
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(mc - p) < 4 * sigma + 1e-9, (d, l, mc, p)


def test_dirty_eviction_monotone_in_d_and_l_for_fixed_seed():
    trials = 2000
    grid = {(d, l): dirty_eviction_experiment(d, l, trials, seed=11).evicted_fraction
            for d in (1, 2, 3) for l in (8, 10, 13)}
    for d in (1, 2):
        for l in (8, 10, 13):
            assert grid[(d, l)] <= grid[(d + 1, l)]
    for d in (1, 2, 3):
        assert grid[(d, 8)] <= grid[(d, 10)] <= grid[(d, 13)]


@settings(max_examples=100, deadline=None)
@given(d=st.integers(0, 8), l=st.integers(1, 20), trials=st.integers(1, 50),
       seed=st.integers())
def test_dirty_eviction_curve_matches_per_point_oracle(d, l, trials, seed):
    result = dirty_eviction_experiment(d, l, trials, seed)
    assert result.trials == trials
    assert len(result.evicted_within) == l
    for k in range(1, l + 1):
        assert result.evicted_within[k - 1] == dirty_eviction_fraction(d, k, trials, seed), k
    assert result.evicted_fraction == result.evicted_within[-1]


def test_dirty_eviction_validation():
    with pytest.raises(ValueError):
        dirty_eviction_experiment(9, 10, 10, seed=0)
    with pytest.raises(ValueError):
        dirty_eviction_experiment(3, 0, 10, seed=0)


# -- analytic formula ----------------------------------------------------------

def test_analytic_known_values():
    assert abs(analytic_dirty_eviction_probability(8, 3, 10) - 0.9909) < 1e-4
    assert analytic_dirty_eviction_probability(8, 0, 25) == 0.0
    assert analytic_dirty_eviction_probability(8, 8, 1) == 1.0


def test_analytic_validation():
    with pytest.raises(ValueError):
        analytic_dirty_eviction_probability(8, 9, 1)
    with pytest.raises(ValueError):
        analytic_dirty_eviction_probability(0, 0, 1)
    with pytest.raises(ValueError):
        analytic_dirty_eviction_probability(8, 1, -1)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(0, 7), l=st.integers(0, 30))
def test_analytic_monotone(d, l):
    base = analytic_dirty_eviction_probability(8, d, l)
    assert base <= analytic_dirty_eviction_probability(8, d + 1, l)
    assert base <= analytic_dirty_eviction_probability(8, d, l + 1)
    assert 0.0 <= base <= 1.0


# -- cross-check against the full cache model ----------------------------------

def test_dirty_eviction_experiment_agrees_with_cache_pipeline():
    """Replay the experiment through the real cache under the random policy."""
    d, l, trials = 3, 10, 3000
    successes = 0
    for t in range(trials):
        cache = Cache(policy="random", seed=derive_seed(99, "pipeline", t))
        for i in range(8 - d):
            cache.read(make_line("filler", 0, i))
        for j in range(d):
            cache.write(make_line("sender", 0, j))
        evicted = False
        for r in range(l):
            out = cache.read(make_line("receiver", 0, 1000 + r))
            evicted = evicted or out.kind is OutcomeKind.MISS_EVICT_DIRTY
        successes += evicted
    pipeline = successes / trials
    direct = dirty_eviction_experiment(d, l, trials, seed=555).evicted_fraction
    p = analytic_dirty_eviction_probability(8, d, l)
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(pipeline - p) < 4 * sigma
    assert abs(direct - pipeline) < 8 * sigma
