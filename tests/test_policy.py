import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirtysim.cache import Cache, OutcomeKind, make_line
from dirtysim.policy import (POLICIES, RandomPolicy, TreePLRU, TrueLRU,
                             analytic_dirty_eviction_probability,
                             dirty_eviction_experiment,
                             eviction_distance_experiment, make_policy)
from dirtysim.seeding import derive_seed

from oracles import (access_kind, dirty_eviction_fraction, eviction_distance_fraction,
                     plru_eviction_fraction, plru_touch, plru_victim)

ALL = tuple(range(8))


def test_lru_evicts_oldest():
    pol = TrueLRU(8)
    meta = pol.new_set_meta()
    for w in range(8):
        meta = pol.on_access(meta, w)
    assert pol.select_victim(meta, ALL) == 0


def test_lru_reaccess_promotes():
    pol = TrueLRU(8)
    meta = pol.new_set_meta()
    for w in range(8):
        meta = pol.on_access(meta, w)
    meta = pol.on_access(meta, 0)  # oldest becomes newest
    assert pol.select_victim(meta, ALL) == 1


def test_lru_metadata_is_the_recency_order():
    pol = TrueLRU(8)
    meta = pol.new_set_meta()
    assert meta == list(range(8))
    for w in (3, 5, 3):
        meta = pol.on_access(meta, w)
    assert meta == [0, 1, 2, 4, 6, 7, 5, 3]
    assert pol.select_victim(meta, ALL) == 0
    # A partial candidate list: its least recently used way.
    assert pol.select_victim(meta, (3, 5, 6)) == 6
    assert pol.select_victim(meta, (3, 5)) == 5


@pytest.mark.parametrize("cls", [TrueLRU, TreePLRU])
def test_select_victim_rejects_an_empty_candidate_list(cls):
    pol = cls(8)
    with pytest.raises(ValueError, match="no candidate ways"):
        pol.select_victim(pol.new_set_meta(), ())


def test_tree_plru_metadata_is_w_minus_1_bits():
    for ways in (2, 4, 8, 16):
        pol = TreePLRU(ways)
        assert pol.new_set_meta() == 0
        full = (1 << (ways - 1)) - 1
        # Every touch stays inside the W-1 bits, and the touches of all ways
        # reach each of them.
        touched = [pol.on_access(state, way) for state in (0, full) for way in range(ways)]
        assert all(0 <= meta <= full for meta in touched)
        reached = 0
        for meta in touched:
            reached |= meta
        assert reached == full
    with pytest.raises(ValueError):
        TreePLRU(6)


def test_tree_plru_two_way_alternates():
    pol = TreePLRU(2)
    meta = pol.on_access(pol.new_set_meta(), 0)
    assert pol.select_victim(meta, (0, 1)) == 1
    meta = pol.on_access(meta, 1)
    assert pol.select_victim(meta, (0, 1)) == 0


def test_tree_plru_never_victimizes_last_touch():
    pol = TreePLRU(8)
    for state in range(128):
        for way in range(8):
            assert pol.select_victim(pol.on_access(state, way), ALL) != way


def test_tree_plru_matches_bitmask_oracle_on_all_states():
    pol = TreePLRU(8)
    for state in range(128):
        assert pol.select_victim(state, ALL) == plru_victim(state)
        # touch agreement: the same state, and the same victim after it
        for way in range(8):
            oracle_state = plru_touch(state, way)
            assert pol.on_access(state, way) == oracle_state
            assert pol.select_victim(pol.on_access(state, way), ALL) == plru_victim(oracle_state)


@pytest.mark.parametrize("ways", [2, 4, 8])
def test_tree_plru_is_the_oracle_on_every_state_way_and_subset(ways):
    pol = TreePLRU(ways)
    full = tuple(range(ways))
    # Every non-empty subset: at W = 8, the CLI's and the partition
    # defense's way count, 128 states by 255 subsets.
    subsets = [tuple(w for w in full if mask >> w & 1) for mask in range(1, 1 << ways)]
    for state in range(1 << (ways - 1)):
        for way in full:
            assert pol.on_access(state, way) == plru_touch(state, way, ways), (state, way)
        assert pol.select_victim(state, full) == plru_victim(state, ways), state
        for subset in subsets:
            assert pol.select_victim(state, subset) == \
                plru_victim(state, ways, allowed=subset), (state, subset)


@pytest.mark.parametrize("ways", [16, 32, 64])
def test_tree_plru_is_the_oracle_on_sampled_states_of_a_wide_tree(ways):
    pol = TreePLRU(ways)
    full = tuple(range(ways))
    rng = random.Random(ways)
    for _ in range(200):
        state = rng.getrandbits(ways - 1)
        subset = tuple(sorted(rng.sample(full, rng.randint(1, ways - 1))))
        way = rng.randrange(ways)
        assert pol.on_access(state, way) == plru_touch(state, way, ways), (state, way)
        assert pol.select_victim(state, full) == plru_victim(state, ways), state
        assert pol.select_victim(state, subset) == \
            plru_victim(state, ways, allowed=subset), (state, subset)
    assert vars(pol) == {"ways": ways}


def test_tree_plru_order_memo_stays_bounded(monkeypatch):
    # A wide tree has too many states to remember them all: the memo starts
    # over when full, and every victim is still the walk's.
    monkeypatch.setattr(TreePLRU, "_ORDERS_CAP", 4)
    pol = TreePLRU(32)
    full = tuple(range(32))
    rng = random.Random(5)
    for _ in range(50):
        state = rng.getrandbits(31)
        assert pol.select_victim(state, full) == plru_victim(state, 32), state
        assert len(TreePLRU._orders[32]) <= 4


def loop_touch(meta, way, ways):
    """A touch as the parent-and-bit loop walks it: each parent points away from its child."""
    idx = way + ways
    while idx > 1:
        parent = idx >> 1
        meta[parent - 1] = 1 if idx & 1 == 0 else 0
        idx = parent


@pytest.mark.parametrize("ways", [2, 4, 8, 16, 32, 64])
def test_tree_plru_touch_writes_the_loop_rules_root_path(ways):
    pol = TreePLRU(ways)
    rng = random.Random(ways)
    for _ in range(50):
        state = [rng.randint(0, 1) for _ in range(ways - 1)]
        for way in range(ways):
            expected = list(state)
            loop_touch(expected, way, ways)
            # Bit i of the int metadata is node i + 1's bit.
            meta = pol.on_access(sum(bit << i for i, bit in enumerate(state)), way)
            assert [meta >> i & 1 for i in range(ways - 1)] == expected, (state, way)
            assert meta >> (ways - 1) == 0, (state, way)
    assert vars(pol) == {"ways": ways}  # the masks and orders are the class's, shared per W


def test_tree_plru_partitioned_walk_stays_in_partition():
    pol = TreePLRU(8)
    subset = (2, 5, 6)
    for state in range(128):
        assert pol.select_victim(state, subset) in subset
    with pytest.raises(ValueError):
        pol.select_victim(pol.new_set_meta(), ())


def test_random_policy_is_reproducible_and_stateless():
    a = RandomPolicy(seed=5)
    b = RandomPolicy(seed=5)
    seq_a = [a.select_victim(None, ALL) for _ in range(50)]
    seq_b = [b.select_victim(None, ALL) for _ in range(50)]
    assert seq_a == seq_b
    assert list(vars(a)) == ["_rng"]  # its generator is all it holds
    meta = a.new_set_meta()
    assert meta is None
    assert a.on_access(meta, 3) is None


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


@pytest.mark.parametrize("policy", ["lru", "tree-plru", "random"])
def test_only_a_drawing_policy_runs_every_trial(policy, monkeypatch):
    # A policy that draws nothing replays one trial exactly: it runs once,
    # derives no seed and builds no generator.
    import dirtysim.policy as policy_module
    cls = POLICIES[policy]
    calls, derived, generators = [], [], []
    original = cls.select_victim
    monkeypatch.setattr(cls, "select_victim",
                        lambda self, *a: calls.append(a) or original(self, *a))
    monkeypatch.setattr(policy_module, "derive_seed",
                        lambda *parts: derived.append(parts) or derive_seed(*parts))

    class CountingRandom(random.Random):
        def __init__(self, seed=None):
            generators.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", CountingRandom)
    n, trials = 12, 1000
    result = eviction_distance_experiment(policy, n, trials, seed=3)
    if cls.draws:
        assert derived == [(3, "evict-dist-victims", t) for t in range(trials)]
        assert len(generators) == trials + 1  # the unseeded first build, then one per trial
        assert len(calls) > trials
    else:
        assert derived == [] and generators == []
        assert len(calls) <= n + 1
        assert result.evicted_within == (0.0,) * 7 + (1.0,) * (n - 7)
    assert result.trials == trials


@pytest.mark.parametrize("ways", [2, 4, 8, 16])
def test_tree_plru_evicts_the_probe_at_insertion_w_from_every_state(ways):
    for start in range(1 << (ways - 1)):
        probe = plru_victim(start, ways)
        state = plru_touch(start, probe, ways)
        evicted_at = None
        for insertion in range(1, ways + 1):
            victim = plru_victim(state, ways)
            if victim == probe:
                evicted_at = insertion
                break
            state = plru_touch(state, victim, ways)
        assert evicted_at == ways, start
    result = eviction_distance_experiment("tree-plru", 2 * ways, 100, seed=1, ways=ways)
    assert result.evicted_within == (0.0,) * (ways - 1) + (1.0,) * (ways + 1)


@pytest.mark.parametrize("ways", [2, 3, 4, 5, 6])
def test_lru_evicts_the_probe_at_insertion_w_from_every_recency_order(ways):
    for start in itertools.permutations(range(ways)):
        order = list(start)  # least to most recently used
        probe = order.pop(0)
        order.append(probe)
        evicted_at = None
        for insertion in range(1, ways + 1):
            victim = order.pop(0)
            order.append(victim)
            if victim == probe:
                evicted_at = insertion
                break
        assert evicted_at == ways, start
    result = eviction_distance_experiment("lru", 2 * ways, 100, seed=1, ways=ways)
    assert result.evicted_within == (0.0,) * (ways - 1) + (1.0,) * (ways + 1)


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


def test_seeds_are_derived_only_where_a_policy_draws(monkeypatch):
    import dirtysim.policy as policy_module
    derived = []
    monkeypatch.setattr(policy_module, "derive_seed",
                        lambda *parts: derived.append(parts) or derive_seed(*parts))
    # Only the random policy draws, and building any policy derives nothing:
    # the experiments derive a trial's seed, for a policy that draws only.
    assert [name for name, cls in POLICIES.items() if cls.draws] == ["random"]
    for name, cls in POLICIES.items():
        derived.clear()
        pol = make_policy(name, 8, 5)
        assert derived == [], name
        if not cls.draws:  # a deterministic policy's state is its sets' metadata
            assert vars(pol) == {"ways": 8}, name
    pol = make_policy("random", 8, derive_seed(5, "trial", 1))
    rng = random.Random(derive_seed(5, "trial", 1))
    for _ in range(20):
        assert pol.select_victim(None, ALL) == rng.choice(ALL)
    # The victims seed of each trial, for random only; the dirty-eviction
    # table derives one seed per trial for every d.
    for name, per_trial in (("lru", 0), ("tree-plru", 0), ("random", 1)):
        derived.clear()
        eviction_distance_experiment(name, 8, 30, seed=4)
        assert len(derived) == 30 * per_trial, name
    derived.clear()
    dirty_eviction_experiment([0, 2, 3, 3, 8], 13, 30, seed=4)
    assert len(derived) == 30


# -- dirty-eviction experiment -------------------------------------------------

def test_dirty_eviction_all_ways_dirty_is_certain():
    assert dirty_eviction_experiment([8], 1, 500, seed=2).curves[8][-1] == 1.0


def test_dirty_eviction_no_dirty_lines_never_succeeds():
    assert dirty_eviction_experiment([0], 13, 500, seed=2).curves[0][-1] == 0.0


def test_dirty_eviction_tracks_analytic_probability():
    trials = 10_000
    for d, l in [(2, 8), (3, 10), (3, 13)]:
        mc = dirty_eviction_experiment([d], l, trials, seed=7).curves[d][-1]
        p = analytic_dirty_eviction_probability(8, d, l)
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(mc - p) < 4 * sigma + 1e-9, (d, l, mc, p)


def test_dirty_eviction_monotone_in_d_and_l_for_fixed_seed():
    trials = 2000
    grid = {(d, l): dirty_eviction_experiment([d], l, trials, seed=11).curves[d][-1]
            for d in (1, 2, 3) for l in (8, 10, 13)}
    for d in (1, 2):
        for l in (8, 10, 13):
            assert grid[(d, l)] <= grid[(d + 1, l)]
    for d in (1, 2, 3):
        assert grid[(d, 8)] <= grid[(d, 10)] <= grid[(d, 13)]


@settings(max_examples=100, deadline=None)
@given(ds=st.lists(st.integers(0, 8), min_size=1, max_size=5), l=st.integers(1, 20),
       trials=st.integers(1, 50), seed=st.integers())
@example(ds=[3, 0, 8, 3], l=13, trials=50, seed=2024)
@example(ds=[0], l=20, trials=10, seed=0)
def test_dirty_eviction_curve_matches_per_point_oracle(ds, l, trials, seed):
    # One pass over the trials for every d must give each d the curve that
    # the single-d oracle gives at every point.
    result = dirty_eviction_experiment(ds, l, trials, seed)
    assert result.trials == trials
    assert sorted(result.curves) == sorted(set(ds))
    for d in ds:
        curve = result.curves[d]
        assert len(curve) == l
        for k in range(1, l + 1):
            assert curve[k - 1] == dirty_eviction_fraction(d, k, trials, seed), (d, k)


def test_dirty_eviction_validation():
    with pytest.raises(ValueError):
        dirty_eviction_experiment([9], 10, 10, seed=0)
    with pytest.raises(ValueError):
        dirty_eviction_experiment([3], 0, 10, seed=0)
    with pytest.raises(ValueError, match="d=9"):
        dirty_eviction_experiment([2, 9, 3], 10, 10, seed=0)
    with pytest.raises(ValueError, match="d=-1"):
        dirty_eviction_experiment([-1, 3], 10, 10, seed=0)
    with pytest.raises(ValueError):
        dirty_eviction_experiment([], 10, 10, seed=0)
    with pytest.raises(ValueError):
        dirty_eviction_experiment([3], 10, 0, seed=0)


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
            cache.access(make_line("filler", i), False)
        for j in range(d):
            cache.access(make_line("sender", j), True)
        evicted = False
        for r in range(l):
            kind, _ = access_kind(cache, make_line("receiver", 1000 + r), False)
            evicted = evicted or kind is OutcomeKind.MISS_EVICT_DIRTY
        successes += evicted
    pipeline = successes / trials
    direct = dirty_eviction_experiment([d], l, trials, seed=555).curves[d][-1]
    p = analytic_dirty_eviction_probability(8, d, l)
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(pipeline - p) < 4 * sigma
    assert abs(direct - pipeline) < 8 * sigma
