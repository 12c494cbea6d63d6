"""Victim-selection policies and the eviction-probability experiments.

Three policies are modeled: true LRU, Tree-PLRU (W-1 tree bits per set, the
scheme common in commercial L1 caches), and seeded pseudo-random selection.
LRU and Tree-PLRU are rules over one set's metadata and hold no other
state; the random policy keeps no metadata, and its generator is the only
state a policy holds.  A policy is `draws`, which says whether it reads
that generator, and three rules: `new_set_meta`, `on_access` and
`select_victim`.  Metadata is a value: `new_set_meta` returns a fresh set's
and `on_access` the set's new one, and the caller keeps it.  LRU's is a
recency list, which it updates in place and returns; Tree-PLRU's is one int
of W-1 bits; the random policy's is None.  LRU and Tree-PLRU share one
victim rule: a state lists the set's ways in victim order, and the victim
among any candidates (a full set, or a partition's ways) is the first of
them in that order.  LRU's recency list is its order; Tree-PLRU expands its
bits into one.  This keeps the experiments below independent of the full
cache model in `dirtysim.cache`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from .seeding import check_int, derive_seed


def _first_candidate(order, candidates):
    """The victim among `candidates`: the first of them in the victim order `order`."""
    if len(candidates) == len(order):
        return order[0]
    for way in order:
        if way in candidates:
            return way
    raise ValueError("no candidate ways")


class TrueLRU:
    """Exact LRU: a set's metadata is its ways from least to most recently used."""

    draws = False  # True where the policy reads a random generator

    def __init__(self, ways: int = 8):
        self.ways = ways

    def new_set_meta(self):
        return list(range(self.ways))

    def on_access(self, meta, way):
        meta.remove(way)
        meta.append(way)
        return meta

    def select_victim(self, meta, candidates):
        return _first_candidate(meta, candidates)


def _touch_masks(ways):
    """Per way, (keep, put) with which a touch is `meta & keep | put`.

    A touch points every bit on the way's root path away from it.  Node i
    is bit i-1; a left child has an even index, so its parent's bit is set
    (points right) and a right child's parent's bit is cleared.
    """
    masks = []
    for way in range(ways):
        path = put = 0
        node = way + ways
        while node > 1:
            bit = 1 << ((node >> 1) - 1)
            path |= bit
            if not node & 1:
                put |= bit
            node >>= 1
        masks.append((~path, put))
    return tuple(masks)


def _victim_order(meta, node, ways):
    """The ways under `node` in victim order: its pointed-to subtree's, then the other's."""
    if node >= ways:
        return (node - ways,)
    first = node << 1 | meta >> (node - 1) & 1
    return _victim_order(meta, first, ways) + _victim_order(meta, first ^ 1, ways)


class TreePLRU:
    """Tree pseudo-LRU over a power-of-two number of ways.

    Metadata is one int of ways-1 bits in heap order: node i is bit i-1.
    Convention: bit 0 points to the left child and the victim walk follows
    the pointed-to child; touching a way sets every bit on its root path to
    point away from it, one mask pair per way.  A state's victim order
    lists the leaves with each node's pointed-to subtree first, so its
    first way is the walk's victim.  The order is exact for a partitioned
    set too: the walk there skips a subtree only when it holds no
    candidate, and every leaf of a node's pointed-to subtree precedes the
    other subtree's, so the first candidate in the order is where the walk
    ends.  A state's order is expanded once, the first time it is seen.
    The masks and orders are the class's, one table each per way count, so
    an instance holds nothing but `ways`.
    """

    draws = False
    _masks = {}  # ways -> per way, (keep, put) of a touch
    _orders = {}  # ways -> {state: victim order}, filled as states are seen
    _ORDERS_CAP = 1 << 16  # a wide tree's memo starts over once this full

    def __init__(self, ways: int = 8):
        if ways < 2 or ways & (ways - 1):
            raise ValueError("Tree-PLRU needs a power-of-two way count >= 2")
        self.ways = ways
        if ways not in self._masks:
            self._masks[ways] = _touch_masks(ways)
            self._orders[ways] = {}

    def new_set_meta(self):
        return 0

    def on_access(self, meta, way):
        keep, put = self._masks[self.ways][way]
        return meta & keep | put

    def select_victim(self, meta, candidates):
        orders = self._orders[self.ways]
        order = orders.get(meta)
        if order is None:
            if len(orders) >= self._ORDERS_CAP:
                orders.clear()
            order = orders[meta] = _victim_order(meta, 1, self.ways)
        return _first_candidate(order, candidates)


class RandomPolicy:
    """Uniform victim choice from a seeded generator; no per-set metadata."""

    draws = True

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def new_set_meta(self):
        return None

    def on_access(self, meta, way):
        return None

    def select_victim(self, meta, candidates):
        return self._rng.choice(candidates)


POLICIES = {  # name -> class; the one list of accepted policy names
    "lru": TrueLRU,
    "tree-plru": TreePLRU,
    "random": RandomPolicy,
}


def make_policy(name: str, ways: int = 8, seed: int = 0):
    """Build a fresh policy from its name: 'lru', 'tree-plru' or 'random'."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}") from None
    return RandomPolicy(seed) if cls is RandomPolicy else cls(ways)


def check_dirty_count(d, ways: int) -> None:
    """Reject a dirty-line count `d` unless an int in 0..`ways`."""
    check_int("d", d)
    if not 0 <= d <= ways:
        raise ValueError(f"d={d} outside 0..{ways}")


@dataclass(frozen=True)
class EvictionExperimentResult:
    """Outcome of one Monte-Carlo eviction experiment, as a curve over draws.

    `evicted_within[k]` is the fraction of trials evicted within k + 1
    draws.  Every point of the curve comes from the same trials, so one run
    with the largest n (or l) gives the whole table.
    """

    trials: int
    evicted_within: tuple[float, ...]

    @property
    def evicted_fraction(self) -> float:
        return self.evicted_within[-1]


def eviction_distance_experiment(policy, n: int, trials: int, seed: int,
                                 ways: int = 8) -> EvictionExperimentResult:
    """Measure how often a freshly dirtied line survives up to n follow-up insertions.

    Per trial: a full set of unrelated valid lines with fresh policy
    metadata, one write installing the probe line (making it dirty), then up
    to n distinct fresh lines, stopping at the one that evicts the probe.
    LRU and Tree-PLRU evict the probe at exactly insertion W from every
    start state.  A policy that draws nothing replays one trial exactly, so
    that trial stands for all `trials`; the random policy seeds each trial.
    """
    check_int("n", n, 1)
    check_int("trials", trials, 1)
    check_int("ways", ways, 1)
    check_int("seed", seed)
    if n > 4 * ways:
        raise ValueError(f"n={n} above practical cap {4 * ways}")
    pol = make_policy(policy, ways)
    candidates = tuple(range(ways))
    first = [0] * n  # first[j]: trials whose probe line insertion j + 1 evicted
    runs = trials if pol.draws else 1
    for t in range(runs):
        if pol.draws:  # only a policy that draws costs a trial its own seed
            pol = make_policy(policy, ways, derive_seed(seed, "evict-dist-victims", t))
        meta = pol.new_set_meta()
        probe = pol.select_victim(meta, candidates)
        meta = pol.on_access(meta, probe)
        for j in range(n):
            victim = pol.select_victim(meta, candidates)
            if victim == probe:
                first[j] += 1
                break
            meta = pol.on_access(meta, victim)
    return EvictionExperimentResult(
        trials, tuple(c * (trials // runs) / trials for c in accumulate(first)))


@dataclass(frozen=True)
class DirtyEvictionResult:
    """Outcome of one dirty-eviction experiment: one curve per dirty count.

    `curves[d][k]` is the fraction of trials with a dirty victim within
    k + 1 draws when ways 0..d-1 are dirty.  Every curve comes from the same
    trials, so one run with every d and the largest l gives the whole table.
    """

    trials: int
    curves: dict[int, tuple[float, ...]]


def dirty_eviction_experiment(ds, l: int, trials: int, seed: int,
                              ways: int = 8) -> DirtyEvictionResult:
    """Probability that >= 1 of d dirty lines is evicted by up to l random-policy misses.

    Models a full set holding d dirty lines in ways 0..d-1 (kept resident, as
    by looping over them) and ways-d clean lines, then up to l distinct
    replacement lines, which may evict each other, under uniform random
    victim selection.  Victim draws depend only on (seed, trial), not on d,
    so one pass serves every d in `ds`: a trial draws until each d has seen
    a victim below it (its first dirty victim) or until l draws.  Fractions
    are therefore pathwise monotone in both d and l for a fixed seed.
    """
    check_int("ways", ways, 1)
    check_int("seed", seed)
    ds = list(ds)
    if not ds:
        raise ValueError("ds must not be empty")
    for d in ds:
        check_dirty_count(d, ways)
    check_int("l", l, 1)
    check_int("trials", trials, 1)
    todo = sorted(set(ds))
    candidates = tuple(range(ways))
    # first[d][j]: trials whose first victim below d was draw j + 1
    first = {d: [0] * l for d in todo}
    for t in range(trials):
        pol = RandomPolicy(derive_seed(seed, "dirty-evict", t))
        pending = todo.copy()  # ascending, so a victim credits the largest d first
        for j in range(l):
            victim = pol.select_victim(None, candidates)
            while pending and victim < pending[-1]:
                first[pending.pop()][j] += 1
            if not pending:
                break
    return DirtyEvictionResult(trials, {d: tuple(c / trials for c in accumulate(counts))
                                        for d, counts in first.items()})


def analytic_dirty_eviction_probability(ways: int, d: int, l: int) -> float:
    """Closed form 1 - ((W-d)/W)**L for at least one dirty victim in L draws.

    Ignores that an evicted dirty line stops being dirty, which is irrelevant
    for the at-least-one event; Monte Carlo above agrees up to sampling noise.
    """
    check_int("ways", ways, 1)
    check_dirty_count(d, ways)
    check_int("l", l, 0)
    return 1.0 - ((ways - d) / ways) ** l
