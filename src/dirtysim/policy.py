"""Victim-selection policies and the eviction-probability experiments.

Three policies are modeled: true LRU (per-way recency stamps), Tree-PLRU
(W-1 tree bits per set, the scheme common in commercial L1 caches), and
seeded pseudo-random selection.  All are pure functions over per-set
metadata, which keeps the experiments below independent of the full cache
model in `dirtysim.cache`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from .seeding import derive_seed


class ReplacementPolicy:
    """Base interface: per-set metadata plus victim choice and touch update."""

    def new_set_meta(self):
        raise NotImplementedError

    def reset(self, seed):
        """Start a new trial: zero the access counter, or reseed the RNG with `seed`."""

    def randomize_meta(self, meta, rng):
        """Scramble metadata to a uniformly random reachable state (for experiments)."""

    def on_access(self, meta, way: int) -> None:
        raise NotImplementedError

    def select_victim(self, meta, candidates) -> int:
        """Pick a victim among `candidates` (all assumed valid)."""
        raise NotImplementedError


class TrueLRU(ReplacementPolicy):
    """Exact LRU: every way carries a recency stamp from a shared counter."""

    def __init__(self, ways: int = 8):
        self.ways = ways
        self._tick = 0

    def new_set_meta(self):
        return [0] * self.ways

    def reset(self, seed):
        self._tick = 0

    def randomize_meta(self, meta, rng):
        # A uniformly random access order yields a uniform recency permutation.
        for way in rng.sample(range(self.ways), self.ways):
            self.on_access(meta, way)

    def on_access(self, meta, way):
        self._tick += 1
        meta[way] = self._tick

    def select_victim(self, meta, candidates):
        if len(candidates) == self.ways:
            # A full set's stamps are unique: the same way the key scan picks.
            return meta.index(min(meta))
        return min(candidates, key=meta.__getitem__)


class TreePLRU(ReplacementPolicy):
    """Tree pseudo-LRU over a power-of-two number of ways.

    Metadata is exactly ways-1 bits in heap order (node i at meta[i-1]).
    Convention: bit 0 points to the left child and the victim walk follows
    the pointed-to child; touching a way sets every bit on its root path to
    point away from it.
    """

    def __init__(self, ways: int = 8):
        if ways < 2 or ways & (ways - 1):
            raise ValueError("Tree-PLRU needs a power-of-two way count >= 2")
        self.ways = ways

    def new_set_meta(self):
        return [0] * (self.ways - 1)

    def randomize_meta(self, meta, rng):
        for i in range(len(meta)):
            meta[i] = rng.randint(0, 1)

    def on_access(self, meta, way):
        idx = way + self.ways
        while idx > 1:
            parent = idx >> 1
            meta[parent - 1] = 1 if idx & 1 == 0 else 0
            idx = parent

    def select_victim(self, meta, candidates):
        ways = self.ways
        if len(candidates) == ways:
            idx = 1
            while idx < ways:
                idx = (idx << 1) | meta[idx - 1]
            return idx - ways
        # Partitioned walk: never descend into a subtree with no candidate.
        cand = set(candidates)
        if not cand:
            raise ValueError("no candidate ways")
        idx = 1
        while idx < ways:
            preferred = (idx << 1) | meta[idx - 1]
            idx = preferred if self._subtree_has(preferred, cand) else preferred ^ 1
        return idx - ways

    def _subtree_has(self, node, cand):
        lo = hi = node
        while lo < self.ways:
            lo <<= 1
            hi = (hi << 1) | 1
        return any(w in cand for w in range(lo - self.ways, hi - self.ways + 1))


class RandomPolicy(ReplacementPolicy):
    """Uniform victim choice from a seeded generator; no per-set metadata."""

    def __init__(self, seed: int = 0, ways: int = 8):
        self.ways = ways
        self._rng = random.Random(seed)

    def new_set_meta(self):
        return None

    def reset(self, seed):
        self._rng = random.Random(seed)

    def on_access(self, meta, way):
        pass

    def select_victim(self, meta, candidates):
        return self._rng.choice(candidates)


POLICIES = {  # name -> class; the one list of accepted policy names
    "lru": TrueLRU,
    "tree-plru": TreePLRU,
    "random": RandomPolicy,
}


def make_policy(name: str, ways: int = 8, seed: int = 0) -> ReplacementPolicy:
    """Build a fresh policy from its name: 'lru', 'tree-plru' or 'random'."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}") from None
    if cls is RandomPolicy:
        return RandomPolicy(seed=seed, ways=ways)
    return cls(ways)


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

    Per trial: a full set of unrelated valid lines with randomized policy
    metadata, one write installing the probe line (making it dirty), then up
    to n distinct fresh lines, stopping at the one that evicts the probe.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n > 4 * ways:
        raise ValueError(f"n={n} above practical cap {4 * ways}")
    pol = make_policy(policy, ways)
    candidates = tuple(range(ways))
    first = [0] * n  # first[j]: trials whose probe line insertion j + 1 evicted
    for t in range(trials):
        rng = random.Random(derive_seed(seed, "evict-dist", t))
        pol.reset(seed=derive_seed(seed, "evict-dist-victims", t))
        meta = pol.new_set_meta()
        pol.randomize_meta(meta, rng)
        probe = pol.select_victim(meta, candidates)
        pol.on_access(meta, probe)
        for j in range(n):
            victim = pol.select_victim(meta, candidates)
            if victim == probe:
                first[j] += 1
                break
            pol.on_access(meta, victim)
    return EvictionExperimentResult(trials, tuple(c / trials for c in accumulate(first)))


def dirty_eviction_experiment(d: int, l: int, trials: int, seed: int,
                              ways: int = 8) -> EvictionExperimentResult:
    """Probability that >= 1 of d dirty lines is evicted by up to l random-policy misses.

    Models a full set holding d dirty lines in ways 0..d-1 (kept resident, as
    by looping over them) and ways-d clean lines, then up to l distinct
    replacement lines, which may evict each other, under uniform random
    victim selection; a trial stops at its first dirty victim.  Victim draws
    depend only on (seed, trial), so fractions are pathwise monotone in both
    d and l for a fixed seed.
    """
    if not 0 <= d <= ways:
        raise ValueError(f"d={d} outside 0..{ways}")
    if l < 1:
        raise ValueError("l must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pol = RandomPolicy(ways=ways)
    candidates = tuple(range(ways))
    first = [0] * l  # first[j]: trials whose first dirty victim was draw j + 1
    for t in range(trials):
        pol.reset(seed=derive_seed(seed, "dirty-evict", t))
        for j in range(l):
            if pol.select_victim(None, candidates) < d:
                first[j] += 1
                break
    return EvictionExperimentResult(trials, tuple(c / trials for c in accumulate(first)))


def analytic_dirty_eviction_probability(ways: int, d: int, l: int) -> float:
    """Closed form 1 - ((W-d)/W)**L for at least one dirty victim in L draws.

    Ignores that an evicted dirty line stops being dirty, which is irrelevant
    for the at-least-one event; Monte Carlo above agrees up to sampling noise.
    """
    if ways < 1:
        raise ValueError("ways must be >= 1")
    if not 0 <= d <= ways:
        raise ValueError(f"d={d} outside 0..{ways}")
    if l < 0:
        raise ValueError("l must be >= 0")
    return 1.0 - ((ways - d) / ways) ** l
