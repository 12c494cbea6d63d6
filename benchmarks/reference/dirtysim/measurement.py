"""Replacement-set construction and serialized replacement-latency measurement.

Mirrors the pointer-chasing technique: the lines of a replacement set are
visited in a random permutation, strictly one after another, and the total
latency is the plain sum of the per-access costs.  Measuring also refills the
target set with clean lines, so a measurement doubles as initialization for
the next round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cache import Cache, CacheGeometry, OutcomeKind, make_line
from .seeding import derive_seed

DEFAULT_RSET_SIZE = 10


@dataclass(frozen=True)
class ReplacementSet:
    actor_id: str
    target_set: int
    lines: tuple
    chase_order: tuple

    def __len__(self):
        return len(self.lines)


@dataclass(frozen=True)
class LatencySample:
    """One measurement: dirty lines present beforehand and the summed cycles."""

    dirty_before: int
    total_cycles: int
    resident_hits: int = 0

    @property
    def precondition_violated(self) -> bool:
        # A hit means the caller reused a replacement set that was still resident.
        return self.resident_hits > 0


def build_replacement_set(actor_id: str, target_set: int,
                          size: int = DEFAULT_RSET_SIZE, seed: int = 0, *,
                          geometry: CacheGeometry | None = None,
                          tag_base: int = 0) -> ReplacementSet:
    """Choose `size` distinct-tag lines mapping to `target_set`, chase order seeded."""
    if size < 1:
        raise ValueError("replacement set needs at least one line")
    lines = tuple(make_line(actor_id, target_set, tag_base + i, geometry)
                  for i in range(size))
    order = list(range(size))
    random.Random(derive_seed("chase", seed)).shuffle(order)
    return ReplacementSet(actor_id, target_set, lines, tuple(order))


def measure_replacement_latency(cache: Cache, rset: ReplacementSet) -> LatencySample:
    """Access the replacement set serially and sum the latencies.

    The caller must ensure the set's lines are not resident (alternating two
    replacement sets does this); residual hits are flagged, not fatal.
    """
    dirty_before = cache.dirty_count(rset.target_set)
    total = 0
    hits = 0
    for i in rset.chase_order:
        outcome = cache.read(rset.lines[i])
        total += outcome.latency
        if outcome.kind is OutcomeKind.HIT:
            hits += 1
    return LatencySample(dirty_before, total, hits)


def latency_cdf(d_values, trials: int, seed: int, *,
                geometry: CacheGeometry | None = None, policy="lru",
                latency=None, target_set: int = 0,
                rset_size: int = DEFAULT_RSET_SIZE):
    """Replacement-latency samples per dirty-line count, for CDF plots.

    For each d: fill the target set with clean receiver lines, let the sender
    dirty d lines, then measure with a fresh replacement set; repeated
    `trials` times.  Returns [(d, sorted samples)].
    """
    geo = geometry or CacheGeometry()
    ways = geo.associativity
    results = []
    for d in d_values:
        if not 0 <= d <= ways:
            raise ValueError(f"d={d} outside 0..{ways}")
        samples = []
        for t in range(trials):
            cache = Cache(geo, policy, latency, seed=derive_seed(seed, "cdf", d, t))
            for i in range(ways):
                cache.read(make_line("receiver", target_set, i, geo))
            for j in range(d):
                cache.write(make_line("sender", target_set, j, geo))
            rset = build_replacement_set("receiver", target_set, rset_size,
                                         derive_seed(seed, "rset", d, t),
                                         geometry=geo, tag_base=1000)
            samples.append(measure_replacement_latency(cache, rset).total_cycles)
        results.append((d, sorted(samples)))
    return results
