"""Replacement-set construction and serialized replacement-latency measurement.

Mirrors the pointer-chasing technique: the lines of a replacement set are
visited in a random permutation, strictly one after another, and the total
latency is the plain sum of the per-access costs.  Measuring also refills the
target set with clean lines, so a measurement doubles as initialization for
the next round.  `prime_dirty_probe` is the whole prime -> dirty -> probe
sequence on one cache; latency CDFs and channel calibration both run it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cache import Cache, CacheGeometry, OutcomeKind, make_line
from .seeding import derive_seed

DEFAULT_RSET_SIZE = 10

SENDER = "sender"
RECEIVER = "receiver"

# Tag ranges inside the receiver's space: init lines, then the two
# replacement sets used alternately so the active one is never resident.
INIT_TAG_BASE = 0
RSET_TAG_BASES = (1000, 2000)


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


def check_rset_size(rset_size: int, geometry: CacheGeometry) -> None:
    """Reject a replacement set too small to replace the whole target set."""
    if rset_size < geometry.associativity:
        raise ValueError(
            f"rset_size {rset_size} is below the associativity "
            f"{geometry.associativity}, so a measurement cannot "
            "replace every line of the target set")


def measure_replacement_latency(cache: Cache, rset: ReplacementSet) -> LatencySample:
    """Access the replacement set serially and sum the latencies.

    The caller must ensure the set's lines are not resident (alternating two
    replacement sets does this); residual hits are flagged, not fatal.
    """
    dirty_before = cache.dirty_count(rset.target_set)
    total = 0
    hits = 0
    hit = OutcomeKind.HIT
    for i in rset.chase_order:
        outcome = cache.read(rset.lines[i])
        total += outcome.latency
        if outcome.kind is hit:
            hits += 1
    return LatencySample(dirty_before, total, hits)


def prime_dirty_probe(cache: Cache, rset: ReplacementSet, d: int) -> LatencySample:
    """Prime the target set with W clean receiver lines, dirty d, then probe.

    The sender's d stores evict d receiver lines, so the probe must replace
    W-d clean lines and d dirty ones.
    """
    geo = cache.geometry
    target = rset.target_set
    for i in range(geo.associativity):
        cache.read(make_line(RECEIVER, target, INIT_TAG_BASE + i, geo))
    for j in range(d):
        cache.write(make_line(SENDER, target, j, geo))
    return measure_replacement_latency(cache, rset)


def latency_cdf(d_values, trials: int, seed: int, *,
                geometry: CacheGeometry | None = None, policy="lru",
                latency=None, target_set: int = 0,
                rset_size: int = DEFAULT_RSET_SIZE):
    """Replacement-latency samples per dirty-line count, for CDF plots.

    Each of the `trials` per d runs `prime_dirty_probe` on a fresh cache with
    a freshly seeded replacement set.  Returns [(d, sorted samples)].
    """
    geo = geometry or CacheGeometry()
    check_rset_size(rset_size, geo)
    ways = geo.associativity
    results = []
    for d in d_values:
        if not 0 <= d <= ways:
            raise ValueError(f"d={d} outside 0..{ways}")
        samples = []
        for t in range(trials):
            cache = Cache(geo, policy, latency, seed=derive_seed(seed, "cdf", d, t))
            rset = build_replacement_set(RECEIVER, target_set, rset_size,
                                         derive_seed(seed, "rset", d, t),
                                         geometry=geo, tag_base=RSET_TAG_BASES[0])
            samples.append(prime_dirty_probe(cache, rset, d).total_cycles)
        results.append((d, sorted(samples)))
    return results
