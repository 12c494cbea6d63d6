"""Replacement-set construction and serialized replacement-latency measurement.

Mirrors the pointer-chasing technique: the lines of a replacement set are
visited in a random permutation, strictly one after another, and the total
latency is the plain sum of the per-access costs.  Measuring also refills the
target set with clean lines, so a measurement doubles as initialization for
the next round.  `fill_set` is the one step that primes a set or dirties it,
and `prime_dirty_probe` is the whole prime -> dirty -> probe sequence on one
cache; latency CDFs and channel calibration both run it.

A fresh cache's probe total cannot depend on the chase order (every line
misses, policies see ways not tags, jitter is drawn per access in order), so
CDFs and calibration chase one seeded order in every trial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cache import Cache, CacheGeometry, OutcomeKind, make_line
from .seeding import derive_seed

DEFAULT_RSET_SIZE = 10

SENDER = "sender"
RECEIVER = "receiver"

# Tag bases of the two replacement sets in the receiver's space, used
# alternately so the active one is never resident; primed lines use 0..W-1.
RSET_TAG_BASES = (1000, 2000)


@dataclass(frozen=True)
class ReplacementSet:
    """Lines of one actor mapping to `target_set`, in the order they are chased."""

    actor_id: str
    target_set: int
    lines: tuple


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
    """Choose `size` distinct-tag lines mapping to `target_set`, tag order shuffled by `seed`."""
    if size < 1:
        raise ValueError("replacement set needs at least one line")
    lines = [make_line(actor_id, target_set, tag_base + i, geometry)
             for i in range(size)]
    random.Random(derive_seed("chase", seed)).shuffle(lines)
    return ReplacementSet(actor_id, target_set, tuple(lines))


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
    access = cache.access
    total = 0
    hits = 0
    hit = OutcomeKind.HIT
    for line in rset.lines:
        outcome = access(line, False)
        total += outcome.latency
        if outcome.kind is hit:
            hits += 1
    return LatencySample(dirty_before, total, hits)


def fill_set(cache: Cache, actor_id: str, set_index: int, n: int, *,
             write: bool = False) -> int:
    """Access tags 0..n-1 of one actor in one set; return the summed latency.

    Reads prime the set with clean lines; writes leave dirty ones.
    """
    geo = cache.geometry
    access = cache.access
    total = 0
    for tag in range(n):
        total += access(make_line(actor_id, set_index, tag, geo), write).latency
    return total


def prime_dirty_probe(cache: Cache, rset: ReplacementSet, d: int) -> LatencySample:
    """Prime the target set with W clean receiver lines, dirty d, then probe.

    The sender's d stores evict d receiver lines, so the probe must replace
    W-d clean lines and d dirty ones.
    """
    fill_set(cache, RECEIVER, rset.target_set, cache.geometry.associativity)
    fill_set(cache, SENDER, rset.target_set, d, write=True)
    return measure_replacement_latency(cache, rset)


def latency_cdf(d_values, trials: int, seed: int, *,
                geometry: CacheGeometry | None = None, policy="lru",
                latency=None, target_set: int = 0,
                rset_size: int = DEFAULT_RSET_SIZE):
    """Replacement-latency samples per dirty-line count, for CDF plots.

    Each of the `trials` per d runs `prime_dirty_probe` on a fresh cache with
    the call's one chase order (see above).  Returns [(d, sorted samples)].
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    geo = geometry or CacheGeometry()
    check_rset_size(rset_size, geo)
    ways = geo.associativity
    rset = build_replacement_set(RECEIVER, target_set, rset_size, geometry=geo,
                                 tag_base=RSET_TAG_BASES[0])
    results = []
    for d in d_values:
        if not 0 <= d <= ways:
            raise ValueError(f"d={d} outside 0..{ways}")
        samples = []
        for t in range(trials):
            cache = Cache(geo, policy, latency, seed=derive_seed(seed, "cdf", d, t))
            samples.append(prime_dirty_probe(cache, rset, d).total_cycles)
        results.append((d, sorted(samples)))
    return results
