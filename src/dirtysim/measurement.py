"""Replacement-set construction and serialized replacement-latency measurement.

Mirrors the pointer-chasing technique: a replacement set is the tuple of its
tags in a random permutation, visited strictly one after another by the
actor in the set its caller names, and the total latency is the plain sum
of the per-access costs.  Measuring also refills the target set with clean
lines, so a measurement doubles as initialization for the next round.
`fill_set` is the one step that primes a set or dirties it, and
`prime_dirty_probe` is the whole prime -> dirty -> probe sequence on one
cache; a probe and a fill are one `Cache.access_run` each.  `probe_totals`
runs the sequence on fresh caches for every level and trial; latency CDFs,
channel calibration and the gadget's probe cuts all read it.  A cache that
draws nothing (no random policy, no jitter) is simulated once per level: its
seed reaches no outcome, so every trial would replay the same accesses on
the same fresh state.  Like a fill, a probe names its actor and set: the
replacement set holds only tags.

A fresh cache's probe total cannot depend on the chase order (every line
misses, policies see ways not tags, jitter is drawn per access in order), so
`probe_totals` chases one seeded order in every trial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cache import DEFAULT_GEOMETRY, Cache, CacheGeometry, check_int
from .seeding import derive_seed

DEFAULT_RSET_SIZE = 10

# The one set the channel, its calibration and the CDFs use.  Every set has
# the same ways, policy and latencies, and nothing else runs in it, so any
# set would give the same results: the index is a label on the lines.
TARGET_SET = 0

SENDER = "sender"
RECEIVER = "receiver"

# Tag bases of the two replacement sets in the receiver's space, used
# alternately so the active one is never resident; primed lines use 0..W-1.
RSET_TAG_BASES = (1000, 2000)


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


def build_replacement_set(size: int = DEFAULT_RSET_SIZE, seed: int = 0, *,
                          tag_base: int = 0) -> tuple:
    """Tags `tag_base`..`tag_base+size-1`, as a tuple in the chase order of `seed`."""
    check_int("size", size, 1)
    check_int("tag_base", tag_base, 0)
    tags = list(range(tag_base, tag_base + size))
    random.Random(derive_seed("chase", seed)).shuffle(tags)
    return tuple(tags)


def check_rset_size(rset_size: int, geometry: CacheGeometry) -> None:
    """Reject a replacement set size that is not an int or cannot replace the whole set."""
    check_int("rset_size", rset_size)
    if rset_size < geometry.associativity:
        raise ValueError(
            f"rset_size {rset_size} is below the associativity "
            f"{geometry.associativity}, so a measurement cannot "
            "replace every line of the target set")


def measure_replacement_latency(cache: Cache, actor_id: str, set_index: int,
                                rset: tuple) -> LatencySample:
    """Read `actor_id`'s tags `rset` in set `set_index` serially; sum the latencies.

    The caller must ensure those lines are not resident (alternating two
    replacement sets does this); residual hits are flagged, not fatal.
    """
    dirty_before = cache.dirty_count(set_index)
    total, hits, _ = cache.access_run(actor_id, set_index, rset, False)
    return LatencySample(dirty_before, total, hits)


def fill_set(cache: Cache, actor_id: str, set_index: int, n: int, *,
             write: bool = False) -> int:
    """Access tags 0..n-1 of one actor in one set; return the summed latency.

    Reads prime the set with clean lines; writes leave dirty ones.
    """
    return cache.access_run(actor_id, set_index, range(n), write)[0]


def prime_dirty_probe(cache: Cache, rset: tuple, d: int) -> LatencySample:
    """Prime `TARGET_SET` with W clean receiver lines, dirty d, then probe with `rset`.

    The sender's d stores evict d receiver lines, so the receiver's probe
    must replace W-d clean lines and d dirty ones.
    """
    fill_set(cache, RECEIVER, TARGET_SET, cache.geometry.associativity)
    fill_set(cache, SENDER, TARGET_SET, d, write=True)
    return measure_replacement_latency(cache, RECEIVER, TARGET_SET, rset)


def probe_totals(levels, trials: int, seed_parts, *, geometry: CacheGeometry,
                 policy: str, latency, rset_size: int):
    """Probe totals per dirty-line count in `TARGET_SET`: [(d, totals by trial)].

    Every input is checked before anything is simulated.  Trial t of level d
    runs `prime_dirty_probe` on a fresh cache seeded
    `derive_seed(*seed_parts, d, t)`, chasing one replacement set.  When
    trial 0's cache does not `draw` (no random policy, no jitter), the seed
    reaches no outcome and every trial would run the same accesses on the
    same fresh state, so trial 0's total stands for all `trials`.
    """
    check_int("trials", trials, 1)
    check_rset_size(rset_size, geometry)
    levels = list(levels)
    ways = geometry.associativity
    for d in levels:
        check_int("d", d)
        if not 0 <= d <= ways:
            raise ValueError(f"d={d} outside 0..{ways}")
    rset = build_replacement_set(rset_size, tag_base=RSET_TAG_BASES[0])

    table = []
    for d in levels:
        totals = []
        for t in range(trials):
            cache = Cache(geometry, policy, latency, seed=derive_seed(*seed_parts, d, t))
            totals.append(prime_dirty_probe(cache, rset, d).total_cycles)
            if not cache.draws:
                totals *= trials  # every trial would replay this one exactly
                break
        table.append((d, totals))
    return table


def latency_cdf(d_values, trials: int, seed: int, *, policy="lru",
                latency=None, rset_size: int = DEFAULT_RSET_SIZE):
    """[(d, sorted probe totals)] on the default geometry, for CDF plots."""
    table = probe_totals(d_values, trials, (seed, "cdf"), geometry=DEFAULT_GEOMETRY,
                         policy=policy, latency=latency, rset_size=rset_size)
    return [(d, sorted(totals)) for d, totals in table]
