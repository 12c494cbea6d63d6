"""Replacement-set construction and serialized replacement-latency measurement.

Mirrors the pointer-chasing technique: a replacement set is the tuple of its
lines in a random permutation, visited strictly one after another, and the
total latency is the plain sum of the per-access costs.  Measuring also
refills the target set with clean lines, so a measurement doubles as
initialization for the next round.  `fill_set` is the one step that primes
a set or dirties it, and `prime_dirty_probe` is the whole prime -> dirty ->
probe sequence on one cache; a probe and a fill are one `Cache.access_run`
each.  `probe_totals` runs the sequence on fresh caches for every level and
trial; latency CDFs, channel calibration and the gadget's probe cuts all
read it.  A cache that draws nothing (no random policy, no
jitter) is simulated once per level: its seed reaches no outcome, so every
trial would replay the same accesses on the same fresh state.  Every line of
a replacement set names its target set.

A fresh cache's probe total cannot depend on the chase order (every line
misses, policies see ways not tags, jitter is drawn per access in order), so
`probe_totals` chases one seeded order in every trial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cache import DEFAULT_GEOMETRY, Cache, CacheGeometry, make_line
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


def build_replacement_set(actor_id: str, target_set: int,
                          size: int = DEFAULT_RSET_SIZE, seed: int = 0, *,
                          tag_base: int = 0) -> tuple:
    """`size` distinct-tag lines in `target_set`, as a tuple in the chase order of `seed`."""
    if size < 1:
        raise ValueError("replacement set needs at least one line")
    lines = [make_line(actor_id, target_set, tag_base + i) for i in range(size)]
    random.Random(derive_seed("chase", seed)).shuffle(lines)
    return tuple(lines)


def check_rset_size(rset_size: int, geometry: CacheGeometry) -> None:
    """Reject a replacement set too small to replace the whole target set."""
    if rset_size < geometry.associativity:
        raise ValueError(
            f"rset_size {rset_size} is below the associativity "
            f"{geometry.associativity}, so a measurement cannot "
            "replace every line of the target set")


def measure_replacement_latency(cache: Cache, rset: tuple) -> LatencySample:
    """Access the replacement set serially and sum the latencies.

    `rset` is one actor's lines in one set, as `build_replacement_set`
    builds it.  The caller must ensure its lines are not resident
    (alternating two replacement sets does this); residual hits are
    flagged, not fatal.
    """
    actor, set_index, _ = rset[0]
    dirty_before = cache.dirty_count(set_index)
    total, hits, _ = cache.access_run(actor, set_index, [tag for _, _, tag in rset], False)
    return LatencySample(dirty_before, total, hits)


def fill_set(cache: Cache, actor_id: str, set_index: int, n: int, *,
             write: bool = False) -> int:
    """Access tags 0..n-1 of one actor in one set; return the summed latency.

    Reads prime the set with clean lines; writes leave dirty ones.
    """
    return cache.access_run(actor_id, set_index, range(n), write)[0]


def prime_dirty_probe(cache: Cache, rset: tuple, d: int) -> LatencySample:
    """Prime the target set with W clean receiver lines, dirty d, then probe.

    The sender's d stores evict d receiver lines, so the probe must replace
    W-d clean lines and d dirty ones.
    """
    target_set = rset[0].set_index
    fill_set(cache, RECEIVER, target_set, cache.geometry.associativity)
    fill_set(cache, SENDER, target_set, d, write=True)
    return measure_replacement_latency(cache, rset)


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_rset_size(rset_size, geometry)
    levels = list(levels)
    ways = geometry.associativity
    for d in levels:
        if not 0 <= d <= ways:
            raise ValueError(f"d={d} outside 0..{ways}")
    rset = build_replacement_set(RECEIVER, TARGET_SET, rset_size,
                                 tag_base=RSET_TAG_BASES[0])

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
