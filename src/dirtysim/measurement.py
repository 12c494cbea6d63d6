"""Replacement-set construction and serialized replacement-latency measurement.

Mirrors the pointer-chasing technique: a replacement set is the tuple of its
tags, visited strictly one after another by the actor its caller names, and
the total latency is the plain sum of the per-access costs.  A `Cache` is
one set, so every measurement runs in the one set a cache is.  Measuring
also refills the set with clean lines, so a measurement doubles as
initialization for the next round.
`fill_set` is the one step that primes the set or dirties it, and
`prime_dirty_probe` is the whole prime -> dirty -> probe sequence on one
cache; a probe and a fill are one `Cache.access_run` each.  `probe_totals`
runs the sequence on fresh caches for every level and trial; latency CDFs,
channel calibration and the gadget's probe cuts all read it.  A cache that
draws nothing (no random policy, no jitter) is simulated once per level: its
seed reaches no outcome, so every trial would replay the same accesses on
the same fresh state.  Like a fill, a probe names its actor: the replacement
set holds only tags.

No run can depend on the chase order: an access compares tags only for
equality and no policy reads a tag, so relabelling a replacement set's tags
maps one order's run onto another's, access for access.  A replacement set
is therefore chased in tag order, and no seed orders it.
"""

from __future__ import annotations

from collections import namedtuple

from .cache import DEFAULT_GEOMETRY, Cache, CacheGeometry
from .policy import check_dirty_count
from .seeding import check_int, derive_seed

DEFAULT_RSET_SIZE = 10

SENDER = "sender"
RECEIVER = "receiver"


class LatencySample(namedtuple("LatencySample", "dirty_before total_cycles resident_hits")):
    """One measurement: dirty lines present beforehand, summed cycles, resident hits."""

    __slots__ = ()

    @property
    def precondition_violated(self) -> bool:
        # A hit means the caller reused a replacement set that was still resident.
        return self.resident_hits > 0


def build_replacement_set(size: int, *, ways: int, index: int = 0) -> tuple:
    """Replacement set `index` of a set of `ways` ways: its tags in order, as chased.

    This is the one tag layout.  A fill holds tags 0..ways-1, so set `index`
    takes the `size` tags from ways + index*size: no replacement set holds a
    primed line, and the channel's two, which it alternates, share no tag.
    """
    check_int("size", size, 1)
    check_int("ways", ways, 0)
    check_int("index", index, 0)
    start = ways + index * size
    return tuple(range(start, start + size))


def check_rset_size(rset_size: int, geometry: CacheGeometry) -> None:
    """Reject a replacement set size that is not an int or cannot replace the whole set."""
    check_int("rset_size", rset_size)
    if rset_size < geometry.associativity:
        raise ValueError(
            f"rset_size {rset_size} is below the associativity "
            f"{geometry.associativity}, so a measurement cannot "
            "replace every line of the target set")


def measure_replacement_latency(cache: Cache, actor_id: str, rset: tuple) -> LatencySample:
    """Read `actor_id`'s tags `rset` serially; sum the latencies.

    The caller must ensure those lines are not resident (alternating two
    replacement sets does this); residual hits are flagged, not fatal.
    """
    dirty_before = cache.dirty_count()
    total, hits = cache.access_run(actor_id, rset, False)
    return LatencySample(dirty_before, total, hits)


def fill_set(cache: Cache, actor_id: str, n: int, *, write: bool = False) -> int:
    """Access tags 0..n-1 of one actor; return the summed latency.

    Reads prime the set with clean lines; writes leave dirty ones.
    """
    return cache.access_run(actor_id, range(n), write)[0]


def prime_dirty_probe(cache: Cache, rset: tuple, d: int) -> LatencySample:
    """Prime the set with W clean receiver lines, dirty d, then probe with `rset`.

    The sender's d stores evict d receiver lines, so the receiver's probe
    must replace W-d clean lines and d dirty ones.
    """
    fill_set(cache, RECEIVER, cache.geometry.associativity)
    fill_set(cache, SENDER, d, write=True)
    return measure_replacement_latency(cache, RECEIVER, rset)


def probe_totals(levels, trials: int, seed_parts, *, geometry: CacheGeometry,
                 policy: str, latency, rset_size: int):
    """Probe totals per dirty-line count: [(d, totals by trial)].

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
    for d in levels:
        check_dirty_count(d, geometry.associativity)
    rset = build_replacement_set(rset_size, ways=geometry.associativity)

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
    check_int("seed", seed)
    table = probe_totals(d_values, trials, (seed, "cdf"), geometry=DEFAULT_GEOMETRY,
                         policy=policy, latency=latency, rset_size=rset_size)
    return [(d, sorted(totals)) for d, totals in table]
