"""One set of an L1 cache with write-back/write-allocate semantics.

The backing level always hits, so every outcome cost comes from the L1 state
transition alone: hit, fill of an invalid way, clean eviction, or dirty
eviction with its write-back.  Two defense knobs live in the geometry: a
write-through/no-allocate mode (dirty bits never set) and static way
partitioning per actor.

A `Cache` is one set.  The channel runs in one set, whose bandwidth the
paper reports per set: every protocol step, calibration and probe touches
that set, and nothing else runs there.  Code that needs a second set builds
a second cache.  The set is one [tags, dirty, meta] record; a way is
valid when its tag is not None.  The policy's metadata is a value that
`on_access` returns (Tree-PLRU's is one int of W-1 bits; see
`dirtysim.policy`), so the access loop keeps it as a local and writes it
back to the record when it stops.  A line is (actor, tag): the model tracks
the states of the set and its lines, not memory locations.

`Cache.access_run` is the one access loop, and `Cache.access` is its
one-line case.  A run is one actor's tags, as every protocol step is: it
looks up the actor's ways once, before its first access, so a run that
raises changes nothing.  No line is ever invalidated
and a fill takes the actor's first free candidate way, so its valid
candidates are a prefix of its sorted ways, and a free one exists exactly
when the last is free: O(1).
Each access adds one to one of its actor's outcome counts, a load and a
store count per `OutcomeKind`; `Cache.counters` is derived from them.
The set's state reads out as a hashable value and loads back into a fresh
cache (`set_state`, `load_set`), its lines can be renamed in place
(`relabel`), a full set's ways can be relisted in its policy's victim order
(`normalize`), and counts and cycles can be added without an access:
`channel` walks a table of steps with them.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from operator import add

from .policy import make_policy
from .seeding import check_int


class WritePolicy(Enum):
    WRITE_BACK_ALLOCATE = "write-back"
    WRITE_THROUGH_NO_ALLOCATE = "write-through"


class OutcomeKind(Enum):
    HIT = "hit"
    MISS_FILL_INVALID = "miss-fill-invalid"
    MISS_EVICT_CLEAN = "miss-evict-clean"
    MISS_EVICT_DIRTY = "miss-evict-dirty"
    UNCACHED = "uncached"


def _is_pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Shape and defense configuration of the simulated L1 set."""

    associativity: int = 8
    write_policy: WritePolicy = WritePolicy.WRITE_BACK_ALLOCATE
    partition: dict | None = None  # actor id -> iterable of permitted ways

    def __post_init__(self):
        check_int("associativity", self.associativity)
        if not _is_pow2(self.associativity):
            raise ValueError(f"associativity={self.associativity} must be a power of two >= 1")
        if self.partition is not None:
            norm = {}
            seen = set()
            for actor, ways in self.partition.items():
                ways = frozenset(ways)
                if not ways:
                    raise ValueError(f"partition for {actor!r} is empty")
                for way in ways:
                    check_int(f"partition way of {actor!r}", way)
                if any(w < 0 or w >= self.associativity for w in ways):
                    raise ValueError(f"partition for {actor!r} has ways outside 0..{self.associativity - 1}")
                if ways & seen:
                    raise ValueError("partitions of distinct actors must be disjoint")
                seen |= ways
                norm[actor] = ways
            object.__setattr__(self, "partition", norm)


def make_line(actor_id: str, tag: int) -> tuple:
    """The line (actor_id, tag); actors never alias."""
    if tag < 0:
        raise ValueError("tag must be non-negative")
    return actor_id, tag


@dataclass(frozen=True)
class LatencyModel:
    """Per-outcome access costs in cycles, with optional uniform jitter.

    Defaults follow measured L1 costs on an 8-way part: ~4 cycles for a hit,
    ~11 to refill over a clean victim, ~22 when the victim must be written
    back.  A write-through store that bypasses the cache is charged
    `miss_clean`, like a clean refill; the cost only matters in defense mode
    where the channel is dead regardless.
    """

    hit: int = 4
    miss_clean: int = 11
    miss_dirty: int = 22
    jitter: int = 0

    def __post_init__(self):
        for name in ("hit", "miss_clean", "miss_dirty", "jitter"):
            check_int(name, getattr(self, name), 0)


AccessOutcome = namedtuple("AccessOutcome", "kind victim_way latency")


DEFAULT_GEOMETRY = CacheGeometry()
DEFAULT_LATENCY = LatencyModel()

# The k-th `OutcomeKind` as an offset into an actor's counts: loads 2k, stores 2k+1.
_HIT, _FILL, _EVICT_CLEAN, _EVICT_DIRTY, _UNCACHED = range(0, 10, 2)
_KINDS = tuple(OutcomeKind)
_NO_COUNTS = (0,) * 10


class Cache:
    """One mutable cache set; single-threaded, deterministic under a fixed seed."""

    def __init__(self, geometry: CacheGeometry | None = None, policy: str = "lru",
                 latency: LatencyModel | None = None, seed: int = 0):
        self.geometry = geo = geometry or DEFAULT_GEOMETRY
        self.latency = latency or DEFAULT_LATENCY
        self._write_back = geo.write_policy is WritePolicy.WRITE_BACK_ALLOCATE
        w = geo.associativity
        # Victim candidates per actor: the sorted partition, or every way.
        if geo.partition is None:
            self._ways = list(range(w))
        else:
            self._ways = {actor: sorted(ways) for actor, ways in geo.partition.items()}
        self.policy = make_policy(policy, ways=w, seed=seed)
        self._set = [[None] * w, [False] * w, self.policy.new_set_meta()]  # tags, dirty, meta
        # Only a jittered model draws; seeding a generator is most of a fresh
        # cache's set-up cost, so an exact model skips it.
        self._jitter_rng = (random.Random(seed ^ 0x6A177E52)
                            if self.latency.jitter else None)
        self._counts = {}  # actor -> its 10 outcome counts (see _HIT)
        self.cycles = 0

    @property
    def draws(self) -> bool:
        """Whether any outcome reads a random generator, so the seed matters."""
        return self._jitter_rng is not None or self.policy.draws

    @property
    def counters(self) -> dict:
        """Per actor: loads, stores, L1 hits and misses, and write-backs, from its counts."""
        derived = {}
        for actor, c in self._counts.items():
            loads, stores, hits = sum(c[0::2]), sum(c[1::2]), c[_HIT] + c[_HIT + 1]
            derived[actor] = {"loads": loads, "stores": stores, "l1_hits": hits,
                              "l1_misses": loads + stores - hits,
                              "writebacks": c[_EVICT_DIRTY] + c[_EVICT_DIRTY + 1]}
        return derived

    # -- state management ---------------------------------------------------

    def outcome_counts(self, actor) -> tuple:
        """The actor's 10 outcome counts: a load and a store count per `OutcomeKind`."""
        return tuple(self._counts.get(actor, _NO_COUNTS))

    def add_outcomes(self, actor, counts, cycles: int) -> None:
        """Count outcomes (as `outcome_counts` lists them) and cycles without accessing.

        An actor whose counts are all 0 stays out of `counters`.
        """
        if any(counts):
            self._counts[actor] = list(map(add, self._counts.get(actor, _NO_COUNTS), counts))
        self.cycles += cycles

    def set_state(self) -> tuple:
        """The set's (tags, dirty bits, metadata) as a hashable value for `load_set`."""
        tags, dirty, meta = self._set
        return tuple(tags), tuple(dirty), tuple(meta) if isinstance(meta, list) else meta

    def load_set(self, state: tuple) -> None:
        """Make the set hold a `set_state` value, with counts and cycles at 0 as in a fresh cache.

        The generators stay as they are.
        """
        tags, dirty, meta = state
        self._set = [list(tags), list(dirty), list(meta) if isinstance(meta, tuple) else meta]
        self._counts = {}
        self.cycles = 0

    def relabel(self, names: dict) -> None:
        """Rename each resident line that is a key of `names` to its value.

        Ways, dirty bits, policy metadata, counts and cycles stay as they are.
        """
        tags = self._set[0]
        self._set[0] = list(map(names.get, tags, tags))

    def normalize(self) -> None:
        """Relist the ways, each line with its dirty bit, in victim order under fresh metadata.

        The policy sees way positions only through its victim order
        (`dirtysim.policy`), so the set behaves as it did, up to which way
        holds which line.  Only a full set is normalized: a fill takes the
        first free way, which relies on the valid ways forming a prefix.
        A partitioned set is its own normal form and stays as it is: its
        way indices say whose ways they are, so relisting them would move
        lines between actors.  The random policy has no victim order, so a
        set under it has no normal form.  Counts and cycles stay as they are.
        """
        if self.geometry.partition is not None:
            return
        if self.policy.draws:
            raise ValueError("a policy that draws its victims has no normal form")
        tags, dirty, meta = self._set
        if None in tags:
            raise ValueError("only a full set has a normal form")
        order = self.policy.victim_order(meta)
        self._set = [[tags[way] for way in order], [dirty[way] for way in order],
                     self.policy.new_set_meta()]

    def dirty_count(self) -> int:
        return sum(self._set[1])

    # -- accesses -----------------------------------------------------------

    def access(self, line: tuple, is_write: bool) -> AccessOutcome:
        actor, tag = line
        return self.access_run(actor, (tag,), is_write)[2]

    def access_run(self, actor, tags, is_write: bool):
        """Access one actor's `tags`, in order, all loads or all stores.

        `tags` is a sequence, such as a tuple or a range.  Returns (summed
        latency, hit count, last `AccessOutcome` or None).  State, counters
        and cycles are those of `access` on each line in turn.  The actor's
        ways are checked before the first access, so a run that raises
        changes nothing, and an empty run does not count the actor.
        """
        ways = self._ways
        if self.geometry.partition is not None:
            try:
                ways = ways[actor]
            except KeyError:
                raise ValueError(f"actor {actor!r} has no way partition") from None
        if not tags:
            return 0, 0, None
        record = self._set
        resident, dirty, meta = record
        counts = self._counts.get(actor)
        if counts is None:
            counts = self._counts[actor] = [0] * 10
        write_back = self._write_back
        cost = self.latency
        j = cost.jitter
        policy = self.policy
        last_way = ways[-1]
        store = 1 if is_write else 0  # count offset: a truthy is_write is a store
        total = hits = 0
        for tag in tags:
            line = (actor, tag)
            if line in resident:
                way = resident.index(line)
                if is_write and write_back:
                    dirty[way] = True
                meta = policy.on_access(meta, way)
                outcome, victim, latency = _HIT, None, cost.hit
                hits += 1
            elif is_write and not write_back:
                # No-allocate store: memory is updated directly, cache untouched.
                outcome, victim, latency = _UNCACHED, None, cost.miss_clean
            else:
                # Valid candidates are a prefix (module docstring): O(1).
                if resident[last_way] is None:
                    for way in ways:
                        if resident[way] is None:
                            victim = way
                            break
                    outcome, latency = _FILL, cost.miss_clean
                else:
                    victim = policy.select_victim(meta, ways)
                    if dirty[victim]:
                        outcome, latency = _EVICT_DIRTY, cost.miss_dirty
                    else:
                        outcome, latency = _EVICT_CLEAN, cost.miss_clean
                resident[victim] = line
                dirty[victim] = is_write and write_back
                meta = policy.on_access(meta, victim)
            counts[outcome + store] += 1

            if j:
                latency += self._jitter_rng.randint(-j, j)
            total += latency
        record[2] = meta
        self.cycles += total
        return total, hits, AccessOutcome(_KINDS[outcome >> 1], victim, latency)
