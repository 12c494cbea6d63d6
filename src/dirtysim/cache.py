"""Set-associative L1 model with write-back/write-allocate semantics.

The backing level always hits, so every outcome cost comes from the L1 state
transition alone: hit, fill of an invalid way, clean eviction, or dirty
eviction with its write-back.  Two defense knobs live in the geometry: a
write-through/no-allocate mode (dirty bits never set) and static way
partitioning per actor.

A set is allocated on its first access, as one [tags, dirty, meta] record; a
way is valid when its tag is not None.  Most experiments build a fresh cache
and touch one set, so a set that is never accessed costs nothing and reads as
all-invalid.  The policy's metadata is a value that `on_access` returns
(Tree-PLRU's is one int of W-1 bits; see `dirtysim.policy`), so the access
loop keeps it as a local and writes it back to the record when it stops.
A line is (actor, set, tag): the model tracks the states of sets and lines,
not memory locations, and a line outside the cache's sets is an error, never
a wrap into another set.

`Cache.access_run` is the one access loop, and `Cache.access` is its
one-line case.  A run is one actor's tags in one set, as every protocol step
is: it checks the set and looks up the actor's ways once, before its first
access, so a run that raises changes nothing.  No line is ever invalidated
and a fill takes the actor's first free candidate way, so its valid
candidates are a prefix of its sorted ways, and a free one exists exactly
when the last is free: O(1).
Each access adds one to one of its actor's outcome counts, a load and a
store count per `OutcomeKind`; `Cache.counters` is derived from them.
A set's state reads out as a hashable value and loads back, and counts and
cycles can be added without an access: `channel` walks a table of steps
with them.
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
    """Shape and defense configuration of the simulated L1."""

    num_sets: int = 64
    associativity: int = 8
    write_policy: WritePolicy = WritePolicy.WRITE_BACK_ALLOCATE
    partition: dict | None = None  # actor id -> iterable of permitted ways

    def __post_init__(self):
        for name in ("num_sets", "associativity"):
            value = getattr(self, name)
            check_int(name, value)
            if not _is_pow2(value):
                raise ValueError(f"{name}={value} must be a power of two >= 1")
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


def make_line(actor_id: str, set_index: int, tag: int) -> tuple:
    """The line (actor_id, set_index, tag); actors never alias, and a cache checks the set."""
    if tag < 0:
        raise ValueError("tag must be non-negative")
    return actor_id, set_index, tag


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
    """Mutable cache state; single-threaded, deterministic under a fixed seed."""

    def __init__(self, geometry: CacheGeometry | None = None, policy: str = "lru",
                 latency: LatencyModel | None = None, seed: int = 0):
        self.geometry = geo = geometry or DEFAULT_GEOMETRY
        self.latency = latency or DEFAULT_LATENCY
        self._write_back = geo.write_policy is WritePolicy.WRITE_BACK_ALLOCATE
        # Victim candidates per actor: the sorted partition, or every way.
        if geo.partition is None:
            self._ways = list(range(geo.associativity))
        else:
            self._ways = {actor: sorted(ways) for actor, ways in geo.partition.items()}
        self._sets = [None] * geo.num_sets  # [tags, dirty, meta] once touched
        self.policy = make_policy(policy, ways=geo.associativity, seed=seed)
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

    def _new_set(self):
        ways = self.geometry.associativity
        return [[None] * ways, [False] * ways, self.policy.new_set_meta()]

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

    def set_state(self, set_index: int) -> tuple:
        """One set's (tags, dirty bits, metadata) as a hashable value for `load_set`."""
        self._check_set(set_index)
        tags, dirty, meta = self._sets[set_index] or self._new_set()
        return tuple(tags), tuple(dirty), tuple(meta) if isinstance(meta, list) else meta

    def load_set(self, set_index: int, state: tuple) -> None:
        """Make one set hold a `set_state` value; counters and cycles stay as they are."""
        self._check_set(set_index)
        tags, dirty, meta = state
        self._sets[set_index] = [list(tags), list(dirty),
                                 list(meta) if isinstance(meta, tuple) else meta]

    def dirty_count(self, set_index: int) -> int:
        self._check_set(set_index)
        record = self._sets[set_index]
        return sum(record[1]) if record is not None else 0

    # -- accesses -----------------------------------------------------------

    def access(self, line: tuple, is_write: bool) -> AccessOutcome:
        actor, set_index, tag = line
        return self.access_run(actor, set_index, (tag,), is_write)[2]

    def access_run(self, actor, set_index: int, tags, is_write: bool):
        """Access one actor's `tags` in one set, in order, all loads or all stores.

        `tags` is a sequence, such as a tuple or a range.  Returns (summed
        latency, hit count, last `AccessOutcome` or None).  State, counters
        and cycles are those of `access` on each line in turn.  The set and
        the actor's ways are checked before the first access, so a run that
        raises changes nothing, and an empty run neither allocates the set
        nor counts the actor.
        """
        sets = self._sets
        if not 0 <= set_index < len(sets):
            self._check_set(set_index)  # raises, naming the set
        ways = self._ways
        if self.geometry.partition is not None:
            try:
                ways = ways[actor]
            except KeyError:
                raise ValueError(f"actor {actor!r} has no way partition") from None
        if not tags:
            return 0, 0, None
        record = sets[set_index]
        if record is None:
            record = sets[set_index] = self._new_set()
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
        # tuple.__new__ skips the namedtuple's Python-level __new__ on this hot path.
        return total, hits, tuple.__new__(AccessOutcome, (_KINDS[outcome >> 1], victim, latency))

    def _check_set(self, set_index):
        if not 0 <= set_index < self.geometry.num_sets:
            raise ValueError(f"set_index {set_index} outside 0..{self.geometry.num_sets - 1}")
