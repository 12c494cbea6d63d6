"""Set-associative L1 model with write-back/write-allocate semantics.

The backing level always hits, so every outcome cost comes from the L1 state
transition alone: hit, fill of an invalid way, clean eviction, or dirty
eviction with its write-back.  Two defense knobs live in the geometry: a
write-through/no-allocate mode (dirty bits never set) and static way
partitioning per actor.

A set is allocated on its first access, as one [tags, dirty, meta] record; a
way is valid when its tag is not None.  Most experiments build a fresh cache
and touch one set, so a set that is never accessed costs nothing and reads as
all-invalid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from .policy import make_policy

ADDRESS_SPACE = 1 << 64


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
    line_size: int = 64
    write_policy: WritePolicy = WritePolicy.WRITE_BACK_ALLOCATE
    partition: Optional[dict] = None  # actor id -> iterable of permitted ways
    # Address split, derived from the sizes above.
    offset_bits: int = field(init=False, compare=False, repr=False)
    set_bits: int = field(init=False, compare=False, repr=False)
    tag_shift: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("num_sets", "associativity", "line_size"):
            value = getattr(self, name)
            if not _is_pow2(value):
                raise ValueError(f"{name}={value} must be a power of two >= 1")
        offset_bits = self.line_size.bit_length() - 1
        set_bits = self.num_sets.bit_length() - 1
        object.__setattr__(self, "offset_bits", offset_bits)
        object.__setattr__(self, "set_bits", set_bits)
        object.__setattr__(self, "tag_shift", offset_bits + set_bits)
        if self.partition is not None:
            norm = {}
            seen = set()
            for actor, ways in self.partition.items():
                ways = frozenset(ways)
                if not ways:
                    raise ValueError(f"partition for {actor!r} is empty")
                if any(w < 0 or w >= self.associativity for w in ways):
                    raise ValueError(f"partition for {actor!r} has ways outside 0..{self.associativity - 1}")
                if ways & seen:
                    raise ValueError("partitions of distinct actors must be disjoint")
                seen |= ways
                norm[actor] = ways
            object.__setattr__(self, "partition", norm)

    def set_index(self, address: int) -> int:
        return (address >> self.offset_bits) & (self.num_sets - 1)


class LineRef(NamedTuple):
    """An address in one actor's space; actors never alias each other."""

    actor_id: str
    address: int


def make_line(actor_id: str, set_index: int, tag: int,
              geometry: CacheGeometry | None = None) -> LineRef:
    """Build a LineRef whose index bits select `set_index` and whose tag is `tag`."""
    geo = geometry or DEFAULT_GEOMETRY
    if not 0 <= set_index < geo.num_sets:
        raise ValueError(f"set_index {set_index} outside 0..{geo.num_sets - 1}")
    if tag < 0:
        raise ValueError("tag must be non-negative")
    address = (tag << geo.tag_shift) | (set_index << geo.offset_bits)
    # tuple.__new__ skips the NamedTuple's Python-level __new__ on this hot path.
    return tuple.__new__(LineRef, (actor_id, address))


class LineState(NamedTuple):
    valid: bool
    dirty: bool
    tag: object


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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class AccessOutcome(NamedTuple):
    kind: OutcomeKind
    victim_way: Optional[int]
    latency: int


@dataclass
class ActorCounters:
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    writebacks: int = 0


DEFAULT_GEOMETRY = CacheGeometry()
DEFAULT_LATENCY = LatencyModel()

# Enum members bound once: attribute lookups on an Enum class are slow.
_HIT, _FILL, _EVICT_CLEAN, _EVICT_DIRTY, _UNCACHED = OutcomeKind


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
        self.counters: dict[str, ActorCounters] = {}
        self.cycles = 0

    # -- state management ---------------------------------------------------

    def _new_set(self):
        ways = self.geometry.associativity
        return [[None] * ways, [False] * ways, self.policy.new_set_meta()]

    def snapshot_set(self, set_index: int):
        """Pure read of one set: [(valid, dirty, tag), ...] per way."""
        self._check_set(set_index)
        tags, dirty, _ = self._sets[set_index] or self._new_set()
        return [LineState(tag is not None, is_dirty, tag)
                for tag, is_dirty in zip(tags, dirty)]

    def dirty_count(self, set_index: int) -> int:
        self._check_set(set_index)
        record = self._sets[set_index]
        return sum(record[1]) if record is not None else 0

    # -- accesses -----------------------------------------------------------

    def read(self, line: LineRef) -> AccessOutcome:
        return self.access(line, False)

    def write(self, line: LineRef) -> AccessOutcome:
        return self.access(line, True)

    def access(self, line: LineRef, is_write: bool) -> AccessOutcome:
        geo = self.geometry
        actor, address = line
        if not 0 <= address < ADDRESS_SPACE:
            raise ValueError(f"address {address:#x} outside the 64-bit space")
        ways = self._ways
        if geo.partition is not None:
            try:
                ways = ways[actor]
            except KeyError:
                raise ValueError(f"actor {actor!r} has no way partition") from None

        set_index = (address >> geo.offset_bits) & (geo.num_sets - 1)
        record = self._sets[set_index]
        if record is None:
            record = self._sets[set_index] = self._new_set()
        tags, dirty, meta = record
        tag = (actor, address >> geo.tag_shift)

        stats = self.counters.get(actor)
        if stats is None:
            stats = self.counters[actor] = ActorCounters()
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1

        cost = self.latency
        latency = cost.miss_clean  # fills, clean evictions, uncached stores
        victim = None
        if tag in tags:
            way = tags.index(tag)
            stats.l1_hits += 1
            if is_write and self._write_back:
                dirty[way] = True
            self.policy.on_access(meta, way)
            outcome = _HIT
            latency = cost.hit
        elif is_write and not self._write_back:
            # No-allocate store: memory is updated directly, cache untouched.
            stats.l1_misses += 1
            outcome = _UNCACHED
        else:
            stats.l1_misses += 1
            # The C-level `None in tags` spares a full set the Python loop.
            for way in (ways if None in tags else ()):
                if tags[way] is None:
                    victim = way
                    outcome = _FILL
                    break
            else:
                victim = self.policy.select_victim(meta, ways)
                if dirty[victim]:
                    outcome = _EVICT_DIRTY
                    latency = cost.miss_dirty
                    stats.writebacks += 1
                else:
                    outcome = _EVICT_CLEAN
            tags[victim] = tag
            dirty[victim] = is_write and self._write_back
            self.policy.on_access(meta, victim)

        j = cost.jitter
        if j:
            latency += self._jitter_rng.randint(-j, j)
        self.cycles += latency
        # tuple.__new__ skips the NamedTuple's Python-level __new__ on this hot path.
        return tuple.__new__(AccessOutcome, (outcome, victim, latency))

    def _check_set(self, set_index):
        if not 0 <= set_index < self.geometry.num_sets:
            raise ValueError(f"set_index {set_index} outside 0..{self.geometry.num_sets - 1}")
