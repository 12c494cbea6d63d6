"""Set-associative L1 model with write-back/write-allocate semantics.

The backing level always hits, so every outcome cost comes from the L1 state
transition alone: hit, fill of an invalid way, clean eviction, or dirty
eviction with its write-back.  Two defense knobs live in the geometry: a
write-through/no-allocate mode (dirty bits never set) and static way
partitioning per actor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .policy import make_policy

ADDRESS_SPACE = 1 << 64


class WritePolicy(Enum):
    WRITE_BACK_ALLOCATE = "write-back"
    WRITE_THROUGH_NO_ALLOCATE = "write-through"


class AccessKind(Enum):
    READ = "read"
    WRITE = "write"


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

    def __post_init__(self):
        for name in ("num_sets", "associativity", "line_size"):
            value = getattr(self, name)
            if not _is_pow2(value):
                raise ValueError(f"{name}={value} must be a power of two >= 1")
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

    @property
    def offset_bits(self) -> int:
        return self.line_size.bit_length() - 1

    @property
    def set_bits(self) -> int:
        return self.num_sets.bit_length() - 1

    @property
    def tag_shift(self) -> int:
        return self.offset_bits + self.set_bits

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
    return LineRef(actor_id, address)


class LineState(NamedTuple):
    valid: bool
    dirty: bool
    tag: object
    policy_meta: object


@dataclass(frozen=True)
class LatencyModel:
    """Per-outcome access costs in cycles, with optional uniform jitter.

    Defaults follow measured L1 costs on an 8-way part: ~4 cycles for a hit,
    ~11 to refill over a clean victim, ~22 when the victim must be written
    back.  A write-through store that bypasses the cache is charged like a
    clean refill; the constant only matters in defense mode where the channel
    is dead regardless.
    """

    hit: int = 4
    miss_clean: int = 11
    miss_dirty: int = 22
    uncached_store: int = 11
    jitter: int = 0

    def base_cost(self, kind: OutcomeKind) -> int:
        if kind is OutcomeKind.HIT:
            return self.hit
        if kind is OutcomeKind.MISS_EVICT_DIRTY:
            return self.miss_dirty
        if kind is OutcomeKind.UNCACHED:
            return self.uncached_store
        return self.miss_clean  # clean eviction or invalid fill


class AccessOutcome(NamedTuple):
    kind: OutcomeKind
    victim_way: Optional[int]
    writeback: bool
    latency: int


@dataclass
class ActorCounters:
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    writebacks: int = 0

    def as_dict(self):
        return {
            "loads": self.loads,
            "stores": self.stores,
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "writebacks": self.writebacks,
        }


DEFAULT_GEOMETRY = CacheGeometry()
DEFAULT_LATENCY = LatencyModel()


class Cache:
    """Mutable cache state; single-threaded, deterministic under a fixed seed."""

    def __init__(self, geometry: CacheGeometry | None = None, policy="lru",
                 latency: LatencyModel | None = None, seed: int = 0):
        self.geometry = geometry or DEFAULT_GEOMETRY
        self.latency = latency or DEFAULT_LATENCY
        self.policy = make_policy(policy, ways=self.geometry.associativity, seed=seed)
        self._seed = seed
        self.reset()

    # -- state management ---------------------------------------------------

    def reset(self, seed: int | None = None) -> None:
        """Invalidate every line, zero all counters, reseed the generators."""
        if seed is not None:
            self._seed = seed
        geo = self.geometry
        ways = geo.associativity
        self._valid = [[False] * ways for _ in range(geo.num_sets)]
        self._dirty = [[False] * ways for _ in range(geo.num_sets)]
        self._tags = [[None] * ways for _ in range(geo.num_sets)]
        self.policy.reset(seed=self._seed)
        self._meta = [self.policy.new_set_meta() for _ in range(geo.num_sets)]
        self._jitter_rng = random.Random(self._seed ^ 0x6A177E52)
        self.counters: dict[str, ActorCounters] = {}
        self.cycles = 0

    def snapshot_set(self, set_index: int):
        """Pure read of one set: [(valid, dirty, tag, policy_meta), ...] per way."""
        self._check_set(set_index)
        meta = self._meta[set_index]
        per_line = meta if isinstance(meta, list) and len(meta) == self.geometry.associativity else None
        return [
            LineState(
                self._valid[set_index][w],
                self._dirty[set_index][w],
                self._tags[set_index][w],
                per_line[w] if per_line is not None else None,
            )
            for w in range(self.geometry.associativity)
        ]

    def policy_meta(self, set_index: int):
        self._check_set(set_index)
        return self._meta[set_index]

    def set_policy_meta(self, set_index: int, meta) -> None:
        """Force one set's policy metadata (experiment support)."""
        self._check_set(set_index)
        current = self._meta[set_index]
        if isinstance(current, list):
            if not isinstance(meta, list) or len(meta) != len(current):
                raise ValueError(f"expected list of length {len(current)}")
            self._meta[set_index] = list(meta)
        elif meta is not None:
            raise ValueError("policy keeps no per-set metadata")

    def dirty_count(self, set_index: int) -> int:
        self._check_set(set_index)
        return sum(self._dirty[set_index])

    # -- accesses -----------------------------------------------------------

    def read(self, line: LineRef) -> AccessOutcome:
        return self.access(line, AccessKind.READ)

    def write(self, line: LineRef) -> AccessOutcome:
        return self.access(line, AccessKind.WRITE)

    def access(self, line: LineRef, kind: AccessKind) -> AccessOutcome:
        geo = self.geometry
        address = line.address
        if not 0 <= address < ADDRESS_SPACE:
            raise ValueError(f"address {address:#x} outside the 64-bit space")
        actor = line.actor_id
        if geo.partition is not None and actor not in geo.partition:
            raise ValueError(f"actor {actor!r} has no way partition")

        set_index = (address >> geo.offset_bits) & (geo.num_sets - 1)
        tag = (actor, address >> geo.tag_shift)
        is_write = kind is AccessKind.WRITE
        write_back = geo.write_policy is WritePolicy.WRITE_BACK_ALLOCATE

        stats = self.counters.get(actor)
        if stats is None:
            stats = self.counters[actor] = ActorCounters()
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1

        tags = self._tags[set_index]
        meta = self._meta[set_index]
        try:
            way = tags.index(tag)
        except ValueError:
            way = -1

        if way >= 0:
            stats.l1_hits += 1
            if is_write and write_back:
                self._dirty[set_index][way] = True
            self.policy.on_access(meta, way)
            return self._finish(OutcomeKind.HIT, None, False)

        stats.l1_misses += 1
        if is_write and not write_back:
            # No-allocate store: memory is updated directly, cache untouched.
            return self._finish(OutcomeKind.UNCACHED, None, False)

        permitted = geo.partition[actor] if geo.partition is not None else None
        valid = self._valid[set_index]
        victim = -1
        if permitted is None:
            for w in range(geo.associativity):
                if not valid[w]:
                    victim = w
                    break
        else:
            for w in sorted(permitted):
                if not valid[w]:
                    victim = w
                    break
        if victim >= 0:
            outcome_kind = OutcomeKind.MISS_FILL_INVALID
            writeback = False
        else:
            candidates = sorted(permitted) if permitted is not None else _all_ways(geo.associativity)
            victim = self.policy.select_victim(meta, candidates)
            if self._dirty[set_index][victim]:
                outcome_kind = OutcomeKind.MISS_EVICT_DIRTY
                writeback = True
                stats.writebacks += 1
            else:
                outcome_kind = OutcomeKind.MISS_EVICT_CLEAN
                writeback = False
        valid[victim] = True
        self._dirty[set_index][victim] = is_write and write_back
        tags[victim] = tag
        self.policy.on_access(meta, victim)
        return self._finish(outcome_kind, victim, writeback)

    def _finish(self, kind, victim_way, writeback) -> AccessOutcome:
        latency = self.latency.base_cost(kind)
        j = self.latency.jitter
        if j:
            latency += self._jitter_rng.randint(-j, j)
        self.cycles += latency
        return AccessOutcome(kind, victim_way, writeback, latency)

    def _check_set(self, set_index):
        if not 0 <= set_index < self.geometry.num_sets:
            raise ValueError(f"set_index {set_index} outside 0..{self.geometry.num_sets - 1}")


_WAYS_CACHE = {}


def _all_ways(n):
    try:
        return _WAYS_CACHE[n]
    except KeyError:
        _WAYS_CACHE[n] = list(range(n))
        return _WAYS_CACHE[n]
