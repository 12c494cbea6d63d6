"""Independent reference implementations used to check the library.

Kept deliberately different in structure from the package code: the edit
distances are a memoized recursion and a Wagner-Fischer DP table instead of
bit vectors, the tree-PLRU model walks a state's bits one node at a time
instead of applying per-way masks and memoized victims, and the reference
cache keeps one dict per set with an explicit recency list instead of tag
lists and policy metadata.  The two
Monte-Carlo experiments are replayed one grid point at a time, with every
draw made and the evictions read off per-way lists at the end, where the
package records each trial's first eviction and stops.  The channel's
simulation runs every event's real action on one live cache, where the
package walks a table of the steps it has already run.
"""

import random
from collections import Counter
from functools import lru_cache

from dirtysim.analysis import (PreambleLockError, align_by_preamble, bit_error_rate,
                               rate_kbps)
from dirtysim.cache import Cache, make_line
from dirtysim.channel import (NOISE, PREAMBLE, ChannelReport, TraceEvent,
                              receiver_decode, sender_encode)
from dirtysim.measurement import (RECEIVER, RSET_TAG_BASES, SENDER, TARGET_SET,
                                  build_replacement_set, fill_set)
from dirtysim.policy import make_policy
from dirtysim.seeding import derive_seed

WAYS = 8


def brute_levenshtein(a, b):
    """Plain recursive edit distance with memoization."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(go(i + 1, j + 1) + (a[i] != b[j]),
                   go(i + 1, j) + 1,
                   go(i, j + 1) + 1)

    return go(0, 0)


def wagner_fischer(a, b):
    """Row-by-row Wagner-Fischer table, quadratic but flat in stack depth."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1,              # delete from a
                               current[j - 1] + 1,           # insert into a
                               previous[j - 1] + (ca != cb)))  # substitute
        previous = current
    return previous[-1]


def plru_victim(state, ways=WAYS, allowed=None):
    """Follow the pointed-to child from the root; bit 0 means left.

    With `allowed`, a child whose leaves hold no allowed way is skipped in
    favour of its sibling.
    """
    node = 1
    depth = ways.bit_length() - 1
    while node < ways:
        depth -= 1
        node = 2 * node + ((state >> (node - 1)) & 1)
        leaves = range((node << depth) - ways, ((node + 1) << depth) - ways)
        if allowed is not None and not any(w in allowed for w in leaves):
            node ^= 1
    return node - ways


def plru_touch(state, way, ways=WAYS):
    """Set every bit on the way's root path to point away from it."""
    node = way + ways
    while node > 1:
        parent = node >> 1
        if node % 2 == 0:
            state |= 1 << (parent - 1)
        else:
            state &= ~(1 << (parent - 1))
        node = parent
    return state


def plru_eviction_fraction(n, ways=WAYS):
    """Exact probe-eviction fraction over every initial tree state.

    Models a full set: insert the probe line at the tree-selected victim,
    then n fresh insertions, each touching its way.  Returns the fraction of
    the 2**(ways-1) initial states in which the probe line was evicted.
    """
    states = 1 << (ways - 1)
    evicted = 0
    for state in range(states):
        occupants = [None] * ways
        victim = plru_victim(state, ways)
        occupants[victim] = "probe"
        state_now = plru_touch(state, victim, ways)
        for j in range(n):
            victim = plru_victim(state_now, ways)
            occupants[victim] = j
            state_now = plru_touch(state_now, victim, ways)
        if "probe" not in occupants:
            evicted += 1
    return evicted / states


def eviction_distance_fraction(policy, n, trials, seed, ways=WAYS):
    """Fraction of trials whose probe line is gone after exactly n insertions.

    Same trials as `eviction_distance_experiment`: a prefilled set with
    randomized metadata, the probe line installed at the policy's victim,
    then all n fresh insertions, each touching its way.
    """
    pol = make_policy(policy, ways)
    candidates = tuple(range(ways))
    successes = 0
    for t in range(trials):
        rng = random.Random(derive_seed(seed, "evict-dist", t))
        if pol.draws:
            pol = make_policy(policy, ways, derive_seed(seed, "evict-dist-victims", t))
        occupants = list(range(-ways, 0))  # unrelated prefill
        meta = pol.randomize_meta(rng)
        victim = pol.select_victim(meta, candidates)
        occupants[victim] = 0  # probe line, dirty
        meta = pol.on_access(meta, victim)
        for j in range(1, n + 1):
            victim = pol.select_victim(meta, candidates)
            occupants[victim] = j
            meta = pol.on_access(meta, victim)
        if 0 not in occupants:
            successes += 1
    return successes / trials


def dirty_eviction_fraction(d, l, trials, seed, ways=WAYS):
    """Fraction of trials in which l uniform victim draws evict a dirty line.

    Ways 0..d-1 start dirty; each trial draws with `choice` from its own
    `random.Random(derive_seed(seed, "dirty-evict", t))`, as the package's
    random policy does, and cleans every dirty way it hits.
    """
    candidates = tuple(range(ways))
    successes = 0
    for t in range(trials):
        rng = random.Random(derive_seed(seed, "dirty-evict", t))
        dirty = [w < d for w in range(ways)]
        evicted_one = False
        for _ in range(l):
            victim = rng.choice(candidates)
            if dirty[victim]:
                evicted_one = True
                dirty[victim] = False
        if evicted_one:
            successes += 1
    return successes / trials


class ReferenceCache:
    """Reference L1: per set, a dict way -> [key, dirty] plus a recency list.

    `policy` is "lru" (victim: least recent allowed way in the set's recency
    list), "tree-plru" (an integer bitmask per set, walked by `plru_victim`)
    or "random" (one `random.Random(seed)` for the whole cache, drawing with
    `choice` over the sorted allowed ways, as the package does).  `partition`
    maps actor -> allowed ways.  Jitter replays one draw per access from
    `random.Random(seed ^ 0x6A177E52)`, the package's jitter stream.
    `outcomes` counts each actor's accesses by (outcome kind, is store).
    """

    HIT, FILL, CLEAN, DIRTY, UNCACHED = (
        "hit", "miss-fill-invalid", "miss-evict-clean", "miss-evict-dirty", "uncached")

    def __init__(self, policy, *, ways=WAYS, num_sets=64, line_size=64,
                 write_back=True, partition=None, costs=(4, 11, 22, 11),
                 jitter=0, seed=0):
        self.policy = policy
        self.ways = ways
        self.num_sets = num_sets
        self.line_size = line_size
        self.write_back = write_back
        self.partition = partition
        self.hit_cost, self.clean_cost, self.dirty_cost, self.uncached_cost = costs
        self.jitter = jitter
        self.victim_rng = random.Random(seed)
        self.jitter_rng = random.Random(seed ^ 0x6A177E52)
        self.sets = {}  # set index -> {"lines": {way: [key, dirty]}, "recency": [...], "plru": int}
        self.counters = {}
        self.outcomes = {}  # actor -> Counter of (outcome kind, is store)
        self.cycles = 0

    def _set(self, index):
        return self.sets.setdefault(index, {"lines": {}, "recency": [], "plru": 0})

    def _touch(self, s, way):
        if way in s["recency"]:
            s["recency"].remove(way)
        s["recency"].append(way)
        s["plru"] = plru_touch(s["plru"], way, self.ways)

    def _victim(self, s, allowed):
        if self.policy == "lru":
            return next(w for w in s["recency"] if w in allowed)
        if self.policy == "tree-plru":
            return plru_victim(s["plru"], self.ways,
                               None if len(allowed) == self.ways else allowed)
        return self.victim_rng.choice(sorted(allowed))

    def access(self, actor, address, write):
        """Return (outcome kind, victim way, writeback, latency)."""
        block = address // self.line_size
        index = block % self.num_sets
        key = (actor, block // self.num_sets)
        c = self.counters.setdefault(actor, dict(
            loads=0, stores=0, l1_hits=0, l1_misses=0, writebacks=0))
        c["stores" if write else "loads"] += 1
        s = self._set(index)
        lines = s["lines"]
        hit_way = next((w for w, (k, _) in lines.items() if k == key), None)
        if hit_way is not None:
            c["l1_hits"] += 1
            if write and self.write_back:
                lines[hit_way][1] = True
            self._touch(s, hit_way)
            result = [self.HIT, None, False, self.hit_cost]
        elif write and not self.write_back:
            c["l1_misses"] += 1
            result = [self.UNCACHED, None, False, self.uncached_cost]
        else:
            c["l1_misses"] += 1
            allowed = set(range(self.ways) if self.partition is None
                          else self.partition[actor])
            empty = sorted(allowed - set(lines))
            if empty:
                way, result = empty[0], [self.FILL, empty[0], False, self.clean_cost]
            else:
                way = self._victim(s, allowed)
                if lines[way][1]:
                    c["writebacks"] += 1
                    result = [self.DIRTY, way, True, self.dirty_cost]
                else:
                    result = [self.CLEAN, way, False, self.clean_cost]
            lines[way] = [key, write and self.write_back]
            self._touch(s, way)
        self.outcomes.setdefault(actor, Counter())[result[0], bool(write)] += 1
        if self.jitter:
            result[3] += self.jitter_rng.randint(-self.jitter, self.jitter)
        self.cycles += result[3]
        return tuple(result)

    def dirty_count(self, index):
        return sum(dirty for _, dirty in self._set(index)["lines"].values())


def direct_simulate(cfg, events, thresholds):
    """`run_channel`'s simulation of `events` as one real action each, with no table of steps.

    Every encode, decode and noise access runs on the one live cache, and
    the report's counters and cycles are that cache's.
    """
    enc = cfg.encoding
    k = enc.bits_per_symbol
    stream = PREAMBLE + cfg.message
    cache = Cache(cfg.geometry, cfg.policy, cfg.latency, seed=derive_seed(cfg.seed, "cache"))
    fill_set(cache, RECEIVER, TARGET_SET, cfg.geometry.associativity)
    rsets = tuple(build_replacement_set(cfg.rset_size, derive_seed(cfg.seed, "chase", p),
                                        tag_base=RSET_TAG_BASES[p])
                  for p in (0, 1))
    trace = []
    received_parts = []
    noise_tag = 0
    for cycle, _prio, index, action in events:
        symbol = stream[index * k:(index + 1) * k]
        if action == "encode":
            level, cost = sender_encode(cache, cfg, symbol)
            trace.append(TraceEvent(cycle, SENDER, "encode", level, cost, "", symbol))
        elif action == "decode":
            sample, bits = receiver_decode(cache, cfg, rsets[len(received_parts) % 2],
                                           thresholds)
            received_parts.append(bits)
            trace.append(TraceEvent(cycle, RECEIVER, "decode", enc.level_for_bits(bits),
                                    sample.total_cycles, bits, symbol))
        else:
            line = make_line(NOISE, TARGET_SET, noise_tag)
            noise_tag += 1
            outcome = cache.access(line, action == "noise-write")
            trace.append(TraceEvent(cycle, NOISE, action, "", outcome.latency, "", ""))

    received = "".join(received_parts)
    try:
        offset = align_by_preamble(received, PREAMBLE)
        locked = True
    except PreambleLockError:
        offset, locked = 0, False
    payload = received[offset + len(PREAMBLE):]
    error = bit_error_rate(cfg.message, payload)
    return ChannelReport(
        sent_bits=cfg.message, received_bits=payload, raw_received_bits=received,
        edit_distance=error.edit_distance, ber=error.ber, rate_kbps=rate_kbps(cfg.t_s, k),
        alignment_offset=offset, preamble_locked=locked,
        counters=dict(sorted(cache.counters.items())), cycles=cache.cycles, events=trace)
