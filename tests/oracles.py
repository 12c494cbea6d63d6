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
package walks a table of the steps it has already run.  The two channel
laws run no cache at all: each decode's dirty-line count follows from the
sent level and its period's noise draw, and its jitter from an exact
convolution.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import ne

from dirtysim.analysis import (PreambleLockError, align_by_preamble, bit_error_rate,
                               rate_kbps)
from dirtysim.cache import Cache, OutcomeKind, make_line
from dirtysim.channel import (NOISE, PREAMBLE, ChannelReport, TraceEvent, _draws,
                              receiver_decode, sender_encode)
from dirtysim.measurement import RECEIVER, SENDER, build_replacement_set, fill_set
from dirtysim.policy import make_policy
from dirtysim.seeding import derive_seed

WAYS = 8


def shuffled(rset, seed):
    """`rset`'s tags in the chase order a `seed`ed shuffle gives them."""
    order = list(rset)
    random.Random(derive_seed("chase", seed)).shuffle(order)
    return tuple(order)


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


def random_start_meta(policy, ways, rng):
    """A uniformly random metadata value of `policy` for a set of `ways` ways."""
    if policy == "lru":
        return rng.sample(range(ways), ways)  # a recency order
    if policy == "tree-plru":
        return rng.getrandbits(ways - 1)
    return None


def eviction_distance_fraction(policy, n, trials, seed, ways=WAYS):
    """Fraction of trials whose probe line is gone after exactly n insertions.

    The trials of `eviction_distance_experiment`, each run in full: a
    prefilled set, the probe line installed at the policy's victim, then all
    n fresh insertions, each touching its way.  Where the experiment starts
    every trial from fresh metadata, each trial here starts from a random
    state of its own, so agreement shows that the fresh start stands for
    every start.  The random policy's victims follow the experiment's
    per-trial seed.
    """
    pol = make_policy(policy, ways)
    candidates = tuple(range(ways))
    successes = 0
    for t in range(trials):
        rng = random.Random(derive_seed(seed, "oracle-start", t))
        if pol.draws:
            pol = make_policy(policy, ways, derive_seed(seed, "evict-dist-victims", t))
        occupants = list(range(-ways, 0))  # unrelated prefill
        meta = random_start_meta(policy, ways, rng)
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
    """Reference L1 set, as a `Cache` is one set: a dict way -> [(actor, tag), dirty].

    `policy` is "lru" (victim: least recent allowed way in the set's recency
    list), "tree-plru" (an integer bitmask, walked by `plru_victim`) or
    "random" (one `random.Random(seed)` for the whole cache, drawing with
    `choice` over the sorted allowed ways, as the package does).
    `partition` maps actor -> allowed ways.  Jitter replays one draw per
    access from `random.Random(seed ^ 0x6A177E52)`, the package's jitter
    stream.  `outcomes` counts each actor's accesses by (outcome kind, is
    store).
    """

    HIT, FILL, CLEAN, DIRTY, UNCACHED = (
        "hit", "miss-fill-invalid", "miss-evict-clean", "miss-evict-dirty", "uncached")

    def __init__(self, policy, *, ways=WAYS, write_back=True, partition=None,
                 costs=(4, 11, 22, 11), jitter=0, seed=0):
        self.policy = policy
        self.ways = ways
        self.write_back = write_back
        self.partition = partition
        self.hit_cost, self.clean_cost, self.dirty_cost, self.uncached_cost = costs
        self.jitter = jitter
        self.victim_rng = random.Random(seed)
        self.jitter_rng = random.Random(seed ^ 0x6A177E52)
        self.lines = {}  # way -> [(actor, tag), dirty]
        self.recency = []  # ways, least recently used first
        self.plru = 0
        self.counters = {}
        self.outcomes = {}  # actor -> Counter of (outcome kind, is store)
        self.cycles = 0

    def _touch(self, way):
        if way in self.recency:
            self.recency.remove(way)
        self.recency.append(way)
        self.plru = plru_touch(self.plru, way, self.ways)

    def _victim(self, allowed):
        if self.policy == "lru":
            return next(w for w in self.recency if w in allowed)
        if self.policy == "tree-plru":
            return plru_victim(self.plru, self.ways,
                               None if len(allowed) == self.ways else allowed)
        return self.victim_rng.choice(sorted(allowed))

    def access(self, actor, tag, write):
        """Return (outcome kind, victim way, writeback, latency)."""
        key = (actor, tag)
        c = self.counters.setdefault(actor, dict(
            loads=0, stores=0, l1_hits=0, l1_misses=0, writebacks=0))
        c["stores" if write else "loads"] += 1
        lines = self.lines
        hit_way = next((w for w, (k, _) in lines.items() if k == key), None)
        if hit_way is not None:
            c["l1_hits"] += 1
            if write and self.write_back:
                lines[hit_way][1] = True
            self._touch(hit_way)
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
                way = self._victim(allowed)
                if lines[way][1]:
                    c["writebacks"] += 1
                    result = [self.DIRTY, way, True, self.dirty_cost]
                else:
                    result = [self.CLEAN, way, False, self.clean_cost]
            lines[way] = [key, write and self.write_back]
            self._touch(way)
        self.outcomes.setdefault(actor, Counter())[result[0], bool(write)] += 1
        if self.jitter:
            result[3] += self.jitter_rng.randint(-self.jitter, self.jitter)
        self.cycles += result[3]
        return tuple(result)

    def dirty_count(self):
        return sum(dirty for _, dirty in self.lines.values())


def access_kind(cache, line, is_write):
    """Access `line` on a package `cache`: (its `OutcomeKind`, its latency).

    An access returns its latency alone, so the kind is read off the one
    outcome count of the line's actor that the access moved, which must
    be a store count exactly when `is_write`.
    """
    actor = line[0]
    before = cache.outcome_counts(actor)
    latency = cache.access(line, is_write)
    moved = [i for i, (a, b) in enumerate(zip(before, cache.outcome_counts(actor))) if a != b]
    assert len(moved) == 1 and moved[0] & 1 == bool(is_write), moved
    return list(OutcomeKind)[moved[0] >> 1], latency


def direct_simulate(cfg, events, thresholds):
    """`run_channel`'s simulation of `events` as one real action each, with no table of steps.

    Every encode, decode and noise access runs on the one live cache, and
    the report's counters and cycles are that cache's.  Each replacement
    set is chased in an order shuffled by the run's seed, where the package
    chases tag order: no report may tell the two apart.
    """
    enc = cfg.encoding
    k = enc.bits_per_symbol
    stream = PREAMBLE + cfg.message
    cache = Cache(cfg.geometry, cfg.policy, cfg.latency, seed=derive_seed(cfg.seed, "cache"))
    fill_set(cache, RECEIVER, cfg.geometry.associativity)
    rsets = tuple(shuffled(build_replacement_set(cfg.rset_size, ways=cfg.geometry.associativity,
                                                 index=p),
                           derive_seed(cfg.seed, "chase", p))
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
            sample, level = receiver_decode(cache, rsets[len(received_parts) % 2], thresholds)
            bits = format(level, f"0{k}b")
            received_parts.append(bits)
            trace.append(TraceEvent(cycle, RECEIVER, "decode", enc.levels[level],
                                    sample.total_cycles, bits, symbol))
        else:
            line = make_line(NOISE, noise_tag)
            noise_tag += 1
            latency = cache.access(line, action == "noise-write")
            trace.append(TraceEvent(cycle, NOISE, action, "", latency, "", ""))

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
        edit_distance=error.edit_distance, ber=error.ber, rate_kbps=rate_kbps(cfg.period, k),
        alignment_offset=offset, preamble_locked=locked,
        counters=dict(sorted(cache.counters.items())), cycles=cache.cycles, events=trace)


def noise_law_counts(cfg):
    """Each decode's dirty-line count by the noise law, in stream order.

    For LRU or Tree-PLRU on the undefended cache, with no slip: a decode
    counts the sent level's d dirty lines, moved by its period's noise
    access.  A noise write makes it d+1, unless d = W (it then evicts a
    dirty line and leaves one); a noise read makes it W-1, but only when
    d = W (below W it evicts a clean receiver line).  The noise draws are
    `channel._draws`'.
    """
    ways = cfg.geometry.associativity
    k = cfg.encoding.bits_per_symbol
    stream = PREAMBLE + cfg.message
    noise = dict(_draws(cfg, cfg.seed)[0])
    counts = []
    for i in range(len(stream) // k):
        d = cfg.encoding.level_for_bits(stream[i * k:(i + 1) * k])
        action = noise.get(i)
        if action == "noise-write" and d < ways:
            d += 1
        elif action == "noise-read" and d == ways:
            d = ways - 1
        counts.append(d)
    return counts


def noise_law_bits(cfg):
    """The decoded stream by the noise law: each count reads as the level whose
    midpoint interval holds it, and a count on a midpoint as the lower level."""
    levels = cfg.encoding.levels
    pairs = list(zip(levels, levels[1:]))
    return "".join(cfg.encoding.bits_for_level_index(sum(2 * c > a + b for a, b in pairs))
                   for c in noise_law_counts(cfg))


def exact_wrong_bits(cfg, cuts):
    """(mean, variance) of the payload's wrong bits at offset 0 under jitter, as Fractions.

    A decode of count c (`noise_law_counts`) totals L clean misses, c of
    them dirty, plus the sum S of its L probe accesses' independent uniform
    integers on [-j, j]; jitter moves no line, so c does not read it.  S's
    law is the L-fold convolution of one draw's, and the decode reads the
    level whose index is the number of `cuts` below its total.  Decodes
    draw independently, so means and variances add.
    """
    lat, n = cfg.latency, cfg.rset_size
    j = lat.jitter
    ways_of_sum = {0: 1}  # S -> the number of the (2j+1)**n draws that sum to it
    for _ in range(n):
        spread = Counter()
        for s, w in ways_of_sum.items():
            for x in range(-j, j + 1):
                spread[s + x] += w
        ways_of_sum = spread
    draws = (2 * j + 1) ** n
    k = cfg.encoding.bits_per_symbol
    first = len(PREAMBLE) // k
    stream = PREAMBLE + cfg.message
    law = {}  # (count, sent bits) -> (mean, variance) of one decode's wrong bits
    mean = variance = Fraction(0)
    for i, c in enumerate(noise_law_counts(cfg)[first:], first):
        sent = stream[i * k:(i + 1) * k]
        if (c, sent) not in law:
            base = n * lat.miss_clean + c * (lat.miss_dirty - lat.miss_clean)
            first_moment = second_moment = 0  # over all the draws, each of weight 1
            for s, w in ways_of_sum.items():
                bits = cfg.encoding.bits_for_level_index(sum(base + s > cut for cut in cuts))
                wrong = sum(map(ne, bits, sent))
                first_moment += w * wrong
                second_moment += w * wrong * wrong
            m = Fraction(first_moment, draws)
            law[c, sent] = (m, Fraction(second_moment, draws) - m * m)
        mean += law[c, sent][0]
        variance += law[c, sent][1]
    return mean, variance
