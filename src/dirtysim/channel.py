"""Covert-channel protocol: sender, receiver, scheduler, noise, and gadgets.

One sender and one receiver share a simulated L1 set (a `Cache`), each with
lines of its own.  The sender encodes a symbol as the number of dirty lines
it leaves in the set; the receiver recovers it from the summed latency of
replacing the set.  Noise lands in the set too, and calibration probes it.  A
deterministic event loop with a total order (cycle, then sender < noise <
receiver) stands in for the wall-clock hyper-thread interleaving of real
hardware.  Every transmission starts with the fixed `PREAMBLE`, by which
the receiver aligns its decoded stream; noise events come only from a
`noise_rate` above 0.

`run_channel` is two steps.  `schedule` draws noise and slip and returns the
sorted events; `_simulate` runs the cache over them and scores the result.
No draw reads the period, and an access's latency never moves the clock, so
a run reads its period only through the order of its events: two periods
that schedule the same actions in the same order give the same decoded
stream, BER, counters and cycle total.  A sweep trial draws once for all
its periods (`_draws`) and simulates each of its distinct orders once
(`_period_bers`).

Every event runs through one function, `Steps.act`, and every action
leaves the set in the walk's frame: a decode chases `rsets[0]` and then
swaps the two replacement sets' tags, and a noise access renames its line
to a tag that no access names.  This is exact.  An access compares tags
only for equality, and no policy or jitter draw reads a tag, so renaming
lines by a bijection, or renaming lines that no later access names, changes
no hit, victim, draw or latency.  The swap is a bijection of the receiver's
tags, and after it the set chased last reads as `rsets[1]`, so the next
decode's chase of `rsets[0]` is the real protocol's alternation; each noise
line is accessed once.  The same argument lets the receiver chase its sets
in tag order, which reads no seed.

The walk also stores each state in its policy's normal form: the set's
ways, each line with its dirty bit, relisted in the state's victim order
under fresh metadata (`Cache.normalize`).  This is exact too.  LRU sees way
positions only through its recency list, and Tree-PLRU is unchanged if a
node's two subtrees swap and that node's bit flips.  Nothing else a step
yields reads a way index: a full set fills no free way, and no trace field
names a victim way.  So a state and its normal form take equal steps, with
equal trace fields and counts, to states of one normal form, and the walk
stores one state for all the relabellings of its ways.
A partitioned set is its own normal form, stored as the action leaves it:
its way indices say whose ways they are, so relisting them would move lines
between actors.

When the cache draws nothing (no random policy, no jitter), `_simulate`
walks a table of steps instead of running every event.  Every access lands
in the one set, so what an event does is fixed by the set's state (tags,
dirty bits, policy metadata) and its action: an encode's symbol bits,
"decode", "noise-read" or "noise-write".
`Steps(cfg, thresholds).next(state, action)` is that step, a function: the
first time a (state, action) comes up, it loads the state into a private
cache of its own, acts there and stores the trace fields, the actor's
counts and the set state the action leaves, normalized.  The walk tallies
every step it takes, and the run's own cache does only the receiver's
prime: the tallies' counts and cycles are added at the end, so every output
is that of running each event.  No step reads the seed, and a decode is
one step whichever set it chases.  A table is built once per `run_channel`
call or once per sweep (`_period_bers`), whose trials all walk it.
`_simulate(steps, seed, period, events)` runs the table's own config at
`seed` and `period`, so the runs that share a table share one config but
for those two, and one set of cuts, by construction.  A cache that draws
acts every event on the run's cache, seeded by `seed`, and stores nothing.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul

from .analysis import (PreambleLockError, align_by_preamble, bit_error_rate,
                       rate_kbps)
from .cache import (DEFAULT_GEOMETRY, DEFAULT_LATENCY, Cache, CacheGeometry,
                    LatencyModel, make_line)
from .measurement import (DEFAULT_RSET_SIZE, RECEIVER, SENDER, build_replacement_set,
                          check_rset_size, fill_set, measure_replacement_latency,
                          probe_totals)
from .policy import make_policy
from .seeding import check_int, derive_seed

NOISE = "noise"
CALIBRATION_TRIALS = 8  # probe totals per level that calibration reads

# Sent before every message: 0xF0F0, alternating runs of both symbols.  Its
# 16 bits must split into whole symbols, so 8 levels (3 bits) cannot be used.
PREAMBLE = "1111000011110000"


class CalibrationError(RuntimeError):
    """Latency distributions of adjacent levels overlap too much to threshold."""


# -- encodings ---------------------------------------------------------------

@dataclass(frozen=True)
class Encoding:
    """Symbol bits <-> dirty-line count: 2**k strictly increasing levels carry k bits.

    Binary is the two-level case (0, d_one).  `name` sets `d_label`: d_one for
    binary, every level for multibit.  A level's symbol is its index in
    `levels`, written as k binary digits.
    """

    levels: tuple
    name: str

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        for i, level in enumerate(levels):
            check_int(f"levels[{i}]", level)
        if self.name not in ("binary", "multibit"):
            raise ValueError(f"unknown encoding {self.name!r}")
        if self.name == "binary" and not (len(levels) == 2 and levels[0] == 0 < levels[1]):
            raise ValueError("binary levels must be (0, d_one) with d_one >= 1")
        if len(levels) < 2 or len(levels) & (len(levels) - 1):
            raise ValueError("need a power-of-two number of levels >= 2")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if levels[0] < 0:
            raise ValueError("levels must be non-negative")

    @property
    def bits_per_symbol(self) -> int:
        return (len(self.levels) - 1).bit_length()

    @property
    def d_label(self) -> str:
        if self.name == "binary":
            return str(self.levels[1])
        return "-".join(str(d) for d in self.levels)

    def level_for_bits(self, bits: str) -> int:
        # strip, since int(x, 2) also reads " 1", "+1", "0_1" and other digits.
        if len(bits) != self.bits_per_symbol or bits.strip("01"):
            raise ValueError(f"symbol {bits!r} is not {self.bits_per_symbol} bits")
        return self.levels[int(bits, 2)]

    def bits_for_level_index(self, index: int) -> str:
        # Indexing the range raises IndexError for an index with no level.
        return format(range(len(self.levels))[index], "b").zfill(self.bits_per_symbol)


def BinaryEncoding(d_one: int = 1) -> Encoding:
    """Bit 0 leaves the set untouched; bit 1 installs d_one dirty lines."""
    return Encoding((0, d_one), "binary")


def MultiBitEncoding(levels=(0, 3, 5, 8)) -> Encoding:
    """Each group of k bits selects one of 2**k dirty-line counts."""
    return Encoding(levels, "multibit")


# -- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class ChannelConfig:
    """Everything defining one channel run; identical configs replay identically.

    A config checks itself when built, and `dataclasses.replace` builds anew,
    so every config that exists is valid.
    """

    message: str
    encoding: Encoding = BinaryEncoding()
    period: int = 5500                 # encode at its start, decode mid-way
    rset_size: int = DEFAULT_RSET_SIZE
    noise_rate: float = 0.0            # probability of a noise event per period
    noise_write_prob: float = 0.0      # probability a noise event is a write
    seed: int = 0
    slip: int = 0                      # half-width of receiver timing slip, cycles
    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    policy: str = "lru"
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self):
        # The decode at period // 2 must come after the encode at its start.
        check_int("period", self.period, 2)
        check_int("seed", self.seed)  # hashed as text, where 1, 1.0 and True differ
        check_rset_size(self.rset_size, self.geometry)
        for name in ("noise_rate", "noise_write_prob"):
            value = getattr(self, name)
            try:  # NaN fails the range too, and a value that cannot be compared raises
                if isinstance(value, bool) or not 0 <= value <= 1:
                    raise TypeError
            except TypeError:
                raise ValueError(f"{name} must be a number in [0, 1], not {value!r}") from None
        # An unknown name, or a way count the policy cannot hold, raises here.
        make_policy(self.policy, self.geometry.associativity)
        k = self.encoding.bits_per_symbol
        for label, bits in (("preamble", PREAMBLE), ("message", self.message)):
            if not set(bits) <= {"0", "1"}:
                raise ValueError(f"{label} must be a 0/1 string")
            if len(bits) % k:
                raise ValueError(f"{label} length must be a multiple of {k}")
        if not self.message:
            raise ValueError("message must be non-empty")
        if max(self.encoding.levels) > self.geometry.associativity:
            raise ValueError("encoding level exceeds associativity")
        check_int("slip", self.slip, 0)
        partition = self.geometry.partition
        if partition is not None:
            actors = (SENDER, RECEIVER, NOISE) if self.noise_rate > 0 else (SENDER, RECEIVER)
            for actor in actors:
                if actor not in partition:
                    raise ValueError(f"{actor} actor has no way partition; "
                                     "give it ways or disable partitioning")


# -- thresholds --------------------------------------------------------------

@dataclass(frozen=True)
class Thresholds:
    """Cut points between adjacent encoding levels, lowest first."""

    cuts: tuple

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cuts)
        object.__setattr__(self, "cuts", cuts)
        if not all(map(math.isfinite, cuts)):
            raise ValueError(f"cuts must be finite, not {cuts!r}")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError("cuts must be strictly increasing")

    @classmethod
    def from_totals(cls, table) -> "Thresholds":
        """Cuts at the midpoints of a `probe_totals` table's level means.

        Fails unless adjacent means lie at least twice the larger of their
        levels' population σ apart.
        """
        stats = [(len(t), sum(t), sum(x * x for x in t)) for _, t in table]
        means = [s / n for n, s, _ in stats]
        stds = [math.sqrt(n * q - s * s) / n for n, s, q in stats]
        for i in range(len(means) - 1):
            separation = means[i + 1] - means[i]
            spread = 2.0 * max(stds[i], stds[i + 1])
            if separation <= 0 or separation < spread:
                raise CalibrationError(
                    f"levels {i} and {i + 1} overlap: mean separation "
                    f"{separation:.2f} < required {max(spread, 1e-9):.2f}")
        return cls(tuple((means[i] + means[i + 1]) / 2.0 for i in range(len(means) - 1)))

    def classify(self, total_cycles: int) -> int:
        """Index of the level: the number of cuts below `total_cycles`."""
        return bisect.bisect_left(self.cuts, total_cycles)


def calibrate_thresholds(cfg: ChannelConfig) -> Thresholds:
    """Cut at the midpoints of each level's `probe_totals` on the undefended cache.

    Thresholds model the attacker's expectation of the write-back channel:
    defenses act at run time, not during calibration, and noise is never read.
    """
    return Thresholds.from_totals(probe_totals(
        cfg.encoding.levels, CALIBRATION_TRIALS, (derive_seed(cfg.seed, "calibration"), "cache"),
        geometry=CacheGeometry(cfg.geometry.associativity), policy=cfg.policy,
        latency=cfg.latency, rset_size=cfg.rset_size))


# -- protocol actors ---------------------------------------------------------

def sender_encode(cache: Cache, cfg: ChannelConfig, symbol_bits: str):
    """Dirty `level` sender lines in the set; level 0 touches nothing.

    Returns (level, summed access cost in cycles).
    """
    level = cfg.encoding.level_for_bits(symbol_bits)
    return level, fill_set(cache, SENDER, level, write=True)


def receiver_decode(cache: Cache, cfg: ChannelConfig, rset: tuple,
                    thresholds: Thresholds):
    """Probe the set with the receiver's tags `rset` and threshold the total to bits.

    The measurement leaves the set full of clean receiver lines, so it
    doubles as the next period's initialization.
    """
    sample = measure_replacement_latency(cache, RECEIVER, rset)
    index = thresholds.classify(sample.total_cycles)
    return sample, cfg.encoding.bits_for_level_index(index)


# -- the timed protocol ------------------------------------------------------

TraceEvent = namedtuple("TraceEvent", "cycle actor action d latency decoded_bits truth_bits")


class ChannelReport(namedtuple("ChannelReport", (
        "sent_bits received_bits raw_received_bits edit_distance ber rate_kbps "
        "alignment_offset preamble_locked counters cycles events"))):
    """Decoded stream plus error metrics, per-actor counters and the trace."""

    __slots__ = ()

    @property
    def latency_trace(self) -> list:
        """(cycle, total_cycles, decoded bits) of each decode, from `events`."""
        return [(ev.cycle, ev.latency, ev.decoded_bits)
                for ev in self.events if ev.action == "decode"]


def schedule(cfg: ChannelConfig) -> list:
    """The run's events in the order they happen: sorted (cycle, prio, index, action).

    `prio` orders sender (0) < noise (1) < receiver (2) at one cycle, and
    `index` is the symbol's position in the preamble-led stream, so each
    event's key is unique.
    """
    return _events(cfg.period, *_draws(cfg, cfg.seed))


def _draws(cfg: ChannelConfig, seed: int) -> tuple:
    """The one place noise and slip draw: each noise event's (symbol index,
    action), and each symbol's decode slip, for `cfg` run at `seed`.  No
    draw reads `period`."""
    n = (len(PREAMBLE) + len(cfg.message)) // cfg.encoding.bits_per_symbol
    noise_rng = random.Random(derive_seed(seed, "noise"))
    slip_rng = random.Random(derive_seed(seed, "slip"))
    # noise_rng feeds nothing else, so skipping its draws at rate 0 changes no output.
    noise = [(i, "noise-write" if noise_rng.random() < cfg.noise_write_prob else "noise-read")
             for i in range(n if cfg.noise_rate else 0) if noise_rng.random() < cfg.noise_rate]
    slips = [slip_rng.randint(-cfg.slip, cfg.slip) for _ in range(n)] if cfg.slip else [0] * n
    return noise, slips


def _events(period: int, noise: list, slips: list) -> list:
    """`schedule`'s sorted events at `period` from `_draws`' draws."""
    n = len(slips)
    decodes = list(map(add, range(period // 2, n * period, period), slips))
    # A decode slipped to before the run's start happens at cycle 0.
    decodes = [max(0, cycle) for cycle in decodes] if min(decodes) < 0 else decodes
    offset = max(1, period // 4)
    events = [*zip(range(0, n * period, period), repeat(0), range(n), repeat("encode")),
              *[(i * period + offset, 1, i, action) for i, action in noise],
              *zip(decodes, repeat(2), range(n), repeat("decode"))]
    events.sort()
    return events


# A noise access's line, once it is done, is renamed to a tag that
# `make_line` refuses, so no access names it.
_RENAME_NOISE = {(NOISE, 0): (NOISE, -1)}


def _primed_cache(cfg: ChannelConfig, seed: int) -> Cache:
    """A cache seeded as `cfg`'s run at `seed`, its set full of clean receiver lines."""
    cache = Cache(cfg.geometry, cfg.policy, cfg.latency, seed=derive_seed(seed, "cache"))
    fill_set(cache, RECEIVER, cfg.geometry.associativity)
    return cache


class Steps:
    """The table of steps of `cfg`'s runs at any period, decoded with `thresholds`.

    The cut count is checked before anything is built.  A state is the id of
    an interned set state, and an action is an encode's symbol bits,
    "decode", "noise-read" or "noise-write".  `next(state, action)` is the
    step: (the trace fields from actor to decoded bits, the actor's counts,
    the next state).  The first time a (state, action) comes up, it loads
    the state into the table's own cache, `act`s there and interns the set
    state the action leaves, which is in the walk's frame and, unless the
    set is partitioned, in its normal form (module docstring).  `start` is
    the state after the prime, or None when the cache draws: a drawing
    cache's steps hang on its generators, so a run then `act`s every event
    on its own cache and nothing is stored.  No step reads `cfg.seed`, so
    runs at any seed may walk one table.
    """

    def __init__(self, cfg: ChannelConfig, thresholds: Thresholds):
        levels = len(cfg.encoding.levels)
        if len(thresholds.cuts) != levels - 1:
            raise ValueError(f"thresholds have {len(thresholds.cuts)} cuts, but "
                             f"{levels} levels need {levels - 1}")
        self.cfg, self.thresholds = cfg, thresholds
        # Decodes alternate between two replacement sets, so the one measured
        # with is never resident.
        self.rsets = tuple(build_replacement_set(cfg.rset_size, ways=cfg.geometry.associativity,
                                                 index=p)
                           for p in (0, 1))
        # A decode on set 0 then a swap of the two sets' tags is one on set 1.
        set0, set1 = ([(RECEIVER, tag) for tag in rset] for rset in self.rsets)
        self._swap = dict([*zip(set0, set1), *zip(set1, set0)])
        self.table = {}
        self.ids = {}     # set state -> its id
        self.states = []  # id -> set state
        self._cache = _primed_cache(cfg, cfg.seed)
        self.start = None if self._cache.draws else self._intern()

    def _intern(self) -> int:
        """The id of the private cache's set state, in its normal form."""
        self._cache.normalize()
        state = self._cache.set_state()
        sid = self.ids.setdefault(state, len(self.ids))
        if sid == len(self.states):
            self.states.append(state)
        return sid

    def next(self, state: int, action: str) -> tuple:
        """The step from `state` on `action`, run on the private cache the first time."""
        step = self.table.get((state, action))
        if step is None:
            cache = self._cache
            cache.load_set(self.states[state])  # a fresh cache: its counts are the step's
            fields = self.act(cache, action)
            step = self.table[state, action] = (*fields, cache.outcome_counts(fields[0]),
                                                self._intern())
        return step

    def act(self, cache: Cache, action: str) -> tuple:
        """Run `action`'s real actor on `cache`, leaving the set in the walk's frame.

        Returns the trace fields from actor to decoded bits.
        """
        cfg = self.cfg
        if action == "decode":
            sample, bits = receiver_decode(cache, cfg, self.rsets[0], self.thresholds)
            cache.relabel(self._swap)
            return RECEIVER, action, cfg.encoding.level_for_bits(bits), sample.total_cycles, bits
        if action.startswith("noise"):
            outcome = cache.access(make_line(NOISE, 0), action == "noise-write")
            cache.relabel(_RENAME_NOISE)
            return NOISE, action, "", outcome.latency, ""
        level, cost = sender_encode(cache, cfg, action)
        return SENDER, "encode", level, cost, ""


def _simulate(steps: Steps, seed: int, period: int, events: list) -> ChannelReport:
    """Run `steps.cfg` at `seed` and `period` over its scheduled `events`; score the stream.

    Only the cycles in the trace and `rate_kbps` read `period`: the cache,
    the stream and the decoded bits see the events' order alone, since an
    access's latency never moves the clock.  Of the run, only its cache's
    draws read `seed`.  A run is its table's config at one seed and period,
    decoded with the table's cuts, by construction.  A cache that draws
    nothing is walked through `steps` (module docstring): the run's own
    cache does only the prime, and each actor's counts and cycles are added
    from the tally of its steps.
    """
    cfg = steps.cfg
    k = cfg.encoding.bits_per_symbol
    stream = PREAMBLE + cfg.message
    cache = _primed_cache(cfg, seed)
    table = steps.table
    state = steps.start  # None when the cache draws
    trace = []
    visits = []  # the walk's keys, one per event
    for cycle, _prio, index, action in events:
        # A noise access ("noise-read" or "noise-write") sends no symbol.
        truth = "" if action[0] == "n" else stream[index * k:(index + 1) * k]
        key = (state, truth if action == "encode" else action)
        if state is None:  # the cache draws: act on this run's cache
            actor, name, d, latency, bits = steps.act(cache, key[1])
        else:
            actor, name, d, latency, bits, _, state = table.get(key) or steps.next(*key)
            visits.append(key)
        # tuple.__new__ skips the namedtuple's Python-level __new__ on this hot path.
        trace.append(tuple.__new__(TraceEvent, (cycle, actor, name, d, latency, bits, truth)))
    rows = {}  # actor -> (times, latency, *count delta) per step it took
    for key, times in Counter(visits).items():
        actor, _, _, latency, _, delta, _ = table[key]
        rows.setdefault(actor, []).append((times, latency, *delta))
    for actor, columns in rows.items():
        times, *columns = zip(*columns)
        cycles, *counts = [sum(map(mul, column, times)) for column in columns]
        cache.add_outcomes(actor, counts, cycles)

    received = "".join([event.decoded_bits for event in trace])
    try:
        offset = align_by_preamble(received, PREAMBLE)
        locked = True
    except PreambleLockError:
        offset, locked = 0, False
    payload = received[offset + len(PREAMBLE):]
    error = bit_error_rate(cfg.message, payload)

    return ChannelReport(
        sent_bits=cfg.message,
        received_bits=payload,
        raw_received_bits=received,
        edit_distance=error.edit_distance,
        ber=error.ber,
        rate_kbps=rate_kbps(period, k),
        alignment_offset=offset,
        preamble_locked=locked,
        counters=dict(sorted(cache.counters.items())),
        cycles=cache.cycles,
        events=trace,
    )


def run_channel(cfg: ChannelConfig, thresholds: Thresholds | None = None) -> ChannelReport:
    """Drive sender, noise, and receiver through one message transmission.

    `cfg` checked itself when built; without `thresholds`, the run
    calibrates its own.
    """
    if thresholds is None:
        thresholds = calibrate_thresholds(cfg)
    return _simulate(Steps(cfg, thresholds), cfg.seed, cfg.period, schedule(cfg))


def _period_bers(cfg: ChannelConfig, periods, thresholds: Thresholds, trials: int) -> list:
    """Per trial, the BER of `cfg` at each of `periods` with `thresholds`, in order.

    `analysis.sweep_ber_vs_rate`'s trial loop.  The periods are taken as
    checked: the sweep builds each one's config, once, before it calibrates.
    Trial t runs at seed `derive_seed(cfg.seed, "sweep", t)`.  One
    `Steps(cfg, thresholds)` serves every trial, so every run is `cfg` at
    one period and one trial's seed, decoded with `thresholds`.  A trial
    draws its noise and slip once for all periods, and simulates each of
    its distinct event orders once (module docstring): the seed fixes the
    cache's draws and what each noise event does, so the events' (prio,
    symbol index) sequence names everything a run of that trial reads.
    """
    from array import array  # deferred: only a sweep packs event orders

    steps = Steps(cfg, thresholds)
    trial_bers = []
    for trial in range(trials):
        seed = derive_seed(cfg.seed, "sweep", trial)
        # No draw reads the period, so every period shares them.
        draws = _draws(cfg, seed)
        ber_of_order = {}  # this trial's orders only -> BER
        bers = []
        for period in periods:
            events = _events(period, *draws)
            # One C int per event; exact, since prio < 3 (an index too big
            # for a C int raises rather than collide).
            order = array("i", [3 * index + prio for _, prio, index, _ in events]).tobytes()
            if order not in ber_of_order:
                ber_of_order[order] = _simulate(steps, seed, period, events).ber
            del events  # so two periods' events are never alive at once
            bers.append(ber_of_order[order])
        trial_bers.append(bers)
    return trial_bers


# -- side-channel gadgets ----------------------------------------------------

VARIANTS = ("a", "b")  # a: if secret modify line0 else access line1; b: both reads
SCENARIOS = ("set-state-dirty", "prime-with-dirty", "victim-timing")
_SCENARIO_ALIASES = {"1": SCENARIOS[0], "2": SCENARIOS[1], "3": SCENARIOS[2]}


GadgetResult = namedtuple("GadgetResult", "variant scenario secret inferred latencies")


def run_gadget_attack(variant: str, scenario: str, secret: int) -> GadgetResult:
    """Recover a victim's secret-dependent access through replacement latency.

    LRU only: the cache is the default geometry and latency model under LRU,
    whose deterministic victim order lets one calibration trial per level set
    a probe cut.  Nothing is drawn, so the result needs no seed.

    A `Cache` is one set.  Line 1 shares line 0's cache for set-state-dirty,
    and has a second cache, a set of its own, otherwise.  Two sets of one L1
    would share only generators and counter and cycle totals; LRU without
    jitter draws nothing and the result holds no counters, so two caches
    are exactly two sets.

    Scenario set-state-dirty: the attacker primes line 0's set clean and
    detects the dirty line the victim's store leaves behind (variant a
    only).  Scenario prime-with-dirty: the attacker primes it with W dirty
    lines and detects the one the victim's load displaces (variant b).
    Scenario victim-timing: the victim's own access time separates a dirty
    eviction from a clean one (either variant).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    scenario = _SCENARIO_ALIASES.get(str(scenario), str(scenario))
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}")
    check_int("secret", secret, 0)
    if secret > 1:
        raise ValueError("secret must be 0 or 1")

    if scenario == "set-state-dirty" and variant != "a":
        raise ValueError("set-state-dirty needs the store-path gadget (variant a)")
    if scenario == "prime-with-dirty" and variant != "b":
        raise ValueError("prime-with-dirty needs the load-only gadget (variant b)")

    geo, lat = DEFAULT_GEOMETRY, DEFAULT_LATENCY
    cache = Cache(geo, "lru", lat)
    line1_cache = cache if scenario == "set-state-dirty" else Cache(geo, "lru", lat)
    ways = geo.associativity

    # The victim's one access: with secret 1, variant a stores to line 0 and
    # variant b loads it; with secret 0, either loads line 1.
    victim_cache, line, is_write = ((cache, make_line("victim", 0), variant == "a") if secret
                                    else (line1_cache, make_line("victim", 1), False))

    if scenario != "victim-timing":
        # Prime clean (set-state-dirty) or dirty (prime-with-dirty), let the
        # victim run, then probe the primed set.  The cut is calibrated, and
        # the total classified, as the channel's: a store adds one dirty line
        # (levels 0 and 1), a load displaces one of W (levels W-1 and W, so
        # the lower level is secret 1).
        dirty = scenario == "prime-with-dirty"
        fill_set(cache, "attacker", ways, write=dirty)
        victim_cache.access(line, is_write)
        rset = build_replacement_set(DEFAULT_RSET_SIZE, ways=ways)
        total = measure_replacement_latency(cache, "attacker", rset).total_cycles
        levels = (ways - 1, ways) if dirty else (0, 1)
        thresholds = Thresholds.from_totals(probe_totals(
            levels, 1, ("gadget",), geometry=geo, policy="lru", latency=lat,
            rset_size=DEFAULT_RSET_SIZE))
        inferred = thresholds.classify(total) ^ dirty
        latencies = {"probe_total_cycles": total, "threshold": thresholds.cuts[0]}
    else:
        fill_set(cache, "attacker", ways, write=True)
        fill_set(line1_cache, "attacker", ways)
        victim_time = victim_cache.access(line, is_write).latency
        cut = Thresholds.from_totals([(0, [lat.miss_clean]), (1, [lat.miss_dirty])]).cuts[0]
        inferred = int(victim_time > cut)
        latencies = {"victim_call_cycles": victim_time, "threshold": cut,
                     "dirty_clean_delta": lat.miss_dirty - lat.miss_clean}

    return GadgetResult(variant, scenario, secret, inferred, latencies)
