"""Covert-channel protocol: sender, receiver, scheduler, noise, and gadgets.

One sender and one receiver share a simulated L1, each with lines of its
own.  The sender encodes a symbol as the number of dirty lines it leaves in
`TARGET_SET`; the receiver recovers it from the summed latency of replacing
that set.  Noise lands in that set too, and calibration probes it.  Every
set is alike and holds only the channel, so any set would do.  A
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

When the cache draws nothing (no random policy, no jitter), `_simulate`
walks a table of steps instead of running every event.  Every access lands
in `TARGET_SET`, so what an event does is fixed by that set's state (tags,
dirty bits, policy metadata) and its action: the symbol of an encode, a
decode, read or write for noise.
`Steps(cfg, thresholds).next(state, action)` is that step, a function: the
first time a (state, action) comes up, it loads the state into a private
cache of its own, runs the real actor there and stores the trace fields,
the actor's count delta and the next state.  The walk tallies every step it
takes, and the run's own cache does only the receiver's prime: the
tallies' counts and cycles are added at the end, so every output is that of
running each event.  Noise lines' tags are stored as one canonical tag that
no noise line can equal: each noise line is accessed once, so which one is
resident never matters, and a step's noise access uses one fixed tag.  The
receiver chases its two replacement sets in tag order, which reads no seed:
an access compares tags only for equality and no policy reads a tag, so
relabelling a replacement set's tags maps one order's run onto another's,
access for access.  A table's steps therefore read no seed.  The same
argument applied to the two replacement sets, which decodes alternate,
makes a decode one step whichever set it chases: every state is stored
relabelled so that its next decode chases `rsets[0]`, and a decode's next
state has the two sets' tags swapped before it is stored.  A table is
built once per `run_channel` call or once per sweep (`_period_bers`), whose
trials all walk it.  `_simulate(steps, seed, period, events)` runs the
table's own config at `seed` and `period`, so the runs that share a table
share one config but for those two, and one set of cuts, by construction.
A cache that draws runs every event on the run's cache, seeded by `seed`,
through the same actor code, and stores nothing.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import random
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul, sub

from .analysis import (PreambleLockError, align_by_preamble, bit_error_rate,
                       rate_kbps)
from .cache import (DEFAULT_GEOMETRY, DEFAULT_LATENCY, Cache, CacheGeometry,
                    LatencyModel, WritePolicy, make_line)
from .measurement import (DEFAULT_RSET_SIZE, RECEIVER, SENDER, TARGET_SET,
                          build_replacement_set, check_rset_size, fill_set,
                          measure_replacement_latency, probe_totals)
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
    binary, every level for multibit.  Both directions of the mapping are
    looked up in tables built with the encoding.  The tables are not
    fields, so equality, hashing, `repr` and `dataclasses.replace` see only
    `levels` and `name`.
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
        symbols = tuple(format(i, f"0{self.bits_per_symbol}b") for i in range(len(levels)))
        object.__setattr__(self, "_symbols", symbols)
        object.__setattr__(self, "_level_of", dict(zip(symbols, levels)))

    @property
    def bits_per_symbol(self) -> int:
        return (len(self.levels) - 1).bit_length()

    @property
    def d_label(self) -> str:
        if self.name == "binary":
            return str(self.levels[1])
        return "-".join(str(d) for d in self.levels)

    def level_for_bits(self, bits: str) -> int:
        try:
            return self._level_of[bits]
        except KeyError:
            raise ValueError(f"symbol {bits!r} is not {self.bits_per_symbol} bits") from None

    def bits_for_level_index(self, index: int) -> str:
        return self._symbols[index]


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
    def from_level_stats(cls, means, stds) -> "Thresholds":
        """Midpoint cuts; fails if adjacent levels are not cleanly separable."""
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


def _midpoint_thresholds(table) -> Thresholds:
    """Cuts between a `probe_totals` table's levels, from each level's mean and population σ."""
    stats = [(len(t), sum(t), sum(x * x for x in t)) for _, t in table]
    return Thresholds.from_level_stats([s / n for n, s, _ in stats],
                                       [math.sqrt(n * q - s * s) / n for n, s, q in stats])


def calibrate_thresholds(cfg: ChannelConfig) -> Thresholds:
    """Cut at the midpoints of each level's `probe_totals` on the undefended cache.

    Thresholds model the attacker's expectation of the write-back channel:
    defenses act at run time, not during calibration, and noise is never read.
    """
    geometry = dataclasses.replace(cfg.geometry, partition=None,
                                   write_policy=WritePolicy.WRITE_BACK_ALLOCATE)
    return _midpoint_thresholds(probe_totals(
        cfg.encoding.levels, CALIBRATION_TRIALS, (derive_seed(cfg.seed, "calibration"), "cache"),
        geometry=geometry, policy=cfg.policy, latency=cfg.latency,
        rset_size=cfg.rset_size))


# -- protocol actors ---------------------------------------------------------

def sender_encode(cache: Cache, cfg: ChannelConfig, symbol_bits: str):
    """Dirty `level` sender lines in `TARGET_SET`; level 0 touches nothing.

    Returns (level, summed access cost in cycles).
    """
    level = cfg.encoding.level_for_bits(symbol_bits)
    return level, fill_set(cache, SENDER, TARGET_SET, level, write=True)


def receiver_decode(cache: Cache, cfg: ChannelConfig, rset: tuple,
                    thresholds: Thresholds):
    """Probe `TARGET_SET` with the receiver's tags `rset` and threshold the total to bits.

    The measurement leaves the target set full of clean receiver lines, so it
    doubles as the next period's initialization.
    """
    sample = measure_replacement_latency(cache, RECEIVER, TARGET_SET, rset)
    index = thresholds.classify(sample.total_cycles)
    return sample, cfg.encoding.bits_for_level_index(index)


# -- the timed protocol ------------------------------------------------------

TraceEvent = namedtuple("TraceEvent", "cycle actor action d latency decoded_bits truth_bits")


@dataclass(frozen=True)
class ChannelReport:
    """Decoded stream plus error metrics and per-actor counters."""

    sent_bits: str
    received_bits: str
    raw_received_bits: str
    edit_distance: int
    ber: float
    rate_kbps: float
    alignment_offset: int
    preamble_locked: bool
    counters: dict
    cycles: int
    events: list = field(repr=False, default_factory=list)

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
    return _events(cfg.period, *_draws(cfg))


def _draws(cfg: ChannelConfig) -> tuple:
    """The one place noise and slip draw: each noise event's (symbol index,
    action), and each symbol's decode slip.  No draw reads `period`."""
    n = (len(PREAMBLE) + len(cfg.message)) // cfg.encoding.bits_per_symbol
    noise_rng = random.Random(derive_seed(cfg.seed, "noise"))
    slip_rng = random.Random(derive_seed(cfg.seed, "slip"))
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


# A noise line's resident tag in a walk's states; `make_line` takes no
# negative tag, so no noise line equals it.
_NOISE_TAG = (NOISE, -1)


def _primed_cache(cfg: ChannelConfig, seed: int) -> Cache:
    """A cache seeded as `cfg`'s run at `seed`, its target set full of clean receiver lines."""
    cache = Cache(cfg.geometry, cfg.policy, cfg.latency, seed=derive_seed(seed, "cache"))
    fill_set(cache, RECEIVER, TARGET_SET, cfg.geometry.associativity)
    return cache


class Steps:
    """The table of steps of `cfg`'s runs at any period, decoded with `thresholds`.

    The cut count is checked before anything is built.  A state is the id of
    an interned target-set state, and an action is an encode's symbol bits,
    the index (0 or 1) of the replacement set a decode chases, "noise-read"
    or "noise-write".  `next(state, action)` is the step: (the trace fields
    from actor to decoded bits, the actor's count delta, the next state).
    The first time a (state, action) comes up, it loads the state into the
    table's own primed cache, runs the real actor there (`act`), a noise
    access on one fixed tag, and interns the next state.  A state is stored
    in the frame of its next decode, which chases `rsets[0]`, so every
    walked decode is action 0: a decode's next state is interned with the
    two sets' tags swapped, and an encode's or a noise access's, which
    touches no receiver tag, as it is.  `start` is the state after the
    prime, or None when the cache draws: a drawing cache's steps hang on
    its generators, so a run then `act`s every event on its own cache, each
    decode on its real parity's set, and nothing is stored.  The replacement
    sets are chased in tag order, which reads no seed (module docstring), so
    no step reads `cfg.seed` and runs at any seed may walk one table.
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
        # Swapping the two sets' tags maps a decode on set 1 onto one on set 0.
        set0, set1 = ([(RECEIVER, tag) for tag in rset] for rset in self.rsets)
        self._swap = dict([*zip(set0, set1), *zip(set1, set0)])
        self.table = {}
        self.ids = {}     # canonical target-set state -> its id
        self.states = []  # id -> canonical target-set state
        self._cache = _primed_cache(cfg, cfg.seed)
        self.start = None if self._cache.draws else self._intern()

    def _intern(self, swap: bool = False) -> int:
        """The id of the private cache's target-set state, noise tags made canonical.

        With `swap`, the two replacement sets' tags are swapped first.
        """
        tags, dirty, meta = self._cache.set_state(TARGET_SET)
        relabel = self._swap if swap else {}
        state = (tuple([_NOISE_TAG if tag is not None and tag[0] == NOISE
                        else relabel.get(tag, tag) for tag in tags]), dirty, meta)
        sid = self.ids.setdefault(state, len(self.ids))
        if sid == len(self.states):
            self.states.append(state)
        return sid

    def next(self, state: int, action) -> tuple:
        """The step from `state` on `action`, run on the private cache the first time."""
        step = self.table.get((state, action))
        if step is None:
            # Load even a state the cache holds: the stored state may carry the
            # fixed noise tag, or a decode's swapped tags.
            self._cache.load_set(TARGET_SET, self.states[state])
            step = self.table[state, action] = (*self.act(self._cache, action, 0),
                                                self._intern(swap=action == 0))
        return step

    def act(self, cache: Cache, action, noise_tag: int) -> tuple:
        """Run `action`'s real actor on `cache`, a noise access on tag `noise_tag`.

        Returns the trace fields from actor to decoded bits, then the actor's
        count delta.
        """
        cfg = self.cfg
        actor = RECEIVER if action in (0, 1) else NOISE if action.startswith("noise") else SENDER
        before = cache.outcome_counts(actor)
        if actor is RECEIVER:
            sample, bits = receiver_decode(cache, cfg, self.rsets[action], self.thresholds)
            fields = (actor, "decode", cfg.encoding.level_for_bits(bits), sample.total_cycles, bits)
        elif actor is NOISE:
            outcome = cache.access(make_line(actor, TARGET_SET, noise_tag), action == "noise-write")
            fields = (actor, action, "", outcome.latency, "")
        else:
            level, cost = sender_encode(cache, cfg, action)
            fields = (actor, "encode", level, cost, "")
        return (*fields, tuple(map(sub, cache.outcome_counts(actor), before)))


def _simulate(steps: Steps, seed: int, period: int, events: list) -> ChannelReport:
    """Run `steps.cfg` at `seed` and `period` over its scheduled `events`; score the stream.

    Only the cycles in the trace and `rate_kbps` read `period`: the cache,
    the stream and the decoded bits see the events' order alone, since an
    access's latency never moves the clock.  Of the run, only its cache's
    draws read `seed`.  A run is its table's config at one seed and period,
    decoded with the table's cuts, by construction.  A cache that draws nothing is walked through `steps`
    (module docstring): the run's own cache does only the prime, and each
    actor's counts and cycles are added from the tally of its steps.
    """
    cfg = steps.cfg
    k = cfg.encoding.bits_per_symbol
    stream = PREAMBLE + cfg.message
    cache = _primed_cache(cfg, seed)
    table = steps.table
    state = steps.start
    walks = state is not None
    trace = []
    received_parts = []
    visits = []  # the walk's keys, one per event
    for cycle, _prio, index, action in events:
        truth = stream[index * k:(index + 1) * k]
        if action == "encode":
            key = (state, truth)
        elif action == "decode":
            key = (state, 0 if walks else len(received_parts) % 2)
        else:
            key, truth = (state, action), ""
        if not walks:  # the cache draws: run the event on this run's cache
            step = (*steps.act(cache, key[1], index), None)
        else:
            step = table.get(key) or steps.next(*key)
            visits.append(key)
        actor, name, d, latency, bits, _, state = step
        # tuple.__new__ skips the namedtuple's Python-level __new__ on this hot path.
        trace.append(tuple.__new__(TraceEvent, (cycle, actor, name, d, latency, bits, truth)))
        if bits:
            received_parts.append(bits)
    rows = {}  # actor -> (times, latency, *count delta) per step it took
    for key, times in Counter(visits).items():
        actor, _, _, latency, _, delta, _ = table[key]
        rows.setdefault(actor, []).append((times, latency, *delta))
    for actor, columns in rows.items():
        times, *columns = zip(*columns)
        cycles, *counts = [sum(map(mul, column, times)) for column in columns]
        cache.add_outcomes(actor, counts, cycles)

    received = "".join(received_parts)
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
        draws = _draws(dataclasses.replace(cfg, seed=seed))
        ber_of_order = {}  # this trial's orders only -> BER
        bers = []
        for period in periods:
            events = _events(period, *draws)
            # One C int per event; exact, since prio < 3 (an index too big
            # for a C int raises rather than collide).
            order = array("i", (3 * index + prio for _, prio, index, _ in events)).tobytes()
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


@dataclass(frozen=True)
class GadgetResult:
    variant: str
    scenario: str
    secret: int
    inferred: int
    latencies: dict


def run_gadget_attack(variant: str, scenario: str, secret: int) -> GadgetResult:
    """Recover a victim's secret-dependent access through replacement latency.

    LRU only: the cache is the default geometry and latency model under LRU,
    whose deterministic victim order lets one calibration trial per level set
    a probe cut.  Nothing is drawn, so the result needs no seed.

    The gadget places its own lines: line 0 in `TARGET_SET`, and line 1 in
    the same set for set-state-dirty and in the next set otherwise.  Sets
    are alike, so no placement that keeps this sharing changes the result.

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
    line1_set = TARGET_SET if scenario == "set-state-dirty" else TARGET_SET + 1
    cache = Cache(geo, "lru", lat)
    ways = geo.associativity
    line0 = make_line("victim", TARGET_SET, 0)
    line1 = make_line("victim", line1_set, 1)

    # The victim's one access: with secret 1, variant a stores to line 0 and
    # variant b loads it; with secret 0, either loads line 1.
    victim = (line0, variant == "a") if secret else (line1, False)

    if scenario != "victim-timing":
        # Prime clean (set-state-dirty) or dirty (prime-with-dirty), let the
        # victim run, then probe the primed set.  The cut is calibrated, and
        # the total classified, as the channel's: a store adds one dirty line
        # (levels 0 and 1), a load displaces one of W (levels W-1 and W, so
        # the lower level is secret 1).
        dirty = scenario == "prime-with-dirty"
        fill_set(cache, "attacker", TARGET_SET, ways, write=dirty)
        cache.access(*victim)
        rset = build_replacement_set(DEFAULT_RSET_SIZE, ways=ways)
        total = measure_replacement_latency(cache, "attacker", TARGET_SET, rset).total_cycles
        levels = (ways - 1, ways) if dirty else (0, 1)
        thresholds = _midpoint_thresholds(probe_totals(
            levels, 1, ("gadget",), geometry=geo, policy="lru", latency=lat,
            rset_size=DEFAULT_RSET_SIZE))
        inferred = thresholds.classify(total) ^ dirty
        latencies = {"probe_total_cycles": total, "threshold": thresholds.cuts[0]}
    else:
        fill_set(cache, "attacker", TARGET_SET, ways, write=True)
        fill_set(cache, "attacker", line1_set, ways)
        victim_time = cache.access(*victim).latency
        cut = (lat.miss_dirty + lat.miss_clean) / 2
        inferred = int(victim_time > cut)
        latencies = {"victim_call_cycles": victim_time, "threshold": cut,
                     "dirty_clean_delta": lat.miss_dirty - lat.miss_clean}

    return GadgetResult(variant, scenario, secret, inferred, latencies)
