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
`NoiseConfig` with a rate above 0.

`run_channel` is two steps.  `schedule` draws noise and slip and returns the
sorted events; `_simulate` runs the cache over them and scores the result.
An access's latency never moves the clock, so a run reads its period only
through the order of its events: two periods that schedule the same actions
in the same order give the same decoded stream, BER, counters and cycle
total.  `period_bers` relies on this to simulate each distinct order once.

When the cache draws nothing (no random policy, no jitter), `_simulate`
walks a table of steps instead of running every event.  Every access lands
in `TARGET_SET`, so what an event does is fixed by that set's state (tags,
dirty bits, policy metadata) and its action: the symbol of an encode, the
replacement set's parity of a decode, read or write for noise.  The first
time a (state, action) comes up, the real actor runs on the live cache and
the step is stored: next state, trace fields and the actor's count delta.
After that the step is only tallied, and the tallies' counts and cycles are
added at the end, so every output is that of running each event.  Noise
lines' tags are stored as one canonical tag that no fresh noise line can
equal: each noise line is accessed once, so which one is resident never
matters.  A table lives for one `run_channel` call or one `period_bers`
call, whose runs share one config but for `t_s`, and one set of cuts.  A
cache that draws runs every event and stores nothing.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import random
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from operator import sub

from .analysis import (PreambleLockError, align_by_preamble, bit_error_rate,
                       rate_kbps)
from .cache import (DEFAULT_GEOMETRY, DEFAULT_LATENCY, Cache, CacheGeometry,
                    LatencyModel, WritePolicy, make_line)
from .measurement import (DEFAULT_RSET_SIZE, RECEIVER, RSET_TAG_BASES, SENDER,
                          TARGET_SET, build_replacement_set, check_rset_size,
                          fill_set, measure_replacement_latency, probe_totals)
from .policy import POLICIES
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

    levels: tuple = (0, 1)
    name: str = "binary"

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
class NoiseConfig:
    """Third-party interference: per-period event probability and write share."""

    rate: float = 0.0
    kind_mix: float = 0.0  # probability a noise event is a write (dirty)

    def __post_init__(self):
        for name in ("rate", "kind_mix"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, not {value!r}")
        if not self.rate >= 0:  # NaN fails this too
            raise ValueError("rate must be >= 0")
        if self.rate > 1:
            raise ValueError("rate must be <= 1")
        if not 0.0 <= self.kind_mix <= 1.0:
            raise ValueError("kind_mix must be in [0, 1]")


@dataclass(frozen=True)
class ChannelConfig:
    """Everything defining one channel run; identical configs replay identically.

    A config checks itself when built, and `dataclasses.replace` builds anew,
    so every config that exists is valid.
    """

    message: str
    encoding: Encoding = Encoding()
    t_s: int = 5500                    # period: encode at its start, decode mid-way
    rset_size: int = DEFAULT_RSET_SIZE
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    seed: int = 0
    slip: int = 0                      # half-width of receiver timing slip, cycles
    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    policy: str = "lru"
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self):
        # `seed` too: seeds are hashed as text, so 1, 1.0 and True would be
        # equal configs that replay differently.
        for name in ("t_s", "seed"):
            check_int(name, getattr(self, name))
        if self.t_s < 2:
            raise ValueError("t_s must be at least 2 cycles, so the decode at "
                             "t_s // 2 comes after the encode in each period")
        check_rset_size(self.rset_size, self.geometry)
        if self.policy not in POLICIES:
            raise ValueError(f"unknown replacement policy {self.policy!r}")
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
            actors = (SENDER, RECEIVER, NOISE) if self.noise.rate > 0 else (SENDER, RECEIVER)
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
    event's key is unique.  This is the one place noise and slip draw.  Both
    generators draw per symbol in index order, and how many draws a symbol
    takes does not depend on `t_s`, so a run's period shows only in the
    events' cycles.
    """
    n_symbols = (len(PREAMBLE) + len(cfg.message)) // cfg.encoding.bits_per_symbol
    noise_rng = random.Random(derive_seed(cfg.seed, "noise"))
    slip_rng = random.Random(derive_seed(cfg.seed, "slip"))
    noise_offset = max(1, cfg.t_s // 4)
    events = []
    for i in range(n_symbols):
        events.append((i * cfg.t_s, 0, i, "encode"))
        # noise_rng feeds nothing else, so its draws at rate 0 change no output.
        if noise_rng.random() < cfg.noise.rate:
            action = "noise-write" if noise_rng.random() < cfg.noise.kind_mix else "noise-read"
            events.append((i * cfg.t_s + noise_offset, 1, i, action))
        decode_at = i * cfg.t_s + cfg.t_s // 2
        if cfg.slip:
            decode_at = max(0, decode_at + slip_rng.randint(-cfg.slip, cfg.slip))
        events.append((decode_at, 2, i, "decode"))
    events.sort()
    return events


_ACTOR_OF = {"encode": SENDER, "decode": RECEIVER, "noise-read": NOISE, "noise-write": NOISE}

# A noise line's resident tag in a walk's states; `make_line` takes no
# negative tag, so no fresh noise line equals it.
_NOISE_TAG = (NOISE, -1)


class Steps:
    """The steps a walk has simulated, for one `run_channel` or `period_bers` call.

    A step is keyed by (state id, action) and holds (next state id, the
    trace fields from actor to decoded bits, the actor's count delta).
    """

    def __init__(self):
        self.table = {}
        self.ids = {}     # canonical target-set state -> its id
        self.states = []  # id -> canonical target-set state

    def state_of(self, cache: Cache) -> int:
        """The id of the cache's target-set state, noise tags made canonical."""
        tags, dirty, meta = cache.set_state(TARGET_SET)
        state = (tuple([_NOISE_TAG if tag is not None and tag[0] == NOISE else tag
                        for tag in tags]), dirty, meta)
        sid = self.ids.get(state)
        if sid is None:
            sid = self.ids[state] = len(self.states)
            self.states.append(state)
        return sid


def _simulate(cfg: ChannelConfig, events: list, thresholds: Thresholds,
              steps: Steps) -> ChannelReport:
    """Run the cache over `cfg`'s scheduled `events` and score the decoded stream.

    Only the cycles in the trace and `rate_kbps` read `cfg.t_s`: the cache,
    the stream and the decoded bits see the events' order alone, since an
    access's latency never moves the clock.  `thresholds` must hold one cut
    between each pair of adjacent levels.  A cache that draws nothing is
    walked through `steps` (module docstring), whose every step was stored
    by a run of `cfg` but for `t_s`, decoded with `thresholds`.
    """
    enc = cfg.encoding
    if len(thresholds.cuts) != len(enc.levels) - 1:
        raise ValueError(f"thresholds have {len(thresholds.cuts)} cuts, but "
                         f"{len(enc.levels)} levels need {len(enc.levels) - 1}")
    k = enc.bits_per_symbol
    stream = PREAMBLE + cfg.message
    cache = Cache(cfg.geometry, cfg.policy, cfg.latency,
                  seed=derive_seed(cfg.seed, "cache"))
    fill_set(cache, RECEIVER, TARGET_SET, cfg.geometry.associativity)
    # Decodes alternate between two replacement sets, so the one measured
    # with is never resident.
    rsets = tuple(build_replacement_set(cfg.rset_size, derive_seed(cfg.seed, "chase", p),
                                        tag_base=RSET_TAG_BASES[p])
                  for p in (0, 1))
    table = steps.table
    walk = not cache.draws  # a drawing cache's steps hang on its generators: store none
    state = steps.state_of(cache) if walk else None
    live = True  # whether the cache's target set holds `state`
    trace = []
    received_parts = []
    tally = Counter()  # hit step -> times
    noise_tag = 0
    for cycle, _prio, index, action in events:
        truth = stream[index * k:(index + 1) * k]
        if action == "encode":
            key = (state, truth)
        elif action == "decode":
            key = (state, len(received_parts) % 2)
        else:
            key, truth = (state, action), ""
        step = table.get(key)
        if step is None:
            if not live:
                cache.load_set(TARGET_SET, steps.states[state])
            actor = _ACTOR_OF[action]
            before = cache.outcome_counts(actor)
            if action == "encode":
                level, cost = sender_encode(cache, cfg, truth)
                fields = (actor, action, level, cost, "")
            elif action == "decode":
                sample, bits = receiver_decode(cache, cfg, rsets[len(received_parts) % 2],
                                               thresholds)
                fields = (actor, action, enc.level_for_bits(bits), sample.total_cycles, bits)
            else:
                outcome = cache.access(make_line(actor, TARGET_SET, noise_tag),
                                       action == "noise-write")
                noise_tag += 1
                fields = (actor, action, "", outcome.latency, "")
            step = (steps.state_of(cache) if walk else None, *fields,
                    tuple(map(sub, cache.outcome_counts(actor), before)))
            if walk:
                table[key] = step
                live = True
        else:
            tally[key] += 1
            live = False
        state, actor, name, d, latency, bits, _ = step
        # tuple.__new__ skips the namedtuple's Python-level __new__ on this hot path.
        trace.append(tuple.__new__(TraceEvent, (cycle, actor, name, d, latency, bits, truth)))
        if bits:
            received_parts.append(bits)
    for key, times in tally.items():
        _, actor, _, _, latency, _, delta = table[key]
        cache.add_outcomes(actor, [times * n for n in delta], times * latency)

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
        rate_kbps=rate_kbps(cfg.t_s, k),
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
    return _simulate(cfg, schedule(cfg), thresholds, Steps())


def period_bers(cfg: ChannelConfig, periods, thresholds: Thresholds) -> list:
    """The BER of `cfg` run at each of `periods` with `thresholds`, in order.

    Every period's config is built, and so checked, before anything runs.
    Each distinct event order is simulated once (module docstring): the
    seed fixes the cache's draws and what each noise event does, so the
    events' (prio, symbol index) sequence names everything a run reads.
    The runs share one table of steps.
    """
    from array import array  # deferred: only a sweep packs event orders

    cfgs = [dataclasses.replace(cfg, t_s=period) for period in periods]
    steps = Steps()
    ber_of_order = {}  # this call's orders only -> BER
    bers = []
    for run in cfgs:
        events = schedule(run)
        # One C int per event; exact, since prio < 3 (an index too big
        # for a C int raises rather than collide).
        order = array("i", (3 * index + prio for _, prio, index, _ in events)).tobytes()
        if order not in ber_of_order:
            ber_of_order[order] = _simulate(run, events, thresholds, steps).ber
        del events  # so two periods' events are never alive at once
        bers.append(ber_of_order[order])
    return bers


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
    if secret not in (0, 1):
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
        # victim run, then probe the primed set.  The cut is calibrated as
        # the channel's: a store adds one dirty line (levels 0 and 1), a load
        # displaces one of W (levels W-1 and W).
        dirty = scenario == "prime-with-dirty"
        fill_set(cache, "attacker", TARGET_SET, ways, write=dirty)
        cache.access(*victim)
        rset = build_replacement_set(DEFAULT_RSET_SIZE, tag_base=RSET_TAG_BASES[0])
        total = measure_replacement_latency(cache, "attacker", TARGET_SET, rset).total_cycles
        levels = (ways - 1, ways) if dirty else (0, 1)
        cut, = _midpoint_thresholds(probe_totals(
            levels, 1, ("gadget",), geometry=geo, policy="lru", latency=lat,
            rset_size=DEFAULT_RSET_SIZE)).cuts
        inferred = int(total < cut if dirty else total > cut)
        latencies = {"probe_total_cycles": total, "threshold": cut}
    else:
        fill_set(cache, "attacker", TARGET_SET, ways, write=True)
        fill_set(cache, "attacker", line1_set, ways)
        victim_time = cache.access(*victim).latency
        cut = (lat.miss_dirty + lat.miss_clean) / 2
        inferred = int(victim_time > cut)
        latencies = {"victim_call_cycles": victim_time, "threshold": cut,
                     "dirty_clean_delta": lat.miss_dirty - lat.miss_clean}

    return GadgetResult(variant, scenario, secret, inferred, latencies)
