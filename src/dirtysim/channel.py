"""Covert-channel protocol: sender, receiver, scheduler, noise, and gadgets.

One sender and one receiver share a simulated L1 from distinct address
spaces.  The sender encodes a symbol as the number of dirty lines it leaves
in the agreed target set; the receiver recovers it from the summed latency of
replacing that set.  A deterministic event loop with a total order
(cycle, then sender < noise < receiver) stands in for the wall-clock
hyper-thread interleaving of real hardware.  Every transmission starts with
the fixed `PREAMBLE`, by which the receiver aligns its decoded stream; noise
events come only from a `NoiseConfig` with a rate above 0.
"""

from __future__ import annotations

import dataclasses
import json
import random
import statistics
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .analysis import (PreambleLockError, align_by_preamble, bit_error_rate,
                       rate_kbps)
from .cache import (DEFAULT_GEOMETRY, DEFAULT_LATENCY, Cache, CacheGeometry,
                    LatencyModel, WritePolicy, make_line)
from .measurement import (DEFAULT_RSET_SIZE, RECEIVER, RSET_TAG_BASES, SENDER,
                          build_replacement_set, check_rset_size, fill_set,
                          measure_replacement_latency, prime_dirty_probe)
from .policy import POLICIES
from .seeding import derive_seed

NOISE = "noise"

# Sent before every message: 0xF0F0, alternating runs of both symbols.  Its
# 16 bits must split into whole symbols, so 8 levels (3 bits) cannot be used.
PREAMBLE = "1111000011110000"


class CalibrationError(RuntimeError):
    """Latency distributions of adjacent levels overlap too much to threshold."""


# -- encodings ---------------------------------------------------------------

class Encoding:
    """Maps symbol bits to a dirty-line count (level) and back."""

    @property
    def levels(self):
        raise NotImplementedError

    @property
    def bits_per_symbol(self) -> int:
        return (len(self.levels) - 1).bit_length()

    @property
    def d_label(self) -> str:
        return "-".join(str(d) for d in self.levels)

    def level_for_bits(self, bits: str) -> int:
        k = self.bits_per_symbol
        if len(bits) != k or any(c not in "01" for c in bits):
            raise ValueError(f"symbol {bits!r} is not {k} bits")
        return self.levels[int(bits, 2)]

    def bits_for_level_index(self, index: int) -> str:
        return format(index, f"0{self.bits_per_symbol}b")


@dataclass(frozen=True)
class BinaryEncoding(Encoding):
    """Bit 0 leaves the set untouched; bit 1 installs d_one dirty lines."""

    d_one: int = 1
    name = "binary"

    def __post_init__(self):
        if self.d_one < 1:
            raise ValueError("d_one must be >= 1")

    @property
    def levels(self):
        return (0, self.d_one)

    @property
    def d_label(self) -> str:
        return str(self.d_one)


@dataclass(frozen=True)
class MultiBitEncoding(Encoding):
    """2**k strictly increasing dirty-line counts encode k bits per symbol."""

    level_values: tuple = (0, 3, 5, 8)
    name = "multibit"

    def __post_init__(self):
        values = tuple(self.level_values)
        object.__setattr__(self, "level_values", values)
        if len(values) < 2 or len(values) & (len(values) - 1):
            raise ValueError("need a power-of-two number of levels >= 2")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("levels must be strictly increasing")
        if values[0] < 0:
            raise ValueError("levels must be non-negative")

    @property
    def levels(self):
        return self.level_values


# -- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class NoiseConfig:
    """Third-party interference: per-period event probability and write share."""

    rate: float = 0.0
    kind_mix: float = 0.0  # probability a noise event is a write (dirty)

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if not 0.0 <= self.kind_mix <= 1.0:
            raise ValueError("kind_mix must be in [0, 1]")


@dataclass(frozen=True)
class ChannelConfig:
    """Everything defining one channel run; identical configs replay identically."""

    encoding: Encoding = field(default_factory=BinaryEncoding)
    t_s: int = 5500                    # period: encode at its start, decode mid-way
    target_set: int = 0
    rset_size: int = DEFAULT_RSET_SIZE
    message: str = ""
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    seed: int = 0
    slip: int = 0                      # half-width of receiver timing slip, cycles
    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    policy: str = "lru"
    latency: LatencyModel = field(default_factory=LatencyModel)

    def validate(self):
        if self.t_s < 2:
            raise ValueError("t_s must be at least 2 cycles, so the decode at "
                             "t_s // 2 comes after the encode in each period")
        if not 0 <= self.target_set < self.geometry.num_sets:
            raise ValueError("target_set outside geometry")
        check_rset_size(self.rset_size, self.geometry)
        if self.policy not in POLICIES:
            raise ValueError(f"unknown replacement policy {self.policy!r}")
        k = self.encoding.bits_per_symbol
        for label, bits in (("preamble", PREAMBLE), ("message", self.message)):
            if any(c not in "01" for c in bits):
                raise ValueError(f"{label} must be a 0/1 string")
            if len(bits) % k:
                raise ValueError(f"{label} length must be a multiple of {k}")
        if not self.message:
            raise ValueError("message must be non-empty")
        if max(self.encoding.levels) > self.geometry.associativity:
            raise ValueError("encoding level exceeds associativity")
        if self.slip < 0:
            raise ValueError("slip must be >= 0")
        if self.noise.rate > 0 and self.geometry.partition is not None:
            raise ValueError("noise actor has no way partition; disable noise or partitioning")

    def calibration_view(self) -> "ChannelConfig":
        """The undefended equivalent used to calibrate decode thresholds.

        Thresholds model the attacker's expectation of the write-back channel;
        defenses are applied at run time, not during calibration.
        """
        geometry = dataclasses.replace(
            self.geometry, write_policy=WritePolicy.WRITE_BACK_ALLOCATE,
            partition=None)
        return dataclasses.replace(self, geometry=geometry, noise=NoiseConfig())


# -- thresholds --------------------------------------------------------------

@dataclass(frozen=True)
class Thresholds:
    """Cut points between adjacent encoding levels, lowest first."""

    cuts: tuple

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cuts)
        object.__setattr__(self, "cuts", cuts)
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
        index = 0
        for cut in self.cuts:
            if total_cycles > cut:
                index += 1
            else:
                break
        return index


def calibrate_thresholds(cfg: ChannelConfig, trials: int = 8) -> Thresholds:
    """Run `prime_dirty_probe` per level (fresh caches, one chase order); cut at midpoints."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = cfg.calibration_view()
    base = derive_seed(cfg.seed, "calibration")
    geo = cfg.geometry
    rset = build_replacement_set(RECEIVER, cfg.target_set, cfg.rset_size,
                                 geometry=geo, tag_base=RSET_TAG_BASES[0])
    means, stds = [], []
    for d in cfg.encoding.levels:
        totals = []
        for t in range(trials):
            cache = Cache(geo, cfg.policy, cfg.latency,
                          seed=derive_seed(base, "cache", d, t))
            totals.append(prime_dirty_probe(cache, rset, d).total_cycles)
        means.append(statistics.fmean(totals))
        stds.append(statistics.pstdev(totals))
    return Thresholds.from_level_stats(means, stds)


# -- protocol actors ---------------------------------------------------------

def sender_encode(cache: Cache, cfg: ChannelConfig, symbol_bits: str):
    """Dirty `level` sender lines in the target set; level 0 touches nothing.

    Returns (level, summed access cost in cycles).
    """
    level = cfg.encoding.level_for_bits(symbol_bits)
    return level, fill_set(cache, SENDER, cfg.target_set, level, write=True)


def receiver_decode(cache: Cache, cfg: ChannelConfig, rset: tuple,
                    thresholds: Thresholds):
    """Measure with `rset` and threshold the total to bits.

    The measurement leaves the target set full of clean receiver lines, so it
    doubles as the next period's initialization.
    """
    sample = measure_replacement_latency(cache, rset)
    index = thresholds.classify(sample.total_cycles)
    return sample, cfg.encoding.bits_for_level_index(index)


# -- the timed protocol ------------------------------------------------------

class TraceEvent(NamedTuple):
    cycle: int
    actor: str
    action: str
    d: object
    latency: int
    decoded_bits: str
    truth_bits: str


@dataclass
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

    def to_json(self) -> str:
        """Every field but `events`, plus `latency_trace`, as sorted-key JSON."""
        out = {f.name: getattr(self, f.name)
               for f in dataclasses.fields(self) if f.name != "events"}
        out["latency_trace"] = self.latency_trace
        return json.dumps(out, indent=2, sort_keys=True) + "\n"


def run_channel(cfg: ChannelConfig, thresholds: Optional[Thresholds] = None) -> ChannelReport:
    """Drive sender, noise, and receiver through one message transmission."""
    cfg.validate()
    if thresholds is None:
        thresholds = calibrate_thresholds(cfg)
    enc = cfg.encoding
    k = enc.bits_per_symbol
    stream = PREAMBLE + cfg.message
    n_symbols = len(stream) // k

    cache = Cache(cfg.geometry, cfg.policy, cfg.latency,
                  seed=derive_seed(cfg.seed, "cache"))
    noise_rng = random.Random(derive_seed(cfg.seed, "noise"))
    slip_rng = random.Random(derive_seed(cfg.seed, "slip"))
    noise_offset = max(1, cfg.t_s // 4)

    # (cycle, sender < noise < receiver, symbol index) is unique per event.
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

    fill_set(cache, RECEIVER, cfg.target_set, cfg.geometry.associativity)
    # Decodes alternate between two replacement sets, so the one measured
    # with is never resident.
    rsets = tuple(build_replacement_set(RECEIVER, cfg.target_set, cfg.rset_size,
                                        derive_seed(cfg.seed, "chase", p),
                                        geometry=cfg.geometry,
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
            trace.append(TraceEvent(cycle, RECEIVER, "decode", enc.levels[int(bits, 2)],
                                    sample.total_cycles, bits, symbol))
        else:
            line = make_line(NOISE, cfg.target_set, noise_tag, cfg.geometry)
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
        sent_bits=cfg.message,
        received_bits=payload,
        raw_received_bits=received,
        edit_distance=error.edit_distance,
        ber=error.ber,
        rate_kbps=rate_kbps(cfg.t_s, k),
        alignment_offset=offset,
        preamble_locked=locked,
        counters={actor: dataclasses.asdict(c) for actor, c in sorted(cache.counters.items())},
        cycles=cache.cycles,
        events=trace,
    )


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


def run_gadget_attack(variant: str, scenario: str, secret: int, seed: int = 0, *,
                      line0_set: Optional[int] = None,
                      line1_set: Optional[int] = None) -> GadgetResult:
    """Recover a victim's secret-dependent access through replacement latency.

    LRU only: the cache is the default geometry and latency model under LRU,
    and the cuts below assume its deterministic victim order.

    Scenario set-state-dirty: the attacker primes a set clean and detects the
    dirty line the victim's store leaves behind (variant a only; the two
    victim lines may share a set).  Scenario prime-with-dirty: the attacker
    primes with W dirty lines and detects the one the victim's load displaces
    (variant b; the lines must sit in different sets).  Scenario
    victim-timing: the victim's own access time separates a dirty eviction
    from a clean one (either variant, different sets).
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
    set_i = 1 if line0_set is None else line0_set
    if line1_set is None:
        set_j = set_i if scenario == "set-state-dirty" else (set_i + 1) % geo.num_sets
    else:
        set_j = line1_set
    for s in (set_i, set_j):
        if not 0 <= s < geo.num_sets:
            raise ValueError(f"set index {s} outside geometry")
    if scenario in ("prime-with-dirty", "victim-timing") and set_i == set_j:
        raise ValueError(f"{scenario} requires line 0 and line 1 in different cache sets")

    cache = Cache(geo, "lru", lat, seed=seed)
    ways = geo.associativity
    rset_size = DEFAULT_RSET_SIZE
    line0 = make_line("victim", set_i, 0, geo)
    line1 = make_line("victim", set_j, 1, geo)

    def victim_call():
        if secret:
            return cache.write(line0) if variant == "a" else cache.read(line0)
        return cache.read(line1)

    if scenario != "victim-timing":
        # Prime clean (set-state-dirty) or dirty (prime-with-dirty), let the
        # victim run, then probe the primed set.
        fill_set(cache, "attacker", set_i, ways, write=scenario == "prime-with-dirty")
        victim_call()
        rset = build_replacement_set("attacker", set_i, rset_size,
                                     derive_seed(seed, "gadget"), geometry=geo,
                                     tag_base=RSET_TAG_BASES[0])
        total = measure_replacement_latency(cache, rset).total_cycles
        if scenario == "set-state-dirty":
            cut = rset_size * lat.miss_clean + (lat.miss_dirty - lat.miss_clean) / 2
            inferred = int(total > cut)
        else:
            all_dirty = ways * lat.miss_dirty + (rset_size - ways) * lat.miss_clean
            one_clean = all_dirty - (lat.miss_dirty - lat.miss_clean)
            cut = (all_dirty + one_clean) / 2
            inferred = int(total < cut)
        latencies = {"probe_total_cycles": total, "threshold": cut}
    else:
        fill_set(cache, "attacker", set_i, ways, write=True)
        fill_set(cache, "attacker", set_j, ways)
        victim_time = victim_call().latency
        cut = (lat.miss_dirty + lat.miss_clean) / 2
        inferred = int(victim_time > cut)
        latencies = {"victim_call_cycles": victim_time, "threshold": cut,
                     "dirty_clean_delta": lat.miss_dirty - lat.miss_clean}

    return GadgetResult(variant, scenario, secret, inferred, latencies)
