import dataclasses
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dirtysim.analysis as analysis
from dirtysim.analysis import (ALIGN_WINDOW, DEFAULT_PERIODS, PreambleLockError,
                               SweepRow, align_by_preamble, bit_error_rate,
                               edit_distance, rate_kbps, sweep_ber_vs_rate)
from dirtysim.cache import LatencyModel
from dirtysim.channel import (BinaryEncoding, CalibrationError, ChannelConfig,
                              MultiBitEncoding, calibrate_thresholds, run_channel)
from dirtysim.cli import DEFENSES
from dirtysim.seeding import derive_seed, random_bits

from oracles import brute_levenshtein, wagner_fischer
from strategies import noise_fields, whole_symbols

bits = st.text(alphabet="01", max_size=20)


def test_edit_distance_canonical_example():
    assert edit_distance("kitten", "sitting") == 3


def test_edit_distance_identity_and_empty():
    assert edit_distance("0110", "0110") == 0
    assert edit_distance("", "10101") == 5
    assert edit_distance("abc", "") == 3


def test_edit_distance_accepts_sequences():
    assert edit_distance([1, 0, 1], [1, 1, 1]) == 1


@settings(max_examples=150, deadline=None)
@given(a=bits, b=bits)
def test_edit_distance_matches_recursive_oracle(a, b):
    assert edit_distance(a, b) == brute_levenshtein(a, b)


# Lengths are drawn uniformly from 0..300, so most pairs need bit vectors
# wider than 64 and 128 bits.  Each side draws from its own slice of the
# alphabet, so some symbols occur in one input only.
LONG = 300


def sized(elements):
    return st.integers(0, LONG).flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n))


def text_over(alphabet):
    return sized(st.sampled_from(alphabet)).map("".join)


long_inputs = st.one_of(
    st.tuples(text_over("01"), text_over("01")),
    st.tuples(text_over("abc"), text_over("bcd")),
    st.tuples(sized(st.integers(0, 3)), sized(st.integers(2, 6))),
)


@settings(max_examples=120, deadline=None)
@given(pair=long_inputs)
def test_edit_distance_matches_wagner_fischer_on_long_inputs(pair):
    a, b = pair
    assert edit_distance(a, b) == wagner_fischer(a, b)


@st.composite
def shared_ends(draw):
    """prefix + middle + suffix twice, with the middles drawn apart or equal.

    The middles may be empty, so some pairs are identical and in some one
    input is a prefix or suffix of the other.  Integer symbols stay lists.
    """
    symbols = draw(st.sampled_from(["01", "abc", (0, 1, 2, 3)]))
    part = st.lists(st.sampled_from(symbols), max_size=200)
    prefix, suffix, middle_a = draw(part), draw(part), draw(part)
    middle_b = draw(st.one_of(part, st.just(middle_a), st.just([])))
    a, b = prefix + middle_a + suffix, prefix + middle_b + suffix
    if isinstance(symbols, str):
        return "".join(a), "".join(b)
    return a, b


@settings(max_examples=120, deadline=None)
@given(pair=shared_ends())
@example(pair=("0110", "0110"))
@example(pair=("0101", "010111"))
@example(pair=("abcxyz", "abcdxyz"))
@example(pair=([1, 2, 3], [1, 2, 3, 4]))
@example(pair=([], [0, 0]))
def test_edit_distance_matches_wagner_fischer_with_shared_ends(pair):
    a, b = pair
    assert edit_distance(a, b) == wagner_fischer(a, b)


def test_edit_distance_identities_at_16k_bits():
    n = 16384
    a = random_bits(n, 11)
    b = random_bits(1000, 12)
    assert edit_distance("0" * n, "1" * n) == n
    for k in (1, 63, 64, 1000):
        assert edit_distance(a, a[k:]) == k
    assert edit_distance(a, a + b) == len(b)
    assert edit_distance(a, "") == n
    assert edit_distance("", a) == n


@settings(max_examples=100, deadline=None)
@given(a=bits, b=bits, c=bits)
def test_edit_distance_is_a_metric(a, b, c):
    assert edit_distance(a, b) >= 0
    assert (edit_distance(a, b) == 0) == (a == b)
    assert edit_distance(a, b) == edit_distance(b, a)
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


PREAMBLE = "1111000011110000"


def test_align_exact_match_at_zero():
    stream = PREAMBLE + random_bits(64, 1)
    assert align_by_preamble(stream, PREAMBLE) == 0


def test_align_skips_junk_prefix():
    stream = "010" + PREAMBLE + random_bits(64, 2)
    assert align_by_preamble(stream, PREAMBLE) == 3


def test_align_prefers_smallest_offset_on_ties():
    stream = PREAMBLE + PREAMBLE
    assert align_by_preamble(stream, PREAMBLE) == 0


def test_align_no_lock_on_constant_stream():
    with pytest.raises(PreambleLockError):
        align_by_preamble("0" * 64, PREAMBLE)


def align_reference(stream, preamble):
    """Every offset scored, the minimum taken, the smallest offset on a tie."""
    plen = len(preamble)
    distances = [wagner_fischer(preamble, stream[offset:offset + plen])
                 for offset in range(ALIGN_WINDOW + 1)]
    best = min(distances)
    if best > plen // 4:
        raise PreambleLockError(f"best preamble distance {best} exceeds lock limit {plen // 4}")
    return distances.index(best)


@st.composite
def preamble_streams(draw):
    """A preamble, and a stream of junk, exact and damaged copies of it."""
    preamble = draw(st.one_of(st.just(PREAMBLE), st.text(alphabet="01", min_size=1, max_size=12)))

    def damaged(flips):
        out = list(preamble)
        for i in flips:
            out[i % len(out)] = "10"[int(out[i % len(out)])]
        return "".join(out)

    piece = st.one_of(st.just(preamble),
                      st.lists(st.integers(0, 63), min_size=1, max_size=5).map(damaged),
                      st.text(alphabet="01", max_size=ALIGN_WINDOW + 4))
    return draw(st.lists(piece, max_size=5).map("".join)), preamble


def outcome(align, stream, preamble):
    try:
        return align(stream, preamble)
    except PreambleLockError as exc:
        return str(exc)


@example(("010" + PREAMBLE, PREAMBLE))               # exact match at a later offset
@example(("0" * 5 + PREAMBLE * 3, PREAMBLE))         # several exact matches
@example(("1" + PREAMBLE[:12], PREAMBLE))            # shorter than window + preamble
@example(("0" * 64, PREAMBLE))                       # no lock
@example(("0" * ALIGN_WINDOW + PREAMBLE, PREAMBLE))  # exact match at the last offset
@given(preamble_streams())
def test_align_equals_the_brute_force_reference(case):
    stream, preamble = case
    assert outcome(align_by_preamble, stream, preamble) == outcome(align_reference, stream, preamble)


def test_align_stops_at_the_first_exact_match(monkeypatch):
    calls = []
    monkeypatch.setattr(analysis, "edit_distance",
                        lambda a, b: calls.append(1) or edit_distance(a, b))
    assert align_by_preamble(PREAMBLE + random_bits(64, 1), PREAMBLE) == 0
    assert len(calls) == 1
    calls.clear()
    assert align_by_preamble("010" + PREAMBLE + PREAMBLE, PREAMBLE) == 3
    assert len(calls) == 4
    calls.clear()  # without an exact match, every offset is scored
    with pytest.raises(PreambleLockError):
        align_by_preamble("0" * 64, PREAMBLE)
    assert len(calls) == ALIGN_WINDOW + 1


def test_ber_identical_streams():
    msg = random_bits(128, 9)
    report = bit_error_rate(msg, msg)
    assert report.edit_distance == 0 and report.ber == 0.0


def test_ber_single_flip():
    msg = random_bits(128, 9)
    flipped = ("1" if msg[40] == "0" else "0")
    received = msg[:40] + flipped + msg[41:]
    report = bit_error_rate(msg, received)
    assert report.ber == 1 / 128


def test_ber_counts_truncation_as_losses():
    msg = random_bits(128, 9)
    report = bit_error_rate(msg, msg[:-8])
    assert report.ber >= 8 / 128


def test_ber_clamps_when_received_balloons():
    report = bit_error_rate("01", "01" + "1" * 40)
    assert report.clamped and report.ber == 1.0


def test_ber_requires_sent():
    with pytest.raises(ValueError):
        bit_error_rate("", "0")


def test_rate_formula_known_operating_points():
    assert rate_kbps(1600, 1) == 1375.0
    assert rate_kbps(1000, 2) == 4400.0
    assert rate_kbps(4000, 2) == 1100.0
    with pytest.raises(ValueError):
        rate_kbps(0, 1)


def test_rate_rounding_stability():
    assert round(rate_kbps(2200, 1), 3) == 1000.0
    assert round(rate_kbps(11000, 1), 3) == 200.0


def test_default_periods_are_the_six_evaluated_ones():
    assert DEFAULT_PERIODS == (800, 1000, 1600, 2200, 5500, 11000)


def test_sweep_rejects_empty_periods():
    with pytest.raises(ValueError, match="periods must be non-empty"):
        sweep_ber_vs_rate(ChannelConfig(message="01"), periods=(), trials=1)


def test_sweep_checks_every_period_before_simulating(monkeypatch):
    # A bad later period fails before the trial's noise and slip are drawn.
    from dirtysim import channel
    calls = []
    for name in ("calibrate_thresholds", "_draws", "_simulate"):
        real = getattr(channel, name)
        monkeypatch.setattr(channel, name,
                            lambda *a, _real=real, _name=name, **kw:
                            calls.append(_name) or _real(*a, **kw))
    template = ChannelConfig(message=random_bits(32, 4), seed=4)
    with pytest.raises(ValueError, match="^period must be >= 2$"):
        sweep_ber_vs_rate(template, periods=(5500, 1), trials=2)
    assert calls == []
    sweep_ber_vs_rate(template, periods=(5500,), trials=2)
    assert calls == ["calibrate_thresholds", "_draws", "_simulate", "_draws", "_simulate"]


def sweep_by_definition(cfg, periods, trials):
    """The sweep as it is defined: one calibrated `run_channel` per period and trial."""
    calibration = calibrate_thresholds(cfg)
    rows = []
    for period in periods:
        bers = [run_channel(dataclasses.replace(cfg, period=period,
                                                seed=derive_seed(cfg.seed, "sweep", trial)),
                            thresholds=calibration).ber
                for trial in range(trials)]
        rows.append(SweepRow(period, rate_kbps(period, cfg.encoding.bits_per_symbol),
                             cfg.encoding.name, cfg.encoding.d_label, trials,
                             sum(bers) / len(bers)))
    return rows


def sweep_outcome(sweep, cfg, periods, trials):
    try:
        return sweep(cfg, periods, trials)
    except CalibrationError:
        return CalibrationError


# `benchmarks/run.py`'s sweep-noisy workload, at 128 bits and seed 1.
SWEEP_NOISY = ChannelConfig(message=random_bits(128, 1), encoding=MultiBitEncoding(),
                            policy="tree-plru", noise_rate=1.0, noise_write_prob=0.5,
                            slip=300, seed=1)


@st.composite
def sweep_cases(draw):
    """A small channel config, a period list with repeats, and a trial count."""
    encoding = draw(st.sampled_from([BinaryEncoding(1), BinaryEncoding(4), MultiBitEncoding()]))
    defense = draw(st.sampled_from(sorted(DEFENSES)))
    policy = draw(st.sampled_from(["lru", "tree-plru", "random"]))
    noise = noise_fields(draw, defense, st.sampled_from([0.0, 0.5, 1.0]),
                         st.sampled_from([0.0, 0.5, 1.0]))
    cfg = ChannelConfig(
        message=whole_symbols(draw, encoding, draw(st.integers(4, 24))),
        encoding=encoding,
        rset_size=24 if policy == "random" else 10,
        **noise,
        seed=draw(st.integers(0, 2**32)),
        slip=draw(st.one_of(st.sampled_from([0, 300, 600, 2000]), st.integers(0, 2000))),
        geometry=DEFENSES[defense],
        policy=policy,
        latency=LatencyModel(jitter=draw(st.sampled_from([0, 1, 2]))))
    period = st.one_of(st.sampled_from(DEFAULT_PERIODS), st.integers(200, 11000))
    periods = tuple(draw(st.lists(period, min_size=1, max_size=6)))
    return cfg, periods, draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(case=sweep_cases())
@example(case=(SWEEP_NOISY, DEFAULT_PERIODS, 2))
# CI's smoke sweep: every period has its own order, and one period repeats.
@example(case=(ChannelConfig(message=random_bits(16, 1), policy="random", rset_size=24,
                             slip=600, noise_rate=0.5, seed=1),
               (800, 1600, 1600, 5500), 2))
# Both trials schedule one order but decode to different BERs, because the
# random policy draws from each trial's seed.
@example(case=(ChannelConfig(message=random_bits(16, 5), policy="random", rset_size=24, seed=5),
               (800, 1600), 2))
# Noise writes and slip: a later run of a trial reaches, through steps an
# earlier run stored, states that hold that run's noise lines, so those
# lines must be stored in a form no fresh noise line can hit.
@example(case=(ChannelConfig(message=random_bits(32, 1), encoding=MultiBitEncoding(),
                             slip=600, noise_rate=1.0, noise_write_prob=1.0, seed=1),
               (800, 1000, 1600), 2))
def test_the_sweep_equals_one_run_per_period_and_trial(case):
    assert sweep_outcome(sweep_ber_vs_rate, *case) == sweep_outcome(sweep_by_definition, *case)


def count_simulations(monkeypatch, cfg, trials):
    from dirtysim import channel
    calls = []
    real = channel._simulate  # `_period_bers` hands its one table to it, run by run
    monkeypatch.setattr(channel, "_simulate", lambda *a: calls.append(1) or real(*a))
    sweep_ber_vs_rate(cfg, DEFAULT_PERIODS, trials)
    return len(calls)


def test_the_sweep_simulates_each_order_once_per_trial(monkeypatch):
    # Without slip or noise, every period schedules the same order.
    assert count_simulations(monkeypatch, ChannelConfig(message=random_bits(32, 5), seed=5),
                             trials=3) == 3
    # The sweep-noisy workload at seed 2024: 2 trials of 6 periods hold 6 orders.
    noisy = dataclasses.replace(SWEEP_NOISY, message=random_bits(128, 2024), seed=2024)
    assert count_simulations(monkeypatch, noisy, trials=2) == 6


@pytest.mark.parametrize("trials", [1, 2, 10])
def test_a_sweep_builds_one_table_and_one_config_per_period_and_trial(monkeypatch, trials):
    # Each period's config is built once, to check it, and each trial's once,
    # for its noise and slip draws; every trial walks the sweep's one table.
    from dirtysim import channel
    built = Counter()
    for cls in (channel.Steps, ChannelConfig):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _real=real, **kw:
                            built.update([type(self)]) or _real(self, *a, **kw))
    sweep_ber_vs_rate(SWEEP_NOISY, DEFAULT_PERIODS, trials)
    assert built == {channel.Steps: 1, ChannelConfig: len(DEFAULT_PERIODS) + trials}


@pytest.mark.parametrize("trials, real_steps", [(2, 227), (10, 325)])
def test_the_sweep_noisy_workload_runs_each_step_once_per_sweep(monkeypatch, tmp_path,
                                                                 trials, real_steps):
    # `benchmarks/run.py`'s sweep-noisy argv at seed 2024.  With one table
    # per trial it ran 431 real steps at 2 trials, and 2,007 at 10; with
    # decodes keyed by their replacement set's parity, 299 and 443.
    from dirtysim import channel
    from dirtysim.cli import main
    acts = []
    real = channel.Steps.act
    monkeypatch.setattr(channel.Steps, "act", lambda *a: acts.append(1) or real(*a))
    assert main(["sweep", "--encoding", "multibit", "--policy", "tree-plru",
                 "--noise-rate", "1.0", "--noise-write-prob", "0.5", "--slip", "300",
                 "--message-bits", "128", "--trials", str(trials), "--seed", "2024",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(acts) == real_steps


def test_sweep_noiseless_is_all_zero():
    cfg = ChannelConfig(message=random_bits(32, 5), seed=5)
    rows = sweep_ber_vs_rate(cfg, periods=(1600, 5500), trials=2)
    assert [row.mean_ber for row in rows] == [0.0, 0.0]
    assert rows[0].rate_kbps == 1375.0


def test_sweep_with_slip_ber_rises_as_period_shrinks():
    cfg = ChannelConfig(message=random_bits(64, 6), seed=6, slip=1500)
    rows = sweep_ber_vs_rate(cfg, periods=DEFAULT_PERIODS, trials=4)
    by_period = {row.period_cycles: row.mean_ber for row in rows}
    ordered = [by_period[p] for p in sorted(by_period, reverse=True)]
    assert ordered == sorted(ordered)  # non-decreasing as the period shrinks
    assert ordered[0] == 0.0 and ordered[-1] > 0.0


def test_wider_margin_resists_identical_dirty_noise():
    # Same seed means both encodings face the same noise event stream; a lone
    # noise line costs one dirty eviction, under d=1's cut but far under d=8's.
    slim = ChannelConfig(message=random_bits(64, 8), seed=8, noise_rate=0.2,
                         noise_write_prob=1.0, encoding=BinaryEncoding(1))
    wide = dataclasses.replace(slim, encoding=BinaryEncoding(8))
    slim_rows = sweep_ber_vs_rate(slim, periods=(1600, 5500), trials=3)
    wide_rows = sweep_ber_vs_rate(wide, periods=(1600, 5500), trials=3)
    for s, w in zip(slim_rows, wide_rows):
        assert w.mean_ber <= s.mean_ber
    assert any(s.mean_ber > 0 for s in slim_rows)
    assert all(w.mean_ber == 0 for w in wide_rows)
