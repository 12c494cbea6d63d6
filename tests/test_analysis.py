import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtysim.analysis import (DEFAULT_PERIODS, PreambleLockError,
                               align_by_preamble, bit_error_rate,
                               edit_distance, rate_kbps, sweep_ber_vs_rate)
from dirtysim.channel import BinaryEncoding, ChannelConfig, NoiseConfig
from dirtysim.seeding import random_bits

from oracles import brute_levenshtein, wagner_fischer

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


def test_align_window_validation():
    with pytest.raises(ValueError):
        align_by_preamble("0" * 64, PREAMBLE, window=8)


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
    noise = NoiseConfig(rate=0.2, kind_mix=1.0)
    slim = ChannelConfig(message=random_bits(64, 8), seed=8, noise=noise,
                         encoding=BinaryEncoding(1))
    wide = dataclasses.replace(slim, encoding=BinaryEncoding(8))
    slim_rows = sweep_ber_vs_rate(slim, periods=(1600, 5500), trials=3)
    wide_rows = sweep_ber_vs_rate(wide, periods=(1600, 5500), trials=3)
    for s, w in zip(slim_rows, wide_rows):
        assert w.mean_ber <= s.mean_ber
    assert any(s.mean_ber > 0 for s in slim_rows)
    assert all(w.mean_ber == 0 for w in wide_rows)
