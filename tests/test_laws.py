"""Two exact laws of a channel whose cache draws nothing, against the simulation.

Under LRU or Tree-PLRU on the undefended cache, with no slip, a decode's
total is fixed by one number: the dirty-line count it evicts.

- *The noise law* (`oracles.noise_law_counts`): the count is the sent
  level d, moved by the period's noise access.  A noise write makes it d+1
  unless d = W, and a noise read makes it W-1 only when d = W.  With no
  jitter, the decoded symbol is the level whose midpoint interval holds the
  count, a count on a midpoint reading as the lower level.  This predicts
  the whole raw decoded stream from `channel._draws` alone, and the
  calibrated run must equal it.
- *The jitter law* (`oracles.exact_wrong_bits`): jitter moves no line, so
  a jittered decode's total is its count's total plus the sum of its
  probe's L uniform draws on [-j, j].  Given the calibrated cuts, that sum's
  exact L-fold convolution gives each decode's wrong-bit distribution.  The
  payload's wrong bits at offset 0 (no slip, so one decode per symbol, in
  order) must lie within 4σ of the law's mean, and equal it when σ is 0.

Tier-1 runs a slice of each grid; `pytest --hypothesis-profile=differential
tests/test_laws.py` runs all of both (see `conftest.py`).  A law that
disagrees with the simulation is a finding about one of them: its band is
never widened.
"""

import itertools
from operator import ne

import pytest
from hypothesis import settings

from dirtysim.cache import LatencyModel
from dirtysim.channel import (PREAMBLE, BinaryEncoding, CalibrationError, ChannelConfig,
                              MultiBitEncoding, calibrate_thresholds, run_channel)
from dirtysim.seeding import random_bits

from oracles import exact_wrong_bits, noise_law_bits

FULL = settings.get_current_profile_name() == "differential"

POLICIES = ("lru", "tree-plru")
# (0, 1, 7, 8) is where a noise read flips a decode: a sent 8 reads as 7.
ENCODINGS = [BinaryEncoding(d) for d in range(1, 9)] + [
    MultiBitEncoding(levels) for levels in [(0, 3, 5, 8), (0, 1, 2, 8), (0, 1, 7, 8),
                                            (0, 1, 2, 3), (5, 6, 7, 8), (0, 6, 7, 8)]]
NOISE_CASES = list(itertools.product(POLICIES, ENCODINGS, [0.3, 0.5, 0.7, 1.0], [0.0, 0.5, 1.0],
                                     [2, 3, 801, 5500]))


def noise_config(i):
    """Case `i`'s 256-bit config; `rset_size` (8..12) and the seed move with it."""
    policy, encoding, rate, share, period = NOISE_CASES[i]
    return ChannelConfig(message=random_bits(256, i), encoding=encoding, policy=policy,
                         noise_rate=rate, noise_write_prob=share, period=period,
                         rset_size=8 + i % 5, seed=i)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("encoding", ENCODINGS, ids=lambda e: e.d_label)
def test_the_noise_law_predicts_every_decode(policy, encoding):
    # Tier-1 takes every seventh case of the grid, so each (policy, encoding) gets 6 or 7.
    wrong = []
    for i, case in enumerate(NOISE_CASES):
        if case[:2] == (policy, encoding) and (FULL or i % 7 == 0):
            cfg = noise_config(i)
            if noise_law_bits(cfg) != run_channel(cfg).raw_received_bits:
                wrong.append(case)
    assert wrong == []


def test_a_noise_read_lowers_a_full_set_and_a_write_raises_any_other_level():
    # Not vacuous: each noise kind changes some decode, and the run agrees.
    for share, sent, decoded in [(0.0, "11", "10"), (1.0, "00", "01")]:
        cfg = ChannelConfig(message=sent * 8, encoding=MultiBitEncoding((0, 1, 7, 8)),
                            noise_rate=1.0, noise_write_prob=share)
        raw = run_channel(cfg).raw_received_bits
        assert raw == noise_law_bits(cfg)
        assert raw[len(PREAMBLE):] == decoded * 8


# Calibration's 8 jittered trials per level reject these binary d=1 configs
# (encoding, j, seed), under either policy and with or without noise.
REJECTED = {(BinaryEncoding(1), 2, 4), (BinaryEncoding(1), 3, 1), (BinaryEncoding(1), 3, 3)}
JITTER_GRID = [
    ChannelConfig(message=random_bits(2048, seed), encoding=encoding, policy=policy, seed=seed,
                  latency=LatencyModel(jitter=j), noise_rate=noise, noise_write_prob=noise)
    for policy, encoding, j, noise, seed in itertools.product(
        POLICIES, [BinaryEncoding(1), MultiBitEncoding()], [1, 2, 3], [0.0, 0.5], [1, 3, 4])]


def pinned_rejection(cfg):
    return (cfg.encoding, cfg.latency.jitter, cfg.seed) in REJECTED


ACCEPTED = [cfg for cfg in JITTER_GRID if not pinned_rejection(cfg)]


def jitter_id(cfg):
    return (f"{cfg.policy}-{cfg.encoding.d_label}-j{cfg.latency.jitter}"
            f"-noise{cfg.noise_rate}-seed{cfg.seed}")


def test_calibration_rejects_the_pinned_jitter_configs_only():
    rejected = []
    for cfg in JITTER_GRID:
        try:
            calibrate_thresholds(cfg)
        except CalibrationError:
            rejected.append(cfg)
    assert rejected == [cfg for cfg in JITTER_GRID if pinned_rejection(cfg)]
    assert len(ACCEPTED) == 60


@pytest.mark.parametrize("cfg", ACCEPTED if FULL else ACCEPTED[::2], ids=jitter_id)
def test_jittered_wrong_bits_follow_the_exact_law(cfg):
    thresholds = calibrate_thresholds(cfg)
    raw = run_channel(cfg, thresholds).raw_received_bits
    assert len(raw) == len(PREAMBLE) + len(cfg.message)
    observed = sum(map(ne, raw[len(PREAMBLE):], cfg.message))
    mean, variance = exact_wrong_bits(cfg, thresholds.cuts)
    # Within 4σ, exactly: and a law with σ = 0 leaves no room at all.
    assert (observed - mean) ** 2 <= 16 * variance, (observed, float(mean), float(variance))
