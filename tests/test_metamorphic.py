"""Metamorphic relations of the protocol layer: pairs of runs that must agree.

None of these needs a right answer.  Each draws a channel config, runs it
twice with one input changed, and compares what the two reports hold: the
raw decoded stream, the BER, the per-actor counters and the cycle total
(the message-prefix relation reads the raw decoded stream only).

- Latency scaling: with no jitter, doubling the hit, clean-miss and
  dirty-miss costs doubles the cycle total and changes nothing else;
  calibration's cuts double with the totals they split.
- Seed freedom: under LRU or Tree-PLRU with no jitter, noise or slip,
  nothing draws, so any two seeds give the same report.
- Policy swap: a run under Tree-PLRU is the run under LRU, events and
  all.  Every stream the channel sends its set is misses, apart from a
  partitioned sender's hits on its own lines, and on misses both policies
  evict in fill order; no hit tried has yet parted them.
- Message prefix: a run decodes its symbols in order, and nothing it draws
  depends on what comes later, so the raw decoded stream of a message's
  first half is a prefix of the whole message's.
- Period through order: an access's latency never moves the clock, so a
  run reads its period only through the order of its events.  Two periods
  whose schedules hold the same (prio, symbol index) sequence give the same
  report.  A sweep simulates each distinct order once per trial on the
  strength of this.

A config that calibration rejects must be rejected on both sides.  Tier-1
checks the same few cases on every run; `pytest
--hypothesis-profile=differential` draws that profile's count of fresh ones
(see `conftest.py`).
"""

import dataclasses

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dirtysim.cache import LatencyModel
from dirtysim.channel import (BinaryEncoding, CalibrationError, ChannelConfig,
                              MultiBitEncoding, run_channel, schedule)
from dirtysim.cli import DEFENSES
from dirtysim.seeding import random_bits

from strategies import noise_fields, whole_symbols

DRAWS = (settings.default if settings.get_current_profile_name() == "differential"
         else settings(max_examples=40, deadline=None, derandomize=True))

ENCODINGS = (BinaryEncoding(1), BinaryEncoding(4), MultiBitEncoding(),
             MultiBitEncoding((0, 1, 2, 8)))
SEEDS = st.integers(0, 2**32)


@st.composite
def configs(draw, policies=("lru", "tree-plru", "random"), drawn=True):
    """A small channel config; `drawn=False` turns off jitter, noise and slip."""
    encoding = draw(st.sampled_from(ENCODINGS))
    symbols = draw(st.integers(8, 48))
    defense = draw(st.sampled_from(sorted(DEFENSES)))
    policy = draw(st.sampled_from(policies))
    # hit < miss_clean < miss_dirty, so a cost charged for the wrong outcome
    # shows; a dirty eviction costs at least 4 more, so jitter 2 calibrates.
    hit = draw(st.integers(0, 10))
    miss_clean = hit + draw(st.integers(1, 20))
    miss_dirty = miss_clean + draw(st.integers(4, 20))
    noise = noise_fields(draw, defense, st.sampled_from([0.0, 0.5, 1.0]),
                         st.sampled_from([0.0, 0.5, 1.0])) if drawn else {}
    return ChannelConfig(
        message=whole_symbols(draw, encoding, symbols),
        encoding=encoding,
        period=draw(st.sampled_from([1000, 5500])),
        # Random victims need a longer replacement set to calibrate.
        rset_size=24 if policy == "random" else draw(st.sampled_from([8, 10])),
        **noise,
        seed=draw(SEEDS),
        slip=draw(st.sampled_from([0, 300])) if drawn else 0,
        geometry=DEFENSES[defense],
        policy=policy,
        latency=LatencyModel(hit, miss_clean, miss_dirty,
                             draw(st.sampled_from([0, 2])) if drawn else 0))


# Noise reads and writes on a write-back, unpartitioned cache, with slips
# that move some decodes ahead of their symbol's noise event at this period.
# Tier-1's derandomized draws hold few such runs.
NOISY = ChannelConfig(message=random_bits(64, 3), period=1000, noise_rate=1.0,
                      noise_write_prob=0.5, seed=4, slip=300)


def report_of(cfg, events=False):
    """(raw decoded stream, BER, counters, cycles), then the events if
    `events`, or `CalibrationError`."""
    try:
        report = run_channel(cfg)
    except CalibrationError:
        return CalibrationError
    return (report.raw_received_bits, report.ber, report.counters, report.cycles,
            *([report.events] if events else []))


@DRAWS
@given(cfg=configs())
@example(cfg=NOISY)
def test_doubled_costs_double_only_the_cycles(cfg):
    cfg = dataclasses.replace(cfg, latency=dataclasses.replace(cfg.latency, jitter=0))
    lat = cfg.latency
    doubled = dataclasses.replace(cfg, latency=LatencyModel(
        2 * lat.hit, 2 * lat.miss_clean, 2 * lat.miss_dirty))
    base, scaled = report_of(cfg), report_of(doubled)
    if base is CalibrationError:
        assert scaled is CalibrationError
    else:
        assert scaled == base[:3] + (2 * base[3],)


def order_of(cfg):
    return [(prio, index) for _, prio, index, _ in schedule(cfg)]


@DRAWS
# A shift of a cycle or two often keeps a slipping run's order; a wide one
# keeps it when the period holds every slip.
@given(cfg=configs(), shift=st.one_of(st.integers(-2, 1), st.integers(-900, 6500)))
@example(cfg=NOISY, shift=1)
def test_a_run_reads_its_period_only_through_its_event_order(cfg, shift):
    other = dataclasses.replace(cfg, period=cfg.period + shift)
    assume(order_of(other) == order_of(cfg))
    assert report_of(other) == report_of(cfg)


@DRAWS
@given(cfg=configs(policies=("lru", "tree-plru"), drawn=False), seed=SEEDS)
def test_a_run_that_draws_nothing_ignores_its_seed(cfg, seed):
    assert report_of(dataclasses.replace(cfg, seed=seed)) == report_of(cfg)


@DRAWS
@given(cfg=configs(policies=("lru",)))
# The partitioned Tree-PLRU golden's run: the sender hits its own lines.
@example(cfg=ChannelConfig(message=random_bits(64, 3), encoding=MultiBitEncoding(), seed=4,
                           slip=300, geometry=DEFENSES["partition"]))
def test_tree_plru_runs_the_channel_as_lru_does(cfg):
    tree = dataclasses.replace(cfg, policy="tree-plru")
    assert report_of(tree, events=True) == report_of(cfg, events=True)


@DRAWS
@given(cfg=configs())
# Tier-1's few draws hold little noise that a write-back set sees, and few
# slips that move a decode past a noise event; this run has both.
@example(cfg=ChannelConfig(message=random_bits(64, 3), period=1000,
                           noise_rate=0.5, noise_write_prob=0.5, seed=4, slip=300))
def test_a_message_prefix_decodes_to_a_prefix_of_the_stream(cfg):
    k = cfg.encoding.bits_per_symbol
    half = dataclasses.replace(cfg, message=cfg.message[:len(cfg.message) // k // 2 * k])
    whole, first = report_of(cfg), report_of(half)
    if whole is CalibrationError:
        assert first is CalibrationError
    else:
        assert first is not CalibrationError
        assert whole[0].startswith(first[0]), (whole[0], first[0])
