"""The walked simulation against one real action per event.

`run_channel` runs each distinct (target-set state, action) step of a run
once and walks a table of them after that, when the cache draws nothing.
`oracles.direct_simulate` runs every event's real encode, decode or noise
access on one live cache.  Both must give the same report, field by field:
the raw decoded stream, every trace event, the counters, the cycle total
and the BER.  A cache that draws (random policy or jitter) must run every
event for real.  `period_bers` shares one table across the periods of a
call, and must give each period the BER of its own `run_channel`.

Tier-1 checks the same few cases on every run; `pytest
--hypothesis-profile=differential` draws that profile's count of fresh ones
(see `conftest.py`).
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dirtysim.channel as channel
from dirtysim.cache import LatencyModel
from dirtysim.channel import (BinaryEncoding, ChannelConfig, MultiBitEncoding, NoiseConfig,
                              Thresholds, period_bers, run_channel, schedule)
from dirtysim.cli import DEFENSES
from dirtysim.seeding import random_bits

from oracles import direct_simulate

DRAWS = (settings.default if settings.get_current_profile_name() == "differential"
         else settings(max_examples=60, deadline=None, derandomize=True))


def exact_cuts(cfg, shift=0.0):
    """Cuts midway between the levels' fresh-cache probe totals, moved by `shift`.

    No calibration, so no drawn config is rejected, and a shift makes some
    decodes miss their symbol.
    """
    lat = cfg.latency
    totals = [cfg.rset_size * lat.miss_clean + d * (lat.miss_dirty - lat.miss_clean)
              for d in cfg.encoding.levels]
    return Thresholds(tuple((a + b) / 2 + shift for a, b in zip(totals, totals[1:])))


@st.composite
def runs(draw):
    """A small channel config with its thresholds."""
    encoding = draw(st.sampled_from([BinaryEncoding(1), BinaryEncoding(2), BinaryEncoding(3),
                                     BinaryEncoding(4), MultiBitEncoding(),
                                     MultiBitEncoding((0, 1, 2, 8))]))
    defense = draw(st.sampled_from(sorted(DEFENSES)))
    policy = draw(st.sampled_from(["lru", "tree-plru", "random"]))
    noise = NoiseConfig()
    if defense != "partition":  # the noise actor has no partition
        noise = NoiseConfig(draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                            draw(st.sampled_from([0.0, 0.5, 1.0])))
    bits = encoding.bits_per_symbol * draw(st.integers(4, 64))
    cfg = ChannelConfig(
        message=format(draw(st.integers(0, 2**bits - 1)), f"0{bits}b"),
        encoding=encoding,
        t_s=draw(st.one_of(st.sampled_from([800, 1001, 1600, 5500]), st.integers(2, 12000))),
        rset_size=24 if policy == "random" else draw(st.integers(8, 12)),
        noise=noise,
        seed=draw(st.integers(0, 2**32)),
        slip=draw(st.one_of(st.sampled_from([0, 300, 600]), st.integers(0, 3000))),
        geometry=DEFENSES[defense],
        policy=policy,
        latency=LatencyModel(jitter=draw(st.integers(0, 2))))
    return cfg, exact_cuts(cfg, draw(st.sampled_from([0.0, 0.0, -8.0, 8.0])))


def case(cfg):
    return cfg, exact_cuts(cfg)


# The sweep-noisy benchmark workload's config at its fastest period.
SWEEP_NOISY = ChannelConfig(message=random_bits(128, 2024), encoding=MultiBitEncoding(),
                            t_s=800, policy="tree-plru", noise=NoiseConfig(1.0, 0.5),
                            slip=300, seed=2024)


@DRAWS
@given(run=runs())
@example(run=case(SWEEP_NOISY))
@example(run=case(ChannelConfig(message=random_bits(2048, 1), seed=1)))
@example(run=case(ChannelConfig(message=random_bits(256, 3), t_s=1001, seed=3,
                                noise=NoiseConfig(1.0, 1.0))))
def test_the_walk_equals_one_real_action_per_event(run):
    cfg, thresholds = run
    walked = run_channel(cfg, thresholds)
    direct = direct_simulate(cfg, schedule(cfg), thresholds)
    assert walked.raw_received_bits == direct.raw_received_bits
    assert walked.events == direct.events
    assert walked.counters == direct.counters
    assert (walked.cycles, walked.ber) == (direct.cycles, direct.ber)
    assert walked == direct


def count_actions(monkeypatch, cfg):
    """(encode calls, decode calls, symbols) of `run_channel(cfg)`."""
    calls = Counter()
    for name in ("sender_encode", "receiver_decode"):
        real = getattr(channel, name)
        monkeypatch.setattr(channel, name,
                            lambda *a, _real=real, _name=name: calls.update([_name]) or _real(*a))
    report = run_channel(cfg)
    symbols = sum(ev.action == "decode" for ev in report.events)
    return calls["sender_encode"], calls["receiver_decode"], symbols


@pytest.mark.parametrize("bits", [512, 2048, 16384])
@pytest.mark.parametrize("policy", ["lru", "tree-plru"])
def test_a_run_that_draws_nothing_runs_each_step_once(monkeypatch, policy, bits):
    # A default binary run visits the same 33 (state, symbol) and 33
    # (state, parity) steps at every length.
    cfg = ChannelConfig(message=random_bits(bits, 1), seed=1, policy=policy)
    encodes, decodes, symbols = count_actions(monkeypatch, cfg)
    assert (encodes, decodes, symbols) == (33, 33, (16 + bits))


@pytest.mark.parametrize("fields", [dict(policy="random", rset_size=24),
                                    dict(latency=LatencyModel(jitter=1))],
                         ids=["random", "jitter"])
def test_a_run_that_draws_runs_every_event(monkeypatch, fields):
    cfg = ChannelConfig(message=random_bits(512, 1), seed=1, **fields)
    encodes, decodes, symbols = count_actions(monkeypatch, cfg)
    assert encodes == decodes == symbols == 16 + 512


@DRAWS
@given(run=runs(), periods=st.lists(st.one_of(st.sampled_from([800, 1001, 1600, 5500]),
                                              st.integers(2, 12000)), min_size=1, max_size=4))
@example(run=case(SWEEP_NOISY), periods=[800, 1000, 1600, 800])
def test_period_bers_is_one_run_per_period(run, periods):
    cfg, thresholds = run
    assert period_bers(cfg, periods, thresholds) == [
        run_channel(dataclasses.replace(cfg, t_s=p), thresholds).ber for p in periods]


def test_a_period_bers_table_lives_for_one_call():
    # Both periods schedule one order.  A table kept from the first call
    # would decode the second call with the first call's cut.
    cfg = ChannelConfig(message=random_bits(256, 1), seed=1)
    assert period_bers(cfg, (5500, 1600), Thresholds((115.5,))) == [0.0, 0.0]
    assert period_bers(cfg, (5500, 1600), Thresholds((130.0,))) == [0.53515625, 0.53515625]
