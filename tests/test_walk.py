"""The walked simulation against one real action per event.

`run_channel` runs each distinct (set state, action) step of a run
once and walks a table of them after that, when the cache draws nothing.
`oracles.direct_simulate` runs every event's real encode, decode or noise
access on one live cache.  Both must give the same report, field by field:
the raw decoded stream, every trace event, the counters, the cycle total
and the BER.  A cache that draws (random policy or jitter) must run every
event for real.  `_period_bers`, a sweep's trial loop, shares one table
across the periods and trials of a call, and must give each period of each trial the BER of its
own `run_channel` at that trial's seed.

`direct_simulate` keeps, on purpose, the replacement sets' old chase order,
shuffled by the run's seed, where the package chases tag order.  So
the walk-against-oracle test also checks, on every drawn case, random
policy and jitter included, that the chase order cannot change a report.

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
from dirtysim.cache import Cache, LatencyModel
from dirtysim.channel import (BinaryEncoding, ChannelConfig, MultiBitEncoding, Thresholds,
                              run_channel, schedule)
from dirtysim.cli import DEFENSES
from dirtysim.seeding import derive_seed, random_bits

from oracles import direct_simulate
from strategies import noise_fields, whole_symbols

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
    noise = noise_fields(draw, defense, st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                         st.sampled_from([0.0, 0.5, 1.0]))
    cfg = ChannelConfig(
        message=whole_symbols(draw, encoding, draw(st.integers(4, 64))),
        encoding=encoding,
        period=draw(st.one_of(st.sampled_from([800, 1001, 1600, 5500]), st.integers(2, 12000))),
        rset_size=24 if policy == "random" else draw(st.integers(8, 12)),
        **noise,
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
                            period=800, policy="tree-plru", noise_rate=1.0,
                            noise_write_prob=0.5, slip=300, seed=2024)


@DRAWS
@given(run=runs())
@example(run=case(SWEEP_NOISY))
@example(run=case(ChannelConfig(message=random_bits(2048, 1), seed=1)))
@example(run=case(ChannelConfig(message=random_bits(256, 3), period=1001, seed=3,
                                noise_rate=1.0, noise_write_prob=1.0)))
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
    # A default binary run visits the same 17 (state, symbol) and 17
    # (state, decode) steps at every length: a state is stored in the frame
    # of its next decode, so both replacement sets' decodes share one step.
    cfg = ChannelConfig(message=random_bits(bits, 1), seed=1, policy=policy)
    encodes, decodes, symbols = count_actions(monkeypatch, cfg)
    assert (encodes, decodes, symbols) == (17, 17, (16 + bits))


@pytest.mark.parametrize("fields", [dict(policy="random", rset_size=24),
                                    dict(latency=LatencyModel(jitter=1))],
                         ids=["random", "jitter"])
def test_a_run_that_draws_runs_every_event(monkeypatch, fields):
    cfg = ChannelConfig(message=random_bits(512, 1), seed=1, **fields)
    encodes, decodes, symbols = count_actions(monkeypatch, cfg)
    assert encodes == decodes == symbols == 16 + 512


def trial_runs(cfg, periods, thresholds, trials):
    """`_period_bers` by definition: one `run_channel` per trial and period."""
    return [[run_channel(dataclasses.replace(cfg, period=p,
                                             seed=derive_seed(cfg.seed, "sweep", t)),
                         thresholds).ber for p in periods]
            for t in range(trials)]


@DRAWS
@given(run=runs(), periods=st.lists(st.one_of(st.sampled_from([800, 1001, 1600, 5500]),
                                              st.integers(2, 12000)), min_size=1, max_size=4),
       trials=st.integers(1, 3))
@example(run=case(SWEEP_NOISY), periods=[800, 1000, 1600, 800], trials=2)
def test_period_bers_is_one_run_per_period(run, periods, trials):
    cfg, thresholds = run
    assert channel._period_bers(cfg, periods, thresholds, trials) == trial_runs(
        cfg, periods, thresholds, trials)


def test_a_period_bers_table_lives_for_one_call():
    # Both periods schedule one order.  A table kept from the first call
    # would decode the second call with the first call's cut.
    cfg = ChannelConfig(message=random_bits(256, 1), seed=1)
    assert channel._period_bers(cfg, (5500, 1600), Thresholds((115.5,)), 2) == [[0.0, 0.0]] * 2
    assert (channel._period_bers(cfg, (5500, 1600), Thresholds((130.0,)), 2)
            == [[0.53515625, 0.53515625]] * 2)


def swapped(state, rsets):
    """`state` with the receiver's tags of the two replacement sets swapped."""
    lines0, lines1 = ([(channel.RECEIVER, tag) for tag in rset] for rset in rsets)
    swap = dict([*zip(lines0, lines1), *zip(lines1, lines0)])
    tags, dirty, meta = state
    return tuple(swap.get(tag, tag) for tag in tags), dirty, meta


@pytest.mark.parametrize("policy", ["lru", "tree-plru"])
@pytest.mark.parametrize("defense, noise", [("none", False), ("none", True),
                                            ("write-through", False), ("write-through", True),
                                            ("partition", False)])
@pytest.mark.parametrize("encoding", [BinaryEncoding(1), MultiBitEncoding()],
                         ids=["binary", "multibit"])
def test_a_decode_on_either_replacement_set_is_one_step(policy, defense, noise, encoding):
    # What lets every decode be one action: from any stored state S, `act`'s
    # decode (a chase of set 0, then the swap) is a real decode on set 1
    # from S swapped, field for field, count for count and in the set it
    # leaves.
    cfg = ChannelConfig(message=random_bits(256, 4), encoding=encoding, period=1001, seed=4,
                        slip=300, geometry=DEFENSES[defense], policy=policy,
                        **(dict(noise_rate=0.5, noise_write_prob=0.5) if noise else {}))
    steps = channel.Steps(cfg, exact_cuts(cfg))
    channel._simulate(steps, cfg.seed, cfg.period, schedule(cfg))
    for state in steps.states:
        acted, real = (Cache(cfg.geometry, cfg.policy, cfg.latency) for _ in range(2))
        acted.load_set(state)
        fields = steps.act(acted, "decode")
        real.load_set(swapped(state, steps.rsets))
        sample, bits = channel.receiver_decode(real, cfg, steps.rsets[1], steps.thresholds)
        assert fields == (channel.RECEIVER, "decode", encoding.level_for_bits(bits),
                          sample.total_cycles, bits)
        assert acted.outcome_counts(channel.RECEIVER) == real.outcome_counts(channel.RECEIVER)
        assert acted.set_state() == real.set_state()


def test_the_chase_order_reads_no_seed():
    cfg = SWEEP_NOISY
    rsets = channel.Steps(cfg, exact_cuts(cfg)).rsets
    assert channel.Steps(dataclasses.replace(cfg, seed=1), exact_cuts(cfg)).rsets == rsets
    assert rsets == (tuple(range(8, 18)), tuple(range(18, 28)))  # tag order


@st.composite
def noisy_configs(draw):
    """A config whose schedule draws both noise and slip."""
    encoding = draw(st.sampled_from([BinaryEncoding(1), MultiBitEncoding()]))
    return ChannelConfig(
        message=whole_symbols(draw, encoding, draw(st.integers(1, 64))),
        encoding=encoding,
        **noise_fields(draw, "none", st.floats(0.05, 1.0), st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
        slip=draw(st.integers(1, 3000)))


@DRAWS
@given(cfg=noisy_configs(), periods=st.lists(st.integers(2, 12000), min_size=1, max_size=4))
@example(cfg=SWEEP_NOISY, periods=[800, 1000, 1600, 800])
def test_period_bers_draws_noise_and_slip_once(cfg, periods):
    labels = Counter()
    real = channel.derive_seed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel, "derive_seed",
                      lambda *parts: labels.update(parts[1:2]) or real(*parts))
        channel._period_bers(cfg, periods, exact_cuts(cfg), 2)
    assert (labels["noise"], labels["slip"]) == (2, 2)
    # Each period's events, built from the one set of draws, are its own schedule.
    draws = channel._draws(cfg, cfg.seed)
    for period in periods:
        assert channel._events(period, *draws) == schedule(dataclasses.replace(cfg, period=period))
