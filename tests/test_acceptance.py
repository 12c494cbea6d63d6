"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned here, not configurable.
"""

import functools
import json
import random

import pytest

from dirtysim.analysis import edit_distance, rate_kbps
from dirtysim.cache import Cache, CacheGeometry, WritePolicy, make_line
from dirtysim.channel import (PREAMBLE, BinaryEncoding, ChannelConfig,
                              MultiBitEncoding, calibrate_thresholds, run_channel,
                              run_gadget_attack)
from dirtysim.cli import main as cli_main
from dirtysim.measurement import build_replacement_set, measure_replacement_latency
from dirtysim.policy import (analytic_dirty_eviction_probability,
                             dirty_eviction_experiment,
                             eviction_distance_experiment)
from dirtysim.seeding import random_bits

from oracles import (WAYS, brute_levenshtein, plru_eviction_fraction,
                     plru_touch, plru_victim)

TRIALS = 10_000
SEED = 2024


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] {number:02d} {label}: FAIL")
                raise
            print(f"[ACCEPTANCE] {number:02d} {label}: PASS")
        return wrapper
    return decorate


@criterion(1, "closed-form dirty-eviction probability")
def test_criterion_01_formula():
    assert abs(analytic_dirty_eviction_probability(8, 3, 10) - 0.9909) <= 0.0001


@criterion(2, "true LRU eviction at N=8 is certain")
def test_criterion_02_lru_row():
    result = eviction_distance_experiment("lru", 8, TRIALS, seed=SEED)
    assert result.evicted_fraction == 1.0


@criterion(3, "tree-PLRU eviction distances vs exhaustive enumeration")
def test_criterion_03_tree_plru():
    # From every one of the 2**7 tree states, 8 consecutive insert-touches
    # pick each of the 8 ways exactly once.  The probe line takes the first
    # of those ways, so 7 fresh lines never evict it and 8 always do: the
    # eviction distance is exactly 8.  An earlier expectation that the N=8
    # fraction lies strictly inside (0.90, 1.00) is refuted by this
    # enumeration under the documented model (a full set, then n distinct
    # fresh lines), so the criterion pins the point values instead.
    for initial in range(1 << (WAYS - 1)):
        state, victims = initial, []
        for _ in range(WAYS):
            victims.append(plru_victim(state))
            state = plru_touch(state, victims[-1])
        assert sorted(victims) == list(range(WAYS)), (initial, victims)
    for n, fraction in {7: 0.0, 8: 1.0, 9: 1.0}.items():
        assert plru_eviction_fraction(n) == fraction, n
        mc = eviction_distance_experiment("tree-plru", n, TRIALS, seed=SEED)
        assert mc.evicted_fraction == fraction, n


@criterion(4, "random-replacement grid trends against the closed form")
def test_criterion_04_dirty_grid():
    grid = {}
    for d in (2, 3):
        for l in range(8, 14):
            grid[(d, l)] = dirty_eviction_experiment([d], l, TRIALS, seed=SEED).curves[d][-1]
    for l in range(8, 14):
        assert grid[(2, l)] <= grid[(3, l)]
    for d in (2, 3):
        for l in range(8, 13):
            assert grid[(d, l)] <= grid[(d, l + 1)]
    assert grid[(3, 13)] >= 0.99
    for (d, l), fraction in grid.items():
        assert fraction <= analytic_dirty_eviction_probability(8, d, l) + 0.01


@criterion(5, "replacement totals are exactly 110 + 11d")
def test_criterion_05_latency_arithmetic():
    totals = []
    for d in range(9):
        cache = Cache()
        for i in range(8):
            cache.access(make_line("receiver", i), False)
        for j in range(d):
            cache.access(make_line("sender", j), True)
        rset = build_replacement_set(10, ways=8)
        totals.append(measure_replacement_latency(cache, "receiver", rset).total_cycles)
    assert totals == [110 + 11 * d for d in range(9)]
    assert {b - a for a, b in zip(totals, totals[1:])} == {11}


@criterion(6, "transmission-rate formula at the three quoted points")
def test_criterion_06_rates():
    assert rate_kbps(1600, 1) == 1375.0
    assert rate_kbps(1000, 2) == 4400.0
    assert rate_kbps(4000, 2) == 1100.0


@criterion(7, "noiseless channel is error-free at every period and encoding")
def test_criterion_07_noiseless_end_to_end():
    periods = (800, 1000, 1600, 2200, 5500, 11000)
    encodings = [BinaryEncoding(1), BinaryEncoding(4), BinaryEncoding(8),
                 MultiBitEncoding((0, 3, 5, 8))]
    for encoding in encodings:
        bits = 128 if encoding.bits_per_symbol == 1 else 256
        message = random_bits(bits, (SEED, encoding.d_label))
        template = ChannelConfig(encoding=encoding, message=message, seed=SEED)
        thresholds = calibrate_thresholds(template)
        for period in periods:
            cfg = template._replace(period=period)
            report = run_channel(cfg, thresholds=thresholds)
            assert report.ber == 0.0, (encoding.d_label, period)


@criterion(8, "clean noise is harmless; dirty noise flips 0-symbols at its rate")
def test_criterion_08_noise():
    message = random_bits(2048, SEED)
    clean = ChannelConfig(message=message, seed=SEED, noise_rate=1.0, noise_write_prob=0.0)
    assert run_channel(clean).ber == 0.0

    dirty = ChannelConfig(message=message, seed=SEED, noise_rate=0.1, noise_write_prob=1.0)
    report = run_channel(dirty)
    stream = PREAMBLE + dirty.message
    assert len(stream) >= 2000
    zeros = flips = 0
    for truth, (_, _, decoded) in zip(stream, report.latency_trace):
        if truth == "0":
            zeros += 1
            flips += decoded != "0"
    assert abs(flips / zeros - 0.1) <= 0.03, (flips, zeros)


@criterion(9, "write-through and way partitioning both kill the channel")
def test_criterion_09_defenses():
    message = random_bits(1000, SEED)
    wt = ChannelConfig(message=message, seed=SEED, geometry=CacheGeometry(
        write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE))
    report = run_channel(wt)
    assert set(report.raw_received_bits) == {"0"}

    part = ChannelConfig(message=message, seed=SEED, geometry=CacheGeometry(
        partition={"sender": frozenset(range(4)),
                   "receiver": frozenset(range(4, 8))}))
    report = run_channel(part)
    assert set(report.raw_received_bits) == {"0"}


@criterion(10, "edit distance matches the brute-force oracle and is a metric")
def test_criterion_10_edit_distance():
    assert edit_distance("kitten", "sitting") == 3
    rng = random.Random(SEED)

    def sample():
        return "".join(rng.choice("01") for _ in range(rng.randint(0, 20)))

    for _ in range(1000):
        a, b, c = sample(), sample(), sample()
        d_ab = edit_distance(a, b)
        assert d_ab == brute_levenshtein(a, b)
        assert d_ab == edit_distance(b, a)
        assert (d_ab == 0) == (a == b)
        assert edit_distance(a, c) <= d_ab + edit_distance(b, c)


@criterion(11, "all gadget scenarios recover the secret; bad setups rejected")
def test_criterion_11_gadgets():
    combos = [("a", "set-state-dirty"), ("b", "prime-with-dirty"),
              ("a", "victim-timing"), ("b", "victim-timing")]
    for variant, scenario in combos:
        for secret in (0, 1):
            result = run_gadget_attack(variant, scenario, secret)
            assert result.inferred == secret, (variant, scenario, secret)
    with pytest.raises(ValueError):
        run_gadget_attack("a", "prime-with-dirty", 1)


@criterion(12, "every CLI command is byte-identical across reruns")
def test_criterion_12_cli_determinism(tmp_path):
    commands = [
        ("evict-prob", "--policy", "tree-plru", "--n", "8,9", "--trials", "200"),
        ("dirty-evict", "--d", "2,3", "--l", "8,13", "--trials", "200"),
        ("latency-cdf", "--d-values", "0,4,8", "--trials", "5"),
        ("run-channel", "--message-bits", "64", "--noise-rate", "0.2",
         "--noise-write-prob", "0.5"),
        ("sweep", "--message-bits", "32", "--trials", "2",
         "--periods", "1600,5500"),
        ("gadget", "--variant", "a", "--scenario", "set-state-dirty",
         "--secret", "1"),
    ]
    for i, argv in enumerate(commands):
        first = tmp_path / f"{i}_first.out"
        second = tmp_path / f"{i}_second.out"
        assert cli_main([*argv, "--seed", str(SEED), "--out", str(first)]) == 0
        assert cli_main([*argv, "--seed", str(SEED), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv[0]
        if argv[0] == "run-channel":
            assert json.loads(first.read_text())["ber"] is not None
