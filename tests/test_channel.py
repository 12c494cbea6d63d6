import dataclasses
import math
import re
from fractions import Fraction

import pytest

from dirtysim.cache import Cache, CacheGeometry, LatencyModel, WritePolicy
from dirtysim.channel import (PREAMBLE, BinaryEncoding, CalibrationError,
                              ChannelConfig, Encoding, MultiBitEncoding, Thresholds,
                              calibrate_thresholds, receiver_decode, run_channel,
                              run_gadget_attack, schedule, sender_encode)
from dirtysim.cli import main as cli_main
from dirtysim.measurement import RECEIVER, build_replacement_set, fill_set
from dirtysim.seeding import random_bits

PARTITION = CacheGeometry(partition={"sender": frozenset(range(4)),
                                     "receiver": frozenset(range(4, 8))})
WRITE_THROUGH = CacheGeometry(write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE)


def make_cfg(**kw):
    kw.setdefault("message", random_bits(64, 77))
    return ChannelConfig(**kw)


def receiver_init(cache, cfg):
    """The receiver's prime at the start of `run_channel`."""
    fill_set(cache, RECEIVER, cfg.geometry.associativity)


def receiver_rsets(cfg):
    """The two replacement sets `run_channel` decodes with, alternately."""
    return [build_replacement_set(cfg.rset_size, ways=cfg.geometry.associativity, index=p)
            for p in (0, 1)]


# -- encodings -----------------------------------------------------------------

def test_binary_encoding_levels():
    enc = BinaryEncoding(4)
    assert enc.levels == (0, 4)
    assert enc.bits_per_symbol == 1
    assert enc.level_for_bits("1") == 4
    assert enc.level_for_bits("0") == 0
    with pytest.raises(ValueError, match="d_one >= 1"):
        BinaryEncoding(0)
    # Equal levels, but the sweep labels binary by d_one and multibit by levels.
    assert BinaryEncoding(8).levels == MultiBitEncoding((0, 8)).levels == (0, 8)
    assert BinaryEncoding(8).d_label == "8"
    assert MultiBitEncoding((0, 8)).d_label == "0-8"
    # The upper bound on d_one is the geometry's associativity, so it is
    # checked by the channel config, not by the encoding.
    with pytest.raises(ValueError, match="encoding level exceeds associativity"):
        make_cfg(encoding=BinaryEncoding(9))
    report = run_channel(make_cfg(encoding=BinaryEncoding(16), rset_size=20,
                                  geometry=CacheGeometry(associativity=16),
                                  message=random_bits(64, 3), seed=1))
    assert report.ber == 0.0 and report.preamble_locked


def test_multibit_encoding_mapping():
    enc = MultiBitEncoding((0, 3, 5, 8))
    assert enc.bits_per_symbol == 2
    assert enc.level_for_bits("00") == 0
    assert enc.level_for_bits("01") == 3
    assert enc.level_for_bits("10") == 5
    assert enc.level_for_bits("11") == 8
    assert enc.bits_for_level_index(2) == "10"
    with pytest.raises(ValueError):
        enc.level_for_bits("2x")


@pytest.mark.parametrize("enc", [BinaryEncoding(d_one) for d_one in range(1, 9)]
                         + [MultiBitEncoding(), MultiBitEncoding((0, 8)),
                            MultiBitEncoding((0, 1, 2, 8)), MultiBitEncoding(tuple(range(8))),
                            MultiBitEncoding(tuple(range(16)))],
                         ids=repr)
def test_encoding_tables_round_trip(enc):
    k = enc.bits_per_symbol
    for index, level in enumerate(enc.levels):
        bits = enc.bits_for_level_index(index)
        assert bits == format(index, f"0{k}b")
        assert enc.level_for_bits(bits) == level
    # After "1 ", symbols that int(x, 2) reads as a number.
    bad_symbols = ["", "2", "011", "1 ", " 1", "+1", "-0", "\u0661\u0660", "0_1"]
    if k == 3:
        bad_symbols.remove("011")  # a 3-bit encoding's symbol for level 3
    for bad in bad_symbols:
        with pytest.raises(ValueError, match=f"^symbol {re.escape(repr(bad))} is not {k} bits$"):
            enc.level_for_bits(bad)
    with pytest.raises(IndexError):
        enc.bits_for_level_index(len(enc.levels))


def test_encoding_tables_are_not_fields():
    enc = MultiBitEncoding()
    assert [f.name for f in dataclasses.fields(enc)] == ["levels", "name"]
    assert enc == MultiBitEncoding([0, 3, 5, 8])
    assert hash(enc) == hash(MultiBitEncoding([0, 3, 5, 8]))
    assert repr(enc) == "Encoding(levels=(0, 3, 5, 8), name='multibit')"
    other = dataclasses.replace(enc, levels=(0, 1, 2, 8))
    assert other.level_for_bits("11") == 8 and other.bits_for_level_index(1) == "01"
    assert enc.level_for_bits("11") == 8


def test_multibit_encoding_validation():
    with pytest.raises(ValueError):
        MultiBitEncoding((0, 3, 3, 8))  # not strictly increasing
    with pytest.raises(ValueError):
        MultiBitEncoding((0, 3, 5))  # not a power of two
    with pytest.raises(ValueError):
        MultiBitEncoding((4,))
    with pytest.raises(ValueError, match="levels must be non-negative"):
        Encoding((-1, 0), "multibit")
    with pytest.raises(ValueError, match="unknown encoding 'ternary'"):
        Encoding((0, 1), "ternary")


@pytest.mark.parametrize("name", ["binary", "multibit"])
@pytest.mark.parametrize("levels, index", [((0, 1.5), 1), ((False, True), 0), ((0, 2.0), 1)])
def test_encoding_rejects_a_non_int_level(name, levels, index):
    # Unchecked, (0, 1.5) built and the run failed in `fill_set`, and
    # (False, True) built with d_label "True".
    value = levels[index]
    with pytest.raises(ValueError, match=rf"^levels\[{index}\] must be an int, not {value!r}$"):
        Encoding(levels, name)


def test_config_validation():
    # The constructor and `replace` name the period as its flag and config key do.
    for period in (-5, 0, 1):
        with pytest.raises(ValueError, match="^period must be >= 2$"):
            make_cfg(period=period)
        with pytest.raises(ValueError, match="^period must be >= 2$"):
            dataclasses.replace(make_cfg(), period=period)
    assert make_cfg(period=2).period == 2
    with pytest.raises(ValueError):
        make_cfg(message="0101x")
    with pytest.raises(ValueError):
        make_cfg(encoding=MultiBitEncoding(), message="010")  # not multiple of k
    with pytest.raises(ValueError):
        make_cfg(message="")
    with pytest.raises(ValueError):
        make_cfg(noise_rate=0.5, geometry=PARTITION)
    for rset_size in (0, 4, 7):
        with pytest.raises(ValueError, match="rset_size"):
            make_cfg(rset_size=rset_size)
    assert make_cfg(rset_size=8).rset_size == 8
    with pytest.raises(ValueError, match="slip must be >= 0"):
        make_cfg(slip=-1)
    with pytest.raises(ValueError, match="unknown replacement policy 'mru'"):
        ChannelConfig(policy="mru", message="1")
    # A policy the geometry cannot hold fails when built, not in calibration.
    with pytest.raises(ValueError, match="^Tree-PLRU needs a power-of-two way count >= 2$"):
        ChannelConfig(message="01", policy="tree-plru",
                      geometry=CacheGeometry(associativity=1), rset_size=1)


@pytest.mark.parametrize("partition,rate,missing", [
    ({"sender": range(4)}, 0.0, "receiver"),
    ({"receiver": range(4)}, 0.0, "sender"),
    ({"sender": range(4), "receiver": range(4, 8)}, 0.5, "noise"),
])
def test_config_rejects_a_partition_without_an_actor_of_the_run(partition, rate, missing):
    # Unchecked, a run without the sender's or receiver's ways calibrated and
    # then failed in the simulation.
    geometry = CacheGeometry(partition=partition)
    with pytest.raises(ValueError, match=f"^{missing} actor has no way partition"):
        make_cfg(geometry=geometry, noise_rate=rate)


def test_config_accepts_a_partition_with_ways_for_noise():
    # PARTITION itself shows that noise at rate 0 needs no ways.
    three = CacheGeometry(partition={"sender": range(3), "receiver": range(3, 6),
                                     "noise": range(6, 8)})
    assert make_cfg(geometry=three, noise_rate=0.5).geometry is three


def test_config_checks_itself_when_built_or_replaced():
    # No config can exist invalid: the constructor and `replace` raise the
    # messages the checks give, and there is no separate method to forget.
    assert not hasattr(ChannelConfig, "validate")
    valid = make_cfg()
    with pytest.raises(ValueError, match="^period must be >= 2$"):
        dataclasses.replace(valid, period=1)
    with pytest.raises(ValueError, match="^message must be non-empty$"):
        ChannelConfig(message="")
    with pytest.raises(TypeError):
        ChannelConfig()  # a message has no default that could pass


@pytest.mark.parametrize("value", [2.5, 10.0, True])
@pytest.mark.parametrize("name", ["period", "rset_size", "slip", "seed"])
def test_config_rejects_a_non_int_field(name, value):
    # Seeds are hashed as text, so an unchecked seed=1.0 or True made a config
    # equal to seed=1's whose random-policy run differed from it.
    message = f"^{name} must be an int, not {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        make_cfg(**{name: value})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(make_cfg(), **{name: value})


@pytest.mark.parametrize("name", ["noise_rate", "noise_write_prob"])
@pytest.mark.parametrize("value", [True, False, -1, -0.5, 1.5, 5, float("nan"),
                                   "0.5", None, [0.5], 0.5j])
def test_config_rejects_a_noise_field_outside_0_1(name, value):
    # Unchecked, noise_rate=True built and ran as rate 1; a NaN fails every
    # comparison, so it must be rejected rather than slip past `> 1`.  The
    # last four cannot be compared with 0 and 1 at all.
    message = rf"^{name} must be a number in \[0, 1\], not {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        make_cfg(**{name: value})
    noisy = make_cfg(noise_rate=0.5, noise_write_prob=0.5)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(noisy, **{name: value})


@pytest.mark.parametrize("name", ["noise_rate", "noise_write_prob"])
@pytest.mark.parametrize("value", [0, 1, 0.0, 0.5, 1.0, Fraction(1, 2)])
def test_config_accepts_a_noise_field_in_0_1(name, value):
    noisy = make_cfg(noise_rate=0.5, noise_write_prob=0.5)
    assert getattr(dataclasses.replace(noisy, **{name: value}), name) == value
    assert getattr(make_cfg(**{name: value}), name) == value


def test_eight_levels_do_not_divide_the_preamble():
    # 3 bits per symbol fit a 6-bit message but not the 16-bit preamble.
    assert len(PREAMBLE) == 16
    with pytest.raises(ValueError, match="preamble length must be a multiple of 3"):
        make_cfg(encoding=MultiBitEncoding(tuple(range(8))), message="010110")


def test_config_fields():
    # One field per fact: the receiver shares the sender's period, decodes at
    # its middle, and rates use the package's one clock frequency.
    # `message` comes first, with no default: an empty one is never valid.
    assert [f.name for f in dataclasses.fields(ChannelConfig)] == [
        "message", "encoding", "period", "rset_size", "noise_rate", "noise_write_prob",
        "seed", "slip", "geometry", "policy", "latency"]


# -- actors ----------------------------------------------------------------------

def test_sender_encode_binary_one_dirty_line():
    cfg = make_cfg()
    cache = Cache(cfg.geometry)
    receiver_init(cache, cfg)
    level, cost = sender_encode(cache, cfg, "1")
    assert (level, cost) == (1, 11)  # one clean receiver line evicted
    assert cache.dirty_count() == 1
    assert cache.counters["sender"]["stores"] == 1


def test_sender_encode_zero_touches_nothing():
    cfg = make_cfg()
    cache = Cache(cfg.geometry)
    receiver_init(cache, cfg)
    level, cost = sender_encode(cache, cfg, "0")
    assert (level, cost) == (0, 0)
    assert "sender" not in cache.counters


def test_sender_encode_multibit_installs_level():
    cfg = make_cfg(encoding=MultiBitEncoding())
    cache = Cache(cfg.geometry)
    receiver_init(cache, cfg)
    level, _ = sender_encode(cache, cfg, "10")
    assert level == 5
    assert cache.dirty_count() == 5


def test_receiver_init_fills_clean():
    cfg = make_cfg()
    cache = Cache(cfg.geometry)
    receiver_init(cache, cfg)
    occupancy, dirty, _ = cache.set_state()
    assert None not in occupancy and not any(dirty)
    receiver_init(cache, cfg)
    assert cache.set_state()[0] == occupancy


def test_receiver_init_clears_sender_dirty_line():
    cfg = make_cfg()
    cache = Cache(cfg.geometry)
    receiver_init(cache, cfg)
    sender_encode(cache, cfg, "1")
    assert cache.dirty_count() == 1
    receiver_init(cache, cfg)  # 8 fresh lines push out all prior residents
    assert cache.dirty_count() == 0


def test_receiver_decode_maps_latency_to_bits():
    cfg = make_cfg()
    thresholds = calibrate_thresholds(cfg)
    cache = Cache(cfg.geometry)
    receiver_init(cache, cfg)
    sender_encode(cache, cfg, "1")
    rsets = receiver_rsets(cfg)
    sample, bits = receiver_decode(cache, cfg, rsets[0], thresholds)
    assert (sample.total_cycles, bits) == (121, "1")
    sample, bits = receiver_decode(cache, cfg, rsets[1], thresholds)
    assert (sample.total_cycles, bits) == (110, "0")


@pytest.mark.parametrize("rset_size", [10, 999, 1000, 1001, 1500, 4000])
def test_run_channel_builds_two_disjoint_replacement_sets(rset_size, monkeypatch):
    # Sets above 1000 lines once shared tags, so a decode hit lines that the
    # decode before it left resident.
    import dirtysim.channel as channel
    cfg = make_cfg(rset_size=rset_size)
    thresholds = calibrate_thresholds(cfg)
    built = []
    original = channel.build_replacement_set
    monkeypatch.setattr(channel, "build_replacement_set",
                        lambda *a, **kw: built.append(original(*a, **kw)) or built[-1])
    report = run_channel(cfg, thresholds)
    assert [len(rset) for rset in built] == [rset_size, rset_size]
    assert not set(built[0]) & set(built[1])
    assert not (set(built[0]) | set(built[1])) & set(range(cfg.geometry.associativity))
    assert report.counters["receiver"]["l1_hits"] == 0
    monkeypatch.undo()
    assert report.latency_trace == run_channel(cfg, thresholds).latency_trace


def test_a_set_of_more_than_1000_ways_probes_none_of_its_primed_lines():
    # Replacement sets once started at tag 1000 whatever the ways, so at
    # 1024 ways the first decode hit 24 primed lines: BER 0.469, no lock.
    geometry = CacheGeometry(associativity=1024)
    report = run_channel(ChannelConfig(message=random_bits(64, 1), geometry=geometry,
                                       rset_size=1024, seed=1))
    assert (report.ber, report.preamble_locked) == (0.0, True)
    assert report.counters["receiver"]["l1_hits"] == 0


def test_receiver_decode_multibit():
    cfg = make_cfg(encoding=MultiBitEncoding(), message=random_bits(64, 3))
    thresholds = calibrate_thresholds(cfg)
    cache = Cache(cfg.geometry)
    receiver_init(cache, cfg)
    sender_encode(cache, cfg, "10")
    sample, bits = receiver_decode(cache, cfg, receiver_rsets(cfg)[0], thresholds)
    assert (sample.total_cycles, bits) == (165, "10")


# -- thresholds -------------------------------------------------------------------

def test_calibration_binary_cut():
    assert calibrate_thresholds(make_cfg()).cuts == (115.5,)


def test_calibration_multibit_cuts():
    cfg = make_cfg(encoding=MultiBitEncoding(), message=random_bits(64, 3))
    assert calibrate_thresholds(cfg).cuts == (126.5, 154.0, 181.5)


def test_calibration_fails_on_degenerate_levels():
    with pytest.raises(CalibrationError):
        Thresholds.from_totals([(0, [110]), (1, [110])])


def test_calibration_fails_when_jitter_swamps_separation():
    cfg = make_cfg(latency=LatencyModel(jitter=6))
    with pytest.raises(CalibrationError):
        calibrate_thresholds(cfg)


def test_calibration_ignores_defenses():
    # Calibration measures the undefended write-back channel, and noise only
    # acts at run time: a store-only noise writer every period changes no cut.
    for kw in (dict(geometry=WRITE_THROUGH), dict(geometry=PARTITION),
               dict(noise_rate=1.0, noise_write_prob=1.0)):
        assert calibrate_thresholds(make_cfg(**kw)).cuts == (115.5,), kw


def test_thresholds_classify():
    th = Thresholds((126.5, 154.0, 181.5))
    assert th.classify(110) == 0
    assert th.classify(143) == 1
    assert th.classify(165) == 2
    assert th.classify(198) == 3
    assert th.classify(154) == 1  # a total equal to a cut falls below it
    for total in range(100, 211):
        assert th.classify(total) == sum(c < total for c in th.cuts)
    with pytest.raises(ValueError):
        Thresholds((5.0, 5.0))


@pytest.mark.parametrize("cuts", [(math.nan,), (math.inf,), (-math.inf, 120.0),
                                  (100.0, math.nan)])
def test_thresholds_reject_a_cut_that_is_not_finite(cuts):
    # Unchecked, a NaN cut classified every total as level 0, and a run
    # with it exited cleanly with a BER.
    with pytest.raises(ValueError, match="^cuts must be finite"):
        Thresholds(cuts)


@pytest.mark.parametrize("encoding, cuts, message", [
    # Binary with three cuts used to fail midway with an IndexError.
    (BinaryEncoding(), (100.0, 120.0, 130.0), "01" * 8),
    # Multibit with one cut used to run through and report BER 0.0, though
    # only two of its four levels could be decoded.
    (MultiBitEncoding(), (115.0,), "0101" * 8),
])
def test_run_channel_rejects_thresholds_of_the_wrong_cut_count(monkeypatch, encoding,
                                                               cuts, message):
    import dirtysim.channel as channel
    cfg = make_cfg(encoding=encoding, message=message)
    built = []
    monkeypatch.setattr(channel, "Cache", lambda *a, **kw: built.append(a))
    levels = len(encoding.levels)
    with pytest.raises(ValueError, match=f"thresholds have {len(cuts)} cuts, "
                                         f"but {levels} levels need {levels - 1}"):
        run_channel(cfg, Thresholds(cuts))
    assert built == []


# -- schedule ---------------------------------------------------------------------

@pytest.mark.parametrize("period,noise_at,decode_at", [
    (3, 1, 1), (5, 1, 2), (7, 1, 3), (1001, 250, 500), (1601, 400, 800)])
@pytest.mark.parametrize("encoding", [BinaryEncoding(), MultiBitEncoding()])
def test_schedule_cycles_at_odd_periods(encoding, period, noise_at, decode_at):
    # Symbol i encodes at i * period, meets noise `noise_at` cycles later and
    # decodes `decode_at` cycles later; an odd period shifts none of them.
    cfg = make_cfg(encoding=encoding, period=period, noise_rate=1.0, noise_write_prob=0.5)
    n_symbols = (len(PREAMBLE) + len(cfg.message)) // encoding.bits_per_symbol
    expected = sorted(event for i in range(n_symbols) for event in (
        (i * period, 0, i), (i * period + noise_at, 1, i), (i * period + decode_at, 2, i)))
    events = schedule(cfg)
    assert [event[:3] for event in events] == expected
    actions = {prio: {event[3] for event in events if event[1] == prio} for prio in (0, 1, 2)}
    assert actions == {0: {"encode"}, 1: {"noise-read", "noise-write"}, 2: {"decode"}}


# -- end-to-end -------------------------------------------------------------------

@pytest.mark.parametrize("encoding", [BinaryEncoding(1), BinaryEncoding(8),
                                      MultiBitEncoding()])
def test_noiseless_channel_is_error_free(encoding):
    cfg = make_cfg(encoding=encoding, message=random_bits(64, 21), period=1600)
    report = run_channel(cfg)
    assert report.ber == 0.0
    assert report.preamble_locked and report.alignment_offset == 0
    assert report.received_bits == cfg.message


def test_noiseless_channel_under_tree_plru():
    cfg = make_cfg(policy="tree-plru", message=random_bits(64, 22))
    assert run_channel(cfg).ber == 0.0


def test_report_is_deterministic(capsys):
    # The report's bytes are those the CLI writes.
    argv = ["run-channel", "--message", random_bits(64, 77), "--noise-rate", "0.3",
            "--noise-write-prob", "0.5", "--seed", "5"]
    reports = []
    for _ in range(2):
        assert cli_main(argv) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_report_rate_matches_formula():
    report = run_channel(make_cfg(period=1600))
    assert report.rate_kbps == 1375.0
    report = run_channel(make_cfg(encoding=MultiBitEncoding(), period=1000,
                                  message=random_bits(64, 2)))
    assert report.rate_kbps == 4400.0


def test_sender_access_count_equals_levels_sent():
    cfg = make_cfg(encoding=BinaryEncoding(1), message=random_bits(64, 13))
    report = run_channel(cfg)
    stream = PREAMBLE + cfg.message
    counters = report.counters.get("sender", {"loads": 0, "stores": 0})
    assert counters["loads"] + counters["stores"] == stream.count("1")
    encode_events = [e for e in report.events if e.action == "encode"]
    assert all(e.d in (0, 1) for e in encode_events)


def test_latency_trace_length_matches_decodes():
    cfg = make_cfg(message=random_bits(32, 4))
    report = run_channel(cfg)
    n_symbols = len(PREAMBLE) + len(cfg.message)
    assert len(report.latency_trace) == n_symbols


def test_clean_noise_immunity_under_lru():
    cfg = make_cfg(noise_rate=1.0, noise_write_prob=0.0,
                   message=random_bits(128, 31))
    report = run_channel(cfg)
    assert report.ber == 0.0


def test_dirty_noise_flips_zero_symbols():
    cfg = make_cfg(noise_rate=1.0, noise_write_prob=1.0,
                   message="0" * 64)
    report = run_channel(cfg)
    decoded = [bits for _, _, bits in report.latency_trace]
    stream = PREAMBLE + cfg.message
    for truth, got in zip(stream, decoded):
        if truth == "0":
            assert got != "0"


def test_write_through_defense_kills_channel():
    cfg = make_cfg(geometry=WRITE_THROUGH, message=random_bits(128, 41))
    report = run_channel(cfg)
    assert set(report.raw_received_bits) == {"0"}
    assert not report.preamble_locked


def test_partition_defense_kills_channel():
    cfg = make_cfg(geometry=PARTITION, message=random_bits(128, 42))
    report = run_channel(cfg)
    assert set(report.raw_received_bits) == {"0"}


# -- gadgets ----------------------------------------------------------------------

VALID_COMBOS = [("a", "set-state-dirty"), ("b", "prime-with-dirty"),
                ("a", "victim-timing"), ("b", "victim-timing")]


@pytest.mark.parametrize("variant,scenario", VALID_COMBOS)
@pytest.mark.parametrize("secret", [0, 1])
def test_gadgets_recover_secret(variant, scenario, secret):
    result = run_gadget_attack(variant, scenario, secret)
    assert result.inferred == secret


def test_gadget_pairing_rules():
    with pytest.raises(ValueError):
        run_gadget_attack("b", "set-state-dirty", 1)
    with pytest.raises(ValueError):
        run_gadget_attack("a", "prime-with-dirty", 1)
    with pytest.raises(ValueError):
        run_gadget_attack("c", "victim-timing", 1)
    with pytest.raises(ValueError):
        run_gadget_attack("a", "bogus", 1)
    with pytest.raises(ValueError, match="secret must be 0 or 1"):
        run_gadget_attack("a", "set-state-dirty", 2)


def test_gadget_accepts_numeric_scenario_aliases():
    assert run_gadget_attack("a", "1", 1).scenario == "set-state-dirty"
    assert run_gadget_attack("b", "2", 0).scenario == "prime-with-dirty"
    assert run_gadget_attack("b", "3", 1).scenario == "victim-timing"


def test_gadget_victim_timing_reports_cost_delta():
    result = run_gadget_attack("b", "victim-timing", 1)
    lat = LatencyModel()
    assert result.latencies["dirty_clean_delta"] == lat.miss_dirty - lat.miss_clean
    assert result.latencies["victim_call_cycles"] == lat.miss_dirty
