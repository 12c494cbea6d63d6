import dataclasses

import pytest

from dirtysim.cache import Cache, CacheGeometry, LatencyModel, WritePolicy
from dirtysim.channel import (PREAMBLE, BinaryEncoding, CalibrationError,
                              ChannelConfig, MultiBitEncoding, NoiseConfig,
                              Thresholds, calibrate_thresholds,
                              receiver_decode, run_channel, run_gadget_attack,
                              sender_encode)
from dirtysim.measurement import (RECEIVER, RSET_TAG_BASES,
                                  build_replacement_set, fill_set)
from dirtysim.seeding import derive_seed, random_bits

PARTITION = CacheGeometry(partition={"sender": frozenset(range(4)),
                                     "receiver": frozenset(range(4, 8))})
WRITE_THROUGH = CacheGeometry(write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE)


def make_cfg(**kw):
    kw.setdefault("message", random_bits(64, 77))
    cfg = ChannelConfig(**kw)
    cfg.validate()
    return cfg


def receiver_init(cache, cfg):
    """The receiver's prime at the start of `run_channel`."""
    fill_set(cache, RECEIVER, cfg.target_set, cfg.geometry.associativity)


def receiver_rsets(cfg):
    """The two replacement sets `run_channel` decodes with, alternately."""
    return [build_replacement_set(RECEIVER, cfg.target_set, cfg.rset_size,
                                  derive_seed(cfg.seed, "chase", p),
                                  geometry=cfg.geometry, tag_base=RSET_TAG_BASES[p])
            for p in (0, 1)]


# -- encodings -----------------------------------------------------------------

def test_binary_encoding_levels():
    enc = BinaryEncoding(4)
    assert enc.levels == (0, 4)
    assert enc.bits_per_symbol == 1
    assert enc.level_for_bits("1") == 4
    assert enc.level_for_bits("0") == 0
    with pytest.raises(ValueError):
        BinaryEncoding(0)
    # The upper bound on d_one is the geometry's associativity, so it is
    # checked by validate(), not by the encoding.
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


def test_multibit_encoding_validation():
    with pytest.raises(ValueError):
        MultiBitEncoding((0, 3, 3, 8))  # not strictly increasing
    with pytest.raises(ValueError):
        MultiBitEncoding((0, 3, 5))  # not a power of two
    with pytest.raises(ValueError):
        MultiBitEncoding((4,))


def test_config_validation():
    for t_s in (-5, 0, 1):
        with pytest.raises(ValueError, match="t_s must be at least 2"):
            make_cfg(t_s=t_s)
    assert make_cfg(t_s=2).t_s == 2
    with pytest.raises(ValueError):
        make_cfg(message="0101x")
    with pytest.raises(ValueError):
        make_cfg(encoding=MultiBitEncoding(), message="010")  # not multiple of k
    with pytest.raises(ValueError):
        make_cfg(message="")
    with pytest.raises(ValueError):
        make_cfg(noise=NoiseConfig(rate=0.5), geometry=PARTITION)
    with pytest.raises(ValueError):
        NoiseConfig(rate=-1)
    with pytest.raises(ValueError):
        NoiseConfig(rate=0.1, kind_mix=1.5)
    for rset_size in (0, 4, 7):
        with pytest.raises(ValueError, match="rset_size"):
            make_cfg(rset_size=rset_size)
    assert make_cfg(rset_size=8).rset_size == 8
    with pytest.raises(ValueError, match="unknown replacement policy 'mru'"):
        ChannelConfig(policy="mru", message="1").validate()


def test_eight_levels_do_not_divide_the_preamble():
    # 3 bits per symbol fit a 6-bit message but not the 16-bit preamble.
    assert len(PREAMBLE) == 16
    with pytest.raises(ValueError, match="preamble length must be a multiple of 3"):
        make_cfg(encoding=MultiBitEncoding(tuple(range(8))), message="010110")


def test_config_fields():
    # One field per fact: the receiver shares the sender's period, decodes at
    # its middle, and rates use the package's one clock frequency.
    assert [f.name for f in dataclasses.fields(ChannelConfig)] == [
        "encoding", "t_s", "target_set", "rset_size", "message", "noise",
        "seed", "slip", "geometry", "policy", "latency"]


# -- actors ----------------------------------------------------------------------

def test_sender_encode_binary_one_dirty_line():
    cfg = make_cfg()
    cache = Cache(cfg.geometry)
    receiver_init(cache, cfg)
    level, cost = sender_encode(cache, cfg, "1")
    assert (level, cost) == (1, 11)  # one clean receiver line evicted
    assert cache.dirty_count(cfg.target_set) == 1
    assert cache.counters["sender"].stores == 1


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
    assert cache.dirty_count(cfg.target_set) == 5


def test_receiver_init_fills_clean():
    cfg = make_cfg()
    cache = Cache(cfg.geometry)
    receiver_init(cache, cfg)
    snapshot = cache.snapshot_set(cfg.target_set)
    assert sum(s.valid for s in snapshot) == 8
    assert cache.dirty_count(cfg.target_set) == 0
    occupancy = [s.tag for s in snapshot]
    receiver_init(cache, cfg)
    assert [s.tag for s in cache.snapshot_set(cfg.target_set)] == occupancy


def test_receiver_init_clears_sender_dirty_line():
    cfg = make_cfg()
    cache = Cache(cfg.geometry)
    receiver_init(cache, cfg)
    sender_encode(cache, cfg, "1")
    assert cache.dirty_count(cfg.target_set) == 1
    receiver_init(cache, cfg)  # 8 fresh lines push out all prior residents
    assert cache.dirty_count(cfg.target_set) == 0


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


def test_run_channel_builds_two_replacement_sets(monkeypatch):
    import dirtysim.channel as channel
    cfg = make_cfg()
    thresholds = calibrate_thresholds(cfg)
    built = []
    original = channel.build_replacement_set
    monkeypatch.setattr(channel, "build_replacement_set",
                        lambda *a, **kw: built.append(a) or original(*a, **kw))
    report = run_channel(cfg, thresholds)
    assert len(built) == 2
    monkeypatch.undo()
    assert report.latency_trace == run_channel(cfg, thresholds).latency_trace


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
        Thresholds.from_level_stats([110.0, 110.0], [0.0, 0.0])


def test_calibration_fails_when_jitter_swamps_separation():
    cfg = make_cfg(latency=LatencyModel(jitter=6))
    with pytest.raises(CalibrationError):
        calibrate_thresholds(cfg, trials=32)


def test_calibration_ignores_defenses():
    cuts = calibrate_thresholds(make_cfg(geometry=WRITE_THROUGH)).cuts
    assert cuts == (115.5,)
    cuts = calibrate_thresholds(make_cfg(geometry=PARTITION)).cuts
    assert cuts == (115.5,)


def test_thresholds_classify():
    th = Thresholds((126.5, 154.0, 181.5))
    assert th.classify(110) == 0
    assert th.classify(143) == 1
    assert th.classify(165) == 2
    assert th.classify(198) == 3
    with pytest.raises(ValueError):
        Thresholds((5.0, 5.0))


# -- end-to-end -------------------------------------------------------------------

@pytest.mark.parametrize("encoding", [BinaryEncoding(1), BinaryEncoding(8),
                                      MultiBitEncoding()])
def test_noiseless_channel_is_error_free(encoding):
    cfg = make_cfg(encoding=encoding, message=random_bits(64, 21), t_s=1600)
    report = run_channel(cfg)
    assert report.ber == 0.0
    assert report.preamble_locked and report.alignment_offset == 0
    assert report.received_bits == cfg.message


def test_noiseless_channel_under_tree_plru():
    cfg = make_cfg(policy="tree-plru", message=random_bits(64, 22))
    assert run_channel(cfg).ber == 0.0


def test_report_is_deterministic():
    cfg = make_cfg(noise=NoiseConfig(rate=0.3, kind_mix=0.5), seed=5)
    assert run_channel(cfg).to_json() == run_channel(cfg).to_json()


def test_report_rate_matches_formula():
    report = run_channel(make_cfg(t_s=1600))
    assert report.rate_kbps == 1375.0
    report = run_channel(make_cfg(encoding=MultiBitEncoding(), t_s=1000,
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
    cfg = make_cfg(noise=NoiseConfig(rate=1.0, kind_mix=0.0),
                   message=random_bits(128, 31))
    report = run_channel(cfg)
    assert report.ber == 0.0


def test_dirty_noise_flips_zero_symbols():
    cfg = make_cfg(noise=NoiseConfig(rate=1.0, kind_mix=1.0),
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


def test_gadget_same_set_allowed_only_for_scenario_one():
    result = run_gadget_attack("a", "set-state-dirty", 0, line0_set=4, line1_set=4)
    assert result.inferred == 0
    for scenario in ("prime-with-dirty", "victim-timing"):
        variant = "b" if scenario == "prime-with-dirty" else "a"
        with pytest.raises(ValueError):
            run_gadget_attack(variant, scenario, 1, line0_set=4, line1_set=4)


def test_gadget_pairing_rules():
    with pytest.raises(ValueError):
        run_gadget_attack("b", "set-state-dirty", 1)
    with pytest.raises(ValueError):
        run_gadget_attack("a", "prime-with-dirty", 1)
    with pytest.raises(ValueError):
        run_gadget_attack("c", "victim-timing", 1)
    with pytest.raises(ValueError):
        run_gadget_attack("a", "bogus", 1)


def test_gadget_accepts_numeric_scenario_aliases():
    assert run_gadget_attack("a", "1", 1).scenario == "set-state-dirty"
    assert run_gadget_attack("b", "2", 0).scenario == "prime-with-dirty"
    assert run_gadget_attack("b", "3", 1).scenario == "victim-timing"


def test_gadget_victim_timing_reports_cost_delta():
    result = run_gadget_attack("b", "victim-timing", 1)
    lat = LatencyModel()
    assert result.latencies["dirty_clean_delta"] == lat.miss_dirty - lat.miss_clean
    assert result.latencies["victim_call_cycles"] == lat.miss_dirty
