import json
import subprocess
import sys

import pytest

from dirtysim.cli import main

from oracles import dirty_eviction_fraction, eviction_distance_fraction


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return path.read_bytes()


def test_evict_prob_lru_row(tmp_path):
    out = tmp_path / "evict.csv"
    assert run_cli("evict-prob", "--policy", "lru", "--n", "8", "--trials", "300",
                   "--seed", "1", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "policy,N,trials,fraction"
    assert lines[1] == "lru,8,300,1.0000"


def test_evict_prob_tree_plru_rows(tmp_path):
    out = tmp_path / "evict.csv"
    run_cli("evict-prob", "--policy", "tree-plru", "--n", "9,10", "--trials", "300",
            "--seed", "1", "--out", str(out))
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(row[3] == "1.0000" for row in rows)


def test_dirty_evict_grid(tmp_path):
    out = tmp_path / "grid.csv"
    run_cli("dirty-evict", "--d", "0,3", "--l", "10", "--trials", "400",
            "--seed", "1", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "d,L,trials,mc_fraction,analytic_p"
    assert lines[1] == "0,10,400,0.0000,0.0000"
    d3 = lines[2].split(",")
    assert d3[4] == "0.9909"
    assert float(d3[3]) > 0.95


def test_latency_cdf_output(tmp_path):
    out = tmp_path / "cdf.csv"
    run_cli("latency-cdf", "--d-values", "0,8", "--trials", "3", "--seed", "2",
            "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "d,trial,total_cycles"
    assert len(lines) == 1 + 2 * 3
    assert lines[1] == "0,0,110"
    assert lines[-1] == "8,2,198"


def test_run_channel_report_and_trace(tmp_path):
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.csv"
    assert run_cli("run-channel", "--seed", "4", "--message-bits", "32",
                   "--out", str(report_path), "--trace", str(trace_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["ber"] == 0.0
    assert report["rate_kbps"] == 400.0  # 2.2 GHz / 5500 cycles
    header = trace_path.read_text().splitlines()[0]
    assert header == "cycle,actor,action,set,d,latency,decoded_bit,truth_bit"


def test_run_channel_multibit_rate(tmp_path):
    report_path = tmp_path / "report.json"
    run_cli("run-channel", "--seed", "4", "--encoding", "multibit",
            "--message-bits", "64", "--period", "1000", "--out", str(report_path))
    report = json.loads(report_path.read_text())
    assert report["rate_kbps"] == 4400.0
    assert report["ber"] == 0.0


def test_sweep_default_periods(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli("sweep", "--seed", "3", "--message-bits", "16", "--trials", "1",
            "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "period_cycles,rate_kbps,encoding,d,trials,mean_ber"
    periods = [int(line.split(",")[0]) for line in lines[1:]]
    assert periods == [800, 1000, 1600, 2200, 5500, 11000]
    assert all(line.endswith("0.0000") for line in lines[1:])


def test_sweep_write_through_ber_tracks_ones_fraction(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli("sweep", "--seed", "3", "--message-bits", "200", "--trials", "1",
            "--periods", "5500", "--defense", "write-through", "--out", str(out))
    row = out.read_text().splitlines()[1].split(",")
    ber = float(row[5])
    assert abs(ber - 0.5) < 0.15  # all-zero decode leaves the message's 1-bits


def test_run_channel_partition_defense(tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli("run-channel", "--seed", "6", "--message-bits", "64",
                   "--defense", "partition", "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert set(report["raw_received_bits"]) == {"0"}


def test_gadget_json(tmp_path):
    out = tmp_path / "gadget.json"
    assert run_cli("gadget", "--variant", "b", "--scenario", "prime-with-dirty",
                   "--secret", "1", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["inferred"] == payload["secret"] == 1


def test_gadget_same_set_rejected_with_exit_2(capsys):
    code = run_cli("gadget", "--variant", "b", "--scenario", "2", "--secret", "1",
                   "--line0-set", "3", "--line1-set", "3")
    assert code == 2
    assert "different cache sets" in capsys.readouterr().err


def test_missing_seed_is_config_error(capsys, monkeypatch):
    monkeypatch.delenv("DIRTYSIM_SEED", raising=False)
    assert run_cli("evict-prob", "--policy", "lru", "--n", "8", "--trials", "10") == 2
    assert "seed" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, monkeypatch):
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv("DIRTYSIM_SEED", "17")
    run_cli("evict-prob", "--policy", "lru", "--n", "8", "--trials", "50",
            "--out", str(out_env))
    monkeypatch.delenv("DIRTYSIM_SEED")
    run_cli("evict-prob", "--policy", "lru", "--n", "8", "--trials", "50",
            "--seed", "17", "--out", str(out_flag))
    assert read(out_env) == read(out_flag)


def test_calibration_failure_exit_3(capsys):
    assert run_cli("run-channel", "--seed", "1", "--message-bits", "16",
                   "--jitter", "6") == 3
    assert "calibration" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-channel", "sweep"])
def test_small_rset_is_config_error(command, capsys):
    assert run_cli(command, "--seed", "1", "--message-bits", "16",
                   "--rset-size", "4") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "rset_size" in err


def test_period_below_two_cycles_is_config_error(capsys):
    # The decode at period // 2 must come after the encode at cycle 0.
    assert run_cli("run-channel", "--seed", "1", "--message-bits", "16",
                   "--period", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert "t_s must be at least 2" in captured.err


def test_d_one_above_associativity_is_config_error(capsys):
    assert run_cli("run-channel", "--seed", "1", "--message-bits", "16",
                   "--d-one", "9") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert "encoding level exceeds associativity" in captured.err


def config_error(capsys):
    """stderr of a run that must have failed before writing any output."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    return captured.err


@pytest.mark.parametrize("flag,value,reason", [
    ("--noise-rate", "-1", "rate must be >= 0"),
    ("--noise-write-prob", "5", "kind_mix must be in [0, 1]"),
])
def test_bad_noise_value_is_config_error(flag, value, reason, capsys):
    # Out-of-range noise values used to run a noiseless channel instead.
    assert run_cli("run-channel", "--seed", "1", "--message-bits", "16", flag, value) == 2
    assert reason in config_error(capsys)


@pytest.mark.parametrize("argv", [
    ("latency-cdf", "--d-values", "0", "--trials", "1"),
    ("run-channel", "--message-bits", "16"),
])
def test_negative_jitter_is_config_error_that_names_it(argv, capsys):
    assert run_cli(*argv, "--seed", "1", "--jitter", "-1") == 2
    assert "jitter must be >= 0" in config_error(capsys)


@pytest.mark.parametrize("command", ["run-channel", "gadget"])
def test_trials_is_no_option_of_commands_without_trials(command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--seed", "1", "--trials", "3")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,text,key", [
    (("latency-cdf", "--d-values", "0", "--trials", "1"), "polcy = random\n", "'polcy'"),
    (("latency-cdf", "--trials", "1"), '{"d-values": "0"}', "'d-values'"),
    (("run-channel", "--message-bits", "16"), "trials = 3\n", "'trials'"),
    (("gadget",), '{"trials": 3}', "'trials'"),
])
def test_unknown_config_key_is_config_error_that_names_it(argv, text, key, tmp_path,
                                                          capsys):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert run_cli(*argv, "--seed", "1", "--config", str(config)) == 2
    assert f"unknown config key {key}" in config_error(capsys)


@pytest.mark.parametrize("text,flags", [
    ("message = 1111\n", ("--message", "1111")),
    ('{"message": 1111}', ("--message", "1111")),
    ("encoding = multibit\nmessage = 10\n", ("--encoding", "multibit", "--message", "10")),
    ('{"encoding": "multibit", "message": 10}', ("--encoding", "multibit", "--message", "10")),
])
def test_bit_string_message_in_config_file(text, flags, tmp_path):
    # A flat value or a JSON number such as 1111 decodes to an int.
    config = tmp_path / "run.cfg"
    config.write_text(text)
    want, got = tmp_path / "flags.json", tmp_path / "config.json"
    assert run_cli("run-channel", *flags, "--seed", "1", "--out", str(want)) == 0
    assert run_cli("run-channel", "--config", str(config), "--seed", "1",
                   "--out", str(got)) == 0
    assert read(got) == read(want)


@pytest.mark.parametrize("argv", [
    ("run-channel", "--message-bits", "16"),
    ("sweep", "--message-bits", "16", "--trials", "1", "--periods", "1600"),
    ("evict-prob", "--n", "8", "--trials", "10"),
    ("latency-cdf", "--d-values", "0", "--trials", "1"),
])
def test_unknown_policy_in_config_file_is_config_error(argv, tmp_path, capsys):
    # A config file bypasses argparse's --policy choices.
    config = tmp_path / "run.cfg"
    config.write_text("policy = mru\n")
    assert run_cli(*argv, "--seed", "1", "--config", str(config)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert "unknown replacement policy 'mru'" in captured.err


def test_latency_cdf_small_rset_is_config_error(capsys):
    assert run_cli("latency-cdf", "--seed", "1", "--d-values", "0,8", "--trials", "2",
                   "--rset-size", "4") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "rset_size 4" in captured.err


@pytest.mark.parametrize("argv", [
    ("evict-prob", "--n", "0,8"),
    ("evict-prob", "--n", "8,33"),
    ("evict-prob", "--n", "8", "--trials", "0"),
    ("evict-prob", "--n", ""),
    ("dirty-evict", "--l", "0,8"),
    ("dirty-evict", "--d", "9"),
    ("dirty-evict", "--trials", "0"),
    ("dirty-evict", "--d", ""),
    ("dirty-evict", "--l", ""),
    ("dirty-evict", "--d", "", "--l", "0"),
    ("latency-cdf", "--d-values", ""),
    ("sweep", "--periods", "", "--message-bits", "16", "--trials", "1"),
    ("latency-cdf", "--trials", "0"),
    ("sweep", "--message-bits", "8", "--trials", "0", "--periods", "5500"),
    ("latency-cdf", "--d-values", "0", "--trials", "1", "--rset-size", "0"),
    ("run-channel", "--message-bits", "16", "--rset-size", "0"),
    ("sweep", "--message-bits", "16", "--trials", "1", "--periods", "5500",
     "--rset-size", "0"),
    ("run-channel", "--message-bits", "0"),
    ("sweep", "--message-bits", "0", "--trials", "1", "--periods", "5500"),
])
def test_bad_or_empty_list_is_config_error(argv, capsys):
    # The experiments run once, at the largest n or l, so every element of
    # a list must still be checked before that run.  A zero typed for
    # --trials, --rset-size or --message-bits is rejected too, not replaced
    # by the option's default.
    assert run_cli(*argv, "--seed", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")


def test_experiments_run_once_per_curve(monkeypatch, tmp_path):
    import dirtysim.policy as policy
    calls = []
    for name in ("eviction_distance_experiment", "dirty_eviction_experiment"):
        original = getattr(policy, name)
        monkeypatch.setattr(policy, name, lambda *a, _name=name, _original=original, **kw:
                            calls.append((_name, a[:2])) or _original(*a, **kw))
    out = tmp_path / "evict.csv"
    run_cli("evict-prob", "--policy", "random", "--n", "9,3,12,9", "--trials", "40",
            "--seed", "6", "--out", str(out))
    assert calls == [("eviction_distance_experiment", ("random", 12))]
    assert out.read_text().splitlines()[1:] == [
        f"random,{n},40,{eviction_distance_fraction('random', n, 40, 6):.4f}"
        for n in (9, 3, 12, 9)]
    calls.clear()
    run_cli("dirty-evict", "--d", "3,0,1", "--l", "13,2,8", "--trials", "40",
            "--seed", "6", "--out", str(out))
    assert calls == [("dirty_eviction_experiment", (d, 13)) for d in (0, 1, 3)]
    assert [row.split(",")[:4] for row in out.read_text().splitlines()[1:]] == [
        [str(d), str(l), "40", f"{dirty_eviction_fraction(d, l, 40, 6):.4f}"]
        for d in (0, 1, 3) for l in (2, 8, 13)]


def test_config_file_merge_and_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# experiment defaults\nseed = 9\ntrials = 60\nn = 8\n")
    out_a = tmp_path / "a.csv"
    run_cli("evict-prob", "--policy", "lru", "--config", str(config), "--out", str(out_a))
    assert "lru,8,60," in out_a.read_text()
    out_b = tmp_path / "b.csv"
    run_cli("evict-prob", "--policy", "lru", "--config", str(config),
            "--trials", "70", "--out", str(out_b))
    assert "lru,8,70," in out_b.read_text()


def test_config_file_json_form(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 9, "trials": 40, "n": "8"}))
    out = tmp_path / "a.csv"
    run_cli("evict-prob", "--policy", "lru", "--config", str(config), "--out", str(out))
    assert "lru,8,40," in out.read_text()
    # A list option may also be a JSON list, with the same checks as text.
    config.write_text(json.dumps({"seed": 9, "trials": 40, "n": [8, 9]}))
    assert run_cli("evict-prob", "--policy", "lru", "--config", str(config),
                   "--out", str(out)) == 0
    assert out.read_text().splitlines()[1:] == ["lru,8,40,1.0000", "lru,9,40,1.0000"]
    for bad in ([], [0, 8]):
        config.write_text(json.dumps({"seed": 9, "trials": 40, "n": bad}))
        assert run_cli("evict-prob", "--policy", "lru", "--config", str(config)) == 2


@pytest.mark.parametrize("argv", [
    ("evict-prob", "--policy", "lru", "--n", "8,9", "--trials", "120"),
    ("dirty-evict", "--d", "2", "--l", "8,13", "--trials", "120"),
    ("latency-cdf", "--d-values", "0,4", "--trials", "4"),
    ("run-channel", "--message-bits", "24"),
    ("sweep", "--message-bits", "16", "--trials", "1", "--periods", "1600,5500"),
    ("gadget", "--variant", "a", "--scenario", "victim-timing", "--secret", "0"),
])
def test_rerun_is_byte_identical(argv, tmp_path):
    first = tmp_path / "first.out"
    second = tmp_path / "second.out"
    assert run_cli(*argv, "--seed", "5", "--out", str(first)) == 0
    assert run_cli(*argv, "--seed", "5", "--out", str(second)) == 0
    assert read(first) == read(second)


def test_console_entry_point_subprocess(tmp_path):
    out = tmp_path / "run.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "dirtysim.cli", "evict-prob", "--policy", "lru",
         "--n", "8", "--trials", "30", "--seed", "2", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.read_text().splitlines()[1] == "lru,8,30,1.0000"
