import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirtysim.cli import _json, build_parser, main

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


def test_missing_seed_is_config_error(capsys, monkeypatch):
    monkeypatch.delenv("DIRTYSIM_SEED", raising=False)
    assert run_cli("evict-prob", "--policy", "lru", "--n", "8", "--trials", "10") == 2
    assert "seed" in capsys.readouterr().err


def test_non_integer_env_seed_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("DIRTYSIM_SEED", "abc")
    assert run_cli("evict-prob", "--n", "8", "--trials", "10") == 2
    assert "DIRTYSIM_SEED='abc' is not an integer" in config_error(capsys)


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


def test_resident_probe_hits_warn_on_stderr(capsys):
    # Random replacement can keep a replacement-set line resident until its
    # next probe; the run says so and its outputs stay as they are.
    argv = ("run-channel", "--policy", "random", "--message-bits", "256", "--seed", "1")
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["counters"]["receiver"]["l1_hits"] == 241
    assert report["preamble_locked"] and report["ber"] == 0.421875
    assert captured.err == "warning: 241 probe accesses hit resident lines in 272 decodes\n"


def test_lru_run_does_not_warn(capsys):
    assert run_cli("run-channel", "--message-bits", "64", "--seed", "1") == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["counters"]["receiver"]["l1_hits"] == 0
    assert captured.err == ""


@pytest.mark.parametrize("rset_size, seed", [(1500, 1), (2000, 2)])
def test_large_replacement_sets_leave_nothing_resident(rset_size, seed, capsys):
    # Above 1000 lines the two sets once shared tags, so a decode hit lines
    # that the decode before it left resident.
    assert run_cli("run-channel", "--rset-size", str(rset_size), "--message-bits", "512",
                   "--seed", str(seed)) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["ber"] == 0.0
    assert report["counters"]["receiver"]["l1_hits"] == 0
    assert captured.err == ""


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
    assert config_error(capsys) == "config error: period must be >= 2\n"


def test_sweep_rejects_a_bad_later_period_before_calibrating(capsys):
    # Calibration fails at this seed; the period that can never run is
    # reported first, whatever the seed.
    assert run_cli("sweep", "--seed", "4", "--message-bits", "32", "--jitter", "2",
                   "--trials", "1", "--periods", "5500,1") == 2
    assert config_error(capsys) == "config error: period must be >= 2\n"


@pytest.mark.parametrize("argv,config", [
    (("run-channel",), "period = 1\n"),
    (("run-channel",), '{"period": 0}'),
    (("sweep", "--trials", "1", "--periods", "1,5500"), None),
], ids=["flat-config", "json-config", "first-period"])
def test_bad_period_is_one_line_however_it_is_spelled(argv, config, tmp_path, capsys):
    # The config key and each item of --periods reach one field, `period`,
    # as --period does, and its one check names it.
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ("--config", str(tmp_path / "run.cfg"))
    assert run_cli(*argv, "--seed", "1", "--message-bits", "16", "--out", str(out)) == 2
    assert config_error(capsys) == "config error: period must be >= 2\n"
    assert not out.exists()


def test_sweep_takes_no_period(tmp_path, capsys):
    # Each sweep run sets its own period, so a --period would change no
    # output; flags are spelled in full, so it is no prefix of --periods.
    argv = ("sweep", "--seed", "1", "--message-bits", "16", "--trials", "1")
    assert exit_code(*argv, "--period", "5500") == 2
    assert capsys.readouterr().out == ""
    config = tmp_path / "sweep.cfg"
    config.write_text("period = 1000\n")
    assert exit_code(*argv, "--config", str(config)) == 2
    assert "unknown config key 'period'" in config_error(capsys)


def test_d_one_above_associativity_is_config_error(capsys):
    assert run_cli("run-channel", "--seed", "1", "--message-bits", "16",
                   "--d-one", "9") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert "encoding level exceeds associativity" in captured.err


def test_d_one_zero_is_config_error(capsys):
    assert run_cli("run-channel", "--seed", "1", "--message-bits", "16",
                   "--d-one", "0") == 2
    assert "d_one >= 1" in config_error(capsys)


@pytest.mark.parametrize("command", [("run-channel",), ("sweep", "--trials", "1",
                                                          "--periods", "5500")])
@pytest.mark.parametrize("options,stray", [
    (("--levels", "0,8"), "--levels"),  # binary by default
    (("--encoding", "binary", "--levels", "0,8"), "--levels"),
    (("--encoding", "multibit", "--d-one", "5"), "--d-one"),
])
def test_other_encodings_option_is_config_error(command, options, stray, capsys):
    # Each encoding reads only its own option, so the other one would be
    # silently ignored.
    assert run_cli(*command, "--seed", "1", "--message-bits", "16", *options) == 2
    assert stray in config_error(capsys)


@pytest.mark.parametrize("text,stray", [
    ("levels = 0,8\n", "--levels"),
    ("encoding = multibit\nd-one = 5\n", "--d-one"),
    ('{"encoding": "multibit", "d_one": 5}', "--d-one"),
])
def test_other_encodings_config_key_is_config_error(text, stray, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert run_cli("run-channel", "--seed", "1", "--message-bits", "16",
                   "--config", str(config)) == 2
    assert stray in config_error(capsys)


def config_error(capsys):
    """stderr of a run that must have failed before writing any output."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    return captured.err


@pytest.mark.parametrize("flag,value,reason", [
    ("--noise-rate", "-1", "noise_rate must be a number in [0, 1], not -1.0"),
    ("--noise-write-prob", "5", "noise_write_prob must be a number in [0, 1], not 5.0"),
    ("--noise-rate", "5", "noise_rate must be a number in [0, 1], not 5.0"),
    ("--noise-rate", "nan", "noise_rate must be a number in [0, 1], not nan"),
    ("--noise-write-prob", "nan", "noise_write_prob must be a number in [0, 1], not nan"),
])
def test_bad_noise_value_is_config_error(flag, value, reason, capsys):
    # Out-of-range noise values used to run a noiseless channel instead.  The
    # error names the config field of the flag, which shares the flag's name.
    assert run_cli("run-channel", "--seed", "1", "--message-bits", "16", flag, value) == 2
    assert config_error(capsys) == f"config error: {reason}\n"


@pytest.mark.parametrize("command", [("run-channel",), ("sweep", "--trials", "1")])
@pytest.mark.parametrize("value", ["-1", "0"])
def test_bad_message_bits_is_config_error_that_names_it(command, value, capsys):
    # A negative count was reported as `n`, the name of random_bits' argument.
    assert run_cli(*command, "--seed", "1", "--message-bits", value) == 2
    assert config_error(capsys) == "config error: message_bits must be >= 1\n"


def test_nan_noise_rate_in_a_config_file_is_config_error(tmp_path, capsys):
    # JSON reads the bare word NaN as a float, and NaN fails `rate > 1`.
    config = tmp_path / "run.cfg"
    config.write_text("noise-rate = NaN\n", encoding="utf-8")
    assert run_cli("run-channel", "--seed", "1", "--message-bits", "16",
                   "--config", str(config)) == 2
    assert "noise_rate must be a number in [0, 1], not nan" in config_error(capsys)


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
    # A file includes no other file, so a nested `config` key is unknown.
    (("evict-prob", "--n", "8"), "config = /nope.cfg\ntrials = 5\n", "'config'"),
])
def test_unknown_config_key_is_config_error_that_names_it(argv, text, key, tmp_path,
                                                          capsys):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert run_cli(*argv, "--seed", "1", "--config", str(config)) == 2
    assert f"unknown config key {key}" in config_error(capsys)


def test_config_line_without_equals_is_config_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("seed 9\n")
    assert run_cli("evict-prob", "--n", "8", "--trials", "10", "--config", str(config)) == 2
    assert "bad config line: 'seed 9'" in config_error(capsys)


def exit_code(*argv):
    """main's exit code, also where argparse rejects a value with SystemExit."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv,text", [
    (("latency-cdf", "--d-values", "0", "--trials", "1"), "policy =\n"),
    (("run-channel", "--message-bits", "16"), '{"defense": ""}'),
    (("gadget",), "scenario =\n"),
    (("run-channel", "--message-bits", "16"), "noise_rate =\n"),
    (("latency-cdf", "--d-values", "0", "--trials", "1"), "rset_size = 2.9\n"),
    (("evict-prob", "--n", "8"), "trials = true\n"),
    (("evict-prob", "--trials", "10"), '{"n": [8.7, 9]}'),
    (("latency-cdf", "--trials", "1"), '{"d_values": [true, 8]}'),
], ids=["empty-policy", "empty-defense", "empty-scenario", "empty-noise-rate",
        "fractional-rset-size", "boolean-trials", "fractional-list-item",
        "boolean-list-item"])
def test_config_value_is_read_as_its_flag(argv, text, tmp_path, capsys):
    # Each value exits 2 as a flag, so a config file must not replace it with
    # the option's default or a rounded number.
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert exit_code(*argv, "--seed", "1", "--config", str(config)) == 2
    assert capsys.readouterr().out == ""


def outcome(capsys, *argv):
    """Exit code, stdout and the `error:` lines of stderr of one run."""
    code = exit_code(*argv)
    captured = capsys.readouterr()
    return code, captured.out, [line for line in captured.err.splitlines() if "error:" in line]


EVICT = ("evict-prob", "--trials", "20", "--seed", "1")
CHANNEL = ("run-channel", "--message-bits", "16", "--seed", "1")


@pytest.mark.parametrize("code,argv,key,value,flags", [
    (2, ("evict-prob", "--seed", "1"), "trials", [1, 2], ("--trials", "1,2")),
    (2, CHANNEL, "period", [1000, 2000], ("--period", "1000,2000")),
    (2, EVICT, "policy", ["lru", "random"], ("--policy", "lru,random")),
    (2, ("run-channel", "--seed", "1"), "message", [1, 0, 1, 1], ("--message", "1,0,1,1")),
    (0, ("evict-prob", "--policy", "random", "--trials", "20"), "seed", [1], ("--seed", "1")),
    (2, EVICT, "policy", "mru", ("--policy", "mru")),
    (2, CHANNEL, "defense", "aslr", ("--defense", "aslr")),
    (2, CHANNEL, "encoding", "BINARY", ("--encoding", "BINARY")),
    (2, ("gadget",), "variant", "c", ("--variant", "c")),
    (2, ("gadget",), "secret", 2, ("--secret", "2")),
    (0, EVICT, "n", [8, 9], ("--n", "8,9")),
    (0, EVICT, "n", "8,9", ("--n", "8,9")),
    (0, ("dirty-evict", "--trials", "20", "--seed", "1"), "l", [8, 13], ("--l", "8,13")),
    (0, ("latency-cdf", "--trials", "2", "--seed", "1"), "d_values", [0, 8],
     ("--d-values", "0,8")),
    (0, ("sweep", "--message-bits", "16", "--trials", "1", "--seed", "1"), "periods",
     [1600, 5500], ("--periods", "1600,5500")),
    (0, CHANNEL + ("--encoding", "multibit"), "levels", [0, 3, 5, 8],
     ("--levels", "0,3,5,8")),
    (0, CHANNEL + ("--encoding", "multibit"), "levels", "0,3,5,8", ("--levels", "0,3,5,8")),
], ids=["list-trials", "list-period", "list-policy", "list-message", "list-seed",
        "choice-policy", "choice-defense", "choice-encoding", "choice-variant",
        "choice-secret", "json-list-n", "text-n", "json-list-l", "json-list-d-values",
        "json-list-periods", "json-list-levels", "text-levels"])
def test_config_file_gives_what_its_flags_give(code, argv, key, value, flags, tmp_path,
                                               capsys):
    # A config file stands for flags: the flat file, the JSON file and the
    # flags exit alike, print alike, and fail with the same error line.
    flat, as_json = tmp_path / "run.cfg", tmp_path / "run.json"
    flat.write_text(f"{key} = {value if isinstance(value, str) else json.dumps(value)}\n")
    as_json.write_text(json.dumps({key: value}))
    want = outcome(capsys, *argv, *flags)
    assert want[0] == code and (want[1] == "") == (code == 2) and len(want[2]) == code // 2
    assert outcome(capsys, *argv, "--config", str(flat)) == want
    assert outcome(capsys, *argv, "--config", str(as_json)) == want


@pytest.mark.parametrize("text", ['{"trials": null}', "trials = null\n"], ids=["json", "flat"])
def test_config_null_leaves_the_option_unset(text, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    argv = ("latency-cdf", "--d-values", "0", "--seed", "1")
    assert run_cli(*argv, "--out", str(want)) == 0
    assert run_cli(*argv, "--config", str(config), "--out", str(got)) == 0
    assert read(got) == read(want)


def test_config_values_do_not_outlive_their_call(tmp_path):
    # main runs many times in one process (the benchmark's passes do), so a
    # config file's values must not carry into the next call.
    config = tmp_path / "run.cfg"
    config.write_text("trials = 2\n")
    out = tmp_path / "cdf.csv"
    argv = ("latency-cdf", "--d-values", "0", "--seed", "1", "--out", str(out))
    assert run_cli(*argv, "--config", str(config)) == 0
    assert len(out.read_text().splitlines()) == 1 + 2
    assert run_cli(*argv) == 0
    assert len(out.read_text().splitlines()) == 1 + 1000


COMMANDS = ("evict-prob", "dirty-evict", "latency-cdf", "run-channel", "sweep", "gadget")


def test_parser_is_built_once_and_never_changed(tmp_path):
    assert build_parser() is build_parser()
    before = [build_parser().parse_args([command]) for command in COMMANDS]
    config = tmp_path / "run.cfg"
    config.write_text("trials = 2\npolicy = random\nd_values = 0\n")
    assert run_cli("latency-cdf", "--seed", "1", "--config", str(config),
                   "--out", str(tmp_path / "cdf.csv")) == 0
    assert [build_parser().parse_args([command]) for command in COMMANDS] == before


def test_command_is_looked_up_by_name_on_each_call(monkeypatch, capsys):
    # The benchmark's tracer wraps the module's cmd_* functions in place, so
    # main must find the command there on every call, not hold it from the
    # first build of the parser.  main writes what the command returns.
    import dirtysim.cli as cli
    monkeypatch.setattr(cli, "cmd_gadget", lambda args: {None: "x"})
    assert run_cli("gadget") == 0
    assert capsys.readouterr().out == "x"


@pytest.mark.parametrize("argv,checked", [
    (("evict-prob", "--n", "8", "--trials", "10", "--out", "{dir}/evict.csv"), []),
    (("dirty-evict", "--d", "2", "--l", "8", "--trials", "10"), []),
    (("latency-cdf", "--d-values", "0", "--trials", "1", "--out", "{dir}/cdf.csv"), []),
    (("run-channel", "--message-bits", "16", "--out", "{dir}/report.json"), []),
    (("run-channel", "--message-bits", "16", "--trace", "{dir}/trace.csv"), [None]),
    (("run-channel", "--message-bits", "16", "--trace", "{dir}/trace.csv",
      "--out", "{dir}/report.json"), ["{dir}/report.json"]),
    (("sweep", "--message-bits", "16", "--trials", "1", "--periods", "5500",
      "--out", "{dir}/sweep.csv"), []),
    (("gadget", "--out", "{dir}/gadget.json"), []),
])
def test_main_checks_every_path_after_the_first(argv, checked, monkeypatch, tmp_path, capsys):
    # The first write checks its own path, so a command with one output makes
    # no extra filesystem call; run-channel's report follows its trace.
    import dirtysim.cli as cli
    calls = []
    monkeypatch.setattr(cli, "_check_writable", lambda *paths: calls.append(list(paths)))
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert run_cli(*argv, "--seed", "1") == 0
    assert calls == [[path and path.format(dir=tmp_path) for path in checked]]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ("evict-prob", "--config", "{missing}"),
    ("evict-prob", "--config", "{dir}"),
    ("evict-prob", "--n", "8", "--trials", "10", "--out", "{dir}"),
    ("evict-prob", "--n", "8", "--trials", "10", "--out", "{missing}/evict.csv"),
    ("run-channel", "--message-bits", "16", "--trace", "{dir}"),
    ("run-channel", "--message-bits", "16", "--trace", "{missing}/trace.csv"),
    ("run-channel", "--message-bits", "16", "--trace", "{dir}/trace.csv",
     "--out", "{missing}/report.json"),
    ("run-channel", "--message-bits", "16", "--trace", "{missing}/trace.csv",
     "--out", "{dir}/report.json"),
], ids=["missing-config", "directory-config", "directory-out", "missing-dir-out",
        "directory-trace", "missing-dir-trace", "missing-dir-out-with-trace",
        "missing-dir-trace-with-out"])
def test_os_error_is_config_error(argv, tmp_path, capsys):
    # A path that cannot be read or written exits 2 with one line and no
    # traceback.  It leaves stdout empty and writes no file: main checks
    # run-channel's report path before it writes the trace.
    argv = [arg.format(missing=tmp_path / "missing", dir=tmp_path) for arg in argv]
    assert run_cli(*argv, "--seed", "1") == 2
    err = config_error(capsys)
    assert len(err.splitlines()) == 1 and str(tmp_path) in err
    assert list(tmp_path.iterdir()) == []


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
    # A config file's policy meets argparse's --policy choices, as the flag does.
    config = tmp_path / "run.cfg"
    config.write_text("policy = mru\n")
    code, out, errors = outcome(capsys, *argv, "--seed", "1", "--config", str(config))
    assert (code, out) == (2, "")
    assert errors == outcome(capsys, *argv, "--seed", "1", "--policy", "mru")[2]
    assert len(errors) == 1 and "invalid choice: 'mru'" in errors[0]


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


@pytest.mark.parametrize("argv,reason", [
    (("evict-prob", "--n", "8.5"), "n must be a non-empty list of integers >= 1"),
    (("latency-cdf", "--d-values", "0,x", "--trials", "1"),
     "d-values must be a non-empty list of integers >= 0"),
    (("sweep", "--periods", "1600,abc", "--message-bits", "16", "--trials", "1"),
     "periods must be a non-empty list of integers >= 0"),
    (("run-channel", "--encoding", "multibit", "--levels", "0,3,5,eight",
      "--message-bits", "16"), "levels must be a non-empty list of integers >= 0"),
], ids=["n", "d-values", "periods", "levels"])
def test_non_integer_list_item_is_config_error_that_names_it(argv, reason, tmp_path, capsys):
    # int()'s own error named neither the option nor what it takes.
    out = tmp_path / "out"
    assert run_cli(*argv, "--seed", "1", "--out", str(out)) == 2
    assert config_error(capsys) == f"config error: {reason}\n"
    assert not out.exists()


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
    for d_option, rows in (("3,0,1", (0, 1, 3)), ("2,2,0", (0, 2, 2))):
        calls.clear()
        run_cli("dirty-evict", "--d", d_option, "--l", "13,2,8", "--trials", "40",
                "--seed", "6", "--out", str(out))
        # One experiment for the whole table, at the largest l.
        assert [(name, sorted(ds), l) for name, (ds, l) in calls] == [
            ("dirty_eviction_experiment", sorted(rows), 13)]
        assert [row.split(",")[:4] for row in out.read_text().splitlines()[1:]] == [
            [str(d), str(l), "40", f"{dirty_eviction_fraction(d, l, 40, 6):.4f}"]
            for d in rows for l in (2, 8, 13)]


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
    for bad in ([], [0, 8], [8.7, 9], [True, 8]):
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


# -- JSON rendering ----------------------------------------------------------------

JSON_DRAWS = (settings.default if settings.get_current_profile_name() == "differential"
              else settings(max_examples=200, deadline=None, derandomize=True))
SCALARS = (st.integers(), st.text(), st.booleans(), st.none(),
           st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def row_lists(draw):
    """Rows of one length, list or tuple, each column drawn from one scalar
    kind or a mix of int and str, sometimes with one row of another length."""
    kinds = draw(st.lists(st.sampled_from((*SCALARS, st.one_of(st.integers(), st.text()))),
                          max_size=4))
    row = st.tuples(*kinds).flatmap(lambda values: st.sampled_from([values, list(values)]))
    rows = draw(st.lists(row, max_size=6))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.lists(st.integers(), max_size=5)))
    return rows


JSON_VALUES = st.recursive(
    st.one_of(*SCALARS, row_lists()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


@JSON_DRAWS
@given(value=JSON_VALUES)
@example(value=[(0, 113, "0"), (5500, 130, "1")])  # latency_trace's rows
@example(value=[[True, 1], [False, 2]])  # a bool column is not an int column
@example(value=[[1, float("nan")], [2, float("inf")], [3, -0.0]])
@example(value=[[], []])  # rows of no columns
@example(value=[(7, "\u00e9\"\n")])  # one row, its str not ASCII
@example(value={"b": {}, "a": [], "c": ()})
def test_json_is_json_dumps_indent_2(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
