import json
import subprocess
import sys

import pytest

from dirtysim.cli import main


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
