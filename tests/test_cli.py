"""Smoke tests of every ``bdris`` subcommand on a tiny scenario."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdris.channels import load_channels
from bdris.cli import main
from bdris.scenario import channels_for_trial, load_config

TINY_INI = """\
[network]
M = 8

[ofdm]
K = 8
delay_taps = 4

[solver]
max_iters = 20

[simulation]
trials = 2
"""


@pytest.fixture
def tiny_ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_results_and_summary(tiny_ini, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["run", "--config", str(tiny_ini), "--out", str(out),
                 "--power", "20,30", "--variants", "bd,none-pi0"]) == 0
    assert "results.csv" in capsys.readouterr().out
    rows = read_csv(out / "results.csv")
    assert len(rows) == 2 * 2 * 2  # trials x powers x variants
    assert all(1 <= int(r["iters"]) <= 20 for r in rows)
    assert all(np.isfinite(float(r["sum_rate_bps_hz"])) for r in rows)
    summary = read_csv(out / "summary.csv")
    assert len(summary) == 2 * 2
    assert all(int(s["n_trials"]) == 2 and int(s["n_failed"]) == 0 for s in summary)


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_run_rejects_trial_count_below_one(tiny_ini, tmp_path, capsys, trials):
    out = tmp_path / "sweep"
    assert main(["run", "--config", str(tiny_ini), "--out", str(out),
                 "--trials", trials]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "trials" in err and "Traceback" not in err
    assert not out.exists()


def test_single_writes_trace(tiny_ini, tmp_path, capsys):
    out = tmp_path / "single"
    assert main(["single", "--config", str(tiny_ini), "--out", str(out),
                 "--power", "30"]) == 0
    assert "variant=bd P=30 dBm trial=0" in capsys.readouterr().out
    trace = read_csv(out / "trace.csv")
    assert 2 <= len(trace) <= 21  # initial point plus at most max_iters
    rates = [float(r["sum_rate"]) for r in trace]
    assert rates == sorted(rates)


def test_single_rejects_unknown_variant(tiny_ini, tmp_path):
    assert main(["single", "--config", str(tiny_ini), "--out", str(tmp_path),
                 "--variants", "nope"]) == 2


@pytest.mark.parametrize("where", ["flag", "ini"])
def test_run_rejects_unknown_variant(tiny_ini, tmp_path, capsys, where):
    # one check and one exit code whether the name comes from the flag or the file
    args = ["--variants", "nope"]
    if where == "ini":
        tiny_ini.write_text(TINY_INI + "variants = nope\n")
        args = []
    out = tmp_path / "sweep"
    assert main(["run", "--config", str(tiny_ini), "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "'nope'" in err and "Traceback" not in err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("old, new, entry", [
    ("max_iters", "mx_iters", "[solver] mx_iters"),
    ("[network]", "[netwrk]", "[netwrk]"),
    ("max_iters = 20", "max_iters = 20\nswitch_hold_iters = 3", "[solver] switch_hold_iters"),
])
def test_single_rejects_unknown_config_entry(tiny_ini, tmp_path, capsys, old, new, entry):
    path = tmp_path / "typo.ini"
    path.write_text(TINY_INI.replace(old, new))
    out = tmp_path / "single"
    assert main(["single", "--config", str(path), "--out", str(out), "--power", "30"]) == 2
    err = capsys.readouterr().err
    assert entry in err and "Traceback" not in err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("section, key, value", [
    ("solver", "tau", "nan"), ("solver", "tau", "inf"), ("solver", "tol", "-1"),
    ("solver", "tol", "nan"), ("power", "noise_dbm", "inf"), ("power", "power_dbm", "20, nan"),
    ("geometry", "ris_positions", "0,0; 1,-inf; 2,2; 3,3"),
])
def test_run_rejects_non_finite_or_negative_ini_value(tiny_ini, tmp_path, capsys, section,
                                                      key, value):
    text = TINY_INI if f"[{section}]" in TINY_INI else TINY_INI + f"\n[{section}]\n"
    path = tmp_path / "bad.ini"
    path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    out = tmp_path / "sweep"
    assert main(["run", "--config", str(path), "--out", str(out), "--power", "30",
                 "--variants", "none"]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("old, new, named", [
    ("K = 8", "K = 0", "ofdm.K"),
    ("delay_taps = 4", "delay_taps = 0", "delay_taps"),
    ("delay_taps = 4", "delay_taps = 100", "delay_taps"),
    ("K = 8", "K = 8\nf_c = -1", "f_c"),
    ("M = 8", "M = 8\nL_q = 0,1,1,1", "L_q"),
    ("trials = 2", "trials = 2\nvariants = none, none", "variants"),
])
def test_run_rejects_invalid_scenario_before_any_work(tiny_ini, tmp_path, capsys, old,
                                                      new, named):
    path = tmp_path / "bad.ini"
    path.write_text(TINY_INI.replace(old, new))
    out = tmp_path / "sweep"
    assert main(["run", "--config", str(path), "--out", str(out), "--power", "30"]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, named", [
    ("run", ["--seed", "-1"], "seed"),
    ("single", ["--seed", "-1"], "seed"),
    ("single", ["--trial", "-1"], "--trial"),
    ("dump-channels", ["--trial", "-1"], "--trial"),
    ("run", ["--variants", "bd,bd"], "variants"),
    ("run", ["--power", "20,20.0"], "power_dbm"),
])
def test_flags_rejected_before_any_work(tiny_ini, tmp_path, capsys, command, flags, named):
    out = tmp_path / "out"
    assert main([command, "--config", str(tiny_ini), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and named in err and "Traceback" not in err
    assert not out.exists()


def test_validate_takes_no_config_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", "does-not-exist.ini"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("command, power", [
    ("run", "nan"), ("run", "20,inf"), ("single", "nan"), ("single", "inf"),
    ("single", "20,30"),
])
def test_power_flag_rejects_non_finite_values(tiny_ini, tmp_path, capsys, command, power):
    out = tmp_path / "out"
    assert main([command, "--config", str(tiny_ini), "--out", str(out),
                 "--power", power, "--variants", "none"]) == 2
    err = capsys.readouterr().err
    assert "config error: --power" in err and "Traceback" not in err
    assert not out.exists()


def test_validate_passes_every_check(capsys):
    assert main(["validate"]) == 0
    assert "11/11 checks passed" in capsys.readouterr().out


def test_module_entry_point_runs_validate():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "bdris", "validate"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "11/11 checks passed" in done.stdout


def test_dump_and_load_channels_round_trip(tiny_ini, tmp_path, capsys):
    out = tmp_path / "dump"
    out.mkdir()
    assert main(["dump-channels", "--config", str(tiny_ini), "--out", str(out)]) == 0
    path = out / "channels.csv"
    assert main(["load-channels", "--file", str(path)]) == 0
    assert "Q=4 U=4 K=8 N=4 M=8" in capsys.readouterr().out
    loaded = load_channels(path)
    drawn = channels_for_trial(load_config(tiny_ini), 0)
    for name in ("direct", "bs_ris", "ris_ue", "bs_of_user"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(drawn, name))


def test_load_channels_rejects_unknown_serving_bs(tiny_ini, tmp_path, capsys):
    path = tmp_path / "channels.csv"
    assert main(["dump-channels", "--config", str(tiny_ini), "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[3] == "users,0,1,2,3"
    lines[3] = "users,0,1,2,7"
    path.write_text("\n".join(lines) + "\n")
    assert main(["load-channels", "--file", str(path)]) == 1
    assert "[0, Q)" in capsys.readouterr().err


@pytest.mark.parametrize("origin", ["5", "1, 2, 3"])
def test_dump_channels_rejects_bad_ue_square_origin(tiny_ini, tmp_path, capsys, origin):
    path = tmp_path / "bad.ini"
    path.write_text(tiny_ini.read_text() + f"[geometry]\nue_square_origin = {origin}\n")
    assert main(["dump-channels", "--config", str(path),
                 "--out", str(tmp_path / "channels.csv")]) == 2
    err = capsys.readouterr().err
    assert "ue_square_origin" in err and "Traceback" not in err
    assert not (tmp_path / "channels.csv").exists()
