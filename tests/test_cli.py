import csv
import json
import os

import numpy as np
import pytest

from hornlab.cli import (EXIT_BOUNDS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                         load_config, main, run)
from hornlab.errors import ConfigError
from hornlab.geometry import make_horn_params
from hornlab.modes import tip_window_top

P_DEFAULT = make_horn_params(3, 4.0, 0.5, 0.25)

FAST_DEMO = [
    "--set", "eigs.count=2",
    "--set", "heat.coeffs=[1.0,0.7]",
    "--set", "heat.points=24",
    "--set", "freq.points=48",
    "--set", "freq.R_points=10",
    "--set", "analyticity.kmax=12",
]


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None, ["params.eps=0.4", "freq.points=32",
                             "eigs.count=3.0"])
    assert cfg["params"]["eps"] == 0.4
    assert cfg["freq"]["points"] == 32
    # an integral value of an integer leaf is stored as an int
    assert cfg["eigs"]["count"] == 3 and isinstance(cfg["eigs"]["count"], int)
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"mode": {"mu": 2.0}}))
    cfg = load_config(str(doc))
    assert cfg["mode"]["mu"] == 2.0
    assert cfg["params"]["n"] == 3  # defaults preserved


def test_load_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None, ["tolerances.quad=-1"])
    with pytest.raises(ConfigError):
        load_config(None, ["freq.spacing=cubic"])
    with pytest.raises(ConfigError):
        load_config(None, ["params.eta=2.0"])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_modes_command(tmp_path):
    code = main(["modes", "--out", str(tmp_path)])
    assert code == EXIT_OK
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["status"] == "ok"
    assert man["result"]["decay_fit"]["slope"] < 0
    rows = list(csv.DictReader(open(tmp_path / "modes.csv")))
    assert len(rows) == 64
    # log magnitude decreases toward r_min
    lm = [float(r["log_mag"]) for r in rows]
    assert lm[0] < lm[-1]


def test_csv_bit_identical_across_runs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["modes", "--out", str(d)]) == EXIT_OK
        assert main(["freq-elliptic", "--out", str(d)]) == EXIT_OK
    for name in ("modes.csv", "freq_elliptic.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_repeat_run_identical(tmp_path):
    d1, d2 = tmp_path / "first", tmp_path / "second"
    args = ["--set", "freq.R_points=8", "--set", "eigs.count=2",
            "--set", "heat.coeffs=[1.0,0.7]"]
    assert main(["freq-parabolic", "--out", str(d1)] + args) == EXIT_OK
    assert main(["freq-parabolic", "--out", str(d2)] + args) == EXIT_OK
    assert (d1 / "freq_parabolic.csv").read_bytes() == \
        (d2 / "freq_parabolic.csv").read_bytes()


def test_constant_state_scan(tmp_path):
    code = main(["freq-elliptic", "--out", str(tmp_path),
                 "--set", "mode.i=0", "--set", "mode.mu=0.0"])
    assert code == EXIT_OK
    rows = list(csv.DictReader(open(tmp_path / "freq_elliptic.csv")))
    assert all(float(r["U"]) == 0.0 for r in rows)
    assert all(float(r["E"]) == 0.0 for r in rows)


def test_config_error_exit_code(tmp_path):
    code = main(["modes", "--out", str(tmp_path),
                 "--set", "tolerances.ode=-1"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["modes", "freq-elliptic"])
def test_radial_mode_without_profile_is_config_error(tmp_path, command):
    # i = 0 with mu > 0 has no decaying tip profile: the fault is the config
    code = main([command, "--out", str(tmp_path),
                 "--set", "mode.i=0", "--set", "mode.mu=1.0"])
    assert code == EXIT_CONFIG
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert "mode.i" in man["error"] and "mode.mu" in man["error"]


@pytest.mark.parametrize("command, key, value, bound", [
    ("modes", "mode.r_min", "0.5", repr(tip_window_top(P_DEFAULT, 1.0))),
    ("eigs", "eigs.r_out", "0.1", repr(tip_window_top(P_DEFAULT, 0.0))),
    ("modes", "mode.n_grid", "8", "16"),
    ("eigs", "eigs.count", "0", "1"),
    ("eigs", "eigs.i", "0", "1"),
    ("modes", "mode.mu", "-1", "0"),
    ("heat", "heat.r_lo", "0.005", "0.00721"),
    ("analyticity", "analyticity.r0", "3.0", "2.0]"),
    ("analyticity", "analyticity.r0", "0.005", "0.00721"),
    ("analyticity", "analyticity.r0", "NaN", "2.0]"),
    ("analyticity", "analyticity.r0", "Infinity", "2.0]"),
    ("demo-counterexample", "analyticity.r0", "NaN", "2.0]"),
    ("freq-elliptic", "freq.hi", "0.2", repr(tip_window_top(P_DEFAULT, 1.0))),
])
def test_window_and_count_keys_are_config_errors(tmp_path, command, key,
                                                 value, bound):
    # a window or count the pipeline cannot use is the config's fault: the
    # error names the key and its bound
    code = main([command, "--out", str(tmp_path), "--set", f"{key}={value}"])
    assert code == EXIT_CONFIG
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert key in man["error"] and bound in man["error"]


@pytest.mark.parametrize("command, assignment, message", [
    ("analyticity", "analyticity.r0=abc", "analyticity.r0='abc' must be a number"),
    ("freq-elliptic", "freq.lo=abc", "freq.lo='abc' must be a number"),
    ("modes", "mode.r_min=abc", "mode.r_min='abc' must be a number"),
    ("eigs", "eigs.count=true", "eigs.count=True must be a number"),
    ("heat", 'heat.t_list=[0.5, "x"]',
     "heat.t_list=[0.5, 'x'] must be a list of numbers"),
    ("heat", "heat.coeffs=1.0", "heat.coeffs=1.0 must be a list of numbers"),
    ("freq-elliptic", "freq.points=NaN", "freq.points=nan must be finite"),
    ("modes", "mode.n_grid=Infinity", "mode.n_grid=inf must be finite"),
    ("analyticity", "analyticity.kmax=NaN",
     "analyticity.kmax=nan must be finite"),
    ("modes", "mode.mu=Infinity", "mode.mu=inf must be finite"),
    ("eigs", "eigs.r_out=Infinity", "eigs.r_out=inf must be finite"),
    ("heat", "heat.coeffs=[NaN,1]", "heat.coeffs=[nan, 1] must be finite"),
    ("modes", "mode.i=1.5", "mode.i=1.5 must be an integer"),
    ("eigs", "eigs.count=2.7", "eigs.count=2.7 must be an integer"),
    ("freq-elliptic", "freq.points=10.9", "freq.points=10.9 must be an integer"),
    ("modes", "mode.n_grid=16.9", "mode.n_grid=16.9 must be an integer"),
    ("eigs", "eigs.i=1.9", "eigs.i=1.9 must be an integer"),
    ("modes", "params.n=3.5", "params.n=3.5 must be an integer"),
    ("freq-elliptic", "freq.points=5", "freq.points=5 must be >= 8"),
    ("freq-parabolic", "freq.R_points=3", "freq.R_points=3 must be >= 8"),
    ("heat", "heat.points=7", "heat.points=7 must be >= 8"),
    ("analyticity", "analyticity.kmax=4", "analyticity.kmax=4 must be >= 8"),
    ("analyticity", "analyticity.t0=0", "analyticity.t0=0 must be > 0"),
    ("freq-parabolic", "freq.R_lo=0", "freq.R_lo=0 must be > 0"),
])
def test_non_numeric_values_are_config_errors(tmp_path, capsys, command,
                                              assignment, message):
    # a leaf whose default is a number (or a list of numbers) must be a
    # finite one, integral where the default is an int, and at least its
    # floor: the config error names the key before any computation
    with pytest.raises(ConfigError) as err:
        load_config(None, [assignment])
    assert str(err.value) == message
    code = main([command, "--out", str(tmp_path), "--set", assignment])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_numerical_error_writes_manifest(tmp_path):
    # at n=2, N=3 the tip tail below the default profile window is not
    # negligible: a numerical failure inside the pipeline
    code = main(["freq-elliptic", "--out", str(tmp_path),
                 "--set", "params.n=2", "--set", "params.N=3"])
    assert code == EXIT_NUMERICAL
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["status"] == "error"
    assert man["stage"] == "freq-elliptic"
    assert "error" in man


def test_eigs_command(tmp_path):
    code = main(["eigs", "--out", str(tmp_path), "--set", "eigs.count=2"])
    assert code == EXIT_OK
    rows = list(csv.DictReader(open(tmp_path / "eigs.csv")))
    assert [int(r["j"]) for r in rows] == [1, 2]
    assert float(rows[0]["nu"]) < float(rows[1]["nu"])
    assert [int(r["zeros"]) for r in rows] == [0, 1]


def test_demo_counterexample(tmp_path):
    code = main(["demo-counterexample", "--out", str(tmp_path)] + FAST_DEMO)
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["all_bounds_hold"] is True
    assert summary["decay_slope"] < 0
    for name in ("eigs.csv", "heat.csv", "freq_elliptic.csv",
                 "freq_parabolic.csv", "analyticity.json", "manifest.json"):
        assert (tmp_path / name).exists()
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["status"] == "ok"
    assert man["versions"]["hornlab"]


def test_demo_bound_failure_exit_code(tmp_path):
    # a deliberately coarse identity grid misses the demo threshold: the
    # run completes, reports the failed check, and exits with code 4
    code = main(["demo-counterexample", "--out", str(tmp_path)] + FAST_DEMO
                + ["--set", "freq.points=8"])
    assert code == EXIT_BOUNDS
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["all_bounds_hold"] is False
    assert summary["checks"]["logI_identity"] is False
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["status"] == "bound-check-failure"


def test_heat_command_reports_decay(tmp_path):
    code = main(["heat", "--out", str(tmp_path), "--set", "eigs.count=2",
                 "--set", "heat.coeffs=[1.0,0.7]",
                 "--set", "heat.t_list=[0.5]", "--set", "heat.points=16"])
    assert code == EXIT_OK
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["result"]["decay_by_t"]["0.5"]["slope"] < 0
    rows = list(csv.DictReader(open(tmp_path / "heat.csv")))
    assert set(rows[0]) == {"r", "t", "sign", "log_mag"}


def test_analyticity_command(tmp_path):
    code = main(["analyticity", "--out", str(tmp_path),
                 "--set", "eigs.count=2", "--set", "heat.coeffs=[1.0,0.7]",
                 "--set", "analyticity.kmax=12"])
    assert code == EXIT_OK
    rep = json.loads((tmp_path / "analyticity.json").read_text())
    assert rep["fitted_radius"] > 0
    assert len(rep["coefficients"]) == 13
