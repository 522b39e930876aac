import csv
import importlib.util
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from hornlab.cli import (EXIT_BOUNDS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                         load_config, main, run)
from hornlab.errors import ConfigError
from hornlab.geometry import make_horn_params
from hornlab.heat import _wkb_first_trial
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
    ("demo-counterexample", "freq.hi", "0.5",
     repr(tip_window_top(P_DEFAULT, 1.0))),
    ("demo-counterexample", "mode.r_min", "0.5",
     repr(tip_window_top(P_DEFAULT, 1.0))),
    ("demo-counterexample", "freq.lo", "0.001",
     repr(tip_window_top(P_DEFAULT, 1.0))),
    ("heat", "analyticity.r0", "3.0", "2.0]"),
    ("freq-parabolic", "heat.r_lo", "0.005", "0.00721"),
    ("freq-parabolic", "freq.R_lo", "1e-4", "0.00721"),
    ("demo-counterexample", "freq.R_lo", "1e-3", "0.00721"),
])
def test_window_and_count_keys_are_config_errors(tmp_path, command, key,
                                                 value, bound):
    # a window or count the pipeline cannot use is the config's fault: the
    # error names the key and its bound, and comes before any scan runs
    code = main([command, "--out", str(tmp_path), "--set", f"{key}={value}"])
    assert code == EXIT_CONFIG
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert key in man["error"] and bound in man["error"]
    for scan in ("heat.csv", "freq_elliptic.csv", "freq_parabolic.csv"):
        assert not (tmp_path / scan).exists()
    # the elliptic state and its windows are checked before the eigen search
    if key.startswith("mode.") or key in ("freq.lo", "freq.hi"):
        assert not (tmp_path / "eigs.csv").exists()


@pytest.mark.parametrize("command, assignment, key", [
    ("eigs", "eigs.cout=9", "eigs.cout"),
    ("freq-elliptic", "freq.lo0=0.1", "freq.lo0"),
    ("modes", "foo.bar=1", "foo.bar"),
    ("modes", "params.n.x=1", "params.n.x"),
])
def test_unknown_set_keys_are_config_errors(tmp_path, capsys, command,
                                            assignment, key):
    # a key that DEFAULT_CONFIG lacks is a typo, never a silent no-op
    with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
        load_config(None, [assignment])
    code = main([command, "--out", str(tmp_path), "--set", assignment])
    assert code == EXIT_CONFIG
    assert f"unknown config key {key}" in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ({"eigs": {"cout": 9}}, "eigs.cout"),
    ({"freq": {"lo": 0.05, "lo0": 0.1}}, "freq.lo0"),
    ({"foo": {"bar": 1}}, "foo"),
])
def test_unknown_file_keys_are_config_errors(tmp_path, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
        load_config(str(path))


def _load_workloads():
    """hornbench/workloads.py, loaded from its file."""
    source = Path(__file__).resolve().parents[1] / "hornbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", source)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_config_loads(tmp_path):
    # hornbench's demo workload writes its frozen BASE_CONFIG to a file and
    # loads it with load_config: a config rule must not refuse it
    workloads = _load_workloads()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(workloads.BASE_CONFIG))
    cfg = load_config(str(path))
    assert {k: cfg[k] for k in workloads.BASE_CONFIG} == workloads.BASE_CONFIG


@pytest.mark.parametrize("name", ["demo", "functionals"])
def test_benchmark_workload_checks_pass(tmp_path, name):
    # one iteration of a hornbench workload, checked by hornbench's own
    # checks against its recorded references: a change that breaks the
    # benchmark's calls or values fails here
    workloads = _load_workloads()
    wl = workloads.WORKLOADS[name](1, str(tmp_path), workloads.load_reference())
    assert wl.setup() == []
    for op, fn in wl.operations():
        assert getattr(wl, "check_" + op)(fn()) == [], op


def test_coefficients_beyond_eigen_count_are_config_error(tmp_path):
    # a coefficient without an eigenpair would be dropped: refused before
    # the eigen search, naming both keys
    code = main(["heat", "--out", str(tmp_path), "--set", "eigs.count=2"])
    assert code == EXIT_CONFIG
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error == "heat.coeffs has 4 entries, more than eigs.count=2"
    assert not (tmp_path / "eigs.csv").exists()


# the first shot of the default eigen search runs at tol / (k r_out), with
# k = sqrt(nu) at the WKB trial nu
FIRST_SHOT_TOL = 1e-14 / (math.sqrt(_wkb_first_trial(P_DEFAULT, 1, 2.0)) * 2.0)


@pytest.mark.parametrize("command, value, derived", [
    ("modes", "1e-15", 1e-15),
    ("freq-elliptic", "1e-15", 1e-15),
    ("eigs", "1e-16", 1e-16),
    # the tip anchors run at 1e-14, above the floor; the shots do not
    ("eigs", "1e-14", FIRST_SHOT_TOL),
    ("demo-counterexample", "1e-14", FIRST_SHOT_TOL),
])
def test_ode_tolerance_below_floor_is_config_error(tmp_path, command, value,
                                                   derived):
    # a tolerance the integrator cannot honour is the config's fault, also
    # when a stage derives it from tolerances.ode: the error names the key,
    # the derived tolerance and the floor
    code = main([command, "--out", str(tmp_path),
                 "--set", f"tolerances.ode={value}"])
    assert code == EXIT_CONFIG
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error.startswith(f"tolerances.ode={value} is too small: {command}")
    assert f"the ODE tolerance {derived:.3g}," in error
    assert f"floor {10 * np.finfo(float).eps:.3g}" in error


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
    ("modes", "output=5", "output=5 must be a path string or null"),
    ("modes", "output=true", "output=True must be a path string or null"),
    ("modes", "output=[1]", "output=[1] must be a path string or null"),
])
def test_non_numeric_values_are_config_errors(tmp_path, capsys, command,
                                              assignment, message):
    # a leaf whose default is a number (or a list of numbers) must be a
    # finite one, integral where the default is an int, and at least its
    # floor, and output a path string or null: the config error names the
    # key before any computation
    with pytest.raises(ConfigError) as err:
        load_config(None, [assignment])
    assert str(err.value) == message
    code = main([command, "--out", str(tmp_path), "--set", assignment])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_numerical_error_writes_manifest(tmp_path):
    # a slice tolerance just above the quadrature floor passes the floor
    # check, but no level of the quadrature reaches it: a numerical failure
    # inside the pipeline
    code = main(["freq-parabolic", "--out", str(tmp_path),
                 "--set", "tolerances.quad=2.3e-16"])
    assert code == EXIT_NUMERICAL
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["status"] == "error"
    assert man["stage"] == "freq-parabolic"
    assert "QuadratureError" in man["error"]


def test_parabolic_overflow_names_the_slice(tmp_path):
    # at R = 3 the fourth eigenmode's exp(2 nu R^2) leaves the double range:
    # a numerical failure naming the slice, not a crash
    code = main(["freq-parabolic", "--out", str(tmp_path),
                 "--set", "freq.R_hi=3"])
    assert code == EXIT_NUMERICAL
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error.startswith("ConsistencyError: D or I overflows the double "
                            "range on the slice R = 3.0:")


def test_quad_tolerance_below_floor_is_config_error(tmp_path):
    # no two levels of the quadrature can agree closer than machine epsilon:
    # a derived tolerance below it is refused before any level runs, naming
    # tolerances.quad, the derived tolerance and the floor
    code = main(["freq-elliptic", "--out", str(tmp_path),
                 "--set", "tolerances.quad=1e-300", "--set", "freq.points=8"])
    assert code == EXIT_CONFIG
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error == (
        "tolerances.quad=1e-300 is too small: freq-elliptic derived the "
        f"quadrature tolerance {1e-300 / 8:.3g}, below the quadrature floor "
        f"{np.finfo(float).eps:.3g}")


@pytest.mark.parametrize("command, settings", [
    ("freq-elliptic", ["freq.lo=0.02"]),
    ("freq-elliptic", ["freq.lo=0.0201"]),
    # at n=2, N=3 the tail below mode.r_min outweighs the energy up to the
    # default freq.lo; freq.lo=0.06 clears it
    ("freq-elliptic", ["params.n=2", "params.N=3"]),
    ("demo-counterexample", ["freq.lo=0.0201"]),
])
def test_uncontrolled_tip_tail_names_freq_lo(tmp_path, command, settings):
    # a scan row whose energy above mode.r_min does not dwarf the certified
    # tail below it is the window's fault: exit 2, naming freq.lo and the
    # mode.r_min it must clear
    args = [command, "--out", str(tmp_path)] + FAST_DEMO
    for assignment in settings:
        args += ["--set", assignment]
    assert main(args) == EXIT_CONFIG
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert "freq.lo=" in man["error"] and "mode.r_min=0.02" in man["error"]
    assert "uncontrolled tip tail" in man["error"]
    assert not (tmp_path / "freq_elliptic.csv").exists()


def test_parabolic_mode_index_must_match_eigs_index(tmp_path):
    # freq-parabolic runs the series built on eigs.i; a different mode.i
    # would be silently ignored
    args = ["freq-parabolic", "--out", str(tmp_path), "--set", "eigs.count=2",
            "--set", "heat.coeffs=[1,0.7]", "--set", "mode.mu=5"]
    assert main(args + ["--set", "mode.i=2"]) == EXIT_CONFIG
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert "mode.i=2" in man["error"] and "eigs.i=1" in man["error"]
    assert not (tmp_path / "eigs.csv").exists()
    assert main(args + ["--set", "mode.i=2", "--set", "eigs.i=2"]) == EXIT_OK


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
