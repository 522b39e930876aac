import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hornlab
from hornlab.cli import (COMMANDS, DEFAULT_CONFIG, EXIT_BOUNDS, EXIT_CONFIG,
                         EXIT_NUMERICAL, EXIT_OK, load_config, main, run)
from hornlab.errors import ConfigError
from hornlab.geometry import make_horn_params
from hornlab.heat import CaloricSeries, _wkb_trials
from hornlab.modes import Eigenfunctions, tip_window_top

P_DEFAULT = make_horn_params(3, 4.0, 0.5, 0.25)

FAST_DEMO = [
    "--set", "eigs.count=2",
    "--set", "heat.coeffs=[1.0,0.7]",
    "--set", "heat.points=24",
    "--set", "freq.points=48",
    "--set", "freq.R_points=10",
    "--set", "analyticity.kmax=12",
]


def test_cli_import_loads_no_scipy_integrate_or_interpolate(tmp_path):
    # a CLI process imports only what it runs: the one linear propagator is
    # numpy, so neither scipy.integrate nor scipy.interpolate is loaded, the
    # WKB trial inverts a phase table, so scipy.optimize is not either, and
    # Gamma comes from math, so scipy.special waits for a Bessel function;
    # the same process then runs the default demo, which exits 0 and loads
    # none of the four either
    src = os.path.dirname(os.path.dirname(hornlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hornlab.cli\n"
         "def loaded():\n"
         "    return sorted(m for m in sys.modules if m.startswith(("
         "'scipy.integrate', 'scipy.interpolate', 'scipy.optimize', "
         "'scipy.special')))\n"
         "print(loaded())\n"
         "code = hornlab.cli.main(['demo-counterexample', '--out', "
         "sys.argv[1]])\n"
         "print(code, loaded())", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True).stdout
    first, *_, last = out.splitlines()
    assert (first, last) == ("[]", "0 []")


def test_library_import_leaves_the_artifact_writers_unloaded():
    # the CLI is the one writer of files: importing the library loads none
    # of the writers
    src = os.path.dirname(os.path.dirname(hornlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hornlab\n"
         "print('hornlab.artifacts' in sys.modules, "
         "'hornlab.cli' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False False\n"


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """{command: (output directory, manifest)} of every command at the
    default config, each in a directory of its own."""
    runs = {}
    for command in COMMANDS:
        out = tmp_path_factory.mktemp(command)
        assert main([command, "--out", str(out)]) == EXIT_OK, command
        runs[command] = out, json.loads((out / "manifest.json").read_text())
    return runs


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_directory_holds_exactly_the_listed_artifacts(default_runs,
                                                             command):
    # every file a command writes is listed in its manifest, once, and the
    # manifest is the one file more
    out, manifest = default_runs[command]
    listed = manifest["artifacts"]
    assert all(os.path.dirname(path) == str(out) for path in listed)
    names = [os.path.basename(path) for path in listed]
    assert len(set(names)) == len(names)
    assert sorted(os.listdir(out)) == sorted(names + ["manifest.json"])


def test_csv_cells_keep_their_frozen_form(tmp_path):
    # an int as it is; a float, numpy's too, to 12 significant digits in
    # scientific notation; nan, inf and -inf (the log of an exact zero in
    # heat.csv) as those words
    from hornlab.artifacts import write_csv
    path = tmp_path / "cells.csv"
    write_csv(path, ["a", "b"], [(3, 0.1), (-0.0, np.float64(2.5)),
                                 (math.nan, math.inf), (-math.inf, 1e-300)])
    assert path.read_text() == (
        "a,b\n3,1.00000000000e-01\n-0.00000000000e+00,2.50000000000e+00\n"
        "nan,inf\n-inf,1.00000000000e-300\n")


def _csv_lines(path):
    return path.read_text().strip().split("\n")


def test_modes_csv_roundtrip(default_runs):
    out, _ = default_runs["modes"]
    lines = _csv_lines(out / "modes.csv")
    assert lines[0] == "r,s,sign,log_mag,log_deriv"
    assert len(lines) == 1 + DEFAULT_CONFIG["mode"]["n_grid"]
    # r ascending from mode.r_min, 12 significant digits, scientific notation
    r = [float(line.split(",")[0]) for line in lines[1:]]
    assert r == sorted(r)
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(DEFAULT_CONFIG["mode"]["r_min"],
                                            rel=1e-11)
    assert "e" in first[0]
    mantissa = first[0].split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 12


def test_freq_elliptic_csv_export(default_runs):
    out, _ = default_runs["freq-elliptic"]
    lines = _csv_lines(out / "freq_elliptic.csv")
    assert lines[0] == "r,I,E,U"
    assert len(lines) == 1 + DEFAULT_CONFIG["freq"]["points"]


def test_freq_parabolic_csv(default_runs):
    out, _ = default_runs["freq-parabolic"]
    lines = _csv_lines(out / "freq_parabolic.csv")
    assert lines[0] == "R,I,D,N"
    assert len(lines) == 1 + DEFAULT_CONFIG["freq"]["R_points"]


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
    with open(tmp_path / "modes.csv") as fh:
        rows = list(csv.DictReader(fh))
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
    with open(tmp_path / "freq_elliptic.csv") as fh:
        rows = list(csv.DictReader(fh))
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


@pytest.mark.parametrize("name", ["demo", "functionals",
                                  "spectrum"])
def test_benchmark_workload_checks_pass(tmp_path, name):
    # one iteration of a hornbench workload, checked by hornbench's own
    # checks against its recorded references: a change that breaks the
    # benchmark's calls or values fails here
    workloads = _load_workloads()
    wl = workloads.WORKLOADS[name](1, str(tmp_path), workloads.load_reference())
    assert wl.setup() == []
    for op, fn in wl.operations():
        assert getattr(wl, "check_" + op)(fn()) == [], op


def test_scans_close_their_rows_at_the_recorded_levels(tmp_path,
                                                       monkeypatch):
    # the integrand calls and nodes of every quad_log call of the default
    # elliptic and parabolic scans (the second parabolic call is the I =
    # (R/4) D' check): a row acceptance rule that closes a row one level
    # early or late moves them
    from hornlab import elliptic, numerics, parabolic
    calls = []

    def counted(fn_log, a, b, tol):
        count = [0, 0]
        calls.append(count)

        def fn(x, rows):
            count[0] += 1
            count[1] += x.size
            return fn_log(x, rows)

        return numerics.quad_log(fn, a, b, tol)

    for module in (elliptic, parabolic):
        monkeypatch.setattr(module, "quad_log", counted)
    for command, want in (("freq-elliptic", [[2, 3072]]),
                          ("freq-parabolic", [[2, 9216], [2, 2304]])):
        calls.clear()
        assert main([command, "--out", str(tmp_path)]) == EXIT_OK
        assert calls == want, command


def test_coefficients_beyond_eigen_count_are_config_error(tmp_path):
    # a coefficient without an eigenpair would be dropped: refused before
    # the eigen search, naming both keys
    code = main(["heat", "--out", str(tmp_path), "--set", "eigs.count=2"])
    assert code == EXIT_CONFIG
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error == "heat.coeffs has 4 entries, more than eigs.count=2"
    assert not (tmp_path / "eigs.csv").exists()


@pytest.mark.parametrize("command, coeffs", [
    ("heat", "[]"), ("freq-parabolic", "[0]"),
    ("demo-counterexample", "[0,0,0,0]")])
def test_zero_coefficients_are_config_error(tmp_path, command, coeffs):
    # a series with no nonzero coefficient vanishes everywhere: refused
    # before the eigen search, naming heat.coeffs
    code = main([command, "--out", str(tmp_path),
                 "--set", f"heat.coeffs={coeffs}"])
    assert code == EXIT_CONFIG
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error == (f"heat.coeffs={json.loads(coeffs)!r} has no nonzero "
                     "entry: the caloric series would vanish")
    assert not (tmp_path / "eigs.csv").exists()


def test_tip_branch_failure_names_its_mu(tmp_path):
    # the mode's tip branch at eps = 3 spans too many e-folds: a numerical
    # failure naming the decaying tip branch, mode.mu and the radius, the
    # tip window's top, then the first mesh past the kernel's cap
    code = main(["demo-counterexample", "--out", str(tmp_path),
                 "--set", "params.eps=3", "--set", "params.n=2",
                 "--set", "params.N=3"])
    assert code == EXIT_NUMERICAL
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    top = tip_window_top(make_horn_params(2, 3.0, 3.0, 0.25), 1.0)
    assert error.startswith("IntegrationError: the decaying tip branch at "
                            f"mu = 1.0 fails at r = {top}: the Magnus "
                            "propagation of row 0 needs a first mesh of "
                            "131072 intervals")
    assert "nu = 0.0" not in error


# the first round of the default eigen search shoots the WKB trials of its
# 4 indices together, each holding its angle to tol over a scale
# k (r_out - r_sw), with k = sqrt(nu) and the shot's anchor r_sw at the
# trial nu: the floor error names the row of the largest scale, index 4's,
# and carries tol / (k (r_out - r_sw)) of that row
_NU_WKB = _wkb_trials(P_DEFAULT, 1, 2.0, 4)[-1]
FIRST_SHOT_TOL = 1e-14 / (math.sqrt(_NU_WKB)
                          * (2.0 - tip_window_top(P_DEFAULT, _NU_WKB)))


@pytest.mark.parametrize("command, value, derived", [
    ("modes", "1e-15", 1e-15),
    ("freq-elliptic", "1e-15", 1e-15),
    ("eigs", "1e-16", 1e-16),
    # the tip anchors run at 1e-14, above the floor; the shots do not
    pytest.param("eigs", "1e-14", FIRST_SHOT_TOL,
                 id="eigs-1e-14-shot"),
    pytest.param("demo-counterexample", "1e-14", FIRST_SHOT_TOL,
                 id="demo-counterexample-1e-14-shot"),
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


@pytest.mark.parametrize("command", ["eigs", "heat"])
def test_search_past_the_capped_shot_floor_names_eigs_keys(tmp_path,
                                                           command):
    # the shots' tolerance is capped at 1e-12, so a search that reaches too
    # high a nu fails the angle's floor whatever tolerances.ode is: the
    # error names eigs.count, eigs.r_out and the failing nu, not the
    # tolerance (count 120 runs at r_out 2)
    code = main([command, "--out", str(tmp_path),
                 "--set", "eigs.count=150", "--set", "tolerances.ode=1e-6"])
    assert code == EXIT_CONFIG
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error.startswith("eigs.count=150 with eigs.r_out=2.0 needs a shot")
    assert "for nu = " in error and "tolerances.ode" not in error


def test_ode_tolerance_above_the_shot_floor_runs(tmp_path):
    # at 1e-13 every shot of the default eigen search clears its floor
    assert main(["eigs", "--out", str(tmp_path),
                 "--set", "tolerances.ode=1e-13"]) == EXIT_OK


@pytest.mark.parametrize("command, assignment, message", [
    ("analyticity", "analyticity.r0=abc", "analyticity.r0='abc' must be a number"),
    ("freq-elliptic", "freq.lo=abc", "freq.lo='abc' must be a number"),
    ("modes", "mode.r_min=abc", "mode.r_min='abc' must be a number"),
    ("eigs", "eigs.count=true", "eigs.count=True must be a number"),
    ("heat", 'heat.t_list=[0.5, "x"]',
     "heat.t_list=[0.5, 'x'] must be a list of numbers"),
    ("heat", "heat.coeffs=1.0", "heat.coeffs=1.0 must be a list of numbers"),
    ("heat", "heat.t_list=[0.5, 0.5, 1.0]",
     "heat.t_list=[0.5, 0.5, 1.0] repeats the time 0.5"),
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
    # floor, heat.t_list must repeat no time (the heat report keys its
    # decay fits by time), and output a path string or null: the config
    # error names the key before any computation
    with pytest.raises(ConfigError) as err:
        load_config(None, [assignment])
    assert str(err.value) == message
    code = main([command, "--out", str(tmp_path), "--set", assignment])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_numerical_error_writes_manifest(tmp_path, monkeypatch):
    # quad_log raises QuadratureError on an integrand that is NaN at a node:
    # eigenfunctions whose log|g| is NaN above r = 1 make the first norm of
    # the pipeline's series fail numerically
    call = Eigenfunctions.__call__

    def broken(self, r, rows=0):
        sign, log_mag, dlog = call(self, r, rows)
        return sign, np.where(np.asarray(r) > 1.0, np.nan, log_mag), dlog

    monkeypatch.setattr(Eigenfunctions, "__call__", broken)
    code = main(["freq-parabolic", "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["status"] == "error"
    assert man["stage"] == "freq-parabolic"
    assert "QuadratureError" in man["error"]
    assert "integrand is not finite" in man["error"]


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
    # a tolerance below it is refused before any level runs, naming
    # tolerances.quad, the tolerance the scan passes on (tolerances.quad
    # itself, whatever freq.points) and the floor
    code = main(["freq-elliptic", "--out", str(tmp_path),
                 "--set", "tolerances.quad=1e-300", "--set", "freq.points=8"])
    assert code == EXIT_CONFIG
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error == (
        "tolerances.quad=1e-300 is too small: freq-elliptic derived the "
        f"quadrature tolerance {1e-300:.3g}, below the quadrature floor "
        f"{np.finfo(float).eps:.3g}")


def test_scan_from_mode_r_min_runs(tmp_path):
    # the energy below mode.r_min is the exact flux w f f' there, so a scan
    # may start at mode.r_min itself, and at n=2, N=3 the demo scans from
    # the default freq.lo with every check holding
    assert main(["freq-elliptic", "--out", str(tmp_path / "e"),
                 "--set", "freq.lo=0.02"]) == EXIT_OK
    assert main(["demo-counterexample", "--out", str(tmp_path / "d"),
                 "--set", "params.n=2", "--set", "params.N=3"]) == EXIT_OK
    checks = json.loads((tmp_path / "d" / "summary.json").read_text())["checks"]
    assert len(checks) == 8 and all(checks.values())


def test_underflowing_elliptic_row_is_not_a_node(tmp_path):
    # at r = 2e-4 the profile has sign 1 but I = exp(-770.8) lies below the
    # double range: exit 3 naming the radius and log I, not a nodal sphere
    code = main(["freq-elliptic", "--out", str(tmp_path),
                 "--set", "mode.r_min=1e-4", "--set", "freq.lo=2e-4"])
    assert code == EXIT_NUMERICAL
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error.startswith("ConsistencyError: I underflows the double range "
                            "at r = 0.0002: log I = -770.")
    assert not (tmp_path / "freq_elliptic.csv").exists()


def test_slice_whose_square_underflows_names_R(tmp_path):
    # t = -R^2 rounds to -0.0 at R = 1e-300: the error names that R in one
    # line, not the array of slice times
    code = main(["freq-parabolic", "--out", str(tmp_path), "--set", "mode.i=0",
                 "--set", "mode.mu=0", "--set", "freq.R_lo=1e-300"])
    assert code == EXIT_NUMERICAL
    error = json.loads((tmp_path / "manifest.json").read_text())["error"]
    assert error == ("DomainValidationError: backward slices need R > 0, got "
                     "R = 1e-300, too small for t = -R^2 < 0 in double "
                     "precision")


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
    with open(tmp_path / "eigs.csv") as fh:
        rows = list(csv.DictReader(fh))
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
    with open(tmp_path / "heat.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"r", "t", "sign", "log_mag"}


def test_heat_evaluates_the_series_once_for_all_times(tmp_path, monkeypatch):
    # the heat.csv rows and the decay fits of every time share one
    # slice_log call, on the grid's radii against a column of the times
    times = []
    slice_log = CaloricSeries.slice_log

    def counted(self, r, t, k=0):
        times.append(t)
        return slice_log(self, r, t, k)

    monkeypatch.setattr(CaloricSeries, "slice_log", counted)
    t_list = [0.25, 0.5, 1.0]
    code = main(["heat", "--out", str(tmp_path), "--set", "eigs.count=2",
                 "--set", "heat.coeffs=[1.0,0.7]",
                 "--set", f"heat.t_list={t_list}", "--set", "heat.points=16"])
    assert code == EXIT_OK
    assert len(times) == 1
    assert np.array_equal(times[0], np.array(t_list)[:, None])


def test_analyticity_command(tmp_path):
    code = main(["analyticity", "--out", str(tmp_path),
                 "--set", "eigs.count=2", "--set", "heat.coeffs=[1.0,0.7]",
                 "--set", "analyticity.kmax=12"])
    assert code == EXIT_OK
    rep = json.loads((tmp_path / "analyticity.json").read_text())
    assert rep["fitted_radius"] > 0
    assert len(rep["coefficients"]) == 13
