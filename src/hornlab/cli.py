"""Batch front-end: config in, CSV/JSON artifacts out.

    hornlab <command> --config cfg.json [--out DIR] [--set key.path=value ...]

Commands: modes, eigs, freq-elliptic, freq-parabolic, heat, analyticity,
demo-counterexample.  The configuration is a single JSON document; --set
overrides individual leaves (values parsed as JSON, falling back to
strings).  Outputs are deterministic: repeated runs with the same
configuration produce bit-identical files.  Every stage hands each of its
artifacts to one emitter, the package's one writer of files.

A run manifest (config echo, versions, wall time, status and the failure
stage if any) is always written, even when the run fails.  Exit codes:
0 ok, 2 config error, 3 numerical failure, 4 bound-check failure.
"""

import argparse
import copy
import json
import math
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from .artifacts import write_csv, write_json
from .elliptic import (check_I_lower, check_logI_identity, check_U_growth,
                       constant_state, elliptic_scan, profile_state)
from .errors import (ConfigError, DomainValidationError, HornError,
                     TipTailError, ToleranceFloorError)
from .geometry import HornParams
from .heat import (caloric_decay_check, dirichlet_eigenvalues,
                   make_caloric_series, taylor_coefficients, taylor_radius,
                   weyl_check)
from .logspace import NEG_INF
from .modes import decay_exponent_fit, profile_from_k2, tip_window_top
from .numerics import check_in_range
from .parabolic import (UnitCaloric, check_D_lower, check_ID_relation,
                        check_N_bound, parabolic_scan)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BOUNDS = 4

DEFAULT_CONFIG = {
    "params": {"n": 3, "N": 4.0, "eps": 0.5, "eta": 0.25},
    "tolerances": {"ode": 1e-10, "quad": 1e-8, "root": 1e-10},
    "mode": {"i": 1, "mu": 1.0, "r_min": 0.02, "n_grid": 64},
    "eigs": {"i": 1, "r_out": 2.0, "count": 4},
    "freq": {"lo": 0.04, "hi": 0.13, "points": 64, "spacing": "log",
             "R_lo": 0.02, "R_hi": 0.2, "R_points": 12},
    "heat": {"coeffs": [1.0, 0.7, 0.5, 0.35], "t_list": [0.25, 0.5, 1.0],
             "r_lo": 0.02, "r_hi": 0.12, "points": 40},
    "analyticity": {"r0": 0.8, "t0": 0.5, "kmax": 16},
    "output": None,
}

# thresholds applied by demo-counterexample when deciding exit code 4
DEMO_THRESHOLDS = {
    "decay_slope_max": 0.0,
    "logI_defect_max": 1e-3,
    "ID_defect_max": 1e-4,
    "U_growth_defect_max": 1e-8,
    "N_growth_defect_max": 1e-8,
    "lower_fit_slope_min": -1e-9,
}


def _deep_update(base, other):
    for k, v in other.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v
    return base


def _apply_set(cfg, assignment):
    if "=" not in assignment:
        raise ConfigError(f"--set expects key.path=value, got '{assignment}'")
    path, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    *blocks, leaf = path.split(".")
    node = cfg
    for key in blocks:
        if not isinstance(node.get(key), dict):
            raise ConfigError(f"unknown config key {path}")
        node = node[key]
    node[leaf] = value


def load_config(path=None, overrides=()):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        _deep_update(cfg, user)
    for assignment in overrides:
        _apply_set(cfg, assignment)
    _validate_config(cfg)
    return cfg


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# Windows that _check_window holds to a computed range when their pipeline
# runs; a NaN or an infinity fails there, with the range in the message.
_WINDOWS = {"freq.lo", "freq.hi", "heat.r_lo", "heat.r_hi", "analyticity.r0"}


def _check_numbers(cfg, default, prefix=""):
    """ConfigError naming the first leaf whose DEFAULT_CONFIG value is a
    number (every default list is a list of numbers) and whose configured
    value is not a finite one (windows aside): a bool or a string is no
    number.  A leaf whose default is an int must be integral, and is
    stored as an int.  (abs(x) < inf, unlike math.isfinite, also takes an
    int past float range.)  A key that DEFAULT_CONFIG lacks is refused."""
    unknown = [key for key in cfg if key not in default]
    if unknown:
        raise ConfigError(f"unknown config key {prefix + unknown[0]}")
    for key, dflt in default.items():
        name, value = prefix + key, cfg.get(key)
        if isinstance(dflt, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be an object, got {value!r}")
            _check_numbers(value, dflt, name + ".")
        elif _is_number(dflt):
            if not _is_number(value):
                raise ConfigError(f"{name}={value!r} must be a number")
            if not (abs(value) < math.inf or name in _WINDOWS):
                raise ConfigError(f"{name}={value!r} must be finite")
            if isinstance(dflt, int):
                if value != int(value):
                    raise ConfigError(f"{name}={value!r} must be an integer")
                cfg[key] = int(value)
        elif isinstance(dflt, list):
            if not (isinstance(value, list) and all(map(_is_number, value))):
                raise ConfigError(f"{name}={value!r} must be a list of numbers")
            if not all(abs(v) < math.inf for v in value):
                raise ConfigError(f"{name}={value!r} must be finite")


def _validate_config(cfg):
    _check_numbers(cfg, DEFAULT_CONFIG)
    tol = cfg["tolerances"]
    for key in ("ode", "quad", "root"):
        if not tol[key] > 0:
            raise ConfigError(f"tolerances.{key} must be positive")
    fr = cfg["freq"]
    for lo_k, hi_k in (("lo", "hi"), ("R_lo", "R_hi")):
        if not fr[lo_k] < fr[hi_k]:
            raise ConfigError(f"freq.{lo_k} must be below freq.{hi_k}")
    for block, key in (("freq", "lo"), ("freq", "R_lo"), ("analyticity", "t0")):
        if not cfg[block][key] > 0:
            raise ConfigError(f"{block}.{key}={cfg[block][key]} must be > 0")
    # the scans' lower-bound fits, the caloric decay fit and the Taylor
    # radius window each need at least 8 rows or terms
    for block, key in (("freq", "points"), ("freq", "R_points"),
                       ("heat", "points"), ("analyticity", "kmax")):
        if not cfg[block][key] >= 8:
            raise ConfigError(f"{block}.{key}={cfg[block][key]} must be >= 8")
    if fr["spacing"] not in ("log", "linear"):
        raise ConfigError("freq.spacing must be 'log' or 'linear'")
    heat = cfg["heat"]
    if not heat["t_list"]:
        raise ConfigError("heat.t_list must be a non-empty list")
    if any(not t > 0 for t in heat["t_list"]):
        raise ConfigError("heat.t_list entries must be positive")
    if not heat["r_lo"] < heat["r_hi"]:
        raise ConfigError("heat.r_lo must be below heat.r_hi")
    if not (cfg["output"] is None or isinstance(cfg["output"], str)):
        raise ConfigError(f"output={cfg['output']!r} must be a path string "
                          "or null")
    try:
        params_from_config(cfg)
    except HornError as exc:
        raise ConfigError(f"invalid params block: {exc}") from exc


def params_from_config(cfg):
    return HornParams.from_json(cfg["params"])


def _check_window(cfg, block, keys, lo, hi, what):
    """ConfigError naming the first of cfg[block][keys] outside [lo, hi] (or
    NaN) by the evaluators' rule, check_in_range, and saying `what` it is."""
    for key in keys:
        try:
            check_in_range(cfg[block][key], lo, hi, f"{block}.{key}")
        except DomainValidationError as exc:
            raise ConfigError(f"{exc}, {what}") from exc


def _grid(lo, hi, points, spacing):
    if spacing == "log":
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def _mode_profile(cfg, p):
    m = cfg["mode"]
    if not m["mu"] >= 0:
        raise ConfigError(f"mode.mu={m['mu']} must be >= 0")
    if m["i"] < 1:
        raise ConfigError(
            f"mode.i={m['i']} with mode.mu={m['mu']} has no decaying tip "
            "profile: modes needs mode.i >= 1, and freq-elliptic takes "
            "mode.i >= 1 or the constant state mode.i=0, mode.mu=0")
    top = tip_window_top(p, m["mu"])
    if not 0 < m["r_min"] < top:
        raise ConfigError(f"mode.r_min={m['r_min']} must lie in (0, {top}), "
                          f"below the tip window top at mode.mu={m['mu']}")
    if m["n_grid"] < 16:
        raise ConfigError(f"mode.n_grid={m['n_grid']} must be >= 16")
    return profile_from_k2(p, m["i"], m["mu"], m["r_min"], n_grid=m["n_grid"],
                           tol=min(cfg["tolerances"]["ode"], 1e-11))


def _elliptic_state(cfg, p):
    """The elliptic state mode selects, with freq.lo and freq.hi checked
    against its domain."""
    m, fr = cfg["mode"], cfg["freq"]
    if m["i"] == 0 and m["mu"] == 0:
        state = constant_state(p, (fr["lo"] * 0.5, fr["hi"] * 2.0))
    else:
        state = profile_state(_mode_profile(cfg, p))
    _check_window(cfg, "freq", ("lo", "hi"), *state.r_support,
                  "the elliptic state's domain (from mode.r_min and mode.mu)")
    return state


def _emitter(out, artifacts):
    """emit(name, *content) writes the artifact name in out, a CSV from
    (header, rows) or a .json from a payload, and lists its path in
    artifacts; it reads write_csv and write_json from this module's
    namespace at each call."""

    def emit(name, *content):
        path = os.path.join(out, name)
        (write_json if name.endswith(".json") else write_csv)(path, *content)
        artifacts.append(path)

    return emit


def _rows(*columns):
    """CSV rows of Python numbers from equal-length array columns."""
    return zip(*(column.tolist() for column in columns))


def _run_modes(cfg, p, emit):
    prof = _mode_profile(cfg, p)
    order = np.argsort(prof.r_grid)
    emit("modes.csv", ["r", "s", "sign", "log_mag", "log_deriv"],
         _rows(prof.r_grid[order], prof.s_grid[order],
               prof.sign[order].astype(int), prof.log_mag[order],
               prof.log_deriv[order]))
    fit = decay_exponent_fit(prof)
    rng = float(prof.log_mag.max() - prof.log_mag.min())
    return {
        "decay_fit": {"slope": fit.slope, "intercept": fit.intercept,
                      "residual": fit.max_residual,
                      "residual_fraction": fit.max_residual / rng if rng else 0.0},
        "grid_points": int(prof.s_grid.size),
        "r_range": [prof.r_min, prof.r_max],
    }


def _run_freq_elliptic(cfg, p, emit, state):
    fr = cfg["freq"]
    grid = _grid(fr["lo"], fr["hi"], fr["points"], fr["spacing"])
    quad_tol = min(cfg["tolerances"]["quad"], 1e-9)
    try:
        scan = elliptic_scan(state, grid, tol=quad_tol)
    except TipTailError as exc:
        # the energy between mode.r_min and a scan radius grows with the
        # radius, so a higher freq.lo (or a lower mode.r_min) clears it
        raise ConfigError(
            f"freq.lo={fr['lo']} lies too close to "
            f"mode.r_min={cfg['mode']['r_min']}: {exc}; raise freq.lo or "
            "lower mode.r_min") from exc
    emit("freq_elliptic.csv", ["r", "I", "E", "U"],
         _rows(scan.scale, scan.I, scan.ED, scan.UN))
    defect = check_logI_identity(state, scan)
    growth_defect, U_C = check_U_growth(state, scan)
    fit = check_I_lower(state, scan)
    report = {
        "identity_defect": defect,
        "U_growth_defect": growth_defect,
        "U_C": U_C,
        "I_fit": {"slope": fit.slope, "intercept": fit.intercept,
                  "residual": fit.max_residual},
    }
    emit("freq_elliptic_report.json", report)
    return report


def _parabolic_state(cfg, p, emit):
    # the backward-slice identities need either the unit caloric function
    # or states with a genuine cap condition, so i >= 1 runs go through the
    # Dirichlet series rather than a bare profile window
    m = cfg["mode"]
    if m["i"] == 0 and m["mu"] == 0:
        return UnitCaloric(p)
    if m["i"] == 0:
        raise ConfigError(
            "freq-parabolic supports the unit caloric state (i=0, mu=0) or "
            "Dirichlet series with i >= 1")
    if m["i"] != cfg["eigs"]["i"]:
        raise ConfigError(
            f"mode.i={m['i']} differs from eigs.i={cfg['eigs']['i']}: "
            "freq-parabolic runs the Dirichlet series of index eigs.i")
    return _series(cfg, p, emit)[1]


def _run_freq_parabolic(cfg, p, emit, state):
    fr = cfg["freq"]
    grid = _grid(fr["R_lo"], fr["R_hi"], fr["R_points"], fr["spacing"])
    scan = parabolic_scan(state, grid, tol=min(cfg["tolerances"]["quad"], 1e-11))
    emit("freq_parabolic.csv", ["R", "I", "D", "N"],
         _rows(scan.scale, scan.I, scan.ED, scan.UN))
    R_ref = float(np.sqrt(grid[0] * grid[-1]))
    defect = check_ID_relation(state, R_ref, 1e-3 * R_ref,
                               tol=min(cfg["tolerances"]["quad"], 1e-12))
    n_defect, N_C = check_N_bound(state, scan)
    fit = check_D_lower(state, scan)
    report = {
        "ID_defect": defect,
        "ID_reference_scale": R_ref,
        "N_growth_defect": n_defect,
        "N_C": N_C,
        "D_fit": {"slope": fit.slope, "intercept": fit.intercept,
                  "residual": fit.max_residual},
    }
    emit("freq_parabolic_report.json", report)
    return report


def _run_eigs(cfg, p, emit):
    e = cfg["eigs"]
    if e["i"] < 1:
        raise ConfigError(f"eigs.i={e['i']} must be >= 1")
    top = tip_window_top(p, 0.0)
    if not e["r_out"] > top:
        raise ConfigError(f"eigs.r_out={e['r_out']} must exceed the tip "
                          f"window top {top}")
    if e["count"] < 1:
        raise ConfigError(f"eigs.count={e['count']} must be >= 1")
    pairs = dirichlet_eigenvalues(p, e["i"], e["r_out"], e["count"],
                                  tol=min(cfg["tolerances"]["ode"], 1e-12),
                                  root_rel=min(cfg["tolerances"]["root"], 1e-10))
    emit("eigs.csv", ["j", "nu", "zeros", "norm_defect"],
         [(j + 1, q.nu, q.zeros, q.norm_defect) for j, q in enumerate(pairs)])
    report = {"eigenvalues": [q.nu for q in pairs],
              "zeros": [q.zeros for q in pairs]}
    if len(pairs) >= 8:
        C1, C2 = weyl_check(pairs, p)
        report["weyl"] = {"C1": C1, "C2": C2}
    return report, pairs


def _series(cfg, p, emit):
    """(eigs report, caloric series): the series on the eigen search's
    pairs, heat.coeffs padded with zeros to eigs.count, with the windows
    that read it, heat.r_lo, heat.r_hi, analyticity.r0 and freq.R_lo,
    checked as soon as it exists.  heat.coeffs is refused before the
    search when it has more entries than eigs.count or no nonzero one."""
    h = cfg["heat"]
    count = cfg["eigs"]["count"]
    if len(h["coeffs"]) > count:
        raise ConfigError(f"heat.coeffs has {len(h['coeffs'])} entries, "
                          f"more than eigs.count={count}")
    if not any(h["coeffs"]):
        raise ConfigError(f"heat.coeffs={h['coeffs']!r} has no nonzero "
                          "entry: the caloric series would vanish")
    report, pairs = _run_eigs(cfg, p, emit)
    series = make_caloric_series(
        pairs, h["coeffs"] + [0.0] * (count - len(h["coeffs"])),
        min(h["t_list"]))
    for block, keys in (("heat", ("r_lo", "r_hi")), ("analyticity", ("r0",)),
                        ("freq", ("R_lo",))):
        _check_window(cfg, block, keys, *series.r_support,
                      "the range every eigenfunction represents")
    return report, series


def _run_heat(cfg, p, emit, series):
    h = cfg["heat"]
    r_grid = np.geomspace(h["r_lo"], h["r_hi"], h["points"])
    rows = []
    slopes = {}
    # one series evaluation, one row a time
    sF, lF, _, _ = series.slice_log(r_grid, np.array(h["t_list"])[:, None])
    for t, s, L in zip(h["t_list"], sF, lF):
        rows.extend(_rows(r_grid, np.full_like(r_grid, t), s.astype(int), L))
        fit = caloric_decay_check(series, r_grid, L)
        slopes[str(t)] = {"slope": fit.slope, "residual": fit.max_residual}
    emit("heat.csv", ["r", "t", "sign", "log_mag"], rows)
    return {"decay_by_t": slopes,
            "tail_certificate": series.tail_certificate,
            "truncation": series.rates.size}


def _run_analyticity(cfg, p, emit, series):
    a = cfg["analyticity"]
    r0, t0, kmax = a["r0"], a["t0"], a["kmax"]
    log_ak = taylor_coefficients(series, r0, t0, kmax)
    report = {"t0": t0, "r0": r0, "kmax": kmax,
              "fitted_radius": taylor_radius(log_ak),
              "coefficients": [None if L == NEG_INF else L for L in log_ak]}
    emit("analyticity.json", report)
    return report


def _run_demo(cfg, p, emit):
    """elliptic state -> eigs -> caloric series -> tip-decay check -> both
    frequency scans -> analyticity probe.

    Both states are built, and every window checked, before any scan
    runs.  One summary report; a threshold miss flips the exit code to 4.
    """
    state = _elliptic_state(cfg, p)
    eig_report, series = _series(cfg, p, emit)
    heat_report = _run_heat(cfg, p, emit, series)
    ell_report = _run_freq_elliptic(cfg, p, emit, state)
    par_report = _run_freq_parabolic(cfg, p, emit, series)
    ana_report = _run_analyticity(cfg, p, emit, series)

    th = DEMO_THRESHOLDS
    slopes = [v["slope"] for v in heat_report["decay_by_t"].values()]
    checks = {
        "caloric_decay_negative": all(s < th["decay_slope_max"] for s in slopes),
        "logI_identity": ell_report["identity_defect"] <= th["logI_defect_max"],
        "U_growth": ell_report["U_growth_defect"] <= th["U_growth_defect_max"],
        "I_lower_slope": ell_report["I_fit"]["slope"] >= th["lower_fit_slope_min"],
        "ID_relation": par_report["ID_defect"] <= th["ID_defect_max"],
        "N_growth": par_report["N_growth_defect"] <= th["N_growth_defect_max"],
        "D_lower_slope": par_report["D_fit"]["slope"] >= th["lower_fit_slope_min"],
        "analyticity_radius_positive": ana_report["fitted_radius"] > 0,
    }
    summary = {
        "eigs": eig_report,
        "heat": heat_report,
        "freq_elliptic": ell_report,
        "freq_parabolic": par_report,
        "analyticity": {k: ana_report[k] for k in
                        ("t0", "r0", "kmax", "fitted_radius")},
        "decay_slope": slopes[0] if slopes else None,
        "checks": checks,
        "all_bounds_hold": all(checks.values()),
    }
    emit("summary.json", summary)
    return summary


# Each pipeline writes its artifacts through emit and returns its report
# for the manifest; _run_eigs also returns the eigenpairs, on which _series
# builds.  A stage that reads a state or a series takes it as an argument;
# its command builds it first.
COMMANDS = {
    "modes": _run_modes,
    "eigs": lambda cfg, p, emit: _run_eigs(cfg, p, emit)[0],
    "freq-elliptic": lambda cfg, p, emit: _run_freq_elliptic(
        cfg, p, emit, _elliptic_state(cfg, p)),
    "freq-parabolic": lambda cfg, p, emit: _run_freq_parabolic(
        cfg, p, emit, _parabolic_state(cfg, p, emit)),
    "heat": lambda cfg, p, emit: _run_heat(
        cfg, p, emit, _series(cfg, p, emit)[1]),
    "analyticity": lambda cfg, p, emit: _run_analyticity(
        cfg, p, emit, _series(cfg, p, emit)[1]),
    "demo-counterexample": _run_demo,
}


def run(config, command, out_dir=None):
    """Execute one pipeline; returns (exit_code, manifest dict).

    The manifest is written to <out>/manifest.json in every case, with the
    failing stage named on errors.
    """
    t_start = time.monotonic()
    out = out_dir or config.get("output") or "."
    os.makedirs(out, exist_ok=True)
    manifest = {
        "command": command,
        "config": config,
        "versions": {
            "hornlab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "status": "error",
        "stage": "setup",
        "artifacts": [],
    }
    code = EXIT_NUMERICAL
    try:
        if command not in COMMANDS:
            raise ConfigError(f"unknown command '{command}'")
        p = params_from_config(config)
        manifest["stage"] = command
        result = COMMANDS[command](config, p,
                                   _emitter(out, manifest["artifacts"]))
        manifest["result"] = result
        manifest["status"] = "ok"
        manifest["stage"] = "done"
        code = EXIT_OK
        if command == "demo-counterexample" and not result["all_bounds_hold"]:
            manifest["status"] = "bound-check-failure"
            code = EXIT_BOUNDS
    except ConfigError as exc:
        manifest["error"] = str(exc)
        code = EXIT_CONFIG
    except ToleranceFloorError as exc:
        # every ODE tolerance of a pipeline is derived from tolerances.ode,
        # every quadrature tolerance from tolerances.quad
        leaf = {"ODE": "ode", "quadrature": "quad"}[exc.solver]
        manifest["error"] = (
            f"tolerances.{leaf}={config['tolerances'][leaf]} is too small: "
            f"{command} derived the {exc.solver} tolerance {exc.tol:.3g}, "
            f"below the {exc.solver} floor {exc.floor:.3g}")
        code = EXIT_CONFIG
    except HornError as exc:
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        code = EXIT_NUMERICAL
    finally:
        manifest["wall_time_s"] = time.monotonic() - t_start
        write_json(os.path.join(out, "manifest.json"), manifest)
    return code, manifest


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hornlab",
        description="Tip-spectral-geometry scans on weighted metric horns")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config leaf")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    code, manifest = run(cfg, args.command, args.out)
    if manifest.get("error"):
        print(f"{manifest['status']}: {manifest['error']}", file=sys.stderr)
    else:
        print(f"{args.command}: {manifest['status']} "
              f"({manifest['wall_time_s']:.2f}s)")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
