"""The benchmark workloads: inputs drawn from a seed, set-up, the operations
of one timed iteration, and the checks on their outputs.

Every workload calls public hornlab entry points through their modules
(`heat.dirichlet_eigenvalues`, not a name bound at import), so the tracer's
hooks see the calls.  Seeded inputs are drawn from catalogues whose
reference values `record.py` stored in reference.json, so every output can
be checked against a recorded value, whatever the seed.
"""

import copy
import json
import math
import os

import numpy as np

from hornlab import cli, elliptic, heat, modes, parabolic

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# The demo configuration, frozen as hornlab.cli.DEFAULT_CONFIG stood when
# the references were recorded, so that a later change of the defaults
# does not silently change the workload.  The seed overrides only
# heat.coeffs, heat.t_list and the analyticity point.
BASE_CONFIG = {
    "params": {"n": 3, "N": 4.0, "eps": 0.5, "eta": 0.25},
    "tolerances": {"ode": 1e-10, "quad": 1e-8, "root": 1e-10},
    "mode": {"i": 1, "mu": 1.0, "r_min": 0.02, "n_grid": 64},
    "eigs": {"i": 1, "r_out": 2.0, "count": 4},
    "freq": {"lo": 0.04, "hi": 0.13, "points": 64, "spacing": "log",
             "R_lo": 0.02, "R_hi": 0.2, "R_points": 12},
    "heat": {"coeffs": [1.0, 0.7, 0.5, 0.35], "t_list": [0.25, 0.5, 1.0],
             "r_lo": 0.02, "r_hi": 0.12, "points": 40},
    "analyticity": {"r0": 0.8, "t0": 0.5, "kmax": 16},
}

# hornlab.cli.DEMO_THRESHOLDS when the references were recorded
THRESHOLDS = {"logI_defect_max": 1e-3, "ID_defect_max": 1e-4,
              "U_growth_defect_max": 1e-8}

# Seeded ranges.  Within them every demo bound holds (checked over the
# seeds used while building the benchmark and one held-out seed).
COEFF_SCALE = (0.8, 1.25)        # multiplies each default coefficient
T_LIST_RANGES = ((0.2, 0.3), (0.4, 0.6), (0.8, 1.2))
R0_RANGE = (0.6, 1.0)            # analyticity point: a recorded grid radius
T0_RANGE = (0.4, 0.6)
SLICE_T_RANGE = (0.1, 1.5)
SLICE_TIMES = 8

# Eigen search as the CLI runs it at BASE_CONFIG: tol = min(ode, 1e-12),
# root_rel = min(root, 1e-10).
PAIRS = {"i": 1, "r_out": 2.0, "count": 4, "tol": 1e-12, "root_rel": 1e-10}
R_OUT_CHOICES = tuple(round(1.6 + 0.05 * k, 2) for k in range(9))
SPECTRUM = {"i": 1, "count": 8, "tol": 1e-12, "root_rel": 1e-12}
PROFILE_MUS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
PROFILE_R_MIN = 0.015
# Scan grids as fine in log r as the demo's (64 rows on [0.04, 0.13]), so
# the differencing error of the logI identity stays under its threshold.
PROFILE_GRID = (0.04, 0.9, 76)   # lo, hi as a share of the profile top, rows
BESSEL_MUS = (0.5, 1.0, 1.5, 2.0)
BESSEL_DOMAIN = (0.01, 0.5)
BESSEL_GRID = (0.02, 0.45, 48)
PARABOLIC_TOL = 1e-11            # the CLI's slice tolerance
ID_TOL = 1e-12                   # the CLI's identity-check tolerance
KMAX = 16

# Output tolerances.  Eigenvalues: ten times the demo's root tolerance,
# which also covers the ODE tolerance's effect on the shooting root.
# Values that pass through quadrature (slices, rows, coefficients): 1e-7
# of the magnitude of the summed terms, well above the 1e-9 to 1e-12
# quadrature tolerances and well below any change a defect would make.
EIG_REL_TOL = 1e-9
VALUE_TOL = 1e-7
UNIT_D_TOL = 1e-8


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def params():
    return cli.params_from_config(BASE_CONFIG)


def draw_r0_index(rng, ref):
    """Index of a recorded grid radius in R0_RANGE: the analyticity point."""
    r = np.array(ref["pairs"]["wide"]["r"])
    candidates = np.flatnonzero((r >= R0_RANGE[0]) & (r <= R0_RANGE[1]))
    return int(candidates[rng.integers(candidates.size)])


def draw_coeffs(rng):
    """Series coefficients: each default coefficient times a seeded factor."""
    return [float(c * rng.uniform(*COEFF_SCALE))
            for c in BASE_CONFIG["heat"]["coeffs"]]


# ---------------------------------------------------------------------------
# Reference arithmetic
# ---------------------------------------------------------------------------


def _terms(pairs_ref, grid, coeffs, t, k=0):
    """Signs and logs of c_j (-nu_j)^k exp(-nu_j t) g_j(r) per pair and r,
    plus the log of |d log g_j / dr| for the radial derivative."""
    nus = np.array(pairs_ref["nu"])[:, None]
    c = np.array(coeffs)[:, None]
    sign = np.sign(c) * np.array(grid["sign"]) * (-1.0) ** k
    log = (np.log(np.abs(c)) - nus * t + k * np.log(nus)
           + np.array(grid["log"]))
    with np.errstate(divide="ignore"):
        dlog = np.log(np.abs(np.array(grid["dlog"])))
    return sign, log, np.sign(np.array(grid["dlog"])), dlog


def _matches_sum(sign, log, ref_sign, ref_log, tol=VALUE_TOL):
    """|got - sum of reference terms| <= tol * sum of |terms|, per column,
    all in units of the largest term so nothing under- or overflows."""
    live = ref_sign != 0
    m = np.max(np.where(live, ref_log, -np.inf), axis=0)
    w = np.where(live, np.exp(ref_log - m), 0.0)
    want = np.sum(ref_sign * w, axis=0)
    got = np.where(sign != 0, sign * np.exp(np.asarray(log) - m), 0.0)
    return np.abs(got - want) <= tol * np.sum(w, axis=0)


def _check_series_values(pairs_ref, grid, coeffs, t, sF, lF, sD=None,
                         lD=None):
    sign, log, dsign, dlog = _terms(pairs_ref, grid, coeffs, t)
    ok = np.all(_matches_sum(sF, lF, sign, log))
    if sD is not None:
        ok = ok and np.all(_matches_sum(sD, lD, sign * dsign, log + dlog))
    return bool(ok)


def _log_taylor(pairs_ref, grid, idx, coeffs, t0, kmax):
    """Reference Taylor coefficients a_k = d^k_t u(r0, t0) / k!.

    Per k: (signed sum, sum of magnitudes, log scale m), with the terms in
    units of exp(m), so a_k = signed sum * exp(m).
    """
    one = {key: [row[idx:idx + 1] for row in grid[key]]
           for key in ("sign", "log", "dlog")}
    out = []
    for k in range(kmax + 1):
        sign, log, _, _ = _terms(pairs_ref, one, coeffs, t0, k)
        m = float(np.max(log))
        total = float(np.sum(sign * np.exp(log - m)))
        scale = float(np.sum(np.exp(log - m)))
        out.append((total, scale, m - math.lgamma(k + 1.0)))
    return out


def _radius(taylor, kmax):
    window = [(math.log(abs(total)) + m) / k
              for k, (total, _, m) in enumerate(taylor)
              if k >= max(1, kmax // 2) and total != 0]
    return 1.0 / math.exp(max(window))


def _gram_value(gram, coeffs):
    """(c^T B c, (sum_j |c_j| sqrt(B_jj))^2) for a recorded bilinear form."""
    B = np.array(gram)
    c = np.array(coeffs)
    return float(c @ B @ c), float(np.sum(np.abs(c) *
                                         np.sqrt(np.diag(B)))) ** 2


def _check_gram_rows(ref, idx, coeffs, I, D):
    problems = []
    gram = ref["parabolic_gram"]
    for col, got in (("I", I), ("D", D)):
        for j, g in zip(idx, got):
            want, scale = _gram_value(gram[col][j], coeffs)
            if not abs(g - want) <= VALUE_TOL * scale:
                problems.append(f"parabolic {col}(R={gram['R'][j]:.4g}) = "
                                f"{float(g)!r}, reference {want!r}")
    return problems


def _check_rows(name, ref_rows, r, I, E, U):
    problems = []
    if not np.allclose(r, ref_rows["r"], rtol=1e-11, atol=0):
        problems.append(f"{name}: scan radii differ from the reference")
    for col, got in (("I", I), ("E", E), ("U", U)):
        want = np.array(ref_rows[col])
        floor = 1e-3 * np.max(np.abs(want))
        bad = np.abs(np.asarray(got) - want) > \
            VALUE_TOL * np.maximum(np.abs(want), floor)
        if np.any(bad):
            problems.append(f"{name}: {col} differs from the reference at "
                            f"{int(bad.sum())} rows")
    return problems


def _check_eigs(nus, zeros, ref):
    problems = []
    want = np.array(ref["nu"])
    if len(nus) != len(want):
        return [f"{len(nus)} eigenvalues, reference has {len(want)}"]
    bad = np.abs(np.array(nus) - want) > EIG_REL_TOL * want
    if np.any(bad):
        problems.append(f"eigenvalues {np.array(nus)[bad].tolist()} differ "
                        f"from the reference {want[bad].tolist()}")
    if list(zeros) != list(ref["zeros"]):
        problems.append(f"zero counts {list(zeros)} != {ref['zeros']}")
    return problems


def _check_identities(name, state, scan):
    problems = []
    d = elliptic.check_logI_identity(state, scan)
    if not d <= THRESHOLDS["logI_defect_max"]:
        problems.append(f"{name}: logI identity defect {d:.3e}")
    g, _ = elliptic.check_U_growth(state, scan)
    if not g <= THRESHOLDS["U_growth_defect_max"]:
        problems.append(f"{name}: U growth defect {g:.3e}")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Demo:
    """hornlab.cli.run(cfg, "demo-counterexample") on a seeded config."""

    def __init__(self, seed, out_dir, ref):
        rng = np.random.default_rng(seed)
        self.ref = ref
        self.out_dir = out_dir
        self.run_dir = os.path.join(out_dir, "run")
        self.coeffs = draw_coeffs(rng)
        self.t_list = [float(rng.uniform(*r)) for r in T_LIST_RANGES]
        self.r0_idx = draw_r0_index(rng, ref)
        self.r0 = float(ref["pairs"]["wide"]["r"][self.r0_idx])
        self.t0 = float(rng.uniform(*T0_RANGE))

    def setup(self):
        config = copy.deepcopy(BASE_CONFIG)
        config["heat"]["coeffs"] = self.coeffs
        config["heat"]["t_list"] = self.t_list
        config["analyticity"].update(r0=self.r0, t0=self.t0)
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        self.cfg = cli.load_config(path)
        return []

    def operations(self):
        return [("demo", lambda: cli.run(self.cfg, "demo-counterexample",
                                         self.run_dir))]

    def check_demo(self, result):
        code, manifest = result
        if code != 0:
            return [f"exit code {code}: {manifest.get('error')}"]
        if not manifest["result"]["all_bounds_hold"]:
            return [f"bounds missed: {manifest['result']['checks']}"]
        ref = self.ref
        pairs_ref = ref["pairs"]

        def table(name):
            return np.loadtxt(os.path.join(self.run_dir, name),
                              delimiter=",", skiprows=1, ndmin=2)

        eigs = table("eigs.csv")
        problems = _check_eigs(eigs[:, 1], eigs[:, 2].astype(int).tolist(),
                               pairs_ref)
        rows = table("heat.csv")
        grid = pairs_ref["heat"]
        n = len(grid["r"])
        if rows.shape[0] != n * len(self.t_list):
            problems.append(f"heat.csv has {rows.shape[0]} rows")
        else:
            for k, t in enumerate(self.t_list):
                block = rows[k * n:(k + 1) * n]
                if not np.allclose(block[:, 0], grid["r"], rtol=1e-11) or \
                        not _check_series_values(pairs_ref, grid, self.coeffs,
                                                 t, block[:, 2], block[:, 3]):
                    problems.append(f"heat.csv slice t={t:.4g} differs "
                                    "from the reference")
        ell = table("freq_elliptic.csv")
        problems += _check_rows("freq_elliptic.csv", ref["demo_elliptic"],
                                ell[:, 0], ell[:, 1], ell[:, 2], ell[:, 3])
        par = table("freq_parabolic.csv")
        problems += _check_gram_rows(ref, range(par.shape[0]), self.coeffs,
                                     par[:, 1], par[:, 2])
        with open(os.path.join(self.run_dir, "analyticity.json")) as fh:
            ana = json.load(fh)
        taylor = _log_taylor(pairs_ref, pairs_ref["wide"], self.r0_idx,
                             self.coeffs, self.t0, KMAX)
        for k, ((total, scale, m), got) in enumerate(
                zip(taylor, ana["coefficients"])):
            val = 0.0 if got is None else \
                math.copysign(math.exp(got - m), total)
            if not abs(val - total) <= VALUE_TOL * scale:
                problems.append(f"analyticity coefficient k={k} differs")
        want = _radius(taylor, KMAX)
        if not abs(ana["fitted_radius"] - want) <= VALUE_TOL * want:
            problems.append(f"fitted radius {ana['fitted_radius']} vs {want}")
        return problems


class Spectrum:
    """dirichlet_eigenvalues(p, 1, r_out, 8), r_out drawn from 1.6 to 2.0."""

    def __init__(self, seed, out_dir, ref):
        rng = np.random.default_rng(seed)
        self.ref = ref
        self.r_out = R_OUT_CHOICES[int(rng.integers(len(R_OUT_CHOICES)))]

    def setup(self):
        self.p = params()
        return []

    def operations(self):
        s = SPECTRUM
        return [("spectrum", lambda: heat.dirichlet_eigenvalues(
            self.p, s["i"], self.r_out, s["count"], tol=s["tol"],
            root_rel=s["root_rel"]))]

    def check_spectrum(self, pairs):
        return _check_eigs([q.nu for q in pairs], [q.zeros for q in pairs],
                           self.ref["spectrum"][f"{self.r_out:.2f}"])


class Functionals:
    """Quadrature, series and log-space work on prebuilt eigenpairs."""

    def __init__(self, seed, out_dir, ref):
        rng = np.random.default_rng(seed)
        self.ref = ref
        self.coeffs = draw_coeffs(rng)
        self.t_slices = np.sort(rng.uniform(*SLICE_T_RANGE, SLICE_TIMES))
        self.r0_idx = draw_r0_index(rng, ref)
        self.t0 = float(rng.uniform(*T0_RANGE))
        self.profile_mus = [float(m) for m in
                            rng.choice(PROFILE_MUS, 2, replace=False)]
        self.bessel_mu = float(rng.choice(BESSEL_MUS))
        self.norm_mu = self.profile_mus[0]

    def setup(self):
        self.p = params()
        q = PAIRS
        pairs = heat.dirichlet_eigenvalues(self.p, q["i"], q["r_out"],
                                           q["count"], tol=q["tol"],
                                           root_rel=q["root_rel"])
        self.series = heat.make_caloric_series(pairs, self.coeffs,
                                               float(self.t_slices[0]))
        return _check_eigs([q.nu for q in pairs], [q.zeros for q in pairs],
                           self.ref["pairs"])

    def operations(self):
        ref = self.ref
        p = self.p
        series = self.series
        R = np.array(ref["parabolic_gram"]["R"])
        R_ref = float(math.sqrt(R[0] * R[-1]))
        wide = np.array(ref["pairs"]["wide"]["r"])
        r0 = float(wide[self.r0_idx])

        def elliptic_profiles():
            out = []
            for mu in self.profile_mus:
                prof = modes.profile_from_k2(p, 1, mu, PROFILE_R_MIN,
                                             n_grid=64)
                state = elliptic.profile_state(prof)
                grid = np.array(ref["profile_elliptic"][str(mu)]["r"])
                out.append((mu, state, elliptic.elliptic_scan(state, grid)))
            return out

        def elliptic_bessel():
            state = elliptic.bessel_state(p, self.bessel_mu, BESSEL_DOMAIN)
            return state, elliptic.elliptic_scan(state,
                                                 np.geomspace(*BESSEL_GRID))

        return [
            ("parabolic_series",
             lambda: parabolic.parabolic_scan(series, R, tol=PARABOLIC_TOL)),
            ("id_series", lambda: parabolic.check_ID_relation(
                series, R_ref, 1e-3 * R_ref, tol=ID_TOL)),
            ("parabolic_unit", lambda: parabolic.parabolic_scan(
                parabolic.UnitCaloric(p), R, tol=PARABOLIC_TOL)),
            ("id_unit", lambda: parabolic.check_ID_relation(
                parabolic.UnitCaloric(p), R_ref, 1e-3 * R_ref, tol=ID_TOL)),
            ("slices", lambda: [series.slice_log(wide, float(t))
                                for t in self.t_slices]),
            ("analyticity", lambda: heat.analyticity_probe(
                series, r0, self.t0, KMAX)),
            ("elliptic_profiles", elliptic_profiles),
            ("elliptic_bessel", elliptic_bessel),
            ("normalization",
             lambda: modes.normalization_bound(p, 1, self.norm_mu)),
        ]

    def check_parabolic_series(self, scan):
        return _check_gram_rows(self.ref, range(len(scan.I)), self.coeffs,
                                scan.I, scan.ED)

    def check_id_series(self, defect):
        if defect <= THRESHOLDS["ID_defect_max"]:
            return []
        return [f"I = (R/4) D' defect {defect:.3e}"]

    check_id_unit = check_id_series

    def check_parabolic_unit(self, scan):
        p = self.p
        area = 2.0 * math.pi ** (p.n / 2.0) / math.gamma(p.n / 2.0)
        closed = area * 2.0 ** (p.c + 1 - p.n) * math.gamma((p.c + 1) / 2.0)
        problems = []
        if np.any(np.abs(scan.ED / closed - 1.0) > UNIT_D_TOL):
            problems.append(f"unit caloric D {scan.ED.tolist()} != "
                            f"Gamma value {closed}")
        if np.any(scan.I != 0.0):
            problems.append("unit caloric I is not 0")
        return problems

    def check_slices(self, slices):
        pairs_ref = self.ref["pairs"]
        return [f"slice t={t:.4g} differs from the reference"
                for t, (sF, lF, sD, lD) in zip(self.t_slices, slices)
                if not _check_series_values(pairs_ref, pairs_ref["wide"],
                                            self.coeffs, t, sF, lF, sD, lD)]

    def check_analyticity(self, radius):
        pairs_ref = self.ref["pairs"]
        want = _radius(_log_taylor(pairs_ref, pairs_ref["wide"], self.r0_idx,
                                   self.coeffs, self.t0, KMAX), KMAX)
        if abs(radius - want) <= VALUE_TOL * want:
            return []
        return [f"radius {radius} vs reference {want}"]

    def check_elliptic_profiles(self, scans):
        problems = []
        for mu, state, scan in scans:
            name = f"profile mu={mu}"
            problems += _check_rows(name, self.ref["profile_elliptic"][str(mu)],
                                    scan.scale, scan.I, scan.ED, scan.UN)
            problems += _check_identities(name, state, scan)
        return problems

    def check_elliptic_bessel(self, result):
        state, scan = result
        name = f"bessel mu={self.bessel_mu}"
        return _check_rows(name, self.ref["bessel_elliptic"][str(
            self.bessel_mu)], scan.scale, scan.I, scan.ED, scan.UN) \
            + _check_identities(name, state, scan)

    def check_normalization(self, result):
        computed, bound = result
        want_c, want_b = self.ref["normalization"][str(self.norm_mu)]
        if abs(computed - want_c) <= VALUE_TOL * want_c and \
                abs(bound - want_b) <= 1e-12 * want_b:
            return []
        return [f"normalization ({computed}, {bound}) vs "
                f"({want_c}, {want_b})"]


WORKLOADS = {"demo": Demo, "spectrum": Spectrum, "functionals": Functionals}
