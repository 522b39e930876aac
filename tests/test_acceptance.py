"""Acceptance suite.

Each criterion is one test that runs at its stated tolerance and prints a
single PASS line (visible under pytest -s / -v).  Criteria with runtime
limits are timed over their whole body, including any construction work
beyond the shared session fixtures.
"""

import math
import time

import numpy as np
import pytest
from scipy import special
from support import (J0_FIRST_ZERO, oracle_D_2d, oracle_E_2d, oracle_I_2d,
                     oracle_gamma, scan_at, tip_states)

from hornlab import (UnitCaloric, analyticity_probe, bessel_j,
                     caloric_decay_check, check_D_lower, check_I_lower,
                     check_ID_relation, check_logI_identity, check_N_bound,
                     check_U_growth, decay_exponent_fit,
                     dirichlet_eigenvalues, elliptic_scan, fit_line,
                     make_caloric_series, parabolic_IDN, parabolic_scan,
                     profile_from_k2, profile_state, r_mu, solve_k1,
                     solve_k2, sphere_area, tip_rate)


def report(num, ok, detail):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_logI_identity(p_default):
    """Exact identity (logI) at second order on the default state."""
    t0 = time.monotonic()
    prof = profile_from_k2(p_default, 1, 1.0, 0.015, 64)
    st = profile_state(prof)
    defects = {}
    for n_pts in (64, 128, 256):
        scan = elliptic_scan(st, np.geomspace(0.04, 0.13, n_pts))
        defects[n_pts] = check_logI_identity(st, scan)
    order1 = math.log2(defects[64] / defects[128])
    order2 = math.log2(defects[128] / defects[256])
    elapsed = time.monotonic() - t0
    ok = defects[64] <= 1e-3 and order1 >= 1.9 and order2 >= 1.9 \
        and elapsed <= 10.0
    report(1, ok,
           f"logI defect {defects[64]:.3e} <= 1e-3 at 64 points, "
           f"orders {order1:.2f}/{order2:.2f} >= 1.9, {elapsed:.1f}s <= 10s")


def test_criterion_02_ID_relation(p_default):
    """Exact identity I = (R/4) D' on a two-mode caloric series."""
    t0 = time.monotonic()
    pairs = dirichlet_eigenvalues(p_default, 1, 2.0, 2)
    series = make_caloric_series(pairs, [1.0, 0.7], t_min=0.09)
    R = 0.3
    d1 = check_ID_relation(series, R, 1e-3 * R)
    d2 = check_ID_relation(series, R, 5e-4 * R)
    order = math.log2(d1 / d2)
    elapsed = time.monotonic() - t0
    ok = d1 <= 1e-4 and order >= 1.9 and elapsed <= 30.0
    report(2, ok,
           f"ID defect {d1:.3e} <= 1e-4 at h = 1e-3 R, order {order:.2f} "
           f">= 1.9, {elapsed:.1f}s <= 30s")


def test_criterion_03_sandwich_bounds(p_default):
    """Two-sided bounds on both tip branches; Wronskian constant."""
    t0 = time.monotonic()
    worst_w = 0.0
    for i in (1, 2):
        rho = tip_rate(p_default, i)
        for mu in (0.5, 1.0, 2.0):
            s0 = r_mu(p_default, mu)
            k1 = solve_k1(p_default, i, mu, s0 + 3.0)
            k2, = solve_k2(p_default, i, mu, s0 + 3.0)
            ss = np.linspace(s0, s0 + 3.0, 151)
            kv = tip_states(k1, ss)[0]
            assert np.all(kv <= np.exp((rho + 1) * (ss - s0)) * (1 + 1e-10))
            assert np.all(kv >= np.exp(rho * (ss - s0)) / rho * (1 - 1e-10))
            L = k2.log_eval(ss)[0]
            up = math.log(rho / 2) + (-rho + 1) * (ss - s0)
            lo = -math.log(2 * (rho ** 2 + rho)) + (-rho - 2) * (ss - s0)
            assert np.all(L <= up + 1e-9)
            assert np.all(L >= lo - 1e-9)
            for s in np.linspace(s0, s0 + 3.0, 31):
                a, ap = tip_states(k1, s)
                b, bp = tip_states(k2, s)
                worst_w = max(worst_w, abs((a * bp - ap * b) + 1.0))
    elapsed = time.monotonic() - t0
    ok = worst_w <= 1e-8 and elapsed <= 10.0
    report(3, ok,
           f"both sandwiches hold pointwise for (i, mu) in {{1,2}}x"
           f"{{0.5,1,2}}; Wronskian defect {worst_w:.2e} <= 1e-8, "
           f"{elapsed:.1f}s <= 10s")


def test_criterion_04_eigenfunction_vanishing(profile_i1_mu1, p_default):
    """Tip decay slope of the i=1 profile inside its two-sided bracket."""
    rho = tip_rate(p_default, 1)
    fit = decay_exponent_fit(profile_i1_mu1)
    rng = profile_i1_mu1.log_mag.max() - profile_i1_mu1.log_mag.min()
    ok = -(rho + 2.0) <= fit.slope <= -(rho - 1.0) \
        and fit.max_residual <= 0.05 * rng
    report(4, ok,
           f"decay slope {fit.slope:.4f} in [{-(rho + 2):.4f}, "
           f"{-(rho - 1):.4f}], residual {fit.max_residual / rng:.2%} <= 5%")


def test_criterion_05_caloric_vanishing(series4):
    """Tip decay of a 4-pair i=1 caloric series, stable across times."""
    grid = np.geomspace(0.02, 0.12, 40)
    fits = {t: caloric_decay_check(series4, grid,
                                   series4.slice_log(grid, t)[1])
            for t in (0.25, 0.5, 1.0)}
    _, lF, _, _ = series4.slice_log(grid, 0.5)
    rng = lF.max() - lF.min()
    slopes = [f.slope for f in fits.values()]
    spread = max(slopes) - min(slopes)
    ok = fits[0.5].slope < 0 \
        and fits[0.5].max_residual <= 0.10 * rng \
        and spread <= 0.15 * abs(fits[0.5].slope)
    report(5, ok,
           f"caloric slope {fits[0.5].slope:.4f} < 0, residual "
           f"{fits[0.5].max_residual / rng:.2%} <= 10%, spread across t "
           f"{spread / abs(fits[0.5].slope):.2%} <= 15%")


def test_criterion_06_frequency_bounds(p_default, profile_i1_mu0,
                                       profile_i1_mu1, series2):
    """Growth bounds: elliptic U at mu = 0 and mu = 1, parabolic N."""
    st0 = profile_state(profile_i1_mu0)
    scan0 = elliptic_scan(st0, np.geomspace(0.04, 0.13, 32))
    g = scan0.scale ** (2 * p_default.eps) * scan0.UN
    defect0, _ = check_U_growth(st0, scan0)
    mono_ok = defect0 <= 1e-9 * np.max(g)

    st1 = profile_state(profile_i1_mu1)
    _, C64 = check_U_growth(st1, elliptic_scan(st1, np.geomspace(0.04, 0.13, 64)))
    _, C128 = check_U_growth(st1, elliptic_scan(st1, np.geomspace(0.04, 0.13, 128)))
    c_ok = math.isfinite(C64) and abs(C64 - C128) <= 0.1 * C64

    grid = np.geomspace(0.05, 0.5, 10)
    scan = parabolic_scan(series2, grid)
    n_defect, n_C = check_N_bound(series2, scan)
    nvals = scan.UN * grid ** (2 * p_default.eps)
    par_ok = n_defect <= 1e-6 and np.all(np.isfinite(nvals)) \
        and math.isfinite(n_C)

    ok = mono_ok and c_ok and par_ok
    report(6, ok,
           f"mu=0: r^2eps U monotone (defect {defect0:.1e}); mu=1: C "
           f"{C64:.3f} stable within 10% ({abs(C64 - C128) / C64:.2%}); "
           f"parabolic N R^2eps bounded (C {n_C:.3f}), (log N)' >= -2eps/R "
           f"defect {n_defect:.1e}")


def test_criterion_07_lower_bounds(profile_i1_mu1, series2):
    """Sub-double-exponential floors for I(r) and D(R)."""
    st = profile_state(profile_i1_mu1)
    scan_e = elliptic_scan(st, np.geomspace(0.04, 0.13, 64))
    fit_i = check_I_lower(st, scan_e)
    rng_i = np.log(scan_e.I).max() - np.log(scan_e.I).min()

    grid = np.geomspace(0.02, 0.2, 10)
    scan_p = parabolic_scan(series2, grid)
    fit_d = check_D_lower(series2, scan_p)
    rng_d = np.log(scan_p.ED).max() - np.log(scan_p.ED).min()

    ok = fit_i.slope >= 0 and fit_i.max_residual <= 0.10 * rng_i \
        and fit_d.slope >= 0 and fit_d.max_residual <= 0.10 * rng_d
    report(7, ok,
           f"I-floor slope {fit_i.slope:.3f} >= 0 (residual "
           f"{fit_i.max_residual / rng_i:.2%}), D-floor slope "
           f"{fit_d.slope:.3f} >= 0 (residual {fit_d.max_residual / rng_d:.2%})")


def test_criterion_08_oracle_equivalence(profile_i1_mu1, p_default):
    """1-D reductions of I, E, D match 2-D product quadrature to 1e-6."""
    st = profile_state(profile_i1_mu1)
    worst = 0.0
    for r in (0.06, 0.09, 0.12):
        I, E = scan_at(st, r)
        worst = max(worst, abs(I / oracle_I_2d(st, r, p_default) - 1))
        worst = max(worst, abs(E / oracle_E_2d(st, r, p_default) - 1))
    for R in (0.02, 0.03, 0.04):
        D = parabolic_IDN(st, R)[1]
        worst = max(worst, abs(D / oracle_D_2d(st, R, p_default) - 1))
    ok = worst <= 1e-6
    report(8, ok, f"I, E, D vs product quadrature: worst relative "
                  f"difference {worst:.2e} <= 1e-6 at three scales each")


def test_criterion_09_spectral_structure(pairs8_rout2, pairs12_rout16,
                                         p_default):
    """Spectrum: simplicity, oscillation, domain monotonicity, growth fit."""
    nus = [q.nu for q in pairs8_rout2]
    simple = all(b > a for a, b in zip(nus, nus[1:]))
    interlaced = [q.zeros for q in pairs8_rout2] == list(range(8))
    monotone = all(w.nu < n.nu for w, n in zip(pairs8_rout2,
                                               pairs12_rout16[:8]))
    js = np.arange(1, 13, dtype=float)
    fit = fit_line(np.log(js), np.log([q.nu for q in pairs12_rout16]))
    lo, hi = 2 / p_default.bigN - 0.1, 2.1
    ok = simple and interlaced and monotone and lo <= fit.slope <= hi
    report(9, ok,
           f"8 simple eigenvalues, zeros 0..7, monotone in r_out, growth "
           f"exponent {fit.slope:.3f} in [{lo:.2f}, {hi:.2f}]")


def test_criterion_10_special_functions(p_default):
    """Bessel identities, half-integer closed forms, unit caloric mass."""
    worst_w = worst_r = 0.0
    for nu in (0.0, 0.5, 1.375, 5.0):
        for x in (0.1, 0.7, 2.0, 7.0, 20.0, 50.0):
            w = bessel_j(nu, x) * special.yvp(nu, x) \
                - special.jvp(nu, x) * special.yv(nu, x)
            worst_w = max(worst_w, abs(w / (2 / (math.pi * x)) - 1))
            jm, jp = special.jv(nu - 1, x), bessel_j(nu + 1, x)
            rhs = (2 * nu / x) * bessel_j(nu, x)
            # relative to the recurrence members (rhs is exactly 0 at nu = 0)
            worst_r = max(worst_r,
                          abs(jm + jp - rhs) / max(abs(rhs), abs(jm), abs(jp)))
    half_ok = (
        abs(bessel_j(0.5, math.pi / 2) - 2 / math.pi) <= 1e-12 * (2 / math.pi)
        and abs(special.yv(0.5, math.pi) - math.sqrt(2) / math.pi)
        <= 1e-12 * (math.sqrt(2) / math.pi)
        and abs(bessel_j(1.5, 2.0) - math.sqrt(1 / math.pi)
                * (math.sin(2.0) / 2.0 - math.cos(2.0))) <= 1e-12)

    u1 = UnitCaloric(p_default)
    closed = sphere_area(p_default.n) * 2 ** (p_default.c + 1 - p_default.n) \
        * oracle_gamma((p_default.c + 1) / 2)
    masses = [parabolic_IDN(u1, float(R))[1] for R in np.geomspace(0.05, 0.5, 7)]
    mass_ok = (max(masses) - min(masses)) <= 1e-8 * max(masses) \
        and abs(masses[0] / closed - 1) <= 1e-8

    ok = worst_w <= 1e-8 and worst_r <= 1e-8 and half_ok and mass_ok
    report(10, ok,
           f"Wronskian defect {worst_w:.1e} <= 1e-8, recurrence defect "
           f"{worst_r:.1e} <= 1e-8, half-integer closed forms to 1e-12, "
           f"unit caloric mass constant and equal to the Gamma value to 1e-8")


def test_criterion_11_time_analyticity(series2):
    """Taylor radius of the two-pair series at t0 = 0.5."""
    rho16 = analyticity_probe(series2, 0.8, 0.5, 16)
    rho24 = analyticity_probe(series2, 0.8, 0.5, 24)
    ok = rho16 >= 0.5 and rho24 >= rho16 * (1 - 1e-12)
    report(11, ok,
           f"fitted radius {rho16:.4f} >= t0 = 0.5 at kmax = 16, and "
           f"{rho24:.4f} does not decrease at kmax = 24")
