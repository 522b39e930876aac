import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq
from support import oracle_E_2d, oracle_I_2d, scan_at

from hornlab import (ConsistencyError, DomainValidationError, bessel_state, check_I_lower, check_logI_identity,
                     check_U_growth, constant_state, elliptic_scan,
                     gamma_real, make_caloric_series, profile_state)
from hornlab.modes import _bounded_branch, radial_mode_zero_log
from hornlab.numerics import bessel_j


@pytest.fixture(scope="module")
def state_i1_mu1(profile_i1_mu1):
    return profile_state(profile_i1_mu1)


@pytest.fixture(scope="module")
def scan_i1_mu1(state_i1_mu1):
    return elliptic_scan(state_i1_mu1, np.geomspace(0.04, 0.13, 64))


# ---------------------------------------------------------------------------
# I
# ---------------------------------------------------------------------------


def test_I_constant_closed_form(p_default):
    st = constant_state(p_default, (0.01, 2.0))
    # I(r) = 2^(1-n) r^(c+1-n)
    assert scan_at(st, 1.0)[0] == pytest.approx(0.25, rel=1e-14)
    for r in (0.05, 0.5, 1.7):
        assert scan_at(st, r)[0] == pytest.approx(
            0.25 * r ** (p_default.c + 1 - p_default.n), rel=1e-13)


def test_bessel_radial_log_matches_scalar_branch(p_default):
    # the array evaluation against the per-radius scalar formulas, from
    # r = 0 and the x < 1e-8 series branch past the first node of J_nu
    mu = 2.0
    st = bessel_state(p_default, mu, (0.01, 0.5))
    nu = (p_default.c - 1.0) / 2.0
    limit = mu ** (nu / 2.0) / (2.0 ** nu * gamma_real(nu + 1.0))
    r = np.concatenate([[0.0, 1e-12, 5e-9], np.geomspace(1e-6, 5.0, 60)])
    sign, lm, ld = st.radial(r, 0)
    assert np.any(sign < 0)
    for k, rr in enumerate(r.tolist()):
        x = rr * math.sqrt(mu)
        f = limit * (1.0 - x * x / (4.0 * (nu + 1.0))) if x < 1e-8 \
            else bessel_j(nu, x) * rr ** (-nu)
        der = -math.sqrt(mu) * bessel_j(nu + 1.0, x) / bessel_j(nu, x) \
            if x > 0 else 0.0
        assert _bounded_branch(p_default, mu, rr)[2] == pytest.approx(
            f, rel=1e-15)
        assert sign[k] == math.copysign(1.0, f)
        assert sign[k] * math.exp(lm[k]) == pytest.approx(f, rel=1e-15)
        assert ld[k] == pytest.approx(der, rel=1e-15, abs=0.0)
    with pytest.raises(DomainValidationError):
        radial_mode_zero_log(p_default, mu, np.array([0.5, -1e-3]))


def test_bessel_radial_log_evaluates_each_order_once(p_default, monkeypatch):
    # one J_nu and one J_(nu+1) evaluation per call, each on all radii at
    # once, and bitwise the bounded branch and -sqrt(mu) J_(nu+1) / J_nu
    mu = 2.0
    nu = (p_default.c - 1.0) / 2.0
    r = np.geomspace(1e-6, 5.0, 40)
    x = r * math.sqrt(mu)
    want_f = _bounded_branch(p_default, mu, r)[2]
    want_ld = -math.sqrt(mu) * bessel_j(nu + 1.0, x) / bessel_j(nu, x)
    jv, orders = special.jv, []

    def counted(order, xs):
        orders.append(order)
        return jv(order, xs)

    monkeypatch.setattr(special, "jv", counted)
    sign, lm, ld = bessel_state(p_default, mu, (0.01, 0.5)).radial(r, 0)
    assert sorted(orders) == [nu, nu + 1.0]
    assert np.array_equal(sign, np.sign(want_f))
    assert np.array_equal(lm, np.log(np.abs(want_f)))
    assert np.array_equal(ld, want_ld)


def test_I_matches_product_quadrature(state_i1_mu1, p_default):
    for r in (0.06, 0.09, 0.12):
        assert scan_at(state_i1_mu1, r)[0] == pytest.approx(
            oracle_I_2d(state_i1_mu1, r, p_default), rel=1e-6)


def test_I_outside_domain(state_i1_mu1):
    with pytest.raises(DomainValidationError):
        scan_at(state_i1_mu1, 0.2)
    with pytest.raises(DomainValidationError):
        scan_at(state_i1_mu1, math.nan)


def test_elliptic_functionals_refuse_several_terms(series2, scan_i1_mu1):
    # an elliptic state is one term of rate mu; a two-term series has no
    # single lam = -mu, and each functional says how many terms it got
    calls = [lambda: elliptic_scan(series2, np.geomspace(0.1, 0.5, 8)),
             lambda: check_U_growth(series2, scan_i1_mu1)]
    for call in calls:
        with pytest.raises(DomainValidationError, match="got 2 terms"):
            call()


def test_elliptic_functionals_read_the_coefficient(state_i1_mu1):
    # a one-term state c f: I and E scale by c^2 whatever the sign of c
    scaled = replace(state_i1_mu1, coeffs=np.array([-3.0]))
    (I3, E3), (I1, E1) = scan_at(scaled, 0.1), scan_at(state_i1_mu1, 0.1)
    assert I3 == pytest.approx(9.0 * I1, rel=1e-14)
    assert E3 == pytest.approx(9.0 * E1, rel=1e-12)


def test_eigenpair_state_energy_starts_at_support_bottom(pairs8_rout2):
    # an eigenfunction is represented, and normalized, only down to its
    # support bottom, so its bulk energy starts there, not at r = 0
    series = make_caloric_series(pairs8_rout2[:1], [1.0], t_min=0.25)
    scan = elliptic_scan(series, np.geomspace(0.05, 0.5, 16))
    assert scan.ED[-1] == pytest.approx(scan_at(series, 0.5)[1], rel=1e-12)
    assert check_U_growth(series, scan)[0] == 0.0


# ---------------------------------------------------------------------------
# E
# ---------------------------------------------------------------------------


def test_E_constant_state_zero(p_default):
    st = constant_state(p_default, (0.01, 2.0))
    assert scan_at(st, 0.7)[1] == 0.0


def test_E_positive_on_tip_region(state_i1_mu1):
    # f and f' share sign toward the tip: the energy is positive there
    assert scan_at(state_i1_mu1, 0.1)[1] > 0.0


def test_E_bulk_boundary_agreement(state_i1_mu1):
    # elliptic_scan enforces the agreement internally; a successful call at
    # r = 0.1 certifies the two routes match to 1e-6 of the energy scale
    # (the bulk route passes the floor w f f'(r_lo) with its integral)
    from hornlab.elliptic import _bulk_integrals, _checked_energy, _flux
    lo, r = np.array([state_i1_mu1.r_support[0]]), np.array([0.1])
    integral = _bulk_integrals(state_i1_mu1, lo, r, 1e-10)
    floor = _flux(state_i1_mu1.params, lo, state_i1_mu1.radial(lo, 0))
    (bulk,), (bdry,), (scale,) = _checked_energy(
        state_i1_mu1, -1.0, r, state_i1_mu1.radial(r, 0), integral + floor)
    assert bulk == pytest.approx(bdry, abs=1e-6 * max(scale, abs(bulk)))


def test_bulk_integrals_skip_empty_rows(state_i1_mu1):
    # an empty segment (b <= a) is 0; when every segment is empty, as for a
    # one-radius scan at r_support[0], no quad_log call is made (it refuses an
    # empty batch)
    from hornlab.elliptic import _bulk_integrals
    lo = state_i1_mu1.r_support[0]
    none = _bulk_integrals(state_i1_mu1, np.array([lo]), np.array([lo]), 1e-10)
    assert none.tolist() == [0.0]
    some = _bulk_integrals(state_i1_mu1, np.array([lo, lo]),
                           np.array([lo, 0.1]), 1e-10)
    assert some[0] == 0.0 and some[1] > 0.0


def test_E_matches_product_quadrature(state_i1_mu1, p_default):
    for r in (0.06, 0.09, 0.12):
        assert scan_at(state_i1_mu1, r)[1] == pytest.approx(
            oracle_E_2d(state_i1_mu1, r, p_default), rel=1e-6)


def test_E_bessel_matches_mpmath_integral_from_the_tip(p_default):
    # E of a Bessel state on (0.01, 0.5) against mpmath's integral of the
    # closed-form density from r = 0 (measured: 2.7e-15 apart); the floor
    # w f f'(0.01) carries 3.7% of E at r = 0.02, so a scan that dropped it
    # would fail here
    mu, grid = 1.5, np.array([0.02, 0.1, 0.3])
    E = elliptic_scan(bessel_state(p_default, mu, (0.01, 0.5)), grid).ED
    nu, k = mp.mpf(p_default.c - 1) / 2, mp.sqrt(mu)

    def density(s):
        f = mp.besselj(nu, k * s) * s ** -nu
        df = -k * mp.besselj(nu + 1, k * s) * s ** -nu
        return (df * df - mu * f * f) * 2 ** (1 - p_default.n) \
            * s ** p_default.c

    with mp.workdps(30):
        for r, got in zip(grid.tolist(), E.tolist()):
            want = r ** (2 - p_default.n) * mp.quad(density, [0, 0.01, r])
            assert got == pytest.approx(float(want), rel=1e-13)


def test_E_bessel_negative_near_tip(p_default):
    # lam = -mu < 0 makes E negative where the gradient term is small;
    # reported, with no growth claim in that regime
    st = bessel_state(p_default, 1.0, (0.001, 1.0))
    assert scan_at(st, 0.05)[1] < 0.0


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_scan_rows_invariants(scan_i1_mu1):
    assert np.all(np.diff(scan_i1_mu1.scale) > 0)
    assert np.all(scan_i1_mu1.I > 0)
    ratio = scan_i1_mu1.ED / scan_i1_mu1.I
    assert np.max(np.abs(scan_i1_mu1.UN - ratio)) <= 1e-12 * np.max(np.abs(ratio))


@pytest.mark.parametrize("kind", ["profile", "bessel"])
def test_scan_rows_match_scalar_functionals(kind, state_i1_mu1, p_default):
    # one evaluation of the state on the grid, and one quad_log call for
    # all its segments, give the rows that one-radius scans give one at a
    # time
    if kind == "profile":
        st, grid = state_i1_mu1, np.geomspace(0.04, 0.13, 12)
    else:
        st, grid = bessel_state(p_default, 1.5, (0.01, 0.5)), \
            np.geomspace(0.02, 0.45, 12)
    scan = elliptic_scan(st, grid)
    for k, r in enumerate(grid):
        I, E = scan_at(st, r)
        assert scan.I[k] == pytest.approx(I, rel=1e-12)
        assert scan.ED[k] == pytest.approx(E, rel=1e-14)


def test_scan_constant_U_zero(p_default):
    st = constant_state(p_default, (0.01, 2.0))
    scan = elliptic_scan(st, np.geomspace(0.02, 0.13, 16))
    assert np.all(scan.UN == 0.0)
    assert np.all(scan.ED == 0.0)


def test_scan_aborts_on_nodal_sphere(p_default):
    mu = 900.0
    st = bessel_state(p_default, mu, (0.01, 0.5))
    root = brentq(lambda r: _bounded_branch(p_default, mu, r)[2], 0.1, 0.2,
                  xtol=1e-14)
    grid = np.sort(np.concatenate([np.geomspace(0.05, 0.4, 16), [root]]))
    with pytest.raises(ConsistencyError, match="nodal"):
        elliptic_scan(st, grid)


def test_scan_U_grows_toward_tip(scan_i1_mu1, p_default):
    # U increases toward r -> 0 and r^(2eps) U stays bounded
    U = scan_i1_mu1.UN
    assert U[0] > U[-1]
    assert np.max(U * scan_i1_mu1.scale ** (2 * p_default.eps)) < 10.0


def test_scan_requires_increasing_grid(state_i1_mu1):
    with pytest.raises(DomainValidationError):
        elliptic_scan(state_i1_mu1, np.array([0.1, 0.05]))


# ---------------------------------------------------------------------------
# identity and bounds
# ---------------------------------------------------------------------------


def test_logI_identity_constant_state(p_default):
    # closed form on both sides: defect at rounding level
    st = constant_state(p_default, (0.01, 2.0))
    scan = elliptic_scan(st, np.geomspace(0.02, 0.13, 32))
    assert check_logI_identity(st, scan) <= 1e-12


def test_logI_identity_constant_value(p_default):
    assert p_default.c - p_default.n + 1 == pytest.approx(1.75, abs=0)


def test_logI_identity_second_order(state_i1_mu1):
    defects = {}
    for n_pts in (64, 128, 256):
        scan = elliptic_scan(state_i1_mu1, np.geomspace(0.04, 0.13, n_pts))
        defects[n_pts] = check_logI_identity(state_i1_mu1, scan)
    assert defects[64] <= 1e-3
    order1 = math.log2(defects[64] / defects[128])
    order2 = math.log2(defects[128] / defects[256])
    assert order1 >= 1.9
    assert order2 >= 1.9


def test_logI_identity_wide_window(p_default):
    # over the widest tip window the 64-point defect sits just above 1e-3
    # and still quarters under refinement
    from hornlab import profile_from_k2
    prof = profile_from_k2(p_default, 1, 1.0, 0.0075, 64)
    st = profile_state(prof)
    d64 = check_logI_identity(st, elliptic_scan(st, np.geomspace(0.02, 0.13, 64)))
    d128 = check_logI_identity(st, elliptic_scan(st, np.geomspace(0.02, 0.13, 128)))
    assert d64 <= 2e-3
    assert math.log2(d64 / d128) >= 1.9


def test_U_growth_constant(p_default):
    st = constant_state(p_default, (0.01, 2.0))
    scan = elliptic_scan(st, np.geomspace(0.02, 0.13, 16))
    defect, C = check_U_growth(st, scan)
    assert defect == 0.0
    assert C == 0.0


def test_U_growth_harmonic_monotone(profile_i1_mu0):
    # lam = 0: r^(2eps) U non-decreasing row to row
    st = profile_state(profile_i1_mu0)
    scan = elliptic_scan(st, np.geomspace(0.04, 0.13, 32))
    g = scan.scale ** (2 * st.params.eps) * scan.UN
    assert np.all(np.diff(g) >= -1e-9 * np.abs(g[:-1]))
    defect, _ = check_U_growth(st, scan)
    assert defect <= 1e-9 * np.max(g)


def test_U_growth_mu1_constant_stable(state_i1_mu1, scan_i1_mu1):
    d1, C1 = check_U_growth(state_i1_mu1, scan_i1_mu1)
    scan2 = elliptic_scan(state_i1_mu1, np.geomspace(0.04, 0.13, 128))
    d2, C2 = check_U_growth(state_i1_mu1, scan2)
    assert math.isfinite(C1) and C1 > 0
    assert abs(C1 - C2) <= 0.1 * C1
    assert d1 <= 1e-9 * C1 and d2 <= 1e-9 * C2


def test_fine_scan_holds_each_segment_to_tol(state_i1_mu1):
    # each segment is held to tol against its own int |f|, so a 2000-row
    # scan at tol 1e-12 closes (tol divided among its rows sank below the
    # quadrature's rounding), and at the top radius it shares with the
    # 64-row scan both give U to ten times tol (measured: 3e-16 apart)
    fine, coarse = (elliptic_scan(state_i1_mu1,
                                  np.geomspace(0.04, 0.13, n), tol=1e-12)
                    for n in (2000, 64))
    assert fine.scale[-1] == coarse.scale[-1]
    assert fine.UN[-1] == pytest.approx(coarse.UN[-1], rel=1e-11)


def test_I_lower_profile(state_i1_mu1, scan_i1_mu1):
    fit = check_I_lower(state_i1_mu1, scan_i1_mu1)
    rng = np.log(scan_i1_mu1.I).max() - np.log(scan_i1_mu1.I).min()
    assert fit.slope > 0
    assert fit.max_residual <= 0.10 * rng
    # slope stable under refinement
    scan2 = elliptic_scan(state_i1_mu1, np.geomspace(0.04, 0.13, 128))
    fit2 = check_I_lower(state_i1_mu1, scan2)
    assert abs(fit.slope - fit2.slope) <= 0.1 * abs(fit.slope)


def test_I_lower_constant_narrow_window(p_default):
    # power-law I over a narrow window: the fitted slope approaches the
    # linearization value (c + 1 - n) / (2 eps), far below any genuine
    # exponential-floor coefficient
    st = constant_state(p_default, (0.5, 2.0))
    scan = elliptic_scan(st, np.geomspace(1.0, 1.1, 16))
    fit = check_I_lower(st, scan)
    expected = (p_default.c + 1 - p_default.n) / (2 * p_default.eps)
    assert fit.slope == pytest.approx(expected, rel=0.05)
