import math

import numpy as np
import pytest
from support import oracle_D_2d, oracle_gamma, oracle_I_par_2d

from hornlab import (CaloricSeries, ConsistencyError, DomainValidationError,
                     UnitCaloric, check_D_lower, check_ID_relation,
                     check_N_bound, kernel_log, make_caloric_series,
                     parabolic_IDN, parabolic_scan, profile_state,
                     sphere_area)


@pytest.fixture(scope="module")
def mode_caloric(profile_i1_mu1):
    # the mode state is its own caloric extension exp(-mu t) f phi_i
    return profile_state(profile_i1_mu1)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_exponent(p_default):
    # at r = 0, t = -e the kernel is exactly minus its exponent (c+1)/2
    p = p_default
    assert kernel_log(p, 0.0, -math.e) == -(p.c + 1) / 2
    assert kernel_log(p, 0.0, -math.e) == pytest.approx(-2.375, abs=0)
    # exponent equals (N + (n-1) eps - (N-n) eta)/2
    alt = (p.bigN + (p.n - 1) * p.eps - (p.bigN - p.n) * p.eta) / 2.0
    assert -kernel_log(p, 0.0, -math.e) == pytest.approx(alt, rel=1e-15)


def test_kernel_log_values(p_default):
    assert kernel_log(p_default, 0.0, -1.0) == 0.0
    assert kernel_log(p_default, 2.0, -1.0) == pytest.approx(-1.0, rel=1e-14)
    with pytest.raises(DomainValidationError):
        kernel_log(p_default, 1.0, 0.0)
    with pytest.raises(DomainValidationError):
        kernel_log(p_default, 1.0, 0.5)


def test_kernel_parabolic_scaling(p_default):
    # kernel_log(r, t) = kernel_log(r/s, t/s^2) - (c+1) log s
    exponent = (p_default.c + 1) / 2
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = float(rng.uniform(0.1, 3.0))
        t = -float(rng.uniform(0.1, 2.0))
        s = float(rng.uniform(0.5, 2.0))
        lhs = kernel_log(p_default, r, t)
        rhs = kernel_log(p_default, r / s, t / s ** 2) \
            - 2.0 * exponent * math.log(s)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# unit caloric: closed-form mass
# ---------------------------------------------------------------------------


def test_unit_caloric_closed_form(p_default):
    u = UnitCaloric(p_default)
    closed = sphere_area(p_default.n) * 2.0 ** (p_default.c + 1 - p_default.n) \
        * oracle_gamma((p_default.c + 1) / 2.0)
    vals = []
    for R in np.geomspace(0.05, 0.5, 7):
        I, D, N = parabolic_IDN(u, float(R))
        assert I == 0.0
        assert N == 0.0
        assert D == pytest.approx(closed, rel=1e-8)
        vals.append(D)
    # constant in R to 1e-8 relative
    assert max(vals) - min(vals) <= 1e-8 * max(vals)


def test_unit_caloric_identity_and_bounds(p_default):
    u = UnitCaloric(p_default)
    assert check_ID_relation(u, 0.2, 2e-4) <= 1e-9
    scan = parabolic_scan(u, np.geomspace(0.05, 0.5, 10))
    defect, C = check_N_bound(u, scan)
    assert defect == 0.0
    assert C == 0.0
    fit = check_D_lower(u, scan)
    assert fit.slope == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("kind", ["series", "unit"])
def test_batched_slices_equal_single_slices(kind, series2, p_default):
    # parabolic_scan and check_ID_relation run all their slices in one
    # quad_log call; each slice is bitwise the one-slice parabolic_IDN
    u = series2 if kind == "series" else UnitCaloric(p_default)
    R = np.geomspace(0.02, 0.2, 7)
    scan = parabolic_scan(u, R)
    for k, Rk in enumerate(R):
        assert (scan.I[k], scan.ED[k], scan.UN[k]) == \
            parabolic_IDN(u, float(Rk))
    Rc, h = 0.06, 6e-5
    I, _, _ = parabolic_IDN(u, Rc)
    Dp, Dm = parabolic_IDN(u, Rc + h)[1], parabolic_IDN(u, Rc - h)[1]
    fd = (Rc / 4.0) * (Dp - Dm) / (2.0 * h)
    scale = max(abs(I), abs(fd), (abs(Dp) + abs(Dm)) / 8.0)
    assert check_ID_relation(u, Rc, h) == abs(I - fd) / scale


def test_unit_caloric_time_derivatives(p_default):
    # u == 1: sqrt(area) at k = 0, an exact zero for every k >= 1
    u = UnitCaloric(p_default)
    assert u.slice_log(0.3, 0.5)[:2] == \
        (1, 0.5 * math.log(sphere_area(p_default.n)))
    for k in (1, 2, 3):
        assert u.slice_log(0.3, 0.5, k)[:2] == (0, -math.inf)


# ---------------------------------------------------------------------------
# one caloric state type
# ---------------------------------------------------------------------------


def test_every_caloric_state_is_a_series(p_default, mode_caloric,
                                         profile_i1_mu1):
    # a mode state and u == 1 are each one term of CaloricSeries, the one
    # state type: one row of its evaluator, at the rate mu of L u = -mu u
    unit = UnitCaloric(p_default)
    for u, rate in ((mode_caloric, profile_i1_mu1.mu), (unit, 0.0)):
        assert type(u) is CaloricSeries
        assert u.rates.tolist() == [rate] and len(u.coeffs) == 1
    assert mode_caloric.coeffs.tolist() == [1.0]
    assert mode_caloric.sphere_index == profile_i1_mu1.i
    assert mode_caloric.r_support == (profile_i1_mu1.r_min,
                                      profile_i1_mu1.r_max)
    assert unit.coeffs.tolist() == [math.sqrt(sphere_area(p_default.n))]


def test_mode_caloric_on_eigenpair_matches_series(pairs8_rout2):
    # the one-term series of an eigenpair is its mode state exp(-nu t) g
    # phi_i: slice_log reads the term's evaluator, shifted by -nu t and,
    # for d^k/dt^k, by k log nu with the sign (-1)^k
    pair = pairs8_rout2[1]
    series = make_caloric_series([pair], [1.0], 0.25)
    assert series.r_support == (pair.g.r_min, pair.r_out)
    nu, = series.rates.tolist()
    assert nu == pair.nu and series.coeffs.tolist() == [1.0]
    r = np.geomspace(0.02, 1.9, 40)
    sign, lm, ld = series.radial(r, 0)
    for k in range(4):
        sF, lF, sD, lD = series.slice_log(r, 0.5, k)
        np.testing.assert_array_equal(sF, sign * (-1.0) ** k)
        np.testing.assert_array_equal(sD, sF * np.sign(ld))
        np.testing.assert_allclose(lF, lm - 0.5 * nu + k * math.log(nu),
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(lD, lF + np.log(np.abs(ld)),
                                   rtol=1e-14, atol=0.0)


def test_zero_rate_term_has_exact_zero_time_derivatives(profile_i1_mu0):
    # a mu = 0 state does not change in time: d^k/dt^k = 0 exactly, k >= 1
    mc = profile_state(profile_i1_mu0)
    sign, log, _, _ = mc.slice_log(0.05, 0.5)
    assert sign == 1 and math.isfinite(log)
    for k in (1, 2, 3):
        assert mc.slice_log(0.05, 0.5, k)[:2] == (0, -math.inf)


# ---------------------------------------------------------------------------
# separated modes
# ---------------------------------------------------------------------------


def test_mode_caloric_reduction_matches_product_quadrature(mode_caloric,
                                                           p_default):
    for R in (0.02, 0.03, 0.04):
        _, D, _ = parabolic_IDN(mode_caloric, R)
        assert D == pytest.approx(oracle_D_2d(mode_caloric, R, p_default),
                                  rel=1e-6)



def test_slice_gradient_integral_matches_product_quadrature(
        mode_caloric, series2, p_default):
    # the I rows of a slice against the same integral summed over
    # (radius, polar angle) from the series' own F and F_r
    for u, R in [(mode_caloric, 0.02), (mode_caloric, 0.03),
                 (mode_caloric, 0.04), (series2, 0.3)]:
        I, _, _ = parabolic_IDN(u, R)
        assert I == pytest.approx(oracle_I_par_2d(u, R, p_default),
                                  rel=1e-10)

def test_mode_caloric_N_nonnegative(mode_caloric):
    for R in (0.01, 0.02, 0.05):
        I, D, N = parabolic_IDN(mode_caloric, R)
        assert I >= 0.0 and D > 0.0 and N >= 0.0


def test_parabolic_scan_rows(mode_caloric):
    grid = np.geomspace(0.01, 0.05, 8)
    scan = parabolic_scan(mode_caloric, grid)
    assert scan.kind == "parabolic"
    ratio = scan.I / scan.ED
    assert np.max(np.abs(scan.UN - ratio)) <= 1e-12 * np.max(np.abs(ratio))


# ---------------------------------------------------------------------------
# identity: I = (R/4) D'
# ---------------------------------------------------------------------------


def test_ID_relation_single_eigenmode(pairs8_rout2, p_default):
    from hornlab import make_caloric_series
    single = make_caloric_series(pairs8_rout2[:1], [1.0], t_min=0.05)
    R = 0.3
    d1 = check_ID_relation(single, R, 1e-3 * R)
    d2 = check_ID_relation(single, R, 5e-4 * R)
    assert d1 <= 1e-4
    assert d1 / d2 == pytest.approx(4.0, abs=0.7)


def test_mode_state_passes_into_parabolic_functionals(mode_caloric):
    # profile_state's series goes into parabolic_IDN and check_ID_relation
    # as it is; at a scale whose Gaussian lies inside the profile window
    # the identity holds to its central-difference error, O(h^2)
    st = mode_caloric
    R = 0.01
    I, D, N = parabolic_IDN(st, R)
    assert I > 0.0 and D > 0.0 and N == I / D
    d1 = check_ID_relation(st, R, 1e-3 * R)
    d2 = check_ID_relation(st, R, 5e-4 * R)
    assert d1 <= 1e-4
    assert d1 / d2 == pytest.approx(4.0, abs=0.7)


def test_ID_relation_two_mode(series2):
    R = 0.3
    d1 = check_ID_relation(series2, R, 1e-3 * R)
    d2 = check_ID_relation(series2, R, 5e-4 * R)
    assert d1 <= 1e-4
    assert d1 / d2 == pytest.approx(4.0, abs=0.7)


def test_ID_relation_rejects_bad_h(series2):
    with pytest.raises(DomainValidationError):
        check_ID_relation(series2, 0.1, 0.2)


# ---------------------------------------------------------------------------
# N and D bounds on series states
# ---------------------------------------------------------------------------


def test_N_bound_series(series2, p_default):
    grid = np.geomspace(0.05, 0.5, 10)
    scan = parabolic_scan(series2, grid)
    defect, C = check_N_bound(series2, scan)
    assert defect <= 1e-3
    assert 0 < C < 20.0
    # N R^(2eps) bounded across the decade
    vals = scan.UN * grid ** (2 * p_default.eps)
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)


def test_N_bound_single_lowest_mode(pairs8_rout2, p_default):
    # the lowest mode alone: N R^(2eps) bounded across a decade of scales
    from hornlab import make_caloric_series
    single = make_caloric_series(pairs8_rout2[:1], [1.0], t_min=0.002)
    scan = parabolic_scan(single, np.geomspace(0.05, 0.5, 10))
    defect, C = check_N_bound(single, scan)
    assert defect <= 1e-6
    assert math.isfinite(C) and C > 0


def test_D_lower_series(series2):
    scan = parabolic_scan(series2, np.geomspace(0.02, 0.2, 10))
    fit = check_D_lower(series2, scan)
    rng = np.log(scan.ED).max() - np.log(scan.ED).min()
    assert fit.slope >= 0.0
    assert fit.max_residual <= 0.10 * rng
    # slope stable under grid refinement
    fit2 = check_D_lower(series2,
                         parabolic_scan(series2, np.geomspace(0.02, 0.2, 20)))
    assert abs(fit2.slope - fit.slope) <= 0.1 * abs(fit.slope)


@pytest.mark.parametrize("coeffs, R, at", [
    ([1.0, 0.7], [0.1, 1.0, 4.0, 5.0], "4.0"),  # exp(2 nu_2 R^2) at R = 4
    ([1e300, 1e300], [0.1, 0.2], "0.1"),
])
def test_slice_past_double_range_names_R(pairs8_rout2, coeffs, R, at):
    # D and I carry exp(2 nu R^2) and the squared coefficients: a slice
    # whose D or I leaves the double range is named, not overflowed
    series = make_caloric_series(pairs8_rout2[:2], coeffs, t_min=0.25)
    with pytest.raises(ConsistencyError, match="D or I overflows the double "
                       f"range on the slice R = {at}:"):
        parabolic_scan(series, R)


def test_parabolic_IDN_rejects_bad_R(series2):
    with pytest.raises(DomainValidationError, match="R = -0.1"):
        parabolic_IDN(series2, -0.1)
    # an increasing grid from 0: the error names the slice at fault, not a
    # function the scan did not call
    with pytest.raises(DomainValidationError,
                       match=r"need R > 0, got R = 0\.0"):
        parabolic_scan(series2, [0.0, 0.1, 0.2])
